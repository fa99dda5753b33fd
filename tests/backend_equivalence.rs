//! The differential backend harness: NativeSimd against the TracedSimt
//! reference.
//!
//! The two compute backends share the lane bodies, the seeded-Simpson
//! plans, the CSR cell lists, and the pooled lane scratch; they differ only
//! in how lanes are driven (warp-lockstep replay with op recording vs.
//! plain indexed parallel loops) and in NativeSimd's vectorized,
//! reassociated integrand gather. NativeSimd is held to the DESIGN.md §17
//! contract: deterministic (bit-identical run-to-run and across pool widths
//! 0/1/2/4), exactly equal fallback cells / launches / integrand
//! eval+replay counts, for all three kernels, on any lattice.
//!
//! The potentials themselves are compared by ulp distance on the two
//! canonical lattices only, where the measured divergence is ≤ 4 ulp per
//! step. That number is a measurement on those lattices, not a bound: on an
//! arbitrary small grid (resolution 9, 631 particles, τ = 1e-5,
//! Predictive-RP, bunch seed 13647529555890412548) one point sat 14 ulp
//! from traced at step 0 with every count equal. The arbitrary-grid
//! property below therefore pins counts only. The golden corpus
//! (`tests/rp_golden.rs`) additionally pins both backends to committed bit
//! patterns.

use std::sync::Mutex;

use beamdyn::beam::{GaussianBunch, RpConfig};
use beamdyn::core::{BackendKind, KernelKind, Simulation, SimulationConfig};
use beamdyn::par::ThreadPool;
use beamdyn::pic::GridGeometry;
use beamdyn::simt::DeviceConfig;
use proptest::prelude::*;

/// Serializes the tests in this binary: per-step integrand eval/replay
/// deltas are read from process-global counters, so concurrent simulations
/// would pollute each other's deltas.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// One step's complete observable outcome, everything bit-comparable.
#[derive(Debug, Clone, PartialEq)]
struct StepRecord {
    potentials: Vec<u64>,
    errors: Vec<u64>,
    fallback_cells: usize,
    launches: usize,
    /// Fresh integrand evaluations this step (global-counter delta).
    evals: u64,
    /// Reused-abscissa replays this step (global-counter delta).
    replays: u64,
}

/// The two canonical lattices of the experiment harness: the drifting
/// elongated bunch (collective-effect patterns evolve step over step) and
/// the rigid centred validation bunch.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lattice {
    Drift,
    Rigid,
}

const LATTICES: [Lattice; 2] = [Lattice::Drift, Lattice::Rigid];

fn workload(lattice: Lattice, kernel: KernelKind) -> (SimulationConfig, beamdyn::beam::Beam) {
    let mut config = SimulationConfig::standard(GridGeometry::unit(12, 12), kernel);
    match lattice {
        Lattice::Drift => {
            config.rp = RpConfig {
                kappa: 4,
                dt: 0.08,
                inner_points: 3,
                beta: 0.5,
                support_x: 0.25,
                support_y: 0.12,
                center: (0.5, 0.5),
            };
            config.tolerance = 1e-4;
            let bunch = GaussianBunch {
                sigma_x: 0.11,
                sigma_y: 0.09,
                center_x: 0.5,
                center_y: 0.5,
                charge: 1.0,
                velocity_spread: 0.0,
                drift_vx: 0.05,
                chirp: 0.0,
            };
            (config, bunch.sample(3000, 5))
        }
        Lattice::Rigid => {
            config.rigid = true;
            let bunch = GaussianBunch {
                center_x: 0.5,
                center_y: 0.5,
                ..GaussianBunch::centered(0.1, 0.04)
            };
            (config, bunch.sample(4000, 0xD00D))
        }
    }
}

fn run(
    lattice: Lattice,
    kernel: KernelKind,
    backend: BackendKind,
    threads: usize,
    steps: usize,
) -> Vec<StepRecord> {
    let pool = ThreadPool::new(threads);
    // The rigid lattice runs on the full K40 model (nonzero fixed launch
    // overhead) so the zero-gpu_time caveat below is checked against a
    // device that would charge overhead if the native path ever ran the
    // timing model.
    let device = match lattice {
        Lattice::Drift => DeviceConfig::test_tiny(),
        Lattice::Rigid => DeviceConfig::tesla_k40(),
    };
    let (mut config, beam) = workload(lattice, kernel);
    config.backend = backend;
    let mut sim = Simulation::new(&pool, &device, config, beam);
    assert_eq!(sim.backend_name(), backend.name());
    record_steps(&mut sim, backend, steps)
}

/// Runs `steps` steps of `sim` (configured for `backend`) and records each.
fn record_steps(sim: &mut Simulation<'_>, backend: BackendKind, steps: usize) -> Vec<StepRecord> {
    let counter = |name: &str| beamdyn::obs::counter_value(name).unwrap_or(0);
    (0..steps)
        .map(|_| {
            let (evals0, replays0) = (
                counter("quad.integrand_evals"),
                counter("quad.integrand_replays"),
            );
            let t = sim.run_step();
            // The documented caveat: the host lane produces answers, not
            // simulated machine metrics — gpu_time is exactly zero, launch
            // overhead included.
            match backend {
                BackendKind::NativeSimd => {
                    assert_eq!(t.potentials.gpu_time.seconds(), 0.0);
                }
                BackendKind::TracedSimt => {
                    assert!(t.potentials.gpu_time.seconds() > 0.0);
                }
            }
            StepRecord {
                potentials: t
                    .potentials
                    .points
                    .iter()
                    .map(|p| p.integral.to_bits())
                    .collect(),
                errors: t
                    .potentials
                    .points
                    .iter()
                    .map(|p| p.error.to_bits())
                    .collect(),
                fallback_cells: t.potentials.fallback_cells,
                launches: t.potentials.launches,
                evals: counter("quad.integrand_evals") - evals0,
                replays: counter("quad.integrand_replays") - replays0,
            }
        })
        .collect()
}

fn assert_identical(want: &[StepRecord], have: &[StepRecord], what: &str) {
    assert_eq!(want.len(), have.len(), "{what}: step counts differ");
    for (step, (w, h)) in want.iter().zip(have).enumerate() {
        assert_eq!(
            w.fallback_cells, h.fallback_cells,
            "{what}: step {step} fallback volume diverged"
        );
        assert_eq!(
            w.launches, h.launches,
            "{what}: step {step} launch count diverged"
        );
        for (i, (a, b)) in w.potentials.iter().zip(&h.potentials).enumerate() {
            assert_eq!(
                a,
                b,
                "{what}: step {step}, point {i}: potentials diverged \
                 ({:e} vs {:e})",
                f64::from_bits(*a),
                f64::from_bits(*b)
            );
        }
        assert_eq!(
            w.errors, h.errors,
            "{what}: step {step} error estimates diverged"
        );
        assert_eq!(
            (w.evals, w.replays),
            (h.evals, h.replays),
            "{what}: step {step} integrand eval/replay counts diverged"
        );
    }
}

/// Monotone order-isomorphic mapping of f64 bit patterns: the absolute
/// difference of two mapped values is the number of representable doubles
/// between them (the ulp distance), sign crossings measured through zero.
fn ordered_bits(bits: u64) -> u64 {
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

fn ulp_distance(a: u64, b: u64) -> u64 {
    ordered_bits(a).abs_diff(ordered_bits(b))
}

/// The NativeSimd contract: every count exactly equal, every potential
/// within `max_ulp` of the scalar reference *per potentials solve*. On a
/// pushed (non-rigid) lattice the divergence feeds back — ulp-perturbed
/// potentials move particles by ulps, which perturbs the next deposit — so
/// the per-step allowance grows linearly: step `k` is held to
/// `max_ulp · (k + 1)` (empirically generous; the observed drift is ~1 ulp
/// per fed-back step). Error estimates are *not* ulp-compared — they are
/// cancellation-amplified differences of nearby Simpson sums, so a 1-ulp
/// potential divergence can move them by many ulps without any physical
/// meaning; their effect on control flow is already pinned exactly through
/// `fallback_cells` and `launches`.
fn assert_ulp_bounded(want: &[StepRecord], have: &[StepRecord], what: &str, max_ulp: u64) {
    assert_eq!(want.len(), have.len(), "{what}: step counts differ");
    for (step, (w, h)) in want.iter().zip(have).enumerate() {
        let max_ulp = max_ulp * (step as u64 + 1);
        assert_eq!(
            w.fallback_cells, h.fallback_cells,
            "{what}: step {step} fallback volume diverged"
        );
        assert_eq!(
            w.launches, h.launches,
            "{what}: step {step} launch count diverged"
        );
        assert_eq!(
            (w.evals, w.replays),
            (h.evals, h.replays),
            "{what}: step {step} integrand eval/replay counts diverged"
        );
        assert_eq!(
            w.potentials.len(),
            h.potentials.len(),
            "{what}: step {step} point counts differ"
        );
        for (i, (a, b)) in w.potentials.iter().zip(&h.potentials).enumerate() {
            let d = ulp_distance(*a, *b);
            assert!(
                d <= max_ulp,
                "{what}: step {step}, point {i}: potentials {d} ulp apart \
                 (bound {max_ulp}; {:e} vs {:e})",
                f64::from_bits(*a),
                f64::from_bits(*b)
            );
        }
    }
}

/// The NativeSimd contract on the canonical lattices: all three kernels ×
/// both lattices × three steps. Fallback cells, launches, and integrand
/// eval/replay counts exactly equal to the traced reference; potentials
/// within 4 ulp per cell (the measured divergence on these lattices — see
/// the module docs for why it is not a general bound).
#[test]
fn simd_matches_scalar_within_ulp_bound() {
    let _serial = COUNTER_LOCK.lock().unwrap();
    for lattice in LATTICES {
        for kernel in [
            KernelKind::TwoPhase,
            KernelKind::Heuristic,
            KernelKind::Predictive,
        ] {
            let traced = run(lattice, kernel, BackendKind::TracedSimt, 2, 3);
            let simd = run(lattice, kernel, BackendKind::NativeSimd, 2, 3);
            assert_ulp_bounded(
                &traced,
                &simd,
                &format!("{lattice:?}/{kernel:?} simd-vs-traced"),
                4,
            );
        }
    }
}

/// NativeSimd is deterministic even though it is not bit-identical to the
/// traced reference: fixed-width lane blocks folded in fixed order make the
/// result a pure function of the inputs, so pool widths 0 / 1 / 4 (and
/// repeated runs) reproduce each other bit-for-bit.
#[test]
fn simd_is_pool_width_independent_and_repeatable() {
    let _serial = COUNTER_LOCK.lock().unwrap();
    let reference = run(
        Lattice::Drift,
        KernelKind::Predictive,
        BackendKind::NativeSimd,
        2,
        3,
    );
    for threads in [0usize, 1, 2, 4] {
        let again = run(
            Lattice::Drift,
            KernelKind::Predictive,
            BackendKind::NativeSimd,
            threads,
            3,
        );
        assert_identical(
            &reference,
            &again,
            &format!("simd pool width {threads} vs simd reference"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary small grids, seeds, and tolerances, the native lane
    /// (NativeSimd) makes exactly the traced reference's decisions:
    /// fallback cells, launches, and integrand eval/replay counts are equal
    /// at every step. Potentials are not ulp-compared here (see the module
    /// docs).
    #[test]
    fn native_matches_traced_on_arbitrary_small_grids(
        resolution in 8usize..13,
        seed in 0u64..u64::MAX,
        particles in 500usize..2000,
        tol_exp in 4u32..7,
    ) {
        let _serial = COUNTER_LOCK.lock().unwrap();
        let pool = ThreadPool::new(2);
        let device = DeviceConfig::test_tiny();
        let mut counts = Vec::new();
        for backend in [BackendKind::TracedSimt, BackendKind::NativeSimd] {
            let geometry = GridGeometry::unit(resolution, resolution);
            let mut config = SimulationConfig::standard(geometry, KernelKind::Predictive);
            config.rp = RpConfig::standard(4, 0.08);
            config.tolerance = 10f64.powi(-(tol_exp as i32));
            config.backend = backend;
            let bunch = GaussianBunch {
                center_x: 0.5,
                center_y: 0.5,
                ..GaussianBunch::centered(0.12, 0.06)
            };
            let beam = bunch.sample(particles, seed);
            let mut sim = Simulation::new(&pool, &device, config, beam);
            counts.push(
                record_steps(&mut sim, backend, 2)
                    .iter()
                    .map(|r| (r.fallback_cells, r.launches, r.evals, r.replays))
                    .collect::<Vec<_>>(),
            );
        }
        prop_assert_eq!(&counts[0], &counts[1]);
    }
}
