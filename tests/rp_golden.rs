//! Golden-value pins for the rp-integral hot path.
//!
//! The resolved-window `GridRp::eval` refactor and the sample-reusing
//! (seeded) Simpson pipeline are pure re-arrangements: every value they
//! produce must be **bit-identical** to the pre-refactor evaluation. These
//! tests pin that contract to concrete bit patterns recorded from the
//! original implementation, so any future "optimisation" that perturbs even
//! the last ulp of the potentials fails loudly instead of drifting the
//! physics.

use beamdyn::beam::{GaussianBunch, GridRp, NullSink, RpConfig};
use beamdyn::core::{BackendKind, KernelKind, Simulation, SimulationConfig};
use beamdyn::par::ThreadPool;
use beamdyn::pic::{deposit_cic, DepositSample, GridGeometry, GridHistory, MomentGrid};
use beamdyn::simt::DeviceConfig;

/// The seeded 20×20 moment-grid history every eval golden uses.
fn history(pool: &ThreadPool) -> GridHistory {
    let g = GridGeometry::unit(20, 20);
    let bunch = GaussianBunch {
        center_x: 0.5,
        center_y: 0.5,
        ..GaussianBunch::centered(0.12, 0.06)
    };
    let beam = bunch.sample(20_000, 17);
    let samples: Vec<DepositSample> = beam
        .particles
        .iter()
        .map(|p| DepositSample {
            x: p.x,
            y: p.y,
            weight: p.weight,
            vx: p.vx,
            vy: p.vy,
        })
        .collect();
    let mut h = GridHistory::new(g, 8);
    for k in 0..6 {
        let mut grid = MomentGrid::zeros(g);
        deposit_cic(pool, &mut grid, &samples);
        h.push(k, grid);
    }
    h
}

/// `(x, y, r, step, expected bits)` recorded from the pre-refactor
/// implementation. Covers interior points, r = 0, large radii that clip the
/// support window, off-support points (exactly 0.0), and early steps with a
/// short history horizon.
const EVAL_GOLDEN: &[(f64, f64, f64, usize, u64)] = &[
    (0.5, 0.5, 0.05, 5, 0x405ac8c374013577),
    (0.5, 0.5, 0.0, 5, 0x405ce439f1759bba),
    (0.4, 0.6, 0.21, 5, 0x4024d9332bd62d32),
    (0.7, 0.3, 0.30, 5, 0x3fea7c677a476c61),
    (0.05, 0.95, 0.15, 4, 0x0),
    (0.98, 0.02, 0.33, 3, 0x0),
    (0.31, 0.52, 0.12, 1, 0x4041db50a83bf5cf),
    (0.5, 0.47, 0.29, 0, 0x401af825286901a5),
];

#[test]
fn eval_matches_recorded_bit_patterns() {
    let pool = ThreadPool::new(2);
    let h = history(&pool);
    for &(x, y, r, step, bits) in EVAL_GOLDEN {
        let rp = GridRp::new(&h, RpConfig::standard(4, 0.08), step);
        let v = rp.eval(x, y, r, &mut NullSink);
        assert_eq!(
            v.to_bits(),
            bits,
            "eval({x}, {y}, {r}) at step {step}: got {v:e} = 0x{:016x}, want 0x{bits:016x}",
            v.to_bits()
        );
    }
}

#[test]
fn eval_beta_zero_matches_recorded_bit_patterns() {
    // β = 0 drops the vx/vy moment components from the gather.
    let golden: &[(f64, f64, f64, usize, u64)] = &[
        (0.5, 0.5, 0.05, 5, 0x405ac8c374013577),
        (0.5, 0.5, 0.0, 5, 0x405ce439f1759bba),
        (0.4, 0.6, 0.21, 5, 0x4024d9332bd62d32),
    ];
    let pool = ThreadPool::new(2);
    let h = history(&pool);
    for &(x, y, r, step, bits) in golden {
        let mut cfg = RpConfig::standard(4, 0.08);
        cfg.beta = 0.0;
        let rp = GridRp::new(&h, cfg, step);
        let v = rp.eval(x, y, r, &mut NullSink);
        assert_eq!(v.to_bits(), bits, "beta=0 eval({x}, {y}, {r}) step {step}");
    }
}

#[test]
fn eval_inner_points_5_matches_recorded_bit_patterns() {
    // A 5-point inner rule exercises the folded angle table's odd/even
    // weight split differently from the standard 3-point rule.
    let golden: &[(f64, f64, f64, usize, u64)] = &[
        (0.5, 0.5, 0.05, 5, 0x4057b24788ecf604),
        (0.5, 0.5, 0.0, 5, 0x405ce439f1759bba),
        (0.4, 0.6, 0.21, 5, 0x4029e739d94e3467),
    ];
    let pool = ThreadPool::new(2);
    let h = history(&pool);
    for &(x, y, r, step, bits) in golden {
        let mut cfg = RpConfig::standard(4, 0.08);
        cfg.inner_points = 5;
        let rp = GridRp::new(&h, cfg, step);
        let v = rp.eval(x, y, r, &mut NullSink);
        assert_eq!(
            v.to_bits(),
            bits,
            "inner_points=5 eval({x}, {y}, {r}) step {step}"
        );
    }
}

/// `GridRp::eval_simd` golden bits — the `*.simd` variant of [`EVAL_GOLDEN`].
///
/// The vectorized gather reassociates the 27-tap stencil sum (fixed-order
/// lane fold instead of the scalar accumulation order), so its results are
/// *deterministically different* from `eval`: identical on every machine and
/// pool width, but allowed to differ from the scalar corpus by the last few
/// ulp. Off-support zeros and single-plane cases stay exactly equal.
const EVAL_SIMD_GOLDEN: &[(f64, f64, f64, usize, u64)] = &[
    (0.5, 0.5, 0.05, 5, 0x405ac8c374013577),
    (0.5, 0.5, 0.0, 5, 0x405ce439f1759bba),
    (0.4, 0.6, 0.21, 5, 0x4024d9332bd62d32),
    (0.7, 0.3, 0.30, 5, 0x3fea7c677a476c60),
    (0.05, 0.95, 0.15, 4, 0x0),
    (0.98, 0.02, 0.33, 3, 0x0),
    (0.31, 0.52, 0.12, 1, 0x4041db50a83bf5ce),
    (0.5, 0.47, 0.29, 0, 0x401af825286901a4),
];

#[test]
fn eval_simd_matches_recorded_bit_patterns() {
    let pool = ThreadPool::new(2);
    let h = history(&pool);
    for &(x, y, r, step, bits) in EVAL_SIMD_GOLDEN {
        let rp = GridRp::new(&h, RpConfig::standard(4, 0.08), step);
        let v = rp.eval_simd(x, y, r);
        assert_eq!(
            v.to_bits(),
            bits,
            "eval_simd({x}, {y}, {r}) at step {step}: got {v:e} = 0x{:016x}, \
             want 0x{bits:016x}",
            v.to_bits()
        );
    }
}

#[test]
fn eval_simd_config_variants_match_recorded_bit_patterns() {
    // β = 0 and the 5-point inner rule through the vectorized gather. The
    // β = 0 bits equal the standard-config bits for this zero-velocity
    // bunch (as in the scalar corpus); inner5 matches the scalar inner5
    // corpus exactly at these points (the reassociation happened to round
    // identically — pinned so that stays an observable fact, not luck).
    let beta_zero: &[(f64, f64, f64, usize, u64)] = &[
        (0.5, 0.5, 0.05, 5, 0x405ac8c374013577),
        (0.5, 0.5, 0.0, 5, 0x405ce439f1759bba),
        (0.4, 0.6, 0.21, 5, 0x4024d9332bd62d32),
    ];
    let inner5: &[(f64, f64, f64, usize, u64)] = &[
        (0.5, 0.5, 0.05, 5, 0x4057b24788ecf604),
        (0.5, 0.5, 0.0, 5, 0x405ce439f1759bba),
        (0.4, 0.6, 0.21, 5, 0x4029e739d94e3467),
    ];
    let pool = ThreadPool::new(2);
    let h = history(&pool);
    for &(x, y, r, step, bits) in beta_zero {
        let mut cfg = RpConfig::standard(4, 0.08);
        cfg.beta = 0.0;
        let rp = GridRp::new(&h, cfg, step);
        let v = rp.eval_simd(x, y, r);
        assert_eq!(
            v.to_bits(),
            bits,
            "beta=0 eval_simd({x}, {y}, {r}) step {step}"
        );
    }
    for &(x, y, r, step, bits) in inner5 {
        let mut cfg = RpConfig::standard(4, 0.08);
        cfg.inner_points = 5;
        let rp = GridRp::new(&h, cfg, step);
        let v = rp.eval_simd(x, y, r);
        assert_eq!(
            v.to_bits(),
            bits,
            "inner_points=5 eval_simd({x}, {y}, {r}) step {step}"
        );
    }
}

/// Per-kernel end-to-end golden: the bit pattern of the summed potentials
/// (and error estimates) after each of three steps. All three kernels agree
/// on every step — planning differs, but accepted integrals are the same
/// numbers accumulated in the same order. These are the TracedSimt bits;
/// NativeSimd reassociates the stencil gather and pins its own `*_SIMD`
/// patterns below (`tests/backend_equivalence.rs` is the differential
/// harness between the two).
const KERNEL_GOLDEN: &[(usize, u64, u64)] = &[
    (0, 0x404a71cc403aa0fa, 0x3ee89950b187dddb),
    (1, 0x404a71cc403aa0f9, 0x3ee89950b186e89a),
    (2, 0x405a76ba61fa5f49, 0x3ed9fb2ef3a20574),
];

/// Runs the golden 12² rigid scenario for three steps and asserts the
/// per-step summed-potentials/summed-error bit patterns.
fn assert_kernel_golden(
    what: &str,
    kernel: KernelKind,
    backend: BackendKind,
    golden: &[(usize, u64, u64)],
    mutate: impl Fn(&mut SimulationConfig),
) {
    let pool = ThreadPool::new(2);
    let device = DeviceConfig::tesla_k40();
    let geometry = GridGeometry::unit(12, 12);
    let mut config = SimulationConfig::standard(geometry, kernel);
    config.rigid = true;
    config.backend = backend;
    mutate(&mut config);
    let bunch = GaussianBunch {
        center_x: 0.5,
        center_y: 0.5,
        ..GaussianBunch::centered(0.1, 0.04)
    };
    let beam = bunch.sample(4_000, 0xD00D);
    let mut sim = Simulation::new(&pool, &device, config, beam);
    for &(step, sum_bits, err_bits) in golden {
        let t = sim.run_step();
        let sum: f64 = t.potentials.points.iter().map(|p| p.integral).sum();
        let err: f64 = t.potentials.points.iter().map(|p| p.error).sum();
        assert_eq!(
            sum.to_bits(),
            sum_bits,
            "{what}: {kernel:?}/{backend:?} step {step}: potentials sum 0x{:016x} != \
             golden 0x{sum_bits:016x}",
            sum.to_bits()
        );
        assert_eq!(
            err.to_bits(),
            err_bits,
            "{what}: {kernel:?}/{backend:?} step {step}: error sum drifted"
        );
    }
}

#[test]
fn kernel_potentials_sums_match_recorded_bit_patterns() {
    for kernel in [
        KernelKind::TwoPhase,
        KernelKind::Heuristic,
        KernelKind::Predictive,
    ] {
        assert_kernel_golden(
            "standard",
            kernel,
            BackendKind::TracedSimt,
            KERNEL_GOLDEN,
            |_| {},
        );
    }
}

/// A τ three orders tighter than standard drives a fallback-heavy step
/// (the main pass misses on many cells, so most of the work runs through
/// the adaptive pass) — the golden corpus's stress case for the
/// fixed→fallback seed handoff.
const FALLBACK_HEAVY_GOLDEN: &[(usize, u64, u64)] = &[
    (0, 0x404a71cc418f3c25, 0x3e6f1ece20af436b),
    (1, 0x404a71cc418f3c25, 0x3e6f1ece1fdbfca7),
    (2, 0x405a76ba65cff04e, 0x3e56118e172fb395),
];

/// β = 0 drops the vx/vy moment components from the kernel-run gathers
/// (bit-identical to the standard run for this zero-velocity bunch, as in
/// the eval-level corpus — pinned so the β path cannot silently perturb).
const BETA_ZERO_GOLDEN: &[(usize, u64, u64)] = KERNEL_GOLDEN;

/// The 5-point inner rule through full kernel runs.
const INNER5_GOLDEN: &[(usize, u64, u64)] = &[
    (0, 0x404a6e2408279749, 0x3ee81a35b2eebb14),
    (1, 0x404a6e2408279749, 0x3ee81a35b2ede91d),
    (2, 0x405a6f86acb655f6, 0x3eda8151d8300d74),
];

/// A golden-corpus config variant: label, expected bits, config mutation.
type GoldenVariant = (
    &'static str,
    &'static [(usize, u64, u64)],
    fn(&mut SimulationConfig),
);

#[test]
fn kernel_golden_corpus_variants_match_on_traced() {
    let variants: [GoldenVariant; 3] = [
        ("fallback-heavy tau=1e-8", FALLBACK_HEAVY_GOLDEN, |c| {
            c.tolerance = 1e-8
        }),
        ("beta=0", BETA_ZERO_GOLDEN, |c| c.rp.beta = 0.0),
        ("inner_points=5", INNER5_GOLDEN, |c| c.rp.inner_points = 5),
    ];
    for (what, golden, mutate) in variants {
        for kernel in [
            KernelKind::TwoPhase,
            KernelKind::Heuristic,
            KernelKind::Predictive,
        ] {
            assert_kernel_golden(what, kernel, BackendKind::TracedSimt, golden, mutate);
        }
    }
}

/// `*.simd` variants of the kernel golden corpus: the same scenarios run on
/// `BackendKind::NativeSimd`. The vectorized quadrature reassociates the
/// stencil fold, so these pin their *own* bit patterns — within 1 ulp of
/// [`KERNEL_GOLDEN`] on this corpus, but a distinct deterministic contract.
/// The SoA deposit/gather/push stages are bit-identical to scalar by
/// construction, so on this rigid lattice the divergence is purely the
/// quadrature gather. All three kernels agree on every step, as in the
/// scalar corpus.
const KERNEL_GOLDEN_SIMD: &[(usize, u64, u64)] = &[
    (0, 0x404a71cc403aa0f9, 0x3ee89950b18738bf),
    (1, 0x404a71cc403aa0f9, 0x3ee89950b18680c7),
    (2, 0x405a76ba61fa5f49, 0x3ed9fb2ef39fccdd),
];

/// Fallback-heavy (τ = 1e-8) stress case on the SIMD backend.
const FALLBACK_HEAVY_SIMD: &[(usize, u64, u64)] = &[
    (0, 0x404a71cc418f3c24, 0x3e6f1ece200f105b),
    (1, 0x404a71cc418f3c25, 0x3e6f1ece1f4f91d4),
    (2, 0x405a76ba65cff04e, 0x3e56118e14f27003),
];

/// β = 0 on the SIMD backend — bit-identical to the standard SIMD run for
/// this zero-velocity bunch (the J-moment gathers are exact zeros either
/// way), mirroring the scalar corpus's `BETA_ZERO_GOLDEN = KERNEL_GOLDEN`.
const BETA_ZERO_SIMD: &[(usize, u64, u64)] = KERNEL_GOLDEN_SIMD;

/// The 5-point inner rule on the SIMD backend.
const INNER5_SIMD: &[(usize, u64, u64)] = &[
    (0, 0x404a6e2408279749, 0x3ee81a35b2eddc7c),
    (1, 0x404a6e2408279749, 0x3ee81a35b2ede876),
    (2, 0x405a6f86acb655f6, 0x3eda8151d82e835c),
];

#[test]
fn kernel_golden_corpus_simd_variants_match() {
    let variants: [GoldenVariant; 4] = [
        ("simd standard", KERNEL_GOLDEN_SIMD, |_| {}),
        ("simd fallback-heavy tau=1e-8", FALLBACK_HEAVY_SIMD, |c| {
            c.tolerance = 1e-8
        }),
        ("simd beta=0", BETA_ZERO_SIMD, |c| c.rp.beta = 0.0),
        ("simd inner_points=5", INNER5_SIMD, |c| {
            c.rp.inner_points = 5
        }),
    ];
    for (what, golden, mutate) in variants {
        for kernel in [
            KernelKind::TwoPhase,
            KernelKind::Heuristic,
            KernelKind::Predictive,
        ] {
            assert_kernel_golden(what, kernel, BackendKind::NativeSimd, golden, mutate);
        }
    }
}
