//! Perf smoke gate.
//!
//! Quick checks that the rp-integral hot path keeps its performance
//! contract (DESIGN.md §12, §17):
//!
//! * a microbenchmark of `GridRp::eval` vs `GridRp::eval_simd` on the
//!   resolved-window hot path, printed for the record (wall-clock is
//!   informational — CI machines vary, so nothing gates on it);
//! * the **integrand-eval budget** of the canonical bench scenario, per
//!   kernel: the sample-reuse machinery (seeded Simpson + charge replay)
//!   must keep the *real* integrand evaluations under a per-kernel fresh
//!   fraction budget. Counters are deterministic, so this gates exactly;
//! * the **host lane**: the same scenario re-run on NativeSimd must
//!   perform exactly the same real integrand work (deterministic, gates)
//!   and beat TracedSimt's potentials stage on host wall-clock (large
//!   margin — the traced path carries a whole simulated memory system);
//! * the **SoA stage microbench**: the vectorized deposit + gather + push
//!   pipeline must hold a ≥1.25× win over the scalar stage path on the
//!   canonical particle load (measured 1.4–1.7× on the reference box).

use std::process::ExitCode;
use std::time::Instant;

use beamdyn_beam::forces::{gather_forces, gather_forces_simd, ScalarField};
use beamdyn_beam::push::{drift, kick, push_step_simd};
use beamdyn_beam::{GridRp, NullSink, RpConfig};
use beamdyn_bench::regression::scenario;
use beamdyn_bench::{kernel_name, run_steps, standard_workload};
use beamdyn_core::{BackendKind, KernelKind};
use beamdyn_obs as obs;
use beamdyn_par::ThreadPool;
use beamdyn_pic::{
    deposit_cic, deposit_cic_simd, DepositSample, GridGeometry, GridHistory, MomentGrid,
    ParticleSoA,
};

/// Maximum fraction of abscissae the fresh-eval path may account for on the
/// canonical run; the rest must be served by sample reuse. Counter ratios
/// are exact and pool-width independent, so the budgets sit close over the
/// measured fractions (0.692 / 0.768 / 0.762) — any drift is a deliberate
/// change to the reuse machinery, not noise. The adaptive kernels replay
/// less than Two-Phase by design (their refinement probes more fresh
/// abscissae), hence the looser budgets.
fn fresh_eval_budget(kernel: KernelKind) -> f64 {
    match kernel {
        KernelKind::TwoPhase => 0.70,
        KernelKind::Heuristic | KernelKind::Predictive => 0.78,
    }
}

/// Minimum speedup the SoA deposit + gather + push pipeline must hold over
/// the scalar stage path.
const MIN_SOA_STAGE_SPEEDUP: f64 = 1.25;

fn eval_microbench(pool: &ThreadPool) {
    let g = GridGeometry::unit(20, 20);
    let bunch = beamdyn_beam::GaussianBunch {
        center_x: 0.5,
        center_y: 0.5,
        ..beamdyn_beam::GaussianBunch::centered(0.12, 0.06)
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
    let rp = GridRp::new(&h, RpConfig::standard(4, 0.08), 5);
    let corpus = [
        (0.5f64, 0.5f64, 0.05f64),
        (0.5, 0.5, 0.0),
        (0.4, 0.6, 0.21),
        (0.7, 0.3, 0.30),
        (0.31, 0.52, 0.12),
        (0.5, 0.47, 0.29),
    ];
    const ROUNDS: usize = 20_000;
    let evals = (ROUNDS * corpus.len()) as f64;
    let mut acc = 0.0f64;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for &(x, y, r) in &corpus {
            acc += rp.eval(x, y, r, &mut NullSink);
        }
    }
    let scalar_ns = t0.elapsed().as_nanos() as f64 / evals;
    let mut acc_simd = 0.0f64;
    let t1 = Instant::now();
    for _ in 0..ROUNDS {
        for &(x, y, r) in &corpus {
            acc_simd += rp.eval_simd(x, y, r);
        }
    }
    let simd_ns = t1.elapsed().as_nanos() as f64 / evals;
    println!(
        "GridRp::eval microbench: scalar {scalar_ns:.1} ns/eval vs simd {simd_ns:.1} ns/eval \
         over {} evals (checksums {acc:.6e} / {acc_simd:.6e})",
        evals as u64,
    );
}

/// Runs the canonical scenario on one backend; returns the potentials-stage
/// host time (summed over all steps) and the integrand-reuse counters.
fn canonical_run(pool: &ThreadPool, kernel: KernelKind, backend: BackendKind) -> (f64, u64, u64) {
    obs::reset();
    let mut workload = standard_workload(scenario::RESOLUTION, scenario::PARTICLES, kernel);
    workload.config.backend = backend;
    run_steps(pool, workload, scenario::STEPS);
    let evals = obs::counter_value("quad.integrand_evals").unwrap_or(0);
    let replays = obs::counter_value("quad.integrand_replays").unwrap_or(0);
    let host_ns = obs::snapshot()
        .histogram("stage.potentials_ns")
        .map(|h| h.sum())
        .unwrap_or(0.0);
    (host_ns, evals, replays)
}

/// Gates the SoA deposit + gather + push pipeline against the scalar stage
/// path on the canonical particle load. Both sides run the work the driver
/// runs per step (sample refill / parallel SoA fill included); min-of-two
/// outer repetitions damps scheduler noise.
fn soa_stage_microbench(pool: &ThreadPool) -> bool {
    let geometry = GridGeometry::unit(scenario::RESOLUTION, scenario::RESOLUTION);
    let bunch = beamdyn_beam::GaussianBunch {
        center_x: 0.5,
        center_y: 0.5,
        ..beamdyn_beam::GaussianBunch::centered(0.12, 0.06)
    };
    let beam0 = bunch.sample(scenario::PARTICLES, 42);
    let potential = {
        let mut f = ScalarField::zeros(geometry);
        for iy in 0..geometry.ny {
            for ix in 0..geometry.nx {
                let (x, y) = (
                    ix as f64 / geometry.nx as f64,
                    iy as f64 / geometry.ny as f64,
                );
                f.set(ix, iy, (x - 0.5).powi(2) + (y - 0.5).powi(2));
            }
        }
        f
    };
    const ROUNDS: usize = 60;
    let dt = 1e-3;

    let scalar_pass = || {
        let mut beam = beam0.clone();
        let mut samples: Vec<DepositSample> = Vec::new();
        let mut grid = MomentGrid::zeros(geometry);
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            samples.clear();
            samples.extend(beam.particles.iter().map(|p| DepositSample {
                x: p.x,
                y: p.y,
                weight: p.weight,
                vx: p.vx,
                vy: p.vy,
            }));
            grid.reset();
            deposit_cic(pool, &mut grid, &samples);
            let forces = gather_forces(pool, &potential, &beam);
            kick(pool, &mut beam, &forces, dt);
            drift(pool, &mut beam, dt);
        }
        let ns = t0.elapsed().as_nanos() as f64;
        std::hint::black_box((&grid, &beam));
        ns
    };
    let simd_pass = || {
        let mut beam = beam0.clone();
        let mut soa = ParticleSoA::new();
        let mut grid = MomentGrid::zeros(geometry);
        let (mut gx, mut gy) = (ScalarField::empty(), ScalarField::empty());
        let (mut fx, mut fy) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            soa.fill(pool, &beam.particles, |p| DepositSample {
                x: p.x,
                y: p.y,
                weight: p.weight,
                vx: p.vx,
                vy: p.vy,
            });
            grid.reset();
            deposit_cic_simd(pool, &mut grid, &soa);
            gather_forces_simd(pool, &potential, &soa, &mut gx, &mut gy, &mut fx, &mut fy);
            push_step_simd(pool, &mut soa, &fx, &fy, 1.0, dt, &mut beam);
        }
        let ns = t0.elapsed().as_nanos() as f64;
        std::hint::black_box((&grid, &beam));
        ns
    };

    let scalar_ns = scalar_pass().min(scalar_pass());
    let simd_ns = simd_pass().min(simd_pass());
    let speedup = scalar_ns / simd_ns.max(1.0);
    println!(
        "SoA stage microbench: scalar {:.1} ms vs simd {:.1} ms -> {speedup:.2}x \
         ({ROUNDS} rounds x {} particles)",
        scalar_ns / 1e6,
        simd_ns / 1e6,
        scenario::PARTICLES,
    );
    if speedup < MIN_SOA_STAGE_SPEEDUP {
        eprintln!(
            "SoA deposit+gather/push pipeline speedup {speedup:.2}x is below the \
             {MIN_SOA_STAGE_SPEEDUP}x floor — the vectorized stage path has regressed"
        );
        return false;
    }
    true
}

fn main() -> ExitCode {
    let pool = ThreadPool::new(scenario::THREADS);
    eval_microbench(&pool);

    let mut ok = true;
    for kernel in [
        KernelKind::TwoPhase,
        KernelKind::Heuristic,
        KernelKind::Predictive,
    ] {
        let (traced_ns, evals, replays) = canonical_run(&pool, kernel, BackendKind::TracedSimt);
        let total = evals + replays;
        let fraction = evals as f64 / total.max(1) as f64;
        let budget = fresh_eval_budget(kernel);
        println!(
            "{}: integrand evals {evals} + replays {replays} -> fresh fraction {:.3} \
             (budget {budget})",
            kernel_name(kernel),
            fraction
        );
        if total == 0 || evals == 0 || replays == 0 {
            eprintln!(
                "{}: sample-reuse counters look dead (evals {evals}, replays {replays})",
                kernel_name(kernel)
            );
            ok = false;
        }
        if fraction > budget {
            eprintln!(
                "{}: fresh-eval fraction {fraction:.3} exceeds budget {budget} \
                 — sample reuse has regressed",
                kernel_name(kernel)
            );
            ok = false;
        }

        // NativeSimd lane: identical real integrand work, less host time.
        let (simd_ns, simd_evals, simd_replays) =
            canonical_run(&pool, kernel, BackendKind::NativeSimd);
        println!(
            "{}: potentials host time traced {:.1} ms vs simd {:.1} ms ({:.1}x)",
            kernel_name(kernel),
            traced_ns / 1e6,
            simd_ns / 1e6,
            traced_ns / simd_ns.max(1.0),
        );
        if (simd_evals, simd_replays) != (evals, replays) {
            eprintln!(
                "{}: simd backend changed the integrand work: evals {evals} -> {simd_evals}, \
                 replays {replays} -> {simd_replays} — the backends have diverged",
                kernel_name(kernel)
            );
            ok = false;
        }
        if simd_ns >= traced_ns {
            eprintln!(
                "{}: NativeSimd potentials host time {:.1} ms is not below TracedSimt {:.1} ms \
                 — the host lane has lost its reason to exist",
                kernel_name(kernel),
                simd_ns / 1e6,
                traced_ns / 1e6,
            );
            ok = false;
        }
    }

    if !soa_stage_microbench(&pool) {
        ok = false;
    }

    if ok {
        println!("perf-smoke OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("perf-smoke FAILED");
        ExitCode::FAILURE
    }
}
