//! Per-layer probes of the traced pass: small timed loops around one
//! public function of one layer each, run after the timed steps on the
//! workload's own beam, grid and access patterns, so their numbers are
//! taken at the sizes the end-to-end metrics were.

use std::hint::black_box;
use std::time::Instant;

use beamdyn::beam::forces::gather_forces;
use beamdyn::beam::push::{drift, kick};
use beamdyn::beam::{GridRp, NullSink};
use beamdyn::core::clustering::cluster_by_pattern;
use beamdyn::core::points::GridPoint;
use beamdyn::core::{BackendKind, KernelKind, Simulation, StepTelemetry};
use beamdyn::ml::{kmeans, KMeansOptions, KnnRegressor, Samples};
use beamdyn::par::ThreadPool;
use beamdyn::pic::{deposit_cic, DepositSample, GridHistory, MomentGrid};
use beamdyn::quad::{adaptive_simpson, eval_on_partition, uniform_partition, AdaptiveOptions};
use beamdyn::simt::DeviceConfig;

use crate::inproc::{resolve_lane, run_leg, Lane, Leg, Sizes};
use crate::report::Outcome;
use crate::spans::{SpanId, Trace};
use crate::stats::{mean, median};

/// Steps each lane runs for the lane comparison.
const LANE_STEPS: usize = 20;
/// Steps of the single-threaded baseline (fewer where a step is slow).
const SERIAL_STEPS: usize = 10;
/// The predictor's neighbour count (`PredictorKind::default()`).
const KNN_K: usize = 4;

/// Median wall time of `f` over `reps` calls, in nanoseconds.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Round trip of an empty `parallel_for` with one index per thread (the
/// pool's workers and the caller), in microseconds, and the calls timed.
pub fn fork_join_us(pool: &ThreadPool) -> (f64, usize) {
    const CALLS: usize = 1000;
    const REPS: usize = 11;
    let width = pool.num_threads() + 1;
    let ns = median_ns(REPS, || {
        for _ in 0..CALLS {
            pool.parallel_for(0..width, |i| {
                black_box(i);
            });
        }
    });
    (ns / 1e3 / CALLS as f64, REPS * CALLS)
}

/// Up to `count` of `points`, evenly strided, that have an integration
/// range at all.
fn strided(points: &[GridPoint], count: usize) -> Vec<&GridPoint> {
    let reachable: Vec<&GridPoint> = points.iter().filter(|p| p.radius > 0.0).collect();
    let stride = reachable.len().div_ceil(count).max(1);
    reachable.into_iter().step_by(stride).collect()
}

#[allow(clippy::too_many_arguments)]
pub fn run_all(
    sizes: &Sizes,
    seed: u64,
    pool: &ThreadPool,
    device: &DeviceConfig,
    sim: &Simulation<'_>,
    last: &StepTelemetry,
    two_phase: &Leg,
    trace: &Trace,
    root: SpanId,
    outcome: &mut Outcome,
) {
    let probes = trace.open("probes", root);
    let geometry = sizes.geometry();
    let beam = sim.beam();
    let particles = beam.len();
    let points = &last.potentials.points;
    // Runs one probe under a span of its own (handed to the probe, for
    // any spans it opens itself) and files its value and sample count.
    let mut timed = |name: &str, f: &mut dyn FnMut(SpanId) -> (f64, usize)| {
        let span = trace.open(&format!("probe.{name}"), probes);
        let (value, samples) = f(span);
        trace.close(span);
        outcome.set(name, value, samples);
    };

    // --- pic / beam: the particle pipeline, one stage at a time ---
    let reps = (5_000_000 / particles).clamp(5, 200);
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
    let mut grid = MomentGrid::zeros(geometry);
    timed("pic.deposit_ns_per_particle", &mut |_| {
        let ns = median_ns(reps, || {
            grid.reset();
            black_box(deposit_cic(pool, &mut grid, &samples));
        });
        (ns / particles as f64, reps)
    });
    let field = sim
        .last_potentials()
        .expect("a stepped simulation holds its potential field");
    timed("beam.gather_ns_per_particle", &mut |_| {
        let ns = median_ns(reps, || {
            black_box(gather_forces(pool, field, beam));
        });
        (ns / particles as f64, reps)
    });
    let forces = gather_forces(pool, field, beam);
    let mut pushed = beam.clone();
    timed("beam.push_ns_per_particle", &mut |_| {
        // A step this short leaves the beam where it is, so every
        // repetition pushes the same particles.
        let dt = 1e-9;
        let ns = median_ns(reps, || {
            kick(pool, &mut pushed, &forces, dt);
            drift(pool, &mut pushed, dt);
        });
        (ns / particles as f64, reps)
    });
    drop((forces, pushed));

    // --- beam::rp and quad: the integrand and the rules around it ---
    let (_, backend) = resolve_lane(sizes.lane);
    let (config, _) = sizes.scenario(KernelKind::TwoPhase, seed).build(backend);
    let mut rp_config = config.rp;
    rp_config.center = beam.centroid();
    let depth = sizes.warmup_steps();
    let mut history = GridHistory::new(geometry, depth);
    for step in 0..depth {
        history.push(step, grid.clone());
    }
    let rp = GridRp::new(&history, rp_config, depth - 1);
    let corpus: Vec<(f64, f64, f64)> = strided(points, 256)
        .iter()
        .flat_map(|p| [0.2, 0.5, 0.8].map(|f| (p.x, p.y, p.radius * f)))
        .collect();
    timed("beam.rp_eval_ns", &mut |_| {
        let rounds = (200_000 / corpus.len().max(1)).max(1);
        let ns = median_ns(5, || {
            let mut sum = 0.0;
            for _ in 0..rounds {
                for &(x, y, r) in &corpus {
                    sum += rp.eval(x, y, r, &mut NullSink);
                }
            }
            black_box(sum);
        });
        (
            ns / (rounds * corpus.len()) as f64,
            5 * rounds * corpus.len(),
        )
    });
    let integrands = strided(points, 64);
    let tolerance = config.tolerance;
    timed("quad.adaptive_ns_per_eval", &mut |_| {
        let mut evals = 0;
        let ns = median_ns(5, || {
            evals = 0;
            for p in &integrands {
                let result = adaptive_simpson(
                    |r| rp.eval(p.x, p.y, r, &mut NullSink),
                    0.0,
                    p.radius,
                    AdaptiveOptions {
                        tolerance,
                        ..AdaptiveOptions::default()
                    },
                );
                evals += result.evals;
                black_box(result.integral);
            }
        });
        (ns / evals.max(1) as f64, 5 * evals)
    });
    timed("quad.fixed_ns_per_eval", &mut |_| {
        let mut evals = 0;
        let ns = median_ns(5, || {
            evals = 0;
            for p in &integrands {
                let partition = uniform_partition(0.0, p.radius, 32);
                let result = eval_on_partition(
                    |r| rp.eval(p.x, p.y, r, &mut NullSink),
                    &partition,
                    tolerance,
                );
                evals += result.evals;
                black_box(result.integral);
            }
        });
        (ns / evals.max(1) as f64, 5 * evals)
    });

    // --- ml and core::clustering, at the workload's point count and κ ---
    let kappa = sizes.kappa;
    let mut positions = Samples::new(2);
    let mut patterns = Samples::new(kappa);
    let mut features = Samples::new(kappa + 2);
    for p in points {
        let mut counts = p.pattern.counts().to_vec();
        counts.resize(kappa, 0.0);
        positions.push(&[p.x, p.y]);
        patterns.push(&counts);
        counts.extend([p.x, p.y]);
        features.push(&counts);
    }
    timed("core.cluster_by_pattern_ms", &mut |_| {
        let ns = median_ns(5, || {
            black_box(cluster_by_pattern(pool, geometry, points, seed));
        });
        (ns / 1e6, 5)
    });
    timed("ml.kmeans_ms", &mut |_| {
        let options = KMeansOptions {
            clusters: sizes.grid,
            max_iters: 20,
            seed,
        };
        let ns = median_ns(5, || {
            black_box(kmeans(pool, &features, options));
        });
        (ns / 1e6, 5)
    });
    timed("ml.knn_fit_ms", &mut |_| {
        let ns = median_ns(9, || {
            black_box(KnnRegressor::fit(
                positions.clone(),
                patterns.clone(),
                KNN_K,
                true,
            ));
        });
        (ns / 1e6, 9)
    });
    let knn = KnnRegressor::fit(positions.clone(), patterns.clone(), KNN_K, true);
    timed("ml.knn_predict_us", &mut |_| {
        let mut out = vec![0.0; kappa];
        let ns = median_ns(9, || {
            for query in positions.rows() {
                knn.predict_into(query, &mut out);
            }
            black_box(&out);
        });
        (ns / 1e3 / positions.len() as f64, 9 * positions.len())
    });

    // --- par: what one fork/join costs, and what the pool buys a step ---
    timed("par.fork_join_us", &mut |_| fork_join_us(pool));
    let serial_steps = SERIAL_STEPS.min(sizes.min_timed);
    timed("par.step_speedup", &mut |span| {
        let serial_pool = ThreadPool::new(0);
        let serial = run_leg(
            &serial_pool,
            device,
            &sizes.scenario(KernelKind::TwoPhase, seed),
            backend,
            sizes.warmup_steps(),
            serial_steps,
            trace,
            span,
        );
        (
            median(&serial.step_ms) / median(&two_phase.step_ms),
            serial_steps,
        )
    });

    // --- lanes: the "decide SIMD by measurement" evidence. A lane the
    // library no longer parses yields no row.
    for name in ["native", "native-simd"] {
        let Some(kind) = BackendKind::parse(name) else {
            continue;
        };
        let span = trace.open(&format!("probe.lane.{name}"), probes);
        let leg = run_leg(
            pool,
            device,
            &sizes.scenario(KernelKind::TwoPhase, seed),
            kind,
            sizes.warmup_steps(),
            LANE_STEPS,
            trace,
            span,
        );
        trace.close(span);
        let particle_ms: Vec<f64> = leg
            .deposit_ms
            .iter()
            .zip(&leg.push_ms)
            .map(|(d, p)| d + p)
            .collect();
        outcome.set(
            format!("lane.potentials_ms.{name}"),
            mean(&leg.potentials_ms),
            LANE_STEPS,
        );
        outcome.set(
            format!("lane.particles_ms.{name}"),
            mean(&particle_ms),
            LANE_STEPS,
        );
    }

    // --- simt: the Table II ratio at a second, smaller grid ---
    if sizes.lane == Lane::Traced {
        let small = Sizes { grid: 16, ..*sizes };
        let span = trace.open("probe.simt.sim_speedup_vs_heuristic", probes);
        let gpu_ms = |kernel: KernelKind| {
            let leg = run_leg(
                pool,
                device,
                &small.scenario(kernel, seed),
                backend,
                small.warmup_steps(),
                small.min_timed,
                trace,
                span,
            );
            mean(&leg.gpu_ms)
        };
        let ratio = gpu_ms(KernelKind::Heuristic) / gpu_ms(KernelKind::Predictive);
        trace.close(span);
        outcome.set(
            format!("simt.sim_speedup_vs_heuristic.{}", small.grid),
            ratio,
            small.min_timed,
        );
    }
    trace.close(probes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ns_times_every_repetition() {
        let mut calls = 0;
        let ns = median_ns(7, || calls += 1);
        assert_eq!(calls, 7);
        assert!(ns >= 0.0);
    }
}
