//! The plan/execute kernel engine and its three retarded-potential kernels.
//!
//! Every kernel — the paper's contribution and both published baselines —
//! factors into the same shape: a *plan* stage that fills the step's flat
//! [`CellLists`](crate::workspace::CellLists) with per-lane cell
//! assignments, a shared *execute* stage
//! (uniform main pass → adaptive fallback → finalize), and an optional
//! *observe* stage for online learning. [`PotentialsKernel`] captures that
//! contract; [`compute_potentials`] is the one engine driving it.
//!
//! * [`predictive`] — the paper's contribution (Algorithm 1).
//! * [`heuristic`] — the ref. [10] baseline (previous fastest).
//! * [`two_phase`] — the ref. [9] baseline (globally adaptive).

pub mod heuristic;
pub mod predictive;
pub mod threads;
pub mod two_phase;

use std::time::Duration;

use beamdyn_beam::{GridRp, RpConfig};
use beamdyn_obs as obs;
use beamdyn_obs::Counter;
use beamdyn_par::ThreadPool;
use beamdyn_pic::{GridGeometry, GridHistory};
use beamdyn_quad::{Partition, SimpsonSeed};
use beamdyn_simt::{DeviceConfig, KernelStats, SimTime};

use crate::backend::BackendKind;
use crate::driver::{KernelKind, SimulationConfig};
use crate::layout::DeviceLayout;
use crate::points::{build_points, GridPoint};
use crate::predictor::Predictor;
use crate::workspace::{CellLists, StepWorkspace};

pub use heuristic::Heuristic;
pub use predictive::Predictive;
pub use two_phase::TwoPhase;

/// Cells every main pass failed to converge on (forwarded to the adaptive
/// fallback), accumulated across all kernels and steps. Must stay equal to
/// the sum of [`PotentialsOutput::fallback_cells`] over the same window —
/// `tests/obs_accounting.rs` enforces this.
pub static FALLBACK_CELLS: Counter = Counter::new("kernels.fallback_cells");
/// Simulated kernel launches across all kernels and steps.
pub static LAUNCHES: Counter = Counter::new("kernels.launches");

/// Distribution of τ-miss depth: for every cell the main pass failed to
/// converge, the ratio of its Simpson error estimate to its apportioned
/// tolerance. Always ≥ 1 (a cell fails *because* its error exceeded the
/// tolerance); the tail shows how badly the plan under-resolved its worst
/// cells, which a perfect forecast would keep hugging 1.
static TAU_MISS_DEPTH: obs::Histogram = obs::Histogram::new("predict.tau_miss_depth");
/// Per-lockstep-group fallback fraction: failed cells / planned cells
/// within one warp/tile/block group. In [0, 1]; the paper's clustering
/// argument predicts a heavy mass at 0 with a short tail.
static CLUSTER_FALLBACK_FRAC: obs::Histogram = obs::Histogram::new("cluster.fallback_frac");
/// Raw failed-cell count per lockstep group. Integer-valued, so the
/// histogram's running *sum* stays exactly equal to the
/// `kernels.fallback_cells` counter over the same window —
/// `tests/prediction_quality.rs` pins this for all three kernels.
static CLUSTER_FALLBACK_CELLS: obs::Histogram = obs::Histogram::new("cluster.fallback_cells");

/// Everything a kernel needs to evaluate step `k`'s potentials.
pub struct RpProblem<'a> {
    /// Host thread pool driving the simulated SMs.
    pub pool: &'a ThreadPool,
    /// Simulated device.
    pub device: &'a DeviceConfig,
    /// Moment-grid history (`D`).
    pub history: &'a GridHistory,
    /// Integral discretisation.
    pub config: RpConfig,
    /// Device address layout of the history.
    pub layout: DeviceLayout,
    /// Grid geometry the point set `V_k` is built over.
    pub geometry: GridGeometry,
    /// Current time step `k`.
    pub step: usize,
    /// Error tolerance τ for each point's rp-integral.
    pub tolerance: f64,
}

impl<'a> RpProblem<'a> {
    /// The grid-backed integrand view for this step.
    pub fn integrand(&self) -> GridRp<'a> {
        GridRp::new(self.history, self.config, self.step)
    }
}

/// What a kernel's plan stage decided about the step's launches.
#[derive(Debug, Clone, Copy)]
pub struct ExecutionPlan {
    /// Threads per block of the uniform main pass.
    pub threads_per_block: usize,
    /// Threads per block of the adaptive fallback pass.
    pub fallback_tpb: usize,
    /// Host time the plan stage spent in RP-CLUSTERING (zero for kernels
    /// that do not cluster).
    pub clustering_time: Duration,
}

/// A COMPUTE-POTENTIALS strategy: one of the paper's kernels as a stateful
/// plan/execute/observe object.
///
/// The engine ([`compute_potentials`]) owns the control flow every kernel
/// shares — build points, plan, uniform main pass, adaptive fallback,
/// finalize, observe — while the kernel contributes only what actually
/// differs: how lanes and their cell lists are planned, and what it learns
/// from the observed patterns. Cross-step state (the online model, reused
/// partitions) lives either in the kernel object itself or in the
/// [`StepWorkspace`]'s previous-partition store.
pub trait PotentialsKernel: Send {
    /// Kernel name for reports and artifacts.
    fn name(&self) -> &'static str;

    /// Plans the step: installs each point's working partition/pattern and
    /// fills `ws.cells` with the main pass's lane assignments (warp padding
    /// included where the kernel needs it).
    fn plan(
        &mut self,
        problem: &RpProblem<'_>,
        points: &mut [GridPoint],
        ws: &mut StepWorkspace,
    ) -> ExecutionPlan;

    /// Observes the step's finalized points (ONLINE-LEARNING) together with
    /// the engine's execution record for the step; returns the host time
    /// spent training. The default does nothing.
    fn observe(
        &mut self,
        problem: &RpProblem<'_>,
        points: &[GridPoint],
        observation: &StepObservation<'_>,
    ) -> Duration {
        let _ = (problem, points, observation);
        Duration::ZERO
    }

    /// The online predictor, for kernels that carry one.
    fn predictor(&self) -> Option<&Predictor> {
        None
    }
}

/// Builds the kernel object a [`SimulationConfig`] selects.
pub fn build_kernel(config: &SimulationConfig) -> Box<dyn PotentialsKernel> {
    match config.kernel {
        KernelKind::TwoPhase => Box::new(TwoPhase::default()),
        KernelKind::Heuristic => Box::new(Heuristic::default()),
        KernelKind::Predictive => Box::new(Predictive::from_config(config)),
    }
}

/// Result of one COMPUTE-POTENTIALS invocation.
#[derive(Debug, Clone)]
pub struct PotentialsOutput {
    /// Updated per-point state (integral, error, observed pattern,
    /// partition) — the paper's `V` after the call. The driver's commit
    /// stage *moves* each partition into the workspace's previous-partition
    /// store, so records read back from telemetry have `partition = None`.
    pub points: Vec<GridPoint>,
    /// Machine counters of the main (uniform / fixed-partition) kernel.
    pub main_stats: KernelStats,
    /// Counters of the adaptive passes (fallback, or the refinement rounds
    /// of Two-Phase-RP).
    pub fallback_stats: KernelStats,
    /// Simulated GPU time over all launches.
    pub gpu_time: SimTime,
    /// Wall-clock host time spent in RP-CLUSTERING (zero for baselines that
    /// do not cluster).
    pub clustering_time: Duration,
    /// Wall-clock host time spent in ONLINE-LEARNING.
    pub training_time: Duration,
    /// Number of cells the main pass failed to converge (fallback volume).
    pub fallback_cells: usize,
    /// Number of simulated kernel launches.
    pub launches: usize,
}

impl PotentialsOutput {
    /// The potential field as a row-major value vector.
    pub fn potentials(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.integral).collect()
    }

    /// Merged machine counters over all passes.
    pub fn combined_stats(&self) -> KernelStats {
        let mut s = self.main_stats.clone();
        s.merge(&self.fallback_stats);
        s
    }

    /// Largest per-point error estimate — must be ≤ τ after the fallback.
    pub fn max_error(&self) -> f64 {
        self.points.iter().map(|p| p.error).fold(0.0, f64::max)
    }
}

/// A failed cell forwarded to the adaptive pass: the paper's `([a,b], p)`.
#[derive(Debug, Clone, Copy)]
pub struct FallbackTask {
    /// Point index in the row-major point list.
    pub point: u32,
    /// Cell bounds.
    pub a: f64,
    /// Cell bounds.
    pub b: f64,
    /// Absolute tolerance for this cell.
    pub tolerance: f64,
    /// How deep the main pass missed τ on this cell: its Simpson error
    /// estimate divided by `tolerance` (always > 1).
    pub miss: f64,
    /// The five Simpson samples the main pass already spent on `[a, b]`,
    /// so the adaptive root re-estimates the cell with zero fresh
    /// integrand evaluations (the values are bit-identical by the seeding
    /// contract, and the traced op stream is replayed unchanged).
    pub seed: SimpsonSeed,
}

/// The engine's execution record for one step, handed to
/// [`PotentialsKernel::observe`] so kernels can grade their own plans
/// (per-cluster fallback fractions, prediction error) without re-deriving
/// what the engine already knows.
pub struct StepObservation<'a> {
    /// Failed cells the main pass forwarded to the adaptive fallback (the
    /// paper's list `L`).
    pub fallback_tasks: &'a [FallbackTask],
    /// The planned lane assignments the main pass executed.
    pub cells: &'a CellLists,
    /// Point-level error tolerance τ of the step.
    pub tolerance: f64,
}

/// Reusable per-point accumulators for [`StepObservation::record_group_fallback`]
/// — kernels keep one across steps so observing allocates nothing in steady
/// state (the workspace discipline extends to diagnostics).
#[derive(Debug, Default)]
pub struct ClusterScratch {
    planned: Vec<f64>,
    fallback: Vec<f64>,
}

impl StepObservation<'_> {
    /// Records the `cluster.fallback_frac` / `cluster.fallback_cells`
    /// histograms over the kernel's lockstep groups: `groups` yields each
    /// group's member point indices (every point in at most one group;
    /// points outside all groups have no lanes and thus no failures).
    pub fn record_group_fallback<'g>(
        &self,
        scratch: &mut ClusterScratch,
        n_points: usize,
        groups: impl Iterator<Item = &'g [u32]>,
    ) {
        scratch.planned.clear();
        scratch.planned.resize(n_points, 0.0);
        scratch.fallback.clear();
        scratch.fallback.resize(n_points, 0.0);
        for tid in 0..self.cells.len() {
            if let Some((point, lane_cells)) = self.cells.lane(tid) {
                scratch.planned[point as usize] += lane_cells.len() as f64;
            }
        }
        for task in self.fallback_tasks {
            scratch.fallback[task.point as usize] += 1.0;
        }
        for group in groups {
            let planned: f64 = group.iter().map(|&i| scratch.planned[i as usize]).sum();
            let failed: f64 = group.iter().map(|&i| scratch.fallback[i as usize]).sum();
            CLUSTER_FALLBACK_CELLS.record(failed);
            if planned > 0.0 {
                // Failed cells are a subset of planned cells, so the
                // fraction is in [0, 1] by construction.
                CLUSTER_FALLBACK_FRAC.record(failed / planned);
            }
        }
    }
}

/// `COMPUTE-POTENTIALS`: the shared engine. Builds the step's point set,
/// has the kernel plan its lane assignments, runs the uniform main pass and
/// the adaptive fallback over the workspace's buffers — on the selected
/// [`BackendKind`] — finalizes the observed
/// patterns/partitions, and gives the kernel its learning pass.
pub fn compute_potentials(
    kernel: &mut dyn PotentialsKernel,
    backend: BackendKind,
    problem: &RpProblem<'_>,
    ws: &mut StepWorkspace,
) -> PotentialsOutput {
    let mut points = build_points(problem.geometry, &problem.config, problem.step);
    ws.begin_step(points.len(), problem.config.kappa);

    let plan = kernel.plan(problem, &mut points, ws);
    let outcome = execute_plan(backend, problem, &mut points, &plan, ws);
    finalize_points(&mut points, ws);
    // The main pass's task list and lane assignments survive until the next
    // `begin_step`, so observe can grade the plan they record.
    let observation = StepObservation {
        fallback_tasks: &ws.tasks,
        cells: &ws.cells,
        tolerance: problem.tolerance,
    };
    let training_time = kernel.observe(problem, &points, &observation);

    FALLBACK_CELLS.add(outcome.fallback_cells as u64);
    LAUNCHES.add(outcome.launches as u64);

    // Grade record for the flight recorder: the prediction-health signal
    // (fallback fraction) the health engine and post-mortems read.
    let mut grade = obs::FlightEvent::new(obs::EventKind::Grade);
    grade.step = problem.step as u64;
    grade.code = outcome.launches as u32;
    grade.value = if points.is_empty() {
        0.0
    } else {
        outcome.fallback_cells as f64 / points.len() as f64
    };
    grade.extra = outcome.fallback_cells as f64;
    obs::flight::record(grade);

    PotentialsOutput {
        points,
        main_stats: outcome.main_stats,
        fallback_stats: outcome.fallback_stats,
        gpu_time: outcome.gpu_time,
        clustering_time: plan.clustering_time,
        training_time,
        fallback_cells: outcome.fallback_cells,
        launches: outcome.launches,
    }
}

/// Machine-side outcome of [`execute_plan`].
struct ExecOutcome {
    main_stats: KernelStats,
    fallback_stats: KernelStats,
    gpu_time: SimTime,
    fallback_cells: usize,
    launches: usize,
}

/// Runs the planned uniform main pass, gathers its failed cells and runs
/// the adaptive fallback on them (lines 13–24 of Algorithm 1) — the stage
/// every kernel shares verbatim. Both launches go through the selected
/// backend; everything around them (scratch preparation, result folding,
/// fallback accounting) is backend-independent by construction.
fn execute_plan(
    backend: BackendKind,
    problem: &RpProblem<'_>,
    points: &mut [GridPoint],
    plan: &ExecutionPlan,
    ws: &mut StepWorkspace,
) -> ExecOutcome {
    // One pooled scratch slot per main-pass lane; the arena is reused
    // across launches and steps, so steady-state launches allocate nothing.
    ws.lane_scratch
        .prepare_fixed(&ws.cells, problem.config.kappa);
    let main = {
        let _main_span = obs::span!("main_pass");
        let pts: &[GridPoint] = points;
        let xyr = |i: u32| {
            let p = &pts[i as usize];
            (p.x, p.y, p.radius)
        };
        threads::run_fixed(
            backend,
            problem,
            plan.threads_per_block,
            &ws.cells,
            &ws.lane_scratch,
            &xyr,
        )
    };
    // Destructure so the scratch-borrowing results die with `apply_results`
    // and the arena can be re-prepared (mutably) for the fallback launch.
    let beamdyn_simt::LaunchOutput {
        results: main_results,
        stats: main_stats,
    } = main;
    // Simulated device time exists only when the backend actually traced
    // the launches; charging the fixed launch overhead for NativeSimd would
    // report phantom gpu_time for a machine that was never modeled.
    let simulates = backend == BackendKind::TracedSimt;
    let mut gpu_time = if simulates {
        main_stats.timing(problem.device).total_time()
    } else {
        beamdyn_simt::SimTime::ZERO
    };
    apply_results(
        points,
        main_results.into_iter().flatten(),
        problem.tolerance,
        &mut ws.break_edges,
        &mut ws.need,
        ws.need_width,
        &mut ws.tasks,
    );

    let fallback_cells = ws.tasks.len();
    for task in &ws.tasks {
        TAU_MISS_DEPTH.record(task.miss);
    }
    let mut fallback_stats = KernelStats::default();
    let mut launches = 1;
    if !ws.tasks.is_empty() {
        let _fallback_span = obs::span!("fallback_pass");
        // Fallback lanes can outnumber main-pass lanes (one lane may fail
        // several cells), so the arena is re-prepared with the task count.
        ws.lane_scratch
            .prepare_adaptive(ws.tasks.len(), problem.config.kappa);
        let fb = {
            let pts: &[GridPoint] = points;
            let xyr = |i: u32| {
                let p = &pts[i as usize];
                (p.x, p.y, p.radius)
            };
            threads::run_adaptive(
                backend,
                problem,
                plan.fallback_tpb,
                &ws.tasks,
                &ws.lane_scratch,
                &xyr,
                0,
            )
        };
        let beamdyn_simt::LaunchOutput {
            results: fb_results,
            stats: fb_stats,
        } = fb;
        if simulates {
            gpu_time += fb_stats.timing(problem.device).total_time();
        }
        launches += 1;
        apply_results(
            points,
            fb_results.into_iter().flatten(),
            problem.tolerance,
            &mut ws.break_edges,
            &mut ws.need,
            ws.need_width,
            &mut ws.spare_tasks,
        );
        debug_assert!(
            ws.spare_tasks.is_empty(),
            "adaptive threads never report failures"
        );
        fallback_stats = fb_stats;
    }

    ExecOutcome {
        main_stats,
        fallback_stats,
        gpu_time,
        fallback_cells,
        launches,
    }
}

/// Per-point tolerance share for a cell of width `w` within radius `r`.
pub(crate) fn cell_tolerance(total: f64, w: f64, r: f64) -> f64 {
    total * (w / r.max(f64::MIN_POSITIVE)).min(1.0)
}

/// Folds thread results into the point set: accumulates integral and error,
/// collects partition break edges and need counts into the workspace's flat
/// accumulators, and turns failed cells into fallback tasks (lines 14–16
/// and 18–24 of Algorithm 1 do this on the lists `L'` and `L`).
///
/// `need` is the flat per-point accumulator, `need_width` entries per point;
/// `break_edges` collects `(point, right edge)` pairs in result order. The
/// per-point float accumulation order is exactly the per-result order of
/// the old nested-`Vec` accumulators, so results stay bit-identical across
/// thread-pool widths (tests/determinism.rs).
pub(crate) fn apply_results<S: crate::workspace::ScratchLists>(
    points: &mut [GridPoint],
    results: impl Iterator<Item = threads::ThreadResult<S>>,
    tolerance: f64,
    break_edges: &mut Vec<(u32, f64)>,
    need: &mut [f64],
    need_width: usize,
    tasks: &mut Vec<FallbackTask>,
) {
    for r in results {
        let p = &mut points[r.point as usize];
        p.integral += r.integral;
        p.error += r.error;
        let acc = &mut need[r.point as usize * need_width..][..need_width];
        for (a, n) in acc.iter_mut().zip(r.scratch.need()) {
            *a += n;
        }
        for &b in r.scratch.breaks() {
            break_edges.push((r.point, b));
        }
        for cell in r.scratch.failed() {
            let cell_tol = cell_tolerance(tolerance, cell.b - cell.a, p.radius);
            tasks.push(FallbackTask {
                point: r.point,
                a: cell.a,
                b: cell.b,
                tolerance: cell_tol,
                miss: cell.error / cell_tol.max(f64::MIN_POSITIVE),
                seed: cell.samples.full_seed(),
            });
        }
    }
}

/// After all passes: reconstructs each point's final partition from the
/// accumulated break edges and installs its observed access pattern from
/// the resolution-independent need estimates. Points whose threads reported
/// no accepted cells keep their planned partition.
pub(crate) fn finalize_points(points: &mut [GridPoint], ws: &mut StepWorkspace) {
    // Sorting the flat edge list by (point, value) yields, per point, the
    // same sorted edge sequence the old per-point sort produced: the sorted
    // order of a multiset does not depend on arrival order.
    ws.break_edges
        .sort_unstable_by(|a, b| a.0.cmp(&b.0).then(f64::total_cmp(&a.1, &b.1)));
    let width = ws.need_width;
    let mut cursor = 0usize;
    for (i, p) in points.iter_mut().enumerate() {
        let start = cursor;
        while cursor < ws.break_edges.len() && ws.break_edges[cursor].0 as usize == i {
            cursor += 1;
        }
        if cursor > start {
            let mut edges = Vec::with_capacity(cursor - start + 1);
            edges.push(0.0);
            edges.extend(ws.break_edges[start..cursor].iter().map(|&(_, e)| e));
            edges.dedup_by(|a, b| (*a - *b).abs() <= 1e-12 * (1.0 + a.abs()));
            if edges.len() >= 2 {
                p.partition = Some(Partition::new(edges));
            }
        }
        p.pattern =
            crate::pattern::AccessPattern::from_counts(ws.need[i * width..][..width].to_vec());
    }
}

/// Clips a cluster-merged partition to one point's `[0, R(p)]` cell list.
/// A degenerate radius (`radius <= 0`) yields no cells.
///
/// This is the allocating reference implementation of
/// [`CellLists::push_clipped_lane`](crate::workspace::CellLists::push_clipped_lane);
/// the engine uses the latter, and `tests/property_invariants.rs` holds the
/// two equivalent.
pub fn cells_for_point(merged: &Partition, radius: f64) -> Vec<(f64, f64)> {
    if radius <= 0.0 {
        return Vec::new();
    }
    merged
        .clip(0.0, radius)
        .map(|p| p.iter_cells().collect())
        .unwrap_or_else(|| vec![(0.0, radius)])
}
