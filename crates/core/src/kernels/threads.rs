//! SIMT thread bodies shared by all three kernels, and the one driver that
//! runs them on either compute backend.

use beamdyn_beam::{GridRp, TapSink};
use beamdyn_obs::Counter;
use beamdyn_quad::{simpson_estimate_seeded, SeededEstimate, SimpsonSeed};
use beamdyn_simt::{launch, KernelStats, LaunchConfig, LaunchOutput, OpRecorder, WarpThread};

use super::{FallbackTask, RpProblem};
use crate::backend::BackendKind;
use crate::layout::DeviceLayout;
use crate::workspace::{
    AdaptiveScratch, CellLists, FailedFixedCell, FixedLaneScratch, LaneScratchArena,
};

/// Host-side integrand evaluations actually performed (each one runs the
/// full angular gather). Sample-reusing quadrature exists to push this down;
/// the bench gate pins it per kernel as `quad.integrand_evals`.
pub static INTEGRAND_EVALS: Counter = Counter::new("quad.integrand_evals");
/// Integrand abscissae whose value was reused from an earlier evaluation:
/// the host skipped the arithmetic and only replayed the simulated-device
/// op stream ([`GridRp::charge`]), so traced metrics are unaffected.
pub static INTEGRAND_REPLAYS: Counter = Counter::new("quad.integrand_replays");

/// Deepest bisection the adaptive thread will attempt before accepting an
/// interval regardless of its error estimate (2^-26 of the initial width is
/// far below any meaningful tolerance share). Also bounds the subdivision
/// worklist a lane's pooled scratch must hold.
pub(crate) const MAX_ADAPTIVE_DEPTH: u32 = 26;

/// Bridges integrand taps to traced device loads.
struct TraceSink<'a> {
    rec: &'a mut OpRecorder,
    layout: DeviceLayout,
}

impl TapSink for TraceSink<'_> {
    #[inline]
    fn tap(&mut self, step: usize, component: usize, ix: usize, iy: usize) {
        self.rec
            .load(self.layout.address(step, component, ix, iy), 8);
    }
    #[inline]
    fn tap_row(&mut self, step: usize, component: usize, ix0: usize, iy: usize, n: usize) {
        // One address resolution per patch row; consecutive `ix` are
        // consecutive addresses in the planar layout.
        let base = self.layout.address(step, component, ix0, iy);
        for k in 0..n as u64 {
            self.rec.load(base + k * DeviceLayout::ELEM_BYTES, 8);
        }
    }
    #[inline]
    fn flops(&mut self, n: u32) {
        self.rec.flops(n);
    }
}

/// The backend-facing half of a lane's sink. [`TapSink`] carries the
/// integrand's per-tap device traffic; `LaneSink` adds the two operations
/// whose *implementation* is what distinguishes the compute backends — how
/// one Simpson abscissa is evaluated and what a lane's retirement store
/// does. The thread bodies are generic over it, so TracedSimt and
/// NativeSimd run the exact same per-lane control flow in the exact same
/// order (the count-equality contract of `tests/backend_equivalence.rs`).
pub(crate) trait LaneSink: TapSink {
    /// Final accumulate + output store at lane retirement.
    fn store_output(&mut self, addr: u64);
    /// Evaluates (or reuses) the integrand at abscissa `r`; `known` carries
    /// a value the seeded quadrature already holds.
    fn integrand(&mut self, rp: &GridRp<'_>, x: f64, y: f64, r: f64, known: Option<f64>) -> f64;
}

/// TracedSimt: cached abscissae replay their op stream through
/// [`GridRp::charge`] and return the remembered value; fresh abscissae run
/// the real gather. Either way the simulated-device trace is identical —
/// only host arithmetic is saved.
impl LaneSink for TraceSink<'_> {
    #[inline]
    fn store_output(&mut self, addr: u64) {
        self.rec.store(addr, 8);
    }
    #[inline]
    fn integrand(&mut self, rp: &GridRp<'_>, x: f64, y: f64, r: f64, known: Option<f64>) -> f64 {
        match known {
            Some(v) => {
                INTEGRAND_REPLAYS.incr();
                rp.charge(x, y, r, self);
                v
            }
            None => {
                INTEGRAND_EVALS.incr();
                rp.eval(x, y, r, self)
            }
        }
    }
}

/// NativeSimd: an answers-only sink — every tap and store is a
/// monomorphized no-op and a cached abscissa skips even the charge replay.
/// Fresh abscissae run the vectorized gather ([`GridRp::eval_simd`]) —
/// 4-lane stencil rows, hoisted per-call setup — and the integrand-reuse
/// counters accumulate locally, flushed once per lane retirement instead
/// of one shared-cacheline `fetch_add` per abscissa (a measurable
/// contention cost with several workers). Totals are exactly equal to the
/// traced lane's; perf_smoke and the bench baseline pin them across both
/// backends.
#[derive(Debug, Default)]
pub(crate) struct SimdSink {
    evals: u64,
    replays: u64,
}

impl SimdSink {
    /// Publishes the locally-batched counters (call at lane retirement).
    fn flush(&mut self) {
        if self.evals > 0 {
            INTEGRAND_EVALS.add(self.evals);
        }
        if self.replays > 0 {
            INTEGRAND_REPLAYS.add(self.replays);
        }
        self.evals = 0;
        self.replays = 0;
    }
}

impl TapSink for SimdSink {
    #[inline]
    fn tap(&mut self, _step: usize, _component: usize, _ix: usize, _iy: usize) {}
    #[inline]
    fn flops(&mut self, _n: u32) {}
}

impl LaneSink for SimdSink {
    #[inline]
    fn store_output(&mut self, _addr: u64) {}
    #[inline]
    fn integrand(&mut self, rp: &GridRp<'_>, x: f64, y: f64, r: f64, known: Option<f64>) -> f64 {
        match known {
            Some(v) => {
                self.replays += 1;
                v
            }
            None => {
                self.evals += 1;
                rp.eval_simd(x, y, r)
            }
        }
    }
}

/// One seeded Simpson application through the lane's sink.
#[inline]
fn lane_simpson<S: LaneSink>(
    rp: &GridRp<'_>,
    sink: &mut S,
    x: f64,
    y: f64,
    a: f64,
    b: f64,
    seed: SimpsonSeed,
) -> SeededEstimate {
    simpson_estimate_seeded(|r, known| sink.integrand(rp, x, y, r, known), a, b, seed)
}

/// Outcome of one thread's rp-integral work. The variable-length lists
/// (accepted breaks, failed cells, need estimates, the adaptive worklist)
/// live in pooled scratch borrowed from the step workspace's
/// [`LaneScratchArena`], so a launch performs no per-lane heap allocation.
/// `S` is the lane's scratch view — [`FixedLaneScratch`] for the fixed
/// pass, `&mut `[`AdaptiveScratch`] for the adaptive pass — read back
/// uniformly through [`ScratchLists`](crate::workspace::ScratchLists).
#[derive(Debug)]
pub struct ThreadResult<S> {
    /// Row-major point index.
    pub point: u32,
    /// Accepted integral contribution.
    pub integral: f64,
    /// Accepted error contribution.
    pub error: f64,
    /// The lane's pooled scratch lists.
    pub scratch: S,
}

/// One interval of the adaptive thread's explicit worklist, carrying the
/// parent's Simpson samples so subdivision re-evaluates only the two new
/// abscissae.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveItem {
    /// Interval bounds.
    pub a: f64,
    /// Interval bounds.
    pub b: f64,
    /// Absolute tolerance apportioned to this interval.
    pub tol: f64,
    /// Bisection depth.
    pub depth: u32,
    /// Samples inherited from the parent interval.
    pub seed: SimpsonSeed,
}

/// `COMPUTE-RP-INTEGRAL`: one thread evaluating a *precomputed* list of
/// cells with exactly one Simpson rule application per cell — uniform
/// control flow across the warp by construction.
///
/// The cell list is a borrowed slice of the step's packed
/// [`CellLists`](crate::workspace::CellLists) buffer — lanes share the one
/// flat allocation the way device threads share a global cell buffer,
/// instead of each cloning its own `Vec`. Adjacent cells share their
/// boundary evaluation: cell `n`'s `f(b)` seeds cell `n+1`'s `f(a)` when
/// the edges are the same `f64` (partition cells abut exactly).
pub struct FixedCellsThread<'rp, 'w> {
    rp: &'rp GridRp<'rp>,
    layout: DeviceLayout,
    x: f64,
    y: f64,
    cells: &'rp [(f64, f64)],
    /// Total tolerance for this point; apportioned to cells by width.
    tolerance: f64,
    radius: f64,
    next: usize,
    stored: bool,
    /// Boundary cache: `(bits of previous cell's b, f(b))`.
    prev_edge: Option<(u64, f64)>,
    result: ThreadResult<FixedLaneScratch<'w>>,
}

impl<'rp, 'w> FixedCellsThread<'rp, 'w> {
    /// Builds the thread for `point` with its clipped cell list and pooled
    /// scratch slot.
    #[allow(clippy::too_many_arguments)] // mirrors the simulated launch ABI
    pub fn new(
        rp: &'rp GridRp<'rp>,
        layout: DeviceLayout,
        point: u32,
        x: f64,
        y: f64,
        radius: f64,
        cells: &'rp [(f64, f64)],
        tolerance: f64,
        scratch: FixedLaneScratch<'w>,
    ) -> Self {
        Self {
            rp,
            layout,
            x,
            y,
            cells,
            tolerance,
            radius,
            next: 0,
            stored: false,
            prev_edge: None,
            result: ThreadResult {
                point,
                integral: 0.0,
                error: 0.0,
                scratch,
            },
        }
    }
}

impl<'w> Lane for FixedCellsThread<'_, 'w> {
    type Output = ThreadResult<FixedLaneScratch<'w>>;

    fn into_result(self) -> Self::Output {
        self.result
    }

    /// One cell (or the retirement store) through the given sink.
    fn step_with<S: LaneSink>(&mut self, sink: &mut S) -> bool {
        if self.next >= self.cells.len() {
            if !self.stored {
                self.stored = true;
                sink.flops(4); // final accumulate
                sink.store_output(self.layout.output_address(self.result.point as usize));
                return true;
            }
            return false;
        }
        let (a, b) = self.cells[self.next];
        self.next += 1;
        let rp = self.rp;
        let seed = match self.prev_edge {
            Some((edge_bits, fb)) if edge_bits == a.to_bits() => SimpsonSeed {
                fa: Some(fb),
                ..SimpsonSeed::NONE
            },
            _ => SimpsonSeed::NONE,
        };
        let seeded = lane_simpson(rp, sink, self.x, self.y, a, b, seed);
        self.prev_edge = Some((b.to_bits(), seeded.samples.fb));
        let est = seeded.estimate;
        let tol = super::cell_tolerance(self.tolerance, b - a, self.radius);
        if est.error <= tol {
            self.result.integral += est.integral;
            self.result.error += est.error;
            let j = rp.config().subregion_of(0.5 * (a + b));
            if let Some(n) = self.result.scratch.need.get_mut(j) {
                *n += cell_need(est.error, tol);
            }
            self.result.scratch.breaks.push(b);
        } else {
            self.result.scratch.failed.push(FailedFixedCell {
                a,
                b,
                error: est.error,
                samples: seeded.samples,
            });
        }
        true
    }
}

/// Fractional cell-need of one accepted cell (see
/// [`FixedLaneScratch::need`]).
#[inline]
fn cell_need(error: f64, tol: f64) -> f64 {
    (error / tol.max(f64::MIN_POSITIVE))
        .max(0.0)
        .powf(0.25)
        .clamp(0.02, 16.0)
}

impl WarpThread for FixedCellsThread<'_, '_> {
    fn step(&mut self, rec: &mut OpRecorder) -> bool {
        let mut sink = TraceSink {
            rec,
            layout: self.layout,
        };
        self.step_with(&mut sink)
    }
}

/// `RP-ADAPTIVEQUADRATURE`: one thread running classic stack-based adaptive
/// Simpson over its own interval — the divergent workhorse of the fallback
/// pass and of Two-Phase-RP. Subdivision seeds each child with the parent's
/// three shared samples, so only the two new abscissae are evaluated.
pub struct AdaptiveThread<'rp, 'w> {
    rp: &'rp GridRp<'rp>,
    layout: DeviceLayout,
    x: f64,
    y: f64,
    max_depth: u32,
    min_depth: u32,
    stored: bool,
    result: ThreadResult<&'w mut AdaptiveScratch>,
}

impl<'rp, 'w> AdaptiveThread<'rp, 'w> {
    /// Builds the thread for one `([a, b], p)` task with its pooled scratch
    /// slot (which holds the subdivision worklist). `seed` carries whatever
    /// samples the task's origin already spent on `[a, b]` — for fallback
    /// tasks the fixed pass sampled all five abscissae, so the root estimate
    /// replays them without a single fresh evaluation.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rp: &'rp GridRp<'rp>,
        layout: DeviceLayout,
        point: u32,
        x: f64,
        y: f64,
        a: f64,
        b: f64,
        tolerance: f64,
        seed: SimpsonSeed,
        min_depth: u32,
        scratch: &'w mut AdaptiveScratch,
    ) -> Self {
        scratch.stack.push(AdaptiveItem {
            a,
            b,
            tol: tolerance,
            depth: 0,
            seed,
        });
        Self {
            rp,
            layout,
            x,
            y,
            max_depth: MAX_ADAPTIVE_DEPTH,
            min_depth,
            stored: false,
            result: ThreadResult {
                point,
                integral: 0.0,
                error: 0.0,
                scratch,
            },
        }
    }
}

impl<'w> Lane for AdaptiveThread<'_, 'w> {
    type Output = ThreadResult<&'w mut AdaptiveScratch>;

    fn into_result(self) -> Self::Output {
        self.result
    }

    /// One worklist item (or the retirement store) through the given sink.
    fn step_with<S: LaneSink>(&mut self, sink: &mut S) -> bool {
        let Some(item) = self.result.scratch.stack.pop() else {
            if !self.stored {
                self.stored = true;
                sink.flops(4);
                sink.store_output(self.layout.output_address(self.result.point as usize));
                return true;
            }
            return false;
        };
        let rp = self.rp;
        let seeded = lane_simpson(rp, sink, self.x, self.y, item.a, item.b, item.seed);
        let est = seeded.estimate;
        sink.flops(6); // convergence test + accumulation
        let converged = est.error <= item.tol && item.depth >= self.min_depth;
        if converged || item.depth >= self.max_depth {
            self.result.integral += est.integral;
            self.result.error += est.error;
            self.result.scratch.breaks.push(item.b);
            let j = rp.config().subregion_of(0.5 * (item.a + item.b));
            if let Some(n) = self.result.scratch.need.get_mut(j) {
                *n += cell_need(est.error, item.tol);
            }
        } else {
            let m = 0.5 * (item.a + item.b);
            self.result.scratch.stack.push(AdaptiveItem {
                a: m,
                b: item.b,
                tol: 0.5 * item.tol,
                depth: item.depth + 1,
                seed: seeded.samples.right_seed(),
            });
            self.result.scratch.stack.push(AdaptiveItem {
                a: item.a,
                b: m,
                tol: 0.5 * item.tol,
                depth: item.depth + 1,
                seed: seeded.samples.left_seed(),
            });
        }
        true
    }
}

impl WarpThread for AdaptiveThread<'_, '_> {
    fn step(&mut self, rec: &mut OpRecorder) -> bool {
        let mut sink = TraceSink {
            rec,
            layout: self.layout,
        };
        self.step_with(&mut sink)
    }
}

/// Per-point `(x, y, radius)` lookup both launch shapes share.
pub(crate) type PointXyr<'a> = &'a (dyn Fn(u32) -> (f64, f64, f64) + Sync);

/// A lane body both backends drive: the traced launch steps it through the
/// warp scheduler ([`WarpThread`] with a [`TraceSink`]), the NativeSimd
/// driver runs it to retirement through a [`SimdSink`].
trait Lane: WarpThread {
    /// What the retired lane hands back to the engine.
    type Output: Send;
    /// One unit of lane work through `sink`; `false` once retired.
    fn step_with<S: LaneSink>(&mut self, sink: &mut S) -> bool;
    /// Consumes the thread after retirement.
    fn into_result(self) -> Self::Output;
}

/// Runs one launch of `lanes` threads, built by `lane(tid)`, on `kind`'s
/// lane.
///
/// * TracedSimt — the simulated-device launch: blocks of
///   `threads_per_block`, warp-lockstep replay, op recording, full
///   [`KernelStats`].
/// * NativeSimd — the same threads run to retirement as plain indexed
///   parallel work: no block placement, no warp lockstep, no op recording.
///   `threads_per_block` is unused and the stats are zero (every derived
///   [`KernelStats`] rate degrades to 0 safely).
///
/// `results[tid]` holds lane `tid`'s outcome either way (the simulated
/// launch only *appends* `None` padding slots past `lanes`), and both
/// drivers write disjoint slots deterministically, so the engine's per-point
/// fold sees the same order on both backends at any pool width.
fn drive<T: Lane>(
    kind: BackendKind,
    problem: &RpProblem<'_>,
    threads_per_block: usize,
    lanes: usize,
    lane: impl Fn(usize) -> Option<T> + Sync,
) -> LaunchOutput<T::Output> {
    match kind {
        BackendKind::TracedSimt => {
            let tpb = threads_per_block.clamp(1, problem.device.max_threads_per_block);
            launch(
                problem.pool,
                problem.device,
                LaunchConfig {
                    blocks: lanes.div_ceil(tpb).max(1),
                    threads_per_block: tpb,
                },
                lane,
                T::into_result,
            )
        }
        BackendKind::NativeSimd => LaunchOutput {
            results: problem.pool.parallel_map_indexed(lanes, |tid| {
                let mut thread = lane(tid)?;
                let mut sink = SimdSink::default();
                while thread.step_with(&mut sink) {}
                sink.flush();
                Some(thread.into_result())
            }),
            stats: KernelStats::default(),
        },
    }
}

/// Runs the fixed-cells (uniform) main pass over the planned lane
/// assignments.
///
/// `cells.lane(tid)` gives each thread its point and a borrowed slice of
/// the packed cell buffer; padding lanes get no thread. `scratch` must be
/// prepared for `cells`.
pub(crate) fn run_fixed<'w>(
    kind: BackendKind,
    problem: &RpProblem<'_>,
    threads_per_block: usize,
    cells: &CellLists,
    scratch: &'w LaneScratchArena,
    point_xyr: PointXyr<'_>,
) -> LaunchOutput<ThreadResult<FixedLaneScratch<'w>>> {
    let rp = problem.integrand();
    drive(kind, problem, threads_per_block, cells.len(), |tid| {
        let (point, lane_cells) = cells.lane(tid)?;
        let (x, y, radius) = point_xyr(point);
        // SAFETY: both drivers materialise each `tid` exactly once per
        // launch and `tid` is a lane of the `cells` the arena was prepared
        // for, so each region is claimed by exactly one lane.
        let slot = unsafe { scratch.claim_fixed(tid) };
        Some(FixedCellsThread::new(
            &rp,
            problem.layout,
            point,
            x,
            y,
            radius,
            lane_cells,
            problem.tolerance,
            slot,
        ))
    })
}

/// Runs the adaptive pass, one thread per task (the paper maps the global
/// list `L` to threads one-to-one). `scratch` must be prepared for at
/// least `tasks.len()` lanes.
#[allow(clippy::mut_from_ref)] // the `&mut` slots come from the arena's claim contract
pub(crate) fn run_adaptive<'w>(
    kind: BackendKind,
    problem: &RpProblem<'_>,
    threads_per_block: usize,
    tasks: &[FallbackTask],
    scratch: &'w LaneScratchArena,
    point_xyr: PointXyr<'_>,
    min_depth: u32,
) -> LaunchOutput<ThreadResult<&'w mut AdaptiveScratch>> {
    let rp = problem.integrand();
    drive(kind, problem, threads_per_block, tasks.len(), |tid| {
        let task = tasks.get(tid)?;
        let (x, y, _) = point_xyr(task.point);
        // SAFETY: both drivers materialise each `tid` exactly once per
        // launch, and `tid < tasks.len()` (the prepared size).
        let slot = unsafe { scratch.claim_adaptive(tid) };
        Some(AdaptiveThread::new(
            &rp,
            problem.layout,
            task.point,
            x,
            y,
            task.a,
            task.b,
            task.tolerance,
            task.seed,
            min_depth,
            slot,
        ))
    })
}
