//! The three in-process workloads: `solve_heavy`, `push_heavy`,
//! `sim_traced`.
//!
//! Each kernel runs as its own *leg*: a fresh `Simulation` built from a
//! `ScenarioSpec`, κ+3 warm-up steps (history ring full, predictor
//! trained, workspace at capacity — set-up time), then timed steps, each
//! `run_step` timed on its own, until the leg's share of `--seconds` is
//! used. Everything is measured from outside the library: `Instant`
//! around public calls, the `StepTelemetry` each step returns, and the
//! public counter registry.

use std::time::{Duration, Instant};

use beamdyn::beam::GaussianBunch;
use beamdyn::core::{BackendKind, KernelKind, ScenarioSpec, Simulation, StepTelemetry};
use beamdyn::obs;
use beamdyn::par::ThreadPool;
use beamdyn::pic::GridGeometry;
use beamdyn::simt::{DeviceConfig, KernelStats};

use crate::json::{self, Value};
use crate::probes;
use crate::report::{nproc, Outcome};
use crate::spans::{SpanId, Trace};
use crate::stats::{mean, median, ms, percentile, quiet};

/// The kernels, in the order their legs run, under their request names.
pub const KERNELS: [(KernelKind, &str); 3] = [
    (KernelKind::TwoPhase, "two-phase"),
    (KernelKind::Heuristic, "heuristic"),
    (KernelKind::Predictive, "predictive"),
];

/// With the library's default coupling (1e-3) this bunch blows up to
/// σy 0.43 and 28 % of the charge leaves the grid within 80 steps, which
/// triples the step time mid-run; at 1e-5 it is stationary and ≥ 0.9999
/// of the charge stays in the grid, so every timed step does like work.
const FORCE_SCALE: f64 = 1e-5;
/// A session of the serving workload runs this many steps; the in-process
/// workloads time their steps in blocks of as many.
pub const SESSION_STEPS: usize = 6;
/// Particles' worth of scenario construction each leg times: one build of
/// the largest workload, several of a smaller one.
const SUBMIT_PARTICLE_BUDGET: usize = 1_000_000;
/// No leg times more steps than this, however long `--seconds` is: the
/// bunch drifts, and past this it starts to leave the grid.
const MAX_TIMED_STEPS: usize = 84;
/// Kernels may differ by this share of max|φ| (measured spread 3e-5 at
/// τ 1e-6; Two-Phase, globally adaptive, is the reference).
const POTENTIAL_TOLERANCE: f64 = 2e-4;
/// The bunch drifts towards the grid's edge; after the longest run
/// 0.997 of the charge is still inside. What this catches is a blow-up.
const MIN_IN_GRID_CHARGE: f64 = 0.99;
/// The seed the committed `expected/<workload>.json` references were
/// written with.
pub const REFERENCE_SEED: u64 = 42;

/// Which compute lane a workload asks for, by request name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lane {
    /// The fastest host lane a user can ask for.
    FastestHost,
    /// The recording lane that yields the simulated-GPU statistics.
    Traced,
}

/// Resolves a lane by asking the library to parse request names, so the
/// benchmark keeps working when a lane is removed or renamed to an alias.
/// Returns the request name that parsed and what it parsed to.
pub fn resolve_lane(lane: Lane) -> (&'static str, BackendKind) {
    let names: &[&'static str] = match lane {
        Lane::FastestHost => &["native-simd", "native"],
        Lane::Traced => &["traced"],
    };
    names
        .iter()
        .find_map(|name| BackendKind::parse(name).map(|kind| (*name, kind)))
        .unwrap_or_else(|| panic!("the library parses none of the lane names {names:?}"))
}

/// The fixed sizes of one in-process workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub name: &'static str,
    pub grid: usize,
    pub particles: usize,
    pub kappa: usize,
    pub lane: Lane,
    /// Timed steps every leg runs at least, whatever `--seconds` says;
    /// counts and simulated statistics are taken over exactly these, so
    /// they repeat from run to run.
    pub min_timed: usize,
    /// How often each leg is set up (the last one is kept): a set-up of
    /// half a second read once moved by 30 % from run to run, so the cheap
    /// ones are repeated and the median reported.
    pub setups: usize,
}

pub const SOLVE_HEAVY: Sizes = Sizes {
    name: "solve_heavy",
    grid: 48,
    particles: 50_000,
    kappa: 12,
    lane: Lane::FastestHost,
    min_timed: 18,
    setups: 3,
};
pub const PUSH_HEAVY: Sizes = Sizes {
    name: "push_heavy",
    grid: 24,
    particles: 1_000_000,
    kappa: 6,
    lane: Lane::FastestHost,
    min_timed: 18,
    setups: 3,
};
pub const SIM_TRACED: Sizes = Sizes {
    name: "sim_traced",
    grid: 32,
    particles: 20_000,
    kappa: 12,
    lane: Lane::Traced,
    min_timed: 6,
    // Two seconds per kernel, and steady as it is.
    setups: 1,
};

impl Sizes {
    pub fn warmup_steps(&self) -> usize {
        self.kappa + 3
    }

    pub fn geometry(&self) -> GridGeometry {
        GridGeometry::unit(self.grid, self.grid)
    }

    /// The scenario every leg of this workload builds.
    pub fn scenario(&self, kernel: KernelKind, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            name: self.name.to_string(),
            kernel,
            nx: self.grid,
            ny: self.grid,
            particles: self.particles,
            tolerance: 1e-6,
            kappa: self.kappa,
            seed,
            bunch: GaussianBunch {
                sigma_x: 0.12,
                sigma_y: 0.03,
                center_x: 0.4,
                center_y: 0.5,
                charge: 1.0,
                velocity_spread: 0.0,
                drift_vx: 0.05,
                chirp: 0.0,
            },
            ..ScenarioSpec::default()
        }
    }
}

/// What one leg measured. Per-step vectors hold one entry per timed step.
pub struct Leg {
    /// Spec → ready `Simulation` (validate, sample the bunch, construct),
    /// once per repetition of the construction.
    pub submits: Vec<Duration>,
    /// All of that plus the warm-up steps (the workload puts the median
    /// over its repeated set-ups here).
    pub setup: Duration,
    pub timed_wall: Duration,
    pub step_ms: Vec<f64>,
    pub deposit_ms: Vec<f64>,
    pub potentials_ms: Vec<f64>,
    pub push_ms: Vec<f64>,
    pub clustering_ms: Vec<f64>,
    pub training_ms: Vec<f64>,
    pub overall_ms: Vec<f64>,
    pub gpu_ms: Vec<f64>,
    pub fallback_cells: Vec<f64>,
    pub launches: Vec<f64>,
    /// Machine counters merged over the first `exact_steps` timed steps.
    pub stats: KernelStats,
    /// Fresh integrand evaluations / replayed samples over the same steps.
    pub evals: u64,
    pub replays: u64,
    pub exact_steps: usize,
    /// Potentials after the last warm-up step: every kernel is at the same
    /// step index there, whatever the timed phase's length.
    pub reference: Vec<f64>,
    pub nonfinite_steps: usize,
    pub in_grid_charge: f64,
    pub workspace_bytes: usize,
    /// Timed steps during which the workspace's capacity still grew.
    pub workspace_grown_steps: usize,
}

impl Leg {
    /// Mean of a per-step series over the steps whose count is fixed.
    fn exact_mean(&self, per_step: &[f64]) -> f64 {
        mean(&per_step[..self.exact_steps])
    }
}

fn integrand_counters() -> (u64, u64) {
    (
        obs::counter_value("quad.integrand_evals").unwrap_or(0),
        obs::counter_value("quad.integrand_replays").unwrap_or(0),
    )
}

/// Share of the beam's charge inside the grid.
fn in_grid_charge(sim: &Simulation<'_>, geometry: GridGeometry) -> f64 {
    let beam = sim.beam();
    let inside: f64 = beam
        .particles
        .iter()
        .filter(|p| geometry.contains(p.x, p.y))
        .map(|p| p.weight)
        .sum();
    inside / beam.total_charge()
}

/// Records the step's span and, under it, the stage spans whose durations
/// the library measured and returned. Stages are laid end to end from the
/// step's start; clustering and training are placed at the start of the
/// potentials stage (their durations are measured, their offsets are not).
fn record_step_spans(
    trace: &Trace,
    parent: SpanId,
    start: Instant,
    wall: Duration,
    t: &StepTelemetry,
) {
    let step = trace.record("core.step", parent, start, wall);
    trace.record("pic.deposit", step, start, t.deposit_time);
    let potentials_start = start + t.deposit_time;
    let potentials = trace.record("core.potentials", step, potentials_start, t.potentials_time);
    trace.record(
        "core.clustering",
        potentials,
        potentials_start,
        t.potentials.clustering_time,
    );
    trace.record(
        "core.training",
        potentials,
        potentials_start + t.potentials.clustering_time,
        t.potentials.training_time,
    );
    trace.record(
        "beam.gather_push",
        step,
        potentials_start + t.potentials_time,
        t.push_time,
    );
}

/// A leg in progress: a warm simulation and what its timed steps have
/// measured so far. Legs of one workload take turns, a block of steps at
/// a time, so each kernel's samples span the whole run and a slow spell
/// of the machine falls on all kernels alike.
pub struct RunningLeg<'a> {
    sim: Simulation<'a>,
    leg: Leg,
    last: StepTelemetry,
    workspace_bytes: usize,
    geometry: GridGeometry,
    /// Span name of this leg's timed blocks, and the span they hang under.
    timed_name: String,
    parent: SpanId,
}

impl<'a> RunningLeg<'a> {
    /// Builds a fresh simulation from `spec` on `backend` and warms it up.
    /// Counts and simulated statistics will be taken over the first
    /// `exact_steps` timed steps.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        pool: &'a ThreadPool,
        device: &'a DeviceConfig,
        spec: &ScenarioSpec,
        backend: BackendKind,
        warmup_steps: usize,
        exact_steps: usize,
        trace: &Trace,
        parent: SpanId,
    ) -> Self {
        assert!(warmup_steps > 0, "a leg warms up before it is timed");
        let kernel = spec.kernel_request_name();
        let span = trace.open(&format!("setup.{kernel}"), parent);
        let setup_start = Instant::now();
        // A small scenario is built in a few milliseconds, too short to
        // time once: build it as often as fits the time one large build
        // takes, and keep the last.
        let builds = (SUBMIT_PARTICLE_BUDGET / spec.particles).clamp(1, 8);
        let mut submits = Vec::with_capacity(builds);
        let mut sim = None;
        for _ in 0..builds {
            drop(sim.take());
            let build_span = trace.open("core.scenario_build", span);
            let build_start = Instant::now();
            spec.validate()
                .expect("the benchmark's scenarios are valid");
            let (mut config, beam) = spec.build(backend);
            config.force_scale = FORCE_SCALE;
            sim = Some(Simulation::new(pool, device, config, beam));
            submits.push(build_start.elapsed());
            trace.close(build_span);
        }
        let mut sim = sim.expect("a leg builds its simulation at least once");

        let warmup_span = trace.open("warmup", span);
        let mut last = sim.run_step();
        for _ in 1..warmup_steps {
            last = sim.run_step();
        }
        trace.close(warmup_span);
        trace.close(span);
        let leg = Leg {
            submits,
            setup: setup_start.elapsed(),
            timed_wall: Duration::ZERO,
            step_ms: Vec::new(),
            deposit_ms: Vec::new(),
            potentials_ms: Vec::new(),
            push_ms: Vec::new(),
            clustering_ms: Vec::new(),
            training_ms: Vec::new(),
            overall_ms: Vec::new(),
            gpu_ms: Vec::new(),
            fallback_cells: Vec::new(),
            launches: Vec::new(),
            stats: KernelStats::default(),
            evals: 0,
            replays: 0,
            exact_steps,
            reference: last.potentials.potentials(),
            nonfinite_steps: 0,
            in_grid_charge: 0.0,
            workspace_bytes: 0,
            workspace_grown_steps: 0,
        };
        let workspace_bytes = sim.workspace().bytes_resident();
        Self {
            sim,
            leg,
            last,
            workspace_bytes,
            geometry: GridGeometry::unit(spec.nx, spec.ny),
            timed_name: format!("timed.{kernel}"),
            parent,
        }
    }

    pub fn timed_steps(&self) -> usize {
        self.leg.step_ms.len()
    }

    /// Times `steps` more steps, each `run_step` on its own.
    pub fn time_block(&mut self, steps: usize, trace: &Trace) {
        let block_span = trace.open(&self.timed_name, self.parent);
        let block_start = Instant::now();
        let leg = &mut self.leg;
        for _ in 0..steps {
            // The integrand counters are process-wide and legs take turns,
            // so a leg reads them around each of its own counted steps.
            let counted = leg.step_ms.len() < leg.exact_steps;
            let before = if counted {
                integrand_counters()
            } else {
                (0, 0)
            };
            let start = Instant::now();
            let telemetry = self.sim.run_step();
            let wall = start.elapsed();
            record_step_spans(trace, block_span, start, wall, &telemetry);

            leg.step_ms.push(ms(wall));
            leg.deposit_ms.push(ms(telemetry.deposit_time));
            leg.potentials_ms.push(ms(telemetry.potentials_time));
            leg.push_ms.push(ms(telemetry.push_time));
            let p = &telemetry.potentials;
            leg.clustering_ms.push(ms(p.clustering_time));
            leg.training_ms.push(ms(p.training_time));
            leg.overall_ms
                .push(telemetry.stage_overall_time().seconds() * 1e3);
            leg.gpu_ms.push(p.gpu_time.seconds() * 1e3);
            leg.fallback_cells.push(p.fallback_cells as f64);
            leg.launches.push(p.launches as f64);
            if !p.points.iter().all(|point| point.integral.is_finite()) {
                leg.nonfinite_steps += 1;
            }
            let bytes = self.sim.workspace().bytes_resident();
            if bytes > self.workspace_bytes {
                leg.workspace_grown_steps += 1;
            }
            self.workspace_bytes = bytes;
            if counted {
                let after = integrand_counters();
                leg.evals += after.0 - before.0;
                leg.replays += after.1 - before.1;
                leg.stats.merge(&p.combined_stats());
            }
            self.last = telemetry;
        }
        leg.timed_wall += block_start.elapsed();
        trace.close(block_span);
    }

    /// Ends the leg: its measurements, and the simulation, still warm, with
    /// its last step's telemetry, for probes that want the state.
    pub fn finish(mut self) -> (Leg, Simulation<'a>, StepTelemetry) {
        assert!(
            self.leg.step_ms.len() >= self.leg.exact_steps,
            "a leg runs at least the steps its counts are taken over"
        );
        self.leg.in_grid_charge = in_grid_charge(&self.sim, self.geometry);
        self.leg.workspace_bytes = self.workspace_bytes;
        (self.leg, self.sim, self.last)
    }
}

/// One leg on its own, for the probes: warm up, time `steps`, finish.
#[allow(clippy::too_many_arguments)]
pub fn run_leg<'a>(
    pool: &'a ThreadPool,
    device: &'a DeviceConfig,
    spec: &ScenarioSpec,
    backend: BackendKind,
    warmup_steps: usize,
    steps: usize,
    trace: &Trace,
    parent: SpanId,
) -> Leg {
    let mut running = RunningLeg::start(
        pool,
        device,
        spec,
        backend,
        warmup_steps,
        steps,
        trace,
        parent,
    );
    running.time_block(steps, trace);
    running.finish().0
}

/// Largest |a − b| as a share of max|b|; infinite when the fields cannot
/// be compared (lengths differ, a value is not finite, b is all zero).
fn relative_difference(a: &[f64], b: &[f64]) -> f64 {
    let scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let finite = a.iter().chain(b).all(|v| v.is_finite());
    if a.len() != b.len() || !finite || scale == 0.0 {
        return f64::INFINITY;
    }
    let worst = a
        .iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
    worst / scale
}

fn expected_path(workload: &str) -> String {
    format!("benchmark/expected/{workload}.json")
}

/// The simulated statistics of the legs, in a fixed order, for the
/// reference file. They are exact: same code and seed give the same bits.
fn simulated_statistics(legs: &[Leg]) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    for ((_, kernel), leg) in KERNELS.iter().zip(legs) {
        rows.push((
            format!("gpu_ms_per_step.{kernel}"),
            leg.exact_mean(&leg.gpu_ms),
        ));
        rows.push((
            format!("issued_instructions.{kernel}"),
            leg.stats.issued_instructions as f64,
        ));
        rows.push((
            format!("active_lane_instructions.{kernel}"),
            leg.stats.active_lane_instructions as f64,
        ));
        rows.push((format!("l1_hits.{kernel}"), leg.stats.l1_hits as f64));
        rows.push((format!("dram_bytes.{kernel}"), leg.stats.dram_bytes as f64));
        rows.push((
            format!("fallback_cells.{kernel}"),
            leg.fallback_cells[..leg.exact_steps].iter().sum(),
        ));
        rows.push((
            format!("launches.{kernel}"),
            leg.launches[..leg.exact_steps].iter().sum(),
        ));
    }
    rows
}

fn write_expected(sizes: &Sizes, legs: &[Leg]) -> Result<(), String> {
    let stats: Vec<String> = simulated_statistics(legs)
        .iter()
        .map(|(name, value)| format!("    {}: {}", json::quote(name), json::number(*value)))
        .collect();
    let text = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {REFERENCE_SEED},\n  \"step\": {},\n  \
         \"exact_steps\": {},\n  \"statistics\": {{\n{}\n  }},\n  \"potentials\": {}\n}}\n",
        json::quote(sizes.name),
        sizes.warmup_steps(),
        sizes.min_timed,
        stats.join(",\n"),
        json::number_array(&legs[0].reference),
    );
    let path = expected_path(sizes.name);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Compares the run with the committed seed-42 reference: the Two-Phase
/// potentials within the kernels' own tolerance (so a last-ulp
/// reassociation passes and a wrong answer does not). Simulated
/// statistics that moved are reported, not failed: a change to the
/// modelled kernels legitimately moves them and must say so itself.
fn check_against_expected(sizes: &Sizes, legs: &[Leg], outcome: &mut Outcome) {
    let path = expected_path(sizes.name);
    let doc = match std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| json::parse(&text))
    {
        Ok(doc) => doc,
        Err(e) => {
            outcome.check(false, || format!("reference {path} is unreadable: {e}"));
            return;
        }
    };
    let potentials: Vec<f64> = doc
        .get("potentials")
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default();
    let difference = relative_difference(&legs[0].reference, &potentials);
    outcome.check(difference <= POTENTIAL_TOLERANCE, || {
        format!(
            "two-phase potentials differ from {path} by {difference:.3e} of max|phi| \
             (allowed {POTENTIAL_TOLERANCE:.0e})"
        )
    });
    let recorded = doc.get("statistics");
    for (name, value) in simulated_statistics(legs) {
        let was = recorded.and_then(|s| s.num(&name));
        if was != Some(value) {
            eprintln!(
                "note: {}: simulated statistic {name} is {value}, the seed-{REFERENCE_SEED} \
                 reference holds {was:?} — the modelled kernels changed",
                sizes.name
            );
        }
    }
}

/// Runs one in-process workload and fills in every metric it has.
pub fn run(
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    trace: &Trace,
    write_reference: bool,
    process_start: Instant,
) -> Result<Outcome, String> {
    let (_, backend) = resolve_lane(sizes.lane);
    let mut outcome = Outcome {
        lane: backend.name().to_string(),
        ..Outcome::default()
    };
    // The caller of a parallel loop helps run it, so nproc − 1 workers
    // keep nproc threads busy without oversubscribing the box.
    let pool = ThreadPool::new(nproc().saturating_sub(1));
    let device = DeviceConfig::tesla_k40();
    let root = trace.open(sizes.name, None);
    let common_setup = process_start.elapsed();

    let mut running: Vec<RunningLeg<'_>> = Vec::with_capacity(KERNELS.len());
    for (kernel, _) in KERNELS {
        let spec = sizes.scenario(kernel, seed);
        let mut setups = Vec::with_capacity(sizes.setups);
        let mut submits = Vec::new();
        let mut kept: Option<RunningLeg<'_>> = None;
        for _ in 0..sizes.setups {
            // One simulation of a kernel at a time, as in a single set-up.
            drop(kept.take());
            let mut fresh = RunningLeg::start(
                &pool,
                &device,
                &spec,
                backend,
                sizes.warmup_steps(),
                sizes.min_timed,
                trace,
                root,
            );
            setups.push(fresh.leg.setup.as_secs_f64());
            submits.append(&mut fresh.leg.submits);
            kept = Some(fresh);
        }
        let mut leg = kept.expect("a workload sets each leg up at least once");
        leg.leg.setup = Duration::from_secs_f64(median(&setups));
        leg.leg.submits = submits;
        running.push(leg);
    }
    let budget = Duration::from_secs_f64(seconds);
    let timed_start = Instant::now();
    loop {
        for leg in &mut running {
            leg.time_block(SESSION_STEPS, trace);
        }
        let steps = running[0].timed_steps();
        let enough = steps >= sizes.min_timed && timed_start.elapsed() >= budget;
        if enough || steps >= MAX_TIMED_STEPS {
            break;
        }
    }
    let mut legs = Vec::with_capacity(KERNELS.len());
    let mut kept = None;
    for leg in running {
        let (leg, sim, last) = leg.finish();
        legs.push(leg);
        kept = Some((sim, last));
    }
    let peak_rss_mb = crate::procfs::peak_rss_mb("self");

    // --- correctness, outside the timed region ---
    for ((_, kernel), leg) in KERNELS.iter().zip(&legs) {
        outcome.attempted += leg.step_ms.len() as u64;
        outcome.failed += leg.nonfinite_steps as u64;
        if leg.nonfinite_steps > 0 {
            outcome.failures.push(format!(
                "{kernel}: {} timed steps produced a non-finite potential",
                leg.nonfinite_steps
            ));
        }
        outcome.check(leg.in_grid_charge >= MIN_IN_GRID_CHARGE, || {
            format!(
                "{kernel}: only {:.5} of the charge is still in the grid",
                leg.in_grid_charge
            )
        });
    }
    for ((_, kernel), leg) in KERNELS.iter().zip(&legs).skip(1) {
        let difference = relative_difference(&leg.reference, &legs[0].reference);
        outcome.check(difference <= POTENTIAL_TOLERANCE, || {
            format!(
                "{kernel} potentials differ from two-phase by {difference:.3e} of max|phi| \
                 (allowed {POTENTIAL_TOLERANCE:.0e})"
            )
        });
    }
    if write_reference {
        if seed != REFERENCE_SEED {
            return Err(format!(
                "references are written with --seed {REFERENCE_SEED}"
            ));
        }
        write_expected(sizes, &legs)?;
    } else if seed == REFERENCE_SEED {
        check_against_expected(sizes, &legs, &mut outcome);
    }

    // --- end-to-end metrics ---
    // In-process timings are lower deciles: on a shared box contention
    // only ever adds time, so the quiet decile follows the code and the
    // median follows the neighbours (medians and p90 are per-layer).
    // Each leg's set-up is the median over its repetitions.
    let setup: Duration = legs.iter().map(|l| l.setup).sum::<Duration>() + common_setup;
    outcome.set("setup_s", setup.as_secs_f64(), legs.len() * sizes.setups);
    let submits: Vec<f64> = legs
        .iter()
        .flat_map(|l| l.submits.iter().map(|d| ms(*d)))
        .collect();
    outcome.set("submit_ms", quiet(&submits), submits.len());
    let quiet_steps: Vec<f64> = legs.iter().map(|l| quiet(&l.step_ms)).collect();
    let steps: usize = legs.iter().map(|l| l.step_ms.len()).sum();
    // In-process a session is SESSION_STEPS steps and nothing else, so its
    // turnaround and the workload's throughput are *derived* from the quiet
    // step times above, over the three kernels in equal parts: they are
    // not separate evidence here. (The rate the timed phase achieved, slow
    // spells included, is per-layer: `core.steps_per_s_achieved`.)
    outcome.set(
        "turnaround_ms",
        SESSION_STEPS as f64 * mean(&quiet_steps),
        steps,
    );
    outcome.set("steps_per_s", 1e3 / mean(&quiet_steps), steps);
    outcome.set("peak_rss_mb", peak_rss_mb, 1);

    // --- per-layer metrics the legs themselves yield ---
    let traced_lane = sizes.lane == Lane::Traced;
    for ((_, kernel), leg) in KERNELS.iter().zip(&legs) {
        let n = leg.step_ms.len();
        outcome.set(format!("step_ms.{kernel}"), quiet(&leg.step_ms), n);
        outcome.set(
            format!("core.step_ms_p50.{kernel}"),
            median(&leg.step_ms),
            n,
        );
        outcome.set(
            format!("core.step_ms_p90.{kernel}"),
            percentile(&leg.step_ms, 0.9),
            n,
        );
        outcome.set(
            format!("core.potentials_ms.{kernel}"),
            mean(&leg.potentials_ms),
            n,
        );
        let exact = leg.exact_steps;
        outcome.set(
            format!("core.fallback_cells_per_step.{kernel}"),
            leg.exact_mean(&leg.fallback_cells),
            exact,
        );
        outcome.set(
            format!("core.launches_per_step.{kernel}"),
            leg.exact_mean(&leg.launches),
            exact,
        );
        outcome.set(
            format!("quad.evals_per_step.{kernel}"),
            leg.evals as f64 / exact as f64,
            exact,
        );
        let touched = leg.evals + leg.replays;
        outcome.set(
            format!("quad.replay_frac.{kernel}"),
            if touched == 0 {
                0.0
            } else {
                leg.replays as f64 / touched as f64
            },
            exact,
        );
        outcome.set(
            format!("sim_gpu_ms_per_step.{kernel}"),
            leg.exact_mean(&leg.gpu_ms),
            exact,
        );
        outcome.set(
            format!("simt.warp_eff.{kernel}"),
            leg.stats.warp_execution_efficiency(&device),
            exact,
        );
        outcome.set(
            format!("simt.gld_eff.{kernel}"),
            leg.stats.global_load_efficiency(),
            exact,
        );
        outcome.set(
            format!("simt.l1_hit.{kernel}"),
            leg.stats.l1_hit_rate(),
            exact,
        );
        outcome.set(
            format!("simt.issued_instr_per_step.{kernel}"),
            leg.stats.issued_instructions as f64 / exact as f64,
            exact,
        );
    }
    let predictive = &legs[2];
    outcome.set(
        "core.clustering_ms",
        mean(&predictive.clustering_ms),
        predictive.step_ms.len(),
    );
    outcome.set(
        "core.training_ms",
        mean(&predictive.training_ms),
        predictive.step_ms.len(),
    );
    let pooled = |f: fn(&Leg) -> &Vec<f64>| -> Vec<f64> {
        legs.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let deposit_ms = mean(&pooled(|l| &l.deposit_ms));
    let push_ms = mean(&pooled(|l| &l.push_ms));
    let potentials_ms = mean(&pooled(|l| &l.potentials_ms));
    outcome.set("pic.deposit_ms", deposit_ms, steps);
    outcome.set("beam.gather_push_ms", push_ms, steps);
    outcome.set(
        "core.driver_other_ms",
        mean(&pooled(|l| &l.step_ms)) - deposit_ms - potentials_ms - push_ms,
        steps,
    );
    let timed_wall: Duration = legs.iter().map(|l| l.timed_wall).sum();
    outcome.set(
        "core.steps_per_s_achieved",
        steps as f64 / timed_wall.as_secs_f64(),
        steps,
    );
    let workspace = legs.iter().map(|l| l.workspace_bytes).max().unwrap_or(0);
    outcome.set(
        "core.workspace_mb",
        workspace as f64 / (1024.0 * 1024.0),
        legs.len(),
    );
    let grown: usize = legs.iter().map(|l| l.workspace_grown_steps).sum();
    outcome.set("core.workspace_grown_steps", grown as f64, steps);
    outcome.set("core.scenario_build_ms", median(&submits), submits.len());
    if traced_lane {
        let issued: u64 = legs.iter().map(|l| l.stats.issued_instructions).sum();
        let host_ns: f64 = legs
            .iter()
            .map(|l| l.potentials_ms[..l.exact_steps].iter().sum::<f64>() * 1e6)
            .sum();
        outcome.set(
            "simt.host_ns_per_issued_instr",
            host_ns / issued.max(1) as f64,
            legs.iter().map(|l| l.exact_steps).sum(),
        );
        let gpu = |i: usize| legs[i].exact_mean(&legs[i].gpu_ms);
        let grid = sizes.grid;
        outcome.set(
            format!("simt.sim_speedup_vs_heuristic.{grid}"),
            gpu(1) / gpu(2),
            sizes.min_timed,
        );
        outcome.set(
            format!("simt.sim_speedup_vs_two-phase.{grid}"),
            gpu(0) / gpu(2),
            sizes.min_timed,
        );
        outcome.set(
            "simt.sim_overall_ms_per_step.predictive",
            predictive.exact_mean(&predictive.overall_ms),
            predictive.exact_steps,
        );
    }

    if trace.enabled() {
        let (sim, last) = kept.expect("the last leg's simulation is kept");
        probes::run_all(
            sizes,
            seed,
            &pool,
            &device,
            &sim,
            &last,
            &legs[0],
            trace,
            root,
            &mut outcome,
        );
    }
    trace.close(root);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_resolve_through_the_library_parser() {
        let (name, traced) = resolve_lane(Lane::Traced);
        assert_eq!(
            (name, Some(traced)),
            ("traced", BackendKind::parse("traced"))
        );
        let (name, host) = resolve_lane(Lane::FastestHost);
        assert_ne!(host, traced);
        assert_eq!(BackendKind::parse(name), Some(host));
    }

    #[test]
    fn relative_difference_scales_by_the_reference() {
        assert_eq!(relative_difference(&[1.0, -4.0], &[1.0, -4.0]), 0.0);
        assert_eq!(relative_difference(&[1.0, -3.0], &[1.0, -4.0]), 0.25);
        assert_eq!(relative_difference(&[1.0], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(relative_difference(&[0.0], &[0.0]), f64::INFINITY);
        assert_eq!(relative_difference(&[f64::NAN], &[1.0]), f64::INFINITY);
    }

    fn table_count(trace: &Trace, name: &str) -> usize {
        trace.self_times()[name].0
    }

    #[test]
    fn a_tiny_leg_measures_every_timed_step() {
        let pool = ThreadPool::new(0);
        let device = DeviceConfig::tesla_k40();
        let sizes = Sizes {
            name: "tiny",
            grid: 8,
            particles: 500,
            kappa: 2,
            lane: Lane::FastestHost,
            min_timed: 3,
            setups: 1,
        };
        let trace = Trace::new(true);
        let mut running = RunningLeg::start(
            &pool,
            &device,
            &sizes.scenario(KernelKind::Predictive, 7),
            resolve_lane(sizes.lane).1,
            sizes.warmup_steps(),
            2,
            &trace,
            None,
        );
        running.time_block(2, &trace);
        running.time_block(1, &trace);
        assert_eq!(running.timed_steps(), 3);
        let (leg, sim, last) = running.finish();
        assert_eq!(leg.step_ms.len(), 3);
        assert_eq!(leg.exact_steps, 2);
        assert_eq!(table_count(&trace, "timed.predictive"), 2);
        assert_eq!(table_count(&trace, "setup.predictive"), 1);
        assert_eq!(sim.step_index(), sizes.warmup_steps() + 3);
        assert_eq!(last.step, sizes.warmup_steps() + 2);
        assert_eq!(leg.reference.len(), 64);
        assert_eq!(leg.nonfinite_steps, 0);
        assert!(leg.in_grid_charge > 0.999);
        assert!(leg.evals > 0 && leg.setup >= leg.submits.iter().sum());
        assert_eq!(leg.submits.len(), 8);
        let table = trace.self_times();
        assert_eq!(table["core.step"].0, 3);
        assert_eq!(table["pic.deposit"].0, 3);
        assert_eq!(table["core.scenario_build"].0, 8);
    }
}
