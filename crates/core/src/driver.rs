//! The full four-step beam-dynamics simulation loop (paper Sec. II-A).
//!
//! Every stage of a step runs under a `beamdyn-obs` span (`step/deposit`,
//! `step/potentials`, `step/gather_push`, `step/commit`), and the per-step
//! telemetry durations are read back from those spans — the observability
//! layer is the single source of timing truth.
//!
//! Ownership is split so a simulation can be *scheduled*, not just run:
//!
//! * [`SimCore`] owns everything a simulation **is** — config, beam,
//!   grid history, step counter, the [`PotentialsKernel`] object
//!   (strategy + learning state), the compute backend kind, and the last
//!   potentials field. It is `Send` and borrows nothing, so a
//!   [`SessionManager`](crate::session::SessionManager) can hold many and
//!   move them between scheduler threads.
//! * [`SimCore::run_step`] borrows what a step **uses**: the shared
//!   [`ThreadPool`], the device model, and a [`StepWorkspace`] — which in
//!   the multi-tenant engine comes from a
//!   [`WorkspacePool`](crate::session::WorkspacePool) lease rather than
//!   being owned per process.
//! * [`Simulation`] is the classic single-tenant facade: it bundles a
//!   `SimCore` with its own workspace and the borrowed pool/device, and
//!   keeps the exact API every example, test, and bench bin already uses.
//!
//! Steady-state steps recycle the workspace's buffers and the
//! history-evicted moment grid, so the loop's hot path performs no
//! workspace heap growth (tests/workspace_reuse.rs pins this via the
//! `workspace.*` gauges).

use std::time::Duration;

use beamdyn_obs as obs;

use beamdyn_beam::forces::{gather_forces, gather_forces_simd, ScalarField};
use beamdyn_beam::push::{drift, kick, push_step_simd};
use beamdyn_beam::{Beam, Particle, RpConfig};
use beamdyn_par::ThreadPool;
use beamdyn_pic::{
    deposit_cic, deposit_cic_simd, refill_samples, DepositSample, GridGeometry, GridHistory,
};
use beamdyn_simt::{DeviceConfig, SimTime};

use crate::backend::BackendKind;
use crate::kernels::predictive::TransformKind;
use crate::kernels::{build_kernel, PotentialsKernel, PotentialsOutput, RpProblem};
use crate::layout::DeviceLayout;
use crate::predictor::{Predictor, PredictorKind};
use crate::workspace::StepWorkspace;

/// Per-step host latency distributions of the four driver stages, recorded
/// from the same span durations the telemetry reports — so a run's p50/p99
/// stage times are one histogram query instead of a post-hoc scan of every
/// `StepTelemetry`.
static STAGE_DEPOSIT_NS: obs::Histogram = obs::Histogram::new("stage.deposit_ns");
static STAGE_POTENTIALS_NS: obs::Histogram = obs::Histogram::new("stage.potentials_ns");
static STAGE_GATHER_PUSH_NS: obs::Histogram = obs::Histogram::new("stage.gather_push_ns");
static STAGE_STEP_NS: obs::Histogram = obs::Histogram::new("stage.step_ns");

/// Which retarded-potential kernel drives step 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Ref. [9]: globally adaptive parallel quadrature.
    TwoPhase,
    /// Ref. [10]: heuristic locality + balance (previous fastest).
    Heuristic,
    /// This paper: ML-forecast partitions + pattern clustering.
    Predictive,
}

/// Simulation setup.
#[derive(Debug, Clone, Copy)]
pub struct SimulationConfig {
    /// Grid geometry (`N_X × N_Y` over the simulation rectangle).
    pub geometry: GridGeometry,
    /// rp-integral discretisation (κ, Δt, β, inner rule, support cut).
    pub rp: RpConfig,
    /// Error tolerance τ per point.
    pub tolerance: f64,
    /// Kernel selection.
    pub kernel: KernelKind,
    /// Compute backend executing the planned launches (traced simulated GPU
    /// vs. the SIMD host lane — the same control flow and counts either
    /// way).
    pub backend: BackendKind,
    /// Predictor backing Predictive-RP (ignored by the baselines).
    pub predictor: PredictorKind,
    /// Pattern→partition transformation for Predictive-RP.
    pub transform: TransformKind,
    /// Rigid-bunch mode: skip the particle push (validation experiments).
    pub rigid: bool,
    /// Self-force coupling constant (the normalised `q²/γm` prefactor that
    /// physical units would supply). Keeps the collective kick per step
    /// perturbative, as in the real dynamics.
    pub force_scale: f64,
    /// Seed for clustering determinism.
    pub seed: u64,
}

impl SimulationConfig {
    /// A reasonable default over the unit square.
    pub fn standard(geometry: GridGeometry, kernel: KernelKind) -> Self {
        // Process-wide default: BEAMDYN_BACKEND when set, traced
        // otherwise — so smoke targets and tests can be matrix-run on
        // the native backend without touching every call site.
        Self::for_backend(geometry, kernel, BackendKind::from_env())
    }

    /// [`SimulationConfig::standard`] with an explicit backend — the
    /// service path, which must never consult (or panic on) the
    /// environment while handling a request.
    pub fn for_backend(geometry: GridGeometry, kernel: KernelKind, backend: BackendKind) -> Self {
        let kappa = 6;
        Self {
            geometry,
            rp: RpConfig::standard(kappa, 0.35 / kappa as f64),
            tolerance: 1e-6,
            kernel,
            backend,
            predictor: PredictorKind::default(),
            // Uniform keeps every partition in one globally aligned dyadic
            // family, so the pattern-level group merge cannot inflate and
            // the online learning loop converges; Adaptive follows per-point
            // placement but merges at breakpoint level (ablation:
            // partition_transform bench).
            transform: TransformKind::Uniform,
            rigid: false,
            force_scale: 1e-3,
            seed: 0xC0FFEE,
        }
    }
}

/// Per-step measurements for the experiment harness.
#[derive(Debug, Clone)]
pub struct StepTelemetry {
    /// Time step index of this record.
    pub step: usize,
    /// Output of the potentials stage (stats, times, points).
    pub potentials: PotentialsOutput,
    /// Host time spent depositing.
    pub deposit_time: Duration,
    /// Host wall-clock of the potentials stage (the whole stage span —
    /// launches plus planning/clustering/training host work). The
    /// simulated-GPU component is `potentials.gpu_time`.
    pub potentials_time: Duration,
    /// Host time in force gather + push.
    pub push_time: Duration,
}

impl StepTelemetry {
    /// Simulated-GPU + host-overhead time of the potentials stage (the
    /// paper's Table II "Overall Time" combines these).
    pub fn stage_overall_time(&self) -> SimTime {
        self.potentials.gpu_time
            + SimTime::from(self.potentials.clustering_time)
            + SimTime::from(self.potentials.training_time)
    }
}

/// Everything a simulation *owns* across steps: configuration (the
/// compute backend kind included), particle state, grid history, and the
/// kernel's learning state. Borrows nothing — `Send`, storable,
/// schedulable.
///
/// Per-step resources (thread pool, device model, workspace) are borrowed
/// by [`SimCore::run_step`], so the same core runs identically whether it
/// is the process's only simulation ([`Simulation`]) or one of hundreds
/// multiplexed by a [`SessionManager`](crate::session::SessionManager) —
/// determinism of the pool's scoped loops makes the results bit-identical
/// either way.
pub struct SimCore {
    config: SimulationConfig,
    beam: Beam,
    history: GridHistory,
    step: usize,
    /// The potentials strategy — the only kernel state the core holds.
    kernel: Box<dyn PotentialsKernel>,
    /// Potential field of the last completed step.
    last_potentials: Option<ScalarField>,
}

impl SimCore {
    /// Creates a core over an initial beam, with the kernel object the
    /// config selects.
    pub fn new(config: SimulationConfig, beam: Beam) -> Self {
        let kernel = build_kernel(&config);
        Self::with_kernel(config, beam, kernel)
    }

    /// Creates a core driving a caller-supplied kernel object
    /// (`config.kernel` is ignored in favour of it).
    pub fn with_kernel(
        config: SimulationConfig,
        beam: Beam,
        kernel: Box<dyn PotentialsKernel>,
    ) -> Self {
        let history = GridHistory::new(config.geometry, config.rp.kappa + 3);
        Self {
            config,
            beam,
            history,
            step: 0,
            kernel,
            last_potentials: None,
        }
    }

    /// Current step counter (completed steps).
    pub fn step_index(&self) -> usize {
        self.step
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The beam (e.g. for statistics).
    pub fn beam(&self) -> &Beam {
        &self.beam
    }

    /// Potential field from the most recent step.
    pub fn last_potentials(&self) -> Option<&ScalarField> {
        self.last_potentials.as_ref()
    }

    /// The online predictor, when the active kernel carries one
    /// (Predictive-RP only).
    pub fn predictor(&self) -> Option<&Predictor> {
        self.kernel.predictor()
    }

    /// The active kernel's name.
    pub fn kernel_name(&self) -> &'static str {
        self.kernel.name()
    }

    /// The active compute backend's name.
    pub fn backend_name(&self) -> &'static str {
        self.config.backend.name()
    }

    /// Executes one full time step over borrowed step resources; returns
    /// its telemetry.
    ///
    /// The whole step runs under an obs `step` span; each paper stage gets
    /// a child span, and the telemetry durations are exactly the span
    /// durations ([`obs::SpanGuard::stop`] returns the recorded value).
    pub fn run_step(
        &mut self,
        pool: &ThreadPool,
        device: &DeviceConfig,
        workspace: &mut StepWorkspace,
    ) -> StepTelemetry {
        let step_span = obs::span!("step");
        // Track the bunch: the support cut follows the charge centroid, so
        // the integration horizons move with the beam.
        if !self.beam.is_empty() {
            self.config.rp.center = self.beam.centroid();
        }
        // The SIMD backend runs the particle pipeline over the workspace's
        // pooled SoA scratch: copied from the beam in parallel here, pushed
        // in place, written back to the beam inside the push pass.
        let simd = self.config.backend == BackendKind::NativeSimd;
        // --- 1. Particle deposition ---
        let deposit_span = obs::span!("deposit");
        let mut grid = workspace.take_grid(self.config.geometry);
        let sample = |p: &Particle| DepositSample {
            x: p.x,
            y: p.y,
            weight: p.weight,
            vx: p.vx,
            vy: p.vy,
        };
        if simd {
            workspace.particles.fill(pool, &self.beam.particles, sample);
            deposit_cic_simd(pool, &mut grid, &workspace.particles);
        } else {
            refill_samples(
                &mut workspace.deposit_samples,
                self.beam.particles.iter().map(sample),
            );
            deposit_cic(pool, &mut grid, &workspace.deposit_samples);
        }
        if let Some(evicted) = self.history.push(self.step, grid) {
            workspace.recycle_grid(evicted);
        }
        let deposit_time = STAGE_DEPOSIT_NS.observe_span(deposit_span);

        // --- 2. Compute retarded potentials ---
        let potentials_span = obs::span!("potentials");
        let mut potentials = self.compute_potentials(pool, device, workspace);
        let potentials_time = STAGE_POTENTIALS_NS.observe_span(potentials_span);

        // --- 3 & 4. Self-forces and particle push ---
        let push_span = obs::span!("gather_push");
        let field = ScalarField::new(self.config.geometry, potentials.potentials());
        if !self.config.rigid {
            if simd {
                let ws = &mut *workspace;
                gather_forces_simd(
                    pool,
                    &field,
                    &ws.particles,
                    &mut ws.gradient_x,
                    &mut ws.gradient_y,
                    &mut ws.forces_x,
                    &mut ws.forces_y,
                );
                // Force scaling, kick, drift, and AoS write-back fused into
                // one parallel pass (bit-identical to the scalar sequence).
                push_step_simd(
                    pool,
                    &mut ws.particles,
                    &ws.forces_x,
                    &ws.forces_y,
                    self.config.force_scale,
                    self.config.rp.dt,
                    &mut self.beam,
                );
            } else {
                let mut forces = gather_forces(pool, &field, &self.beam);
                for f in &mut forces {
                    f.0 *= self.config.force_scale;
                    f.1 *= self.config.force_scale;
                }
                // Leap-frog with velocities staggered by half a step: one
                // kick, one drift per field solve.
                kick(pool, &mut self.beam, &forces, self.config.rp.dt);
                drift(pool, &mut self.beam, self.config.rp.dt);
            }
        }
        let push_time = STAGE_GATHER_PUSH_NS.observe_span(push_span);
        self.last_potentials = Some(field);

        // --- Commit: move (not clone) the observed partitions into the
        // workspace's previous-partition store for the next step's reuse. ---
        let commit_span = obs::span!("commit");
        workspace.store_partitions(&mut potentials.points);
        let telemetry = StepTelemetry {
            step: self.step,
            potentials,
            deposit_time,
            potentials_time,
            push_time,
        };
        drop(commit_span);
        self.step += 1;
        workspace.publish_gauges();
        let step_time = STAGE_STEP_NS.observe_span(step_span);
        let mut event = obs::FlightEvent::new(obs::EventKind::Step);
        event.step = telemetry.step as u64;
        event.code = telemetry.potentials.launches as u32;
        event.value = step_time.as_nanos() as f64;
        event.extra = telemetry.potentials.fallback_cells as f64;
        obs::flight::record(event);
        telemetry
    }

    fn compute_potentials(
        &mut self,
        pool: &ThreadPool,
        device: &DeviceConfig,
        workspace: &mut StepWorkspace,
    ) -> PotentialsOutput {
        let problem = RpProblem {
            pool,
            device,
            history: &self.history,
            config: self.config.rp,
            layout: DeviceLayout::new(self.config.geometry, 0),
            geometry: self.config.geometry,
            step: self.step,
            tolerance: self.config.tolerance,
        };
        crate::kernels::compute_potentials(
            self.kernel.as_mut(),
            self.config.backend,
            &problem,
            workspace,
        )
    }
}

/// The four-step simulation driver: a [`SimCore`] plus the pool, device,
/// and workspace of a single-tenant run. This is the facade every
/// example, bench bin, and test drives; multi-tenant callers hold
/// `SimCore`s directly and lease workspaces from a pool.
pub struct Simulation<'a> {
    pool: &'a ThreadPool,
    device: &'a DeviceConfig,
    core: SimCore,
    /// Reusable per-step buffers (including the previous-partition store
    /// the Heuristic and Predictive kernels read).
    workspace: StepWorkspace,
}

impl<'a> Simulation<'a> {
    /// Creates a simulation over an initial beam, with the kernel object
    /// the config selects.
    pub fn new(
        pool: &'a ThreadPool,
        device: &'a DeviceConfig,
        config: SimulationConfig,
        beam: Beam,
    ) -> Self {
        let kernel = build_kernel(&config);
        Self::with_kernel(pool, device, config, beam, kernel)
    }

    /// Creates a simulation driving a caller-supplied kernel object
    /// (`config.kernel` is ignored in favour of it).
    pub fn with_kernel(
        pool: &'a ThreadPool,
        device: &'a DeviceConfig,
        config: SimulationConfig,
        beam: Beam,
        kernel: Box<dyn PotentialsKernel>,
    ) -> Self {
        Self {
            pool,
            device,
            core: SimCore::with_kernel(config, beam, kernel),
            workspace: StepWorkspace::new(),
        }
    }

    /// Current step counter (completed steps).
    pub fn step_index(&self) -> usize {
        self.core.step_index()
    }

    /// The beam (e.g. for statistics).
    pub fn beam(&self) -> &Beam {
        self.core.beam()
    }

    /// Potential field from the most recent step.
    pub fn last_potentials(&self) -> Option<&ScalarField> {
        self.core.last_potentials()
    }

    /// The online predictor, when the active kernel carries one
    /// (Predictive-RP only).
    pub fn predictor(&self) -> Option<&Predictor> {
        self.core.predictor()
    }

    /// The active kernel's name.
    pub fn kernel_name(&self) -> &'static str {
        self.core.kernel_name()
    }

    /// The active compute backend's name.
    pub fn backend_name(&self) -> &'static str {
        self.core.backend_name()
    }

    /// The step workspace (for inspecting buffer reuse).
    pub fn workspace(&self) -> &StepWorkspace {
        &self.workspace
    }

    /// Executes one full time step; returns its telemetry.
    pub fn run_step(&mut self) -> StepTelemetry {
        let telemetry = self
            .core
            .run_step(self.pool, self.device, &mut self.workspace);
        obs::flush_step(telemetry.step);
        telemetry
    }

    /// Runs `n` steps, returning all telemetry records.
    pub fn run(&mut self, n: usize) -> Vec<StepTelemetry> {
        (0..n).map(|_| self.run_step()).collect()
    }
}

/// Convenience: the geometry every paper experiment uses — the unit square
/// at the requested resolution with the bunch centred at (0.5, 0.5).
pub fn standard_geometry(resolution: usize) -> GridGeometry {
    GridGeometry::unit(resolution, resolution)
}
