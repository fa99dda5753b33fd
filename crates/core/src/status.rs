//! Shared live-status snapshot of a running simulation.
//!
//! The driver's [`StepTelemetry`] is a per-step value returned to the
//! caller; a live monitor needs the *latest* of those published somewhere a
//! serving thread can read without touching the simulation. [`StatusBoard`]
//! is that mailbox: the simulation loop calls [`StatusBoard::record`] after
//! each step (one short mutex-guarded copy), and the `/status` endpoint of
//! `beamdyn-serve` renders [`StatusSnapshot::to_json`] from any thread.
//!
//! The JSON shape follows the harness conventions (`bench::json` parses
//! it): flat objects, explicit numbers, no nulls except the absent
//! `last_step` before the first record.

use std::sync::{Arc, Mutex};

use crate::driver::StepTelemetry;

/// Per-step slice of the status: the most recent completed step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepStatus {
    /// Step index.
    pub step: usize,
    /// Simulated GPU seconds of the potentials stage.
    pub gpu_time_s: f64,
    /// GPU + clustering + training seconds (paper "Overall Time").
    pub overall_time_s: f64,
    /// Cells the main pass failed to converge.
    pub fallback_cells: usize,
    /// Simulated kernel launches.
    pub launches: usize,
    /// Host seconds spent depositing.
    pub deposit_s: f64,
    /// Host seconds spent in gather + push.
    pub push_s: f64,
    /// Host seconds spent clustering.
    pub clustering_s: f64,
    /// Host seconds spent training.
    pub training_s: f64,
    /// Host nanoseconds of the deposit stage (exact, for dashboards that
    /// track the per-stage split the SIMD lane optimizes).
    pub deposit_host_ns: u64,
    /// Host nanoseconds of the gather + push stage.
    pub gather_push_host_ns: u64,
    /// Host nanoseconds of the potentials stage.
    pub potentials_host_ns: u64,
}

/// Run-cumulative tallies across every recorded step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTotals {
    /// Total simulated GPU seconds.
    pub gpu_time_s: f64,
    /// Total fallback cells.
    pub fallback_cells: u64,
    /// Total simulated launches.
    pub launches: u64,
}

/// A point-in-time copy of the board.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusSnapshot {
    /// Name of the active kernel (`Predictive-RP`, …).
    pub kernel: String,
    /// Name of the active compute backend (`traced-simt`, `native-simd`).
    pub backend: String,
    /// SIMD lane width of the backend's hot loops (1 for `traced-simt`, 4
    /// for `native-simd`).
    pub simd_lane_width: usize,
    /// Free-form lifecycle state (`starting`, `running`, `done`, …) set by
    /// the driver loop.
    pub state: String,
    /// Steps recorded so far.
    pub steps_completed: usize,
    /// The most recent step, absent before the first record.
    pub last_step: Option<StepStatus>,
    /// Cumulative tallies.
    pub totals: RunTotals,
}

impl StatusSnapshot {
    /// Renders the snapshot as one JSON object (the `/status` body).
    pub fn to_json(&self) -> String {
        let esc = |s: &str| {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        };
        let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
        let last = match &self.last_step {
            None => "null".to_string(),
            Some(s) => format!(
                "{{\"step\":{},\"gpu_time_s\":{},\"overall_time_s\":{},\"fallback_cells\":{},\
                 \"launches\":{},\"deposit_s\":{},\"push_s\":{},\"clustering_s\":{},\
                 \"training_s\":{},\"deposit_host_ns\":{},\"gather_push_host_ns\":{},\
                 \"potentials_host_ns\":{}}}",
                s.step,
                finite(s.gpu_time_s),
                finite(s.overall_time_s),
                s.fallback_cells,
                s.launches,
                finite(s.deposit_s),
                finite(s.push_s),
                finite(s.clustering_s),
                finite(s.training_s),
                s.deposit_host_ns,
                s.gather_push_host_ns,
                s.potentials_host_ns,
            ),
        };
        format!(
            "{{\"kernel\":\"{}\",\"backend\":\"{}\",\"simd_lane_width\":{},\"state\":\"{}\",\
             \"steps_completed\":{},\
             \"last_step\":{},\
             \"totals\":{{\"gpu_time_s\":{},\"fallback_cells\":{},\"launches\":{}}}}}",
            esc(&self.kernel),
            esc(&self.backend),
            self.simd_lane_width,
            esc(&self.state),
            self.steps_completed,
            last,
            finite(self.totals.gpu_time_s),
            self.totals.fallback_cells,
            self.totals.launches,
        )
    }
}

/// Thread-safe mailbox holding the latest [`StatusSnapshot`].
pub struct StatusBoard {
    inner: Mutex<StatusSnapshot>,
}

impl StatusBoard {
    /// Creates a board for a run of the named kernel on the named compute
    /// backend, in state `starting`. The SIMD lane width is derived from
    /// the backend name (1 when the name is not a known backend).
    pub fn new(kernel: &str, backend: &str) -> Arc<Self> {
        let simd_lane_width = crate::backend::BackendKind::parse(backend)
            .map_or(1, crate::backend::BackendKind::lane_width);
        Arc::new(Self {
            inner: Mutex::new(StatusSnapshot {
                kernel: kernel.to_string(),
                backend: backend.to_string(),
                simd_lane_width,
                state: "starting".to_string(),
                steps_completed: 0,
                last_step: None,
                totals: RunTotals::default(),
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StatusSnapshot> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Publishes one completed step's telemetry.
    pub fn record(&self, telemetry: &StepTelemetry) {
        let mut inner = self.lock();
        inner.steps_completed += 1;
        inner.totals.gpu_time_s += telemetry.potentials.gpu_time.seconds();
        inner.totals.fallback_cells += telemetry.potentials.fallback_cells as u64;
        inner.totals.launches += telemetry.potentials.launches as u64;
        inner.state = "running".to_string();
        inner.last_step = Some(StepStatus {
            step: telemetry.step,
            gpu_time_s: telemetry.potentials.gpu_time.seconds(),
            overall_time_s: telemetry.stage_overall_time().seconds(),
            fallback_cells: telemetry.potentials.fallback_cells,
            launches: telemetry.potentials.launches,
            deposit_s: telemetry.deposit_time.as_secs_f64(),
            push_s: telemetry.push_time.as_secs_f64(),
            clustering_s: telemetry.potentials.clustering_time.as_secs_f64(),
            training_s: telemetry.potentials.training_time.as_secs_f64(),
            deposit_host_ns: telemetry.deposit_time.as_nanos() as u64,
            gather_push_host_ns: telemetry.push_time.as_nanos() as u64,
            potentials_host_ns: telemetry.potentials_time.as_nanos() as u64,
        });
    }

    /// Sets the lifecycle state string (`running`, `idle`, `done`, …).
    pub fn set_state(&self, state: &str) {
        self.lock().state = state.to_string();
    }

    /// Copies the current snapshot.
    pub fn snapshot(&self) -> StatusSnapshot {
        self.lock().clone()
    }

    /// The `/status` body: [`StatusSnapshot::to_json`] of the current state.
    pub fn to_json(&self) -> String {
        self.lock().to_json()
    }
}
