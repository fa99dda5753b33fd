//! The bench regression gate: a canonical scenario, a committed baseline,
//! and a tolerance comparison that fails CI when a change shifts the
//! simulated machine metrics.
//!
//! Wall-clock times are useless as a gate (CI machines vary); everything
//! compared here is **deterministic**: simulated GPU time (`SimTime` is a
//! function of the recorded op stream), fallback volume, warp/load/cache
//! efficiencies, launch counts, and the prediction-quality histogram
//! quantiles (bucket counts are order-independent, so quantiles don't
//! depend on thread interleaving). The workload is seeded and the per-point
//! accumulation order is pool-width-independent (`tests/determinism.rs`),
//! so a violation means the *code* changed behaviour, not the machine.

use std::collections::BTreeMap;
use std::fmt;

use beamdyn_core::{
    report, BackendKind, KernelKind, ScenarioSpec, SessionManager, SessionManagerConfig,
    SessionState,
};
use beamdyn_obs as obs;
use beamdyn_par::ThreadPool;

use crate::json::{self, Value};
use crate::{kernel_name, run_steps, standard_workload};

/// The canonical scenario every baseline and check run uses. Changing any
/// of these invalidates the committed baseline — regenerate it.
pub mod scenario {
    /// Grid resolution (N×N).
    pub const RESOLUTION: usize = 16;
    /// Macro-particle count.
    pub const PARTICLES: usize = 10_000;
    /// Simulation steps per kernel.
    pub const STEPS: usize = 6;
    /// Host pool width (results are pool-width-independent, but pinning it
    /// keeps run times comparable).
    pub const THREADS: usize = 4;
    /// Baseline schema version (bump when metric names change).
    pub const SCHEMA: f64 = 1.0;
}

/// A flat named-metric set, the unit the gate compares.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    /// Metric name → value, sorted by name.
    pub metrics: BTreeMap<String, f64>,
}

impl MetricSet {
    /// Inserts one metric.
    pub fn insert(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Renders the set as the committed baseline JSON document.
    pub fn to_baseline_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {},\n", scenario::SCHEMA));
        out.push_str(&format!(
            "  \"scenario\": {{\"resolution\": {}, \"particles\": {}, \"steps\": {}, \"threads\": {}}},\n",
            scenario::RESOLUTION,
            scenario::PARTICLES,
            scenario::STEPS,
            scenario::THREADS
        ));
        out.push_str("  \"metrics\": {\n");
        let n = self.metrics.len();
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            out.push_str(&format!("    \"{name}\": {v}"));
            out.push_str(if i + 1 < n { ",\n" } else { "\n" });
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a baseline document produced by [`MetricSet::to_baseline_json`].
    pub fn from_baseline_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let schema = doc
            .get("schema")
            .and_then(Value::as_f64)
            .ok_or("baseline missing \"schema\"")?;
        if schema != scenario::SCHEMA {
            return Err(format!(
                "baseline schema {schema} != expected {} — regenerate with bench_baseline",
                scenario::SCHEMA
            ));
        }
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("baseline missing \"metrics\" object")?;
        let mut set = MetricSet::default();
        for (name, value) in metrics {
            let v = value
                .as_f64()
                .ok_or_else(|| format!("metric \"{name}\" is not a number"))?;
            set.insert(name.clone(), v);
        }
        Ok(set)
    }
}

/// Allowed drift for one metric: `|current - baseline| <= abs + rel * |baseline|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Relative component.
    pub rel: f64,
    /// Absolute component.
    pub abs: f64,
}

/// Per-metric tolerance, matched on the metric-name suffix. Simulated times
/// gate tightest (they are the paper's headline numbers); discrete counts
/// get an absolute floor so near-zero baselines don't gate on ±1 noise.
pub fn tolerance_for(name: &str) -> Tolerance {
    if name.ends_with(".launches") {
        // Launch counts are exactly reproducible.
        Tolerance { rel: 0.0, abs: 0.0 }
    } else if name.starts_with("alerts.") || name == "flight.events_dropped" {
        // A healthy canonical run fires no alerts and never laps the
        // default flight ring — any drift here is a real health regression.
        Tolerance { rel: 0.0, abs: 0.0 }
    } else if name == "timeline.samples_dropped" || name.starts_with("webhook.") {
        // The canonical fleet's history must fit its rings (no evictions)
        // and — with no webhooks configured — the notifier must be inert.
        Tolerance { rel: 0.0, abs: 0.0 }
    } else if name == "timeline.samples_recorded" {
        // Change-compressed sample volume: driven by metric activity, but
        // the watchdog-tick feed adds a timing-dependent handful.
        Tolerance {
            rel: 1.0,
            abs: 1024.0,
        }
    } else if name == "flight.events_recorded" {
        // Deterministic in shape (fixed events per submit/admit/step/
        // grade/finish) but given headroom in case a rare watchdog edge
        // (CI pause) adds a handful.
        Tolerance {
            rel: 0.25,
            abs: 48.0,
        }
    } else if name.ends_with(".completed") {
        // Session completion counts are exact: every submitted session of
        // the canonical fleet must finish, every time.
        Tolerance { rel: 0.0, abs: 0.0 }
    } else if name.ends_with("_host_ns") {
        // Host wall-clock: CI machines vary wildly, so this only catches
        // order-of-magnitude regressions (e.g. an accidental O(n²) loop).
        Tolerance {
            rel: 10.0,
            abs: 1e8,
        }
    } else if name.ends_with(".integrand_evals") || name.ends_with(".integrand_replays") {
        // Real integrand work is deterministic; gate it tightly so the
        // sample-reuse machinery cannot silently regress.
        Tolerance {
            rel: 0.05,
            abs: 32.0,
        }
    } else if name.ends_with(".bytes_resident") {
        // The canonical run is short of steady state, so allocator headroom
        // policies legitimately move this; gate only gross growth.
        Tolerance {
            rel: 0.5,
            abs: 4096.0,
        }
    } else if name.ends_with(".gpu_time_s") || name.ends_with(".overall_time_s") {
        Tolerance {
            rel: 0.05,
            abs: 1e-9,
        }
    } else if name.ends_with(".fallback_cells") {
        Tolerance {
            rel: 0.10,
            abs: 4.0,
        }
    } else if name.ends_with(".warp_eff") || name.ends_with(".gld_eff") || name.ends_with(".l1_hit")
    {
        Tolerance {
            rel: 0.0,
            abs: 0.02,
        }
    } else {
        // Histogram quantiles and other derived quality metrics: log-bucket
        // midpoints quantise to ~6 % already, so allow that plus headroom.
        Tolerance {
            rel: 0.15,
            abs: 0.05,
        }
    }
}

/// One gate failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The metric that failed.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Fresh value (`None`: the metric disappeared from the run).
    pub current: Option<f64>,
    /// The tolerance that was applied.
    pub tolerance: Tolerance,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.current {
            Some(cur) => write!(
                f,
                "{}: {} -> {} (drift {:+.2}%, allowed ±{:.2}% ±{})",
                self.metric,
                self.baseline,
                cur,
                if self.baseline != 0.0 {
                    100.0 * (cur - self.baseline) / self.baseline.abs()
                } else {
                    f64::INFINITY
                },
                100.0 * self.tolerance.rel,
                self.tolerance.abs
            ),
            None => write!(f, "{}: missing from the fresh run", self.metric),
        }
    }
}

/// Compares a fresh run against the baseline. Every baseline metric must be
/// present and within tolerance; metrics only the fresh run has are ignored
/// (they gate once the baseline is regenerated).
pub fn compare(baseline: &MetricSet, current: &MetricSet) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (name, &base) in &baseline.metrics {
        let tolerance = tolerance_for(name);
        match current.metrics.get(name) {
            None => violations.push(Violation {
                metric: name.clone(),
                baseline: base,
                current: None,
                tolerance,
            }),
            Some(&cur) => {
                let allowed = tolerance.abs + tolerance.rel * base.abs();
                if (cur - base).abs() > allowed {
                    violations.push(Violation {
                        metric: name.clone(),
                        baseline: base,
                        current: Some(cur),
                        tolerance,
                    });
                }
            }
        }
    }
    violations
}

/// Runs the canonical scenario for all three kernels and collects the
/// deterministic metric set the gate compares. Resets the obs registry
/// per kernel (the quality histograms are cumulative), leaving the last
/// kernel's registry state in place for callers that export it.
///
/// Both compute backends run: the traced lane carries the full simulated
/// machine metrics; the host lane (`<kernel>.simd.`) pins the
/// backend-independent execution facts — see the lane loop below.
pub fn run_canonical(pool: &ThreadPool) -> MetricSet {
    let mut set = MetricSet::default();
    for kernel in [
        KernelKind::TwoPhase,
        KernelKind::Heuristic,
        KernelKind::Predictive,
    ] {
        obs::reset();
        // Pin the backend explicitly: the gate must compare the same lanes
        // whatever BEAMDYN_BACKEND says.
        let mut workload = standard_workload(scenario::RESOLUTION, scenario::PARTICLES, kernel);
        workload.config.backend = BackendKind::TracedSimt;
        let telemetry = run_steps(pool, workload, scenario::STEPS);
        let prefix = kernel_name(kernel);

        let device = beamdyn_simt::DeviceConfig::tesla_k40();
        let stats = report::warm_stats(&telemetry, 1);
        let gpu_time: f64 = telemetry
            .iter()
            .map(|t| t.potentials.gpu_time.seconds())
            .sum();
        let fallback: usize = telemetry.iter().map(|t| t.potentials.fallback_cells).sum();
        let launches: usize = telemetry.iter().map(|t| t.potentials.launches).sum();
        set.insert(format!("{prefix}.gpu_time_s"), gpu_time);
        set.insert(format!("{prefix}.fallback_cells"), fallback as f64);
        set.insert(format!("{prefix}.launches"), launches as f64);
        set.insert(
            format!("{prefix}.warp_eff"),
            stats.warp_execution_efficiency(&device),
        );
        set.insert(format!("{prefix}.gld_eff"), stats.global_load_efficiency());
        set.insert(format!("{prefix}.l1_hit"), stats.l1_hit_rate());

        // Real host integrand work: the sample-reuse machinery makes these
        // far smaller than the simulated tap counts, and deterministic.
        for counter in ["quad.integrand_evals", "quad.integrand_replays"] {
            if let Some(v) = obs::counter_value(counter) {
                set.insert(format!("{prefix}.{counter}"), v as f64);
            }
        }
        // Host wall-clock per stage (sum over all steps) and the resident
        // workspace footprint — loose gates, see `tolerance_for`.
        let snap = obs::snapshot();
        for stage in ["deposit", "potentials", "gather_push", "step"] {
            if let Some(h) = snap.histogram(&format!("stage.{stage}_ns")) {
                set.insert(format!("{prefix}.stage.{stage}_host_ns"), h.sum());
            }
        }
        if let Some(v) = obs::gauge_value("workspace.bytes_resident") {
            set.insert(format!("{prefix}.workspace.bytes_resident"), v);
        }

        // Prediction-quality distributions (cumulative over the run).
        for histogram in [
            "cluster.fallback_frac",
            "predict.tau_miss_depth",
            "predict.abs_error",
            "predict.retrain_drift",
        ] {
            if let Some(h) = obs::histogram_snapshot(histogram) {
                if h.count() > 0 {
                    set.insert(format!("{prefix}.{histogram}.p50"), h.p50());
                    set.insert(format!("{prefix}.{histogram}.p90"), h.p90());
                }
            }
        }
    }
    // Host lane: `<kernel>.simd.` (NativeSimd) pins the
    // backend-independent execution facts — fallback volume, launches, real
    // integrand work — which must track the traced lane exactly (the
    // contract keeps every count equal), plus its own loose host-time gate.
    for kernel in [
        KernelKind::TwoPhase,
        KernelKind::Heuristic,
        KernelKind::Predictive,
    ] {
        obs::reset();
        let mut workload = standard_workload(scenario::RESOLUTION, scenario::PARTICLES, kernel);
        workload.config.backend = BackendKind::NativeSimd;
        let telemetry = run_steps(pool, workload, scenario::STEPS);
        let prefix = format!("{}.simd", kernel_name(kernel));

        let fallback: usize = telemetry.iter().map(|t| t.potentials.fallback_cells).sum();
        let launches: usize = telemetry.iter().map(|t| t.potentials.launches).sum();
        set.insert(format!("{prefix}.fallback_cells"), fallback as f64);
        set.insert(format!("{prefix}.launches"), launches as f64);
        for counter in ["quad.integrand_evals", "quad.integrand_replays"] {
            if let Some(v) = obs::counter_value(counter) {
                set.insert(format!("{prefix}.{counter}"), v as f64);
            }
        }
        let snap = obs::snapshot();
        if let Some(h) = snap.histogram("stage.potentials_ns") {
            set.insert(format!("{prefix}.stage.potentials_host_ns"), h.sum());
        }
        if let Some(v) = obs::gauge_value("workspace.bytes_resident") {
            set.insert(format!("{prefix}.workspace.bytes_resident"), v);
        }
    }

    // Multi-tenant session load: a mixed fleet (every kernel on both
    // backends, twice) multiplexed through the SessionManager on fewer
    // workspace slots than sessions. Completion/launch/fallback totals are
    // deterministic (the multiplexed bit-identity contract,
    // tests/session_identity.rs); the step-latency percentiles are host
    // wall-clock and gate loosely via the `_host_ns` rule.
    obs::reset();
    let manager = SessionManager::start(SessionManagerConfig {
        threads: scenario::THREADS,
        step_workers: 2,
        slots: 4,
        default_backend: BackendKind::TracedSimt,
        device: beamdyn_simt::DeviceConfig::tesla_k40(),
        // The flight recorder and watchdog stay on — their overhead is part
        // of what the step-latency gates measure — but the stall deadline is
        // generous so a paused CI runner can't fire a spurious alert into
        // the exact-zero `alerts.*` gate below.
        health: beamdyn_core::HealthConfig {
            stall_deadline: std::time::Duration::from_secs(30),
            postmortem: false,
            ..beamdyn_core::HealthConfig::default()
        },
        ..SessionManagerConfig::default()
    });
    let mut ids = Vec::new();
    for _round in 0..2 {
        for kernel in [
            KernelKind::TwoPhase,
            KernelKind::Heuristic,
            KernelKind::Predictive,
        ] {
            for backend in [BackendKind::TracedSimt, BackendKind::NativeSimd] {
                let spec = ScenarioSpec {
                    kernel,
                    backend: Some(backend),
                    nx: 12,
                    ny: 12,
                    particles: 1_500,
                    steps: 3,
                    ..ScenarioSpec::default()
                };
                ids.push(manager.submit(spec).expect("submit canonical session"));
            }
        }
    }
    assert!(
        manager.wait_idle(std::time::Duration::from_secs(300)),
        "canonical session fleet never finished"
    );
    let mut completed = 0u64;
    let mut fallback = 0u64;
    let mut launches = 0u64;
    for id in &ids {
        if manager.state(*id) == Some(SessionState::Done) {
            completed += 1;
        }
        if let Some(snap) = manager.board_snapshot(*id) {
            fallback += snap.totals.fallback_cells;
            launches += snap.totals.launches;
        }
    }
    set.insert("sessions.load.completed", completed as f64);
    set.insert("sessions.load.fallback_cells", fallback as f64);
    set.insert("sessions.load.launches", launches as f64);
    if let Some(h) = obs::histogram_snapshot("session.step_ns") {
        if h.count() > 0 {
            set.insert("sessions.load.step_p50_host_ns", h.p50());
            set.insert("sessions.load.step_p99_host_ns", h.p99());
        }
    }
    if let Some(v) = obs::gauge_value("workspace_pool.bytes_resident") {
        set.insert("sessions.load.pool.bytes_resident", v);
    }
    // Health-engine facts for the canonical fleet: a healthy run fires
    // nothing (exact-zero gates), and the flight recorder's event volume is
    // deterministic — every submit, admission, step, grade, and completion
    // records a fixed number of events, and the default ring never laps.
    set.insert(
        "alerts.fired",
        obs::counter_value("alerts.fired").unwrap_or(0) as f64,
    );
    set.insert(
        "alerts.active",
        obs::gauge_value("alerts.active").unwrap_or(0.0),
    );
    set.insert(
        "flight.events_recorded",
        obs::counter_value("flight.events_recorded").unwrap_or(0) as f64,
    );
    set.insert(
        "flight.events_dropped",
        obs::counter_value("flight.events_dropped").unwrap_or(0) as f64,
    );
    // Timeline-store facts: the canonical fleet's history must fit the
    // per-series rings with nothing evicted (exact-zero drop gate), and —
    // with no webhooks configured — the notifier must do exactly nothing.
    set.insert(
        "timeline.samples_recorded",
        obs::counter_value("timeline.samples_recorded").unwrap_or(0) as f64,
    );
    set.insert(
        "timeline.samples_dropped",
        obs::counter_value("timeline.samples_dropped").unwrap_or(0) as f64,
    );
    set.insert(
        "webhook.delivered",
        obs::counter_value("webhook.delivered").unwrap_or(0) as f64,
    );
    set.insert(
        "webhook.retries",
        obs::counter_value("webhook.retries").unwrap_or(0) as f64,
    );
    manager.shutdown();
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_json_roundtrips() {
        let mut set = MetricSet::default();
        set.insert("Predictive-RP.gpu_time_s", 0.123456789);
        set.insert("Heuristic-RP.fallback_cells", 42.0);
        let parsed = MetricSet::from_baseline_json(&set.to_baseline_json()).unwrap();
        assert_eq!(parsed, set);
    }

    #[test]
    fn launches_gate_exactly() {
        let t = tolerance_for("Predictive-RP.launches");
        assert_eq!(t, Tolerance { rel: 0.0, abs: 0.0 });
    }
}
