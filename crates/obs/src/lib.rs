//! # beamdyn-obs — structured observability
//!
//! The paper's argument rests on *per-stage machine metrics*: where a time
//! step spends its wall clock (deposit / potentials / cluster / train /
//! gather-push), how many cells fall back to adaptive quadrature, how the
//! thread pool behaves. This crate is the single source of truth for those
//! measurements:
//!
//! * **Span timers** — [`span!`] opens a hierarchical RAII timer. Nested
//!   spans build slash-separated paths (`step/potentials/cluster`), and the
//!   close of every span accumulates wall time into a global per-path
//!   statistic and notifies the installed sinks.
//! * **Counters / gauges / histograms** — [`Counter`] and [`Gauge`] are
//!   `static`-friendly atomic cells (registered on first touch) that are
//!   safe to bump from thread-pool workers with `Ordering::Relaxed` cost;
//!   [`Histogram`] is their distribution-valued sibling: a log-bucketed,
//!   lock-free accumulator answering p50/p90/p99/max quantile queries via
//!   mergeable [`HistogramSnapshot`]s.
//! * **Sinks** — implement [`Sink`] to observe span closes and step
//!   flushes. Three implementations ship: the in-memory [`Recorder`] that
//!   tests and benches query, the [`PerfettoSink`] emitting Chrome
//!   trace-event JSON (load a run's stage timeline in
//!   <https://ui.perfetto.dev>), and (behind the `trace` feature) the
//!   [`JsonlSink`] writer emitting one JSON object per event.
//!
//! With no sink installed the per-span cost is two `Instant::now()` calls
//! plus one short mutex-guarded map update per span *close* — spans wrap
//! stages and kernel passes, never per-cell work, so the disabled-path
//! overhead on the simulation hot loop is far below the 2 % budget.

mod broadcast;
pub mod flight;
mod histogram;
mod perfetto;
pub mod prometheus;
mod registry;
pub mod scope;
mod sink;
mod span;
pub mod timeline;

pub use broadcast::{Broadcast, BroadcastReceiver, BroadcastSink, Recv};
pub use flight::{Alert, AlertSeverity, AlertTransition, EventKind, FlightEvent, FlightRing};
pub use histogram::{Histogram, HistogramSnapshot};
pub use perfetto::{install_perfetto, PerfettoSink};
pub use registry::{
    counter_value, gauge_value, histogram_snapshot, reset, snapshot, CounterSnapshot, Snapshot,
    SpanStat,
};
pub use sink::{install, installed_sinks, uninstall_all, Recorder, Sink, SpanEvent, StepFlush};
pub use span::{enter, SpanGuard};

#[cfg(feature = "trace")]
pub use sink::jsonl::{install_jsonl, JsonlSink};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Opens a hierarchical span timer: `let _g = obs::span!("deposit");`.
/// The span closes (and records) when the guard drops, or earlier via
/// [`SpanGuard::stop`], which also returns the elapsed [`std::time::Duration`].
#[macro_export]
macro_rules! span {
    ($label:expr) => {
        $crate::enter($label)
    };
}

/// A named monotonic counter, cheap enough for thread-pool workers.
///
/// Declare as a `static` and bump with [`Counter::add`]; the counter
/// registers itself with the global registry on first use so snapshots and
/// step flushes can enumerate it.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Creates an unregistered counter (registration happens on first add).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` to the counter.
    pub fn add(&'static self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        self.ensure_registered();
    }

    /// Increments by one.
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset_value(&self) {
        self.value.store(0, Ordering::Relaxed);
    }

    fn ensure_registered(&'static self) {
        if !self.registered.load(Ordering::Relaxed)
            && self
                .registered
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            registry::register_counter(self);
        }
    }
}

/// A named gauge holding the latest `f64` observation (bit-stored atomic).
pub struct Gauge {
    name: &'static str,
    bits: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    /// Creates an unregistered gauge (registration happens on first set).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            bits: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The gauge's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records the latest observation.
    pub fn set(&'static self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed)
            && self
                .registered
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            registry::register_gauge(self);
        }
    }

    /// Latest observation (0.0 before the first set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    pub(crate) fn reset_value(&self) {
        self.bits.store(0, Ordering::Relaxed);
    }
}

/// Emits a per-step flush event: a snapshot of all registered counters,
/// gauges, and histograms, tagged with the step index. Call once per
/// completed simulation step. The same snapshot feeds the bounded
/// [`timeline`] history store and (when installed) every sink.
pub fn flush_step(step: usize) {
    let snap = registry::snapshot();
    timeline::record_flush(step, &snap);
    sink::emit_flush(step, &snap);
}

/// Whether file-writing trace sinks should be installed by default: `true`
/// unless the `BEAMDYN_TRACE` environment variable is set to `0` (the
/// opt-out examples and the daemon honour so ad-hoc runs don't litter the
/// working directory).
pub fn trace_enabled() -> bool {
    std::env::var("BEAMDYN_TRACE").map_or(true, |v| v != "0")
}

/// Directory artifacts (bench tables, baselines, post-mortem dumps) are
/// written to: `$BEAMDYN_BENCH_DIR`, defaulting to the working directory.
/// Created on demand.
pub fn artifact_dir() -> std::path::PathBuf {
    let dir = std::env::var("BEAMDYN_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&path);
    path
}

/// Writes `contents` to `file_name` inside [`artifact_dir`], returning the
/// full path. Errors are reported to stderr, never panicked on — artifact
/// writes must not take down a simulation or a serving fleet.
pub fn write_artifact(file_name: &str, contents: &str) -> std::path::PathBuf {
    let path = artifact_dir().join(file_name);
    if let Err(err) = std::fs::write(&path, contents) {
        eprintln!("warning: could not write {}: {err}", path.display());
    }
    path
}

#[cfg(test)]
mod tests;
