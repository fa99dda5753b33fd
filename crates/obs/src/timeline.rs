//! In-process time-series store: bounded per-metric history.
//!
//! Every surface the registry serves (`/metrics`, `/status`, `/alerts`)
//! is a point-in-time snapshot — the moment a stall resolves or a scrape
//! is missed, the history is gone. This module keeps a short, bounded
//! ring of `(step_or_tick, value)` samples per metric so operators (and
//! the health engine's rule evaluator) can ask *windowed* questions:
//! "what was the step-latency p99 over the last 32 samples", "what is
//! the fallback-cell rate per second".
//!
//! Recording model, chosen so reconstructed history is *exact* rather
//! than approximate:
//!
//! * **Counters** are stored as **deltas** since the previous sample.
//!   Zero deltas are skipped, so the sum of a counter series' samples
//!   always equals the registry's current total (pinned by tests).
//! * **Gauges** are stored as **change-points**: a sample is appended
//!   only when the value differs from the last recorded one. Windowed
//!   aggregations therefore see every distinct value the gauge took.
//! * **Histograms** are stored as three derived gauge series —
//!   `<name>.p50`, `<name>.p99`, `<name>.max` — sampled from the
//!   cumulative distribution at flush/tick time.
//!
//! Feeds: [`crate::flush_step`] records the global registry after every
//! simulation step (the same snapshot the sinks see), and the session
//! engine's watchdog calls [`record_tick`] each evaluation so the
//! timeline keeps moving while sessions are stalled — exactly when the
//! alert rules need fresh history. Per-session series reuse the
//! [`crate::scope`] lifecycle: the session engine records scoped samples
//! next to its scoped counters and calls [`drop_scope`] on deletion, so
//! cardinality stays bounded by *live* sessions.
//!
//! Rings are bounded ([`SERIES_CAPACITY`]); evictions are counted in
//! `timeline.samples_dropped` (exactly zero in the canonical bench run,
//! gated by the baseline).

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex};

use crate::registry::Snapshot;
use crate::sink::json_escape;
use crate::{Counter, Gauge};

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Maximum samples retained per series (drop-oldest beyond this).
pub const SERIES_CAPACITY: usize = 1024;

static SAMPLES_RECORDED: Counter = Counter::new("timeline.samples_recorded");
static SAMPLES_DROPPED: Counter = Counter::new("timeline.samples_dropped");
/// Number of live series across all scopes (exposition-friendly).
static SERIES_LIVE: Gauge = Gauge::new("timeline.series_live");

/// Monotone watchdog-tick ordinal — the `at` axis of tick-fed samples.
static TICKS: AtomicU64 = AtomicU64::new(0);

/// One recorded observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Step index (flush-fed samples) or watchdog-tick ordinal (tick-fed
    /// samples). `at_ns` is the authoritative time axis.
    pub at: u64,
    /// Nanoseconds since the flight-recorder epoch.
    pub at_ns: u64,
    /// Counter delta, gauge value, or histogram quantile.
    pub value: f64,
}

impl Sample {
    fn to_json(self) -> String {
        let v = if self.value.is_finite() {
            self.value
        } else {
            0.0
        };
        format!(
            "{{\"at\":{},\"at_ns\":{},\"value\":{v}}}",
            self.at, self.at_ns
        )
    }
}

/// What a series' samples mean — decides `rate` semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Samples are deltas; their sum reconstructs the counter total.
    Counter,
    /// Samples are observed values (gauges and histogram quantiles).
    Gauge,
}

impl SeriesKind {
    /// Lower-case kind name, as rendered in JSON.
    pub fn name(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
        }
    }
}

/// Windowed aggregation over a series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// No aggregation — return the samples themselves.
    Raw,
    /// Arithmetic mean of the windowed sample values.
    Mean,
    /// Minimum windowed sample value.
    Min,
    /// Maximum windowed sample value.
    Max,
    /// Per-second rate across the window: counters sum the deltas accrued
    /// between the first and last sample; gauges use `(last - first)`.
    Rate,
}

impl Agg {
    /// Parses the `agg=` query value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "raw" => Some(Agg::Raw),
            "mean" => Some(Agg::Mean),
            "min" => Some(Agg::Min),
            "max" => Some(Agg::Max),
            "rate" => Some(Agg::Rate),
            _ => None,
        }
    }

    /// The accepted spellings (error messages).
    pub const ACCEPTED: &'static [&'static str] = &["raw", "mean", "min", "max", "rate"];

    /// Lower-case aggregation name.
    pub fn name(self) -> &'static str {
        match self {
            Agg::Raw => "raw",
            Agg::Mean => "mean",
            Agg::Min => "min",
            Agg::Max => "max",
            Agg::Rate => "rate",
        }
    }
}

#[derive(Debug)]
struct Series {
    kind: SeriesKind,
    /// Last cumulative total seen (counter series; delta source).
    last_total: u64,
    samples: VecDeque<Sample>,
}

impl Series {
    fn new(kind: SeriesKind) -> Self {
        Self {
            kind,
            last_total: 0,
            samples: VecDeque::new(),
        }
    }
}

#[derive(Default)]
struct Store {
    global: BTreeMap<String, Series>,
    scoped: BTreeMap<String, BTreeMap<String, Series>>,
}

static STORE: LazyLock<Mutex<Store>> = LazyLock::new(|| Mutex::new(Store::default()));

/// A consistent copy of one series (what queries and excerpts render).
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// Metric name (histogram quantile series carry `.p50`/`.p99`/`.max`
    /// suffixes).
    pub metric: String,
    /// Counter-delta or gauge semantics.
    pub kind: SeriesKind,
    /// The windowed samples, oldest first.
    pub samples: Vec<Sample>,
}

struct PushStats {
    recorded: u64,
    dropped: u64,
}

fn push_sample(series: &mut Series, at: u64, value: f64, at_ns: u64, stats: &mut PushStats) {
    if series.samples.len() >= SERIES_CAPACITY {
        series.samples.pop_front();
        stats.dropped += 1;
    }
    let value = if value.is_finite() { value } else { 0.0 };
    series.samples.push_back(Sample { at, at_ns, value });
    stats.recorded += 1;
}

/// Counter feed: compute the delta against the last seen total and append
/// it (zero deltas are skipped, so series sums stay exact).
fn push_counter_total(
    map: &mut BTreeMap<String, Series>,
    metric: &str,
    at: u64,
    at_ns: u64,
    total: u64,
    stats: &mut PushStats,
) {
    let Some(series) = map.get_mut(metric) else {
        if total == 0 {
            return; // never touched: don't materialise an empty series
        }
        let mut series = Series::new(SeriesKind::Counter);
        series.last_total = total;
        push_sample(&mut series, at, total as f64, at_ns, stats);
        map.insert(metric.to_owned(), series);
        return;
    };
    let delta = total.saturating_sub(series.last_total);
    series.last_total = total;
    if delta == 0 {
        return;
    }
    push_sample(series, at, delta as f64, at_ns, stats);
}

/// Gauge feed: append only when the value changed (change-point series).
fn push_gauge_value(
    map: &mut BTreeMap<String, Series>,
    metric: &str,
    at: u64,
    at_ns: u64,
    value: f64,
    stats: &mut PushStats,
) {
    let value = if value.is_finite() { value } else { 0.0 };
    let series = map
        .entry(metric.to_owned())
        .or_insert_with(|| Series::new(SeriesKind::Gauge));
    if series.samples.back().is_some_and(|s| s.value == value) {
        return;
    }
    push_sample(series, at, value, at_ns, stats);
}

fn record_snapshot(at: u64, snap: &Snapshot) {
    let at_ns = crate::flight::now_ns();
    let mut stats = PushStats {
        recorded: 0,
        dropped: 0,
    };
    let series_live;
    {
        let mut store = lock(&STORE);
        for c in &snap.counters {
            push_counter_total(&mut store.global, c.name, at, at_ns, c.value, &mut stats);
        }
        for (name, value) in &snap.gauges {
            push_gauge_value(&mut store.global, name, at, at_ns, *value, &mut stats);
        }
        for (name, hist) in &snap.histograms {
            if hist.count() == 0 {
                continue;
            }
            let triple = [
                (format!("{name}.p50"), hist.p50()),
                (format!("{name}.p99"), hist.p99()),
                (format!("{name}.max"), hist.max().unwrap_or(0.0)),
            ];
            for (metric, value) in triple {
                push_gauge_value(&mut store.global, &metric, at, at_ns, value, &mut stats);
            }
        }
        series_live = store.global.len() + store.scoped.values().map(BTreeMap::len).sum::<usize>();
    }
    SERIES_LIVE.set(series_live as f64);
    if stats.recorded > 0 {
        SAMPLES_RECORDED.add(stats.recorded);
    }
    if stats.dropped > 0 {
        SAMPLES_DROPPED.add(stats.dropped);
    }
}

/// Records the global registry snapshot after a simulation step (called
/// by [`crate::flush_step`] with the same snapshot the sinks receive).
/// The `at` axis is the step index.
pub fn record_flush(step: usize, snap: &Snapshot) {
    record_snapshot(step as u64, snap);
}

/// Records the global registry on a watchdog tick so history keeps
/// accruing while sessions are stalled. The `at` axis is a monotone tick
/// ordinal; returns the ordinal used.
pub fn record_tick(snap: &Snapshot) -> u64 {
    let tick = TICKS.fetch_add(1, Ordering::Relaxed);
    record_snapshot(tick, snap);
    tick
}

fn record_scoped_with(scope: &str, f: impl FnOnce(&mut BTreeMap<String, Series>, &mut PushStats)) {
    let mut stats = PushStats {
        recorded: 0,
        dropped: 0,
    };
    {
        let mut store = lock(&STORE);
        let map = store.scoped.entry(scope.to_owned()).or_default();
        f(map, &mut stats);
    }
    if stats.recorded > 0 {
        SAMPLES_RECORDED.add(stats.recorded);
    }
    if stats.dropped > 0 {
        SAMPLES_DROPPED.add(stats.dropped);
    }
}

/// Records a scoped counter sample from its new cumulative `total`
/// (pair with [`crate::scope::scoped_counter_add`], which returns it).
pub fn record_scoped_counter(scope: &str, metric: &str, at: u64, total: u64) {
    record_scoped_with(scope, |map, stats| {
        push_counter_total(map, metric, at, crate::flight::now_ns(), total, stats);
    });
}

/// Records a scoped gauge sample (change-point compressed).
pub fn record_scoped_gauge(scope: &str, metric: &str, at: u64, value: f64) {
    record_scoped_with(scope, |map, stats| {
        push_gauge_value(map, metric, at, crate::flight::now_ns(), value, stats);
    });
}

/// Drops every series of `scope`; returns whether the scope existed.
/// Wired into session deletion next to [`crate::scope::drop_scope`].
pub fn drop_scope(scope: &str) -> bool {
    lock(&STORE).scoped.remove(scope).is_some()
}

/// Number of scopes currently holding series.
pub fn scope_count() -> usize {
    lock(&STORE).scoped.len()
}

/// Sorted metric names with history: `None` for the global timeline,
/// `Some(scope)` for one session's.
pub fn metric_names(scope: Option<&str>) -> Vec<String> {
    let store = lock(&STORE);
    match scope {
        None => store.global.keys().cloned().collect(),
        Some(s) => store
            .scoped
            .get(s)
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default(),
    }
}

/// A copy of the last `window` samples of one series (`window == 0`
/// means everything retained). `None` if the metric has no history.
pub fn series(scope: Option<&str>, metric: &str, window: usize) -> Option<SeriesSnapshot> {
    let store = lock(&STORE);
    let map = match scope {
        None => &store.global,
        Some(s) => store.scoped.get(s)?,
    };
    let series = map.get(metric)?;
    let skip = if window == 0 {
        0
    } else {
        series.samples.len().saturating_sub(window)
    };
    Some(SeriesSnapshot {
        metric: metric.to_owned(),
        kind: series.kind,
        samples: series.samples.iter().skip(skip).copied().collect(),
    })
}

/// Aggregates a series snapshot. `None` for [`Agg::Raw`], an empty
/// window, or a rate over a zero-length time span.
pub fn aggregate(series: &SeriesSnapshot, agg: Agg) -> Option<f64> {
    let samples = &series.samples;
    if samples.is_empty() {
        return None;
    }
    match agg {
        Agg::Raw => None,
        Agg::Mean => Some(samples.iter().map(|s| s.value).sum::<f64>() / samples.len() as f64),
        Agg::Min => samples
            .iter()
            .map(|s| s.value)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v)))),
        Agg::Max => samples
            .iter()
            .map(|s| s.value)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v)))),
        Agg::Rate => {
            let first = samples.first()?;
            let last = samples.last()?;
            let span_s = (last.at_ns.saturating_sub(first.at_ns)) as f64 / 1e9;
            if span_s <= 0.0 {
                return None;
            }
            let amount = match series.kind {
                // Deltas accrued strictly after the first sample.
                SeriesKind::Counter => samples[1..].iter().map(|s| s.value).sum::<f64>(),
                SeriesKind::Gauge => last.value - first.value,
            };
            Some(amount / span_s)
        }
    }
}

/// Convenience: window + aggregate in one call (rule evaluation).
pub fn aggregate_value(scope: Option<&str>, metric: &str, window: usize, agg: Agg) -> Option<f64> {
    aggregate(&series(scope, metric, window)?, agg)
}

/// Sum of a counter series' deltas — must equal the registry total
/// exactly (pinned by tests). `None` for unknown or non-counter series.
pub fn reconstructed_counter_total(scope: Option<&str>, metric: &str) -> Option<f64> {
    let s = series(scope, metric, 0)?;
    (s.kind == SeriesKind::Counter).then(|| s.samples.iter().map(|x| x.value).sum())
}

fn render_series(out: &mut String, s: &SeriesSnapshot) {
    out.push_str(&format!(
        "\"metric\":\"{}\",\"kind\":\"{}\",\"samples\":[",
        json_escape(&s.metric),
        s.kind.name()
    ));
    let rendered: Vec<String> = s.samples.iter().map(|x| x.to_json()).collect();
    out.push_str(&rendered.join(","));
    out.push(']');
}

/// The `/timeline` JSON document for one metric. `None` if the metric
/// has no history in this scope.
pub fn query_json(scope: Option<&str>, metric: &str, window: usize, agg: Agg) -> Option<String> {
    let s = series(scope, metric, window)?;
    let mut out = String::from("{");
    if let Some(scope) = scope {
        out.push_str(&format!("\"scope\":\"{}\",", json_escape(scope)));
    }
    render_series(&mut out, &s);
    out.push_str(&format!(
        ",\"window\":{},\"agg\":\"{}\"",
        s.samples.len(),
        agg.name()
    ));
    if agg != Agg::Raw {
        match aggregate(&s, agg) {
            Some(v) if v.is_finite() => out.push_str(&format!(",\"value\":{v}")),
            _ => out.push_str(",\"value\":null"),
        }
    }
    out.push('}');
    Some(out)
}

/// A compact raw excerpt of one metric's recent history — embedded in
/// webhook payloads so receivers see what the triggering signal did.
pub fn excerpt_json(scope: Option<&str>, metric: &str, window: usize) -> Option<String> {
    let s = series(scope, metric, window)?;
    let mut out = String::from("{");
    render_series(&mut out, &s);
    out.push('}');
    Some(out)
}

/// Clears every series, global and scoped (test isolation; wired into
/// [`crate::reset`]).
pub(crate) fn reset_all() {
    let mut store = lock(&STORE);
    store.global.clear();
    store.scoped.clear();
    SERIES_LIVE.set(0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    static TL_COUNTER: Counter = Counter::new("timeline.test.counter");
    static TL_GAUGE: Gauge = Gauge::new("timeline.test.gauge");
    static TL_HIST: Histogram = Histogram::new("timeline.test.hist");

    /// Timeline tests share the global store and registry; serialise
    /// against every other obs test that resets them.
    fn with_reset<T>(f: impl FnOnce() -> T) -> T {
        let _gate = crate::tests::serial();
        crate::reset();
        let out = f();
        crate::reset();
        out
    }

    #[test]
    fn counter_deltas_reconstruct_the_total_exactly() {
        with_reset(|| {
            TL_COUNTER.add(5);
            record_flush(0, &crate::snapshot());
            TL_COUNTER.add(12);
            record_flush(1, &crate::snapshot());
            record_flush(2, &crate::snapshot()); // zero delta: skipped
            TL_COUNTER.add(3);
            record_flush(3, &crate::snapshot());
            let s = series(None, "timeline.test.counter", 0).expect("series");
            assert_eq!(s.kind, SeriesKind::Counter);
            let deltas: Vec<f64> = s.samples.iter().map(|x| x.value).collect();
            assert_eq!(deltas, vec![5.0, 12.0, 3.0]);
            assert_eq!(
                reconstructed_counter_total(None, "timeline.test.counter"),
                Some(TL_COUNTER.get() as f64)
            );
        });
    }

    #[test]
    fn gauges_record_change_points_only() {
        with_reset(|| {
            TL_GAUGE.set(1.5);
            record_flush(0, &crate::snapshot());
            record_flush(1, &crate::snapshot());
            TL_GAUGE.set(2.5);
            record_flush(2, &crate::snapshot());
            let s = series(None, "timeline.test.gauge", 0).expect("series");
            assert_eq!(s.kind, SeriesKind::Gauge);
            let values: Vec<f64> = s.samples.iter().map(|x| x.value).collect();
            assert_eq!(values, vec![1.5, 2.5]);
        });
    }

    #[test]
    fn histograms_record_quantile_triples() {
        with_reset(|| {
            for v in [1.0, 2.0, 100.0] {
                TL_HIST.record(v);
            }
            let snap = crate::snapshot();
            record_flush(0, &snap);
            let hist = snap.histogram("timeline.test.hist").expect("hist");
            for (suffix, want) in [
                ("p50", hist.p50()),
                ("p99", hist.p99()),
                ("max", hist.max().unwrap()),
            ] {
                let name = format!("timeline.test.hist.{suffix}");
                let s = series(None, &name, 0).unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(s.samples.last().map(|x| x.value), Some(want), "{name}");
            }
        });
    }

    #[test]
    fn ring_is_bounded_and_drops_are_counted() {
        with_reset(|| {
            let before = SAMPLES_DROPPED.get();
            for i in 0..(SERIES_CAPACITY as u64 + 10) {
                record_scoped_gauge("ringtest", "g", i, i as f64);
            }
            let s = series(Some("ringtest"), "g", 0).expect("series");
            assert_eq!(s.samples.len(), SERIES_CAPACITY);
            assert_eq!(SAMPLES_DROPPED.get() - before, 10);
            // Oldest evicted: first retained sample is #10.
            assert_eq!(s.samples[0].value, 10.0);
        });
    }

    #[test]
    fn windowing_and_aggregations() {
        with_reset(|| {
            for (i, v) in [2.0, 4.0, 6.0, 8.0].into_iter().enumerate() {
                record_scoped_gauge("aggtest", "g", i as u64, v);
            }
            let s = series(Some("aggtest"), "g", 2).expect("series");
            assert_eq!(s.samples.len(), 2);
            assert_eq!(aggregate(&s, Agg::Mean), Some(7.0));
            assert_eq!(aggregate(&s, Agg::Min), Some(6.0));
            assert_eq!(aggregate(&s, Agg::Max), Some(8.0));
            assert_eq!(aggregate(&s, Agg::Raw), None);
        });
    }

    #[test]
    fn counter_rate_uses_deltas_after_the_first_sample() {
        with_reset(|| {
            record_scoped_counter("ratetest", "c", 0, 10);
            std::thread::sleep(std::time::Duration::from_millis(5));
            record_scoped_counter("ratetest", "c", 1, 30);
            let s = series(Some("ratetest"), "c", 0).expect("series");
            let rate = aggregate(&s, Agg::Rate).expect("rate");
            // 20 units accrued between the two samples over ≥5ms.
            assert!(rate > 0.0 && rate <= 20.0 / 0.005, "rate {rate}");
        });
    }

    #[test]
    fn scopes_are_isolated_and_gced() {
        with_reset(|| {
            record_scoped_counter("s1", "session.steps", 0, 1);
            record_scoped_counter("s2", "session.steps", 0, 1);
            assert_eq!(scope_count(), 2);
            assert_eq!(metric_names(Some("s1")), vec!["session.steps".to_string()]);
            assert!(drop_scope("s1"));
            assert!(!drop_scope("s1"));
            assert_eq!(scope_count(), 1);
            assert!(series(Some("s1"), "session.steps", 0).is_none());
            assert!(series(Some("s2"), "session.steps", 0).is_some());
        });
    }

    #[test]
    fn query_json_embeds_samples_and_aggregate() {
        with_reset(|| {
            record_scoped_gauge("jsontest", "g", 0, 1.0);
            record_scoped_gauge("jsontest", "g", 1, 3.0);
            let doc = query_json(Some("jsontest"), "g", 0, Agg::Mean).expect("doc");
            assert!(doc.contains("\"scope\":\"jsontest\""), "{doc}");
            assert!(doc.contains("\"metric\":\"g\""), "{doc}");
            assert!(doc.contains("\"kind\":\"gauge\""), "{doc}");
            assert!(doc.contains("\"agg\":\"mean\""), "{doc}");
            assert!(doc.contains("\"value\":2"), "{doc}");
            assert!(query_json(Some("jsontest"), "missing", 0, Agg::Raw).is_none());
            let excerpt = excerpt_json(Some("jsontest"), "g", 4).expect("excerpt");
            assert!(excerpt.starts_with("{\"metric\":"), "{excerpt}");
        });
    }

    #[test]
    fn record_tick_advances_the_tick_axis() {
        with_reset(|| {
            TL_COUNTER.add(1);
            let t0 = record_tick(&crate::snapshot());
            TL_COUNTER.add(1);
            let t1 = record_tick(&crate::snapshot());
            assert!(t1 > t0);
            let s = series(None, "timeline.test.counter", 0).expect("series");
            assert_eq!(s.samples.len(), 2);
        });
    }
}
