//! The benchmark's own span recorder.
//!
//! Spans are opened and closed in the benchmark's files, around its calls
//! into each layer; nothing inside the library is instrumented here. They
//! are kept in memory and written out once, when the run ends. With
//! tracing off every call returns at the first branch.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json;

/// Index of a recorded span; `None` when tracing is off.
pub type SpanId = Option<usize>;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
}

/// The in-memory span list of one run.
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no span recorder call panics while holding the lock")
    }

    fn since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span caused by `parent`.
    pub fn open(&self, name: &str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.since_epoch(Instant::now());
        let mut spans = self.spans();
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened with [`Trace::open`].
    pub fn close(&self, id: SpanId) {
        if let Some(id) = id {
            let end_ns = self.since_epoch(Instant::now());
            self.spans()[id].end_ns = end_ns;
        }
    }

    /// Records a finished span whose duration a callee measured and
    /// returned (a stage time out of `StepTelemetry`, say).
    pub fn record(&self, name: &str, parent: SpanId, start: Instant, duration: Duration) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.since_epoch(start);
        let mut spans = self.spans();
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + duration.as_nanos() as u64,
            parent,
        });
        Some(spans.len() - 1)
    }

    /// Per span name: how many, their total time, and their self time
    /// (total minus what their child spans cover), in milliseconds.
    pub fn self_times(&self) -> BTreeMap<String, (usize, f64, f64)> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut table: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let row = table.entry(span.name.clone()).or_default();
            row.0 += 1;
            row.1 += total as f64 / 1e6;
            row.2 += total.saturating_sub(children) as f64 / 1e6;
        }
        table
    }

    /// The span list as JSON: name, start, end (ns since the run began),
    /// parent index, and the workload id all spans of this run share.
    pub fn to_json(&self, workload_id: &str) -> String {
        let spans = self.spans();
        let rows: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"workload\":{}}}",
                    json::quote(&s.name),
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    json::quote(workload_id),
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let trace = Trace::new(false);
        let id = trace.open("step", None);
        assert_eq!(id, None);
        trace.close(id);
        assert_eq!(
            trace.record("x", None, Instant::now(), Duration::from_millis(1)),
            None
        );
        assert!(trace.self_times().is_empty());
    }

    #[test]
    fn self_time_subtracts_child_spans() {
        let trace = Trace::new(true);
        let start = Instant::now();
        let step = trace.record("step", None, start, Duration::from_millis(10));
        trace.record("deposit", step, start, Duration::from_millis(3));
        trace.record("potentials", step, start, Duration::from_millis(6));
        let table = trace.self_times();
        let (count, total, own) = table["step"];
        assert_eq!(count, 1);
        assert!((total - 10.0).abs() < 1e-9 && (own - 1.0).abs() < 1e-9);
        assert_eq!(table["deposit"].2, 3.0);
        let doc = json::parse(&trace.to_json("solve_heavy/42")).unwrap();
        let rows = doc.as_array().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get("parent"), Some(&json::Value::Null));
        assert_eq!(rows[2].num("parent"), Some(0.0));
        assert_eq!(rows[2].str("workload"), Some("solve_heavy/42"));
    }
}
