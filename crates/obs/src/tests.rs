use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use crate::{
    flush_step, install, snapshot, uninstall_all, Broadcast, BroadcastSink, Counter, Gauge,
    Histogram, HistogramSnapshot, Recorder, Recv,
};

/// The registry and sink roster are process-global; tests that reset or
/// install must not interleave — the module-local suites (`timeline`,
/// `flight`) take this same gate.
pub(crate) fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn nested_spans_build_hierarchical_paths() {
    let _gate = serial();
    crate::reset();
    uninstall_all();
    let rec = Recorder::new();
    install(rec.clone());
    {
        let _outer = crate::span!("outer_span_test");
        std::thread::sleep(Duration::from_millis(2));
        {
            let _inner = crate::span!("inner");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let events = rec.span_events();
    let paths: Vec<&str> = events.iter().map(|e| e.path.as_str()).collect();
    assert!(paths.contains(&"outer_span_test/inner"), "paths: {paths:?}");
    assert!(paths.contains(&"outer_span_test"), "paths: {paths:?}");
    // Inner closes first; outer's duration includes the inner's.
    let inner = rec.total_ns("outer_span_test/inner");
    let outer = rec.total_ns("outer_span_test");
    assert!(outer >= inner, "outer {outer} must cover inner {inner}");
    uninstall_all();
}

#[test]
fn stop_returns_the_recorded_duration() {
    let _gate = serial();
    crate::reset();
    uninstall_all();
    let rec = Recorder::new();
    install(rec.clone());
    let guard = crate::span!("stop_test");
    std::thread::sleep(Duration::from_millis(1));
    let d = guard.stop();
    let events = rec.span_events();
    let event = events
        .iter()
        .find(|e| e.path == "stop_test")
        .expect("span recorded");
    assert_eq!(event.ns, u64::try_from(d.as_nanos()).unwrap());
    uninstall_all();
}

#[test]
fn registry_accumulates_across_closes() {
    let _gate = serial();
    crate::reset();
    uninstall_all();
    for _ in 0..3 {
        let _g = crate::span!("accumulation_test");
    }
    let snap = snapshot();
    let stat = snap.span("accumulation_test").expect("span present");
    assert_eq!(stat.count, 3);
    assert!(stat.mean() <= stat.total());
}

#[test]
fn counters_and_gauges_register_on_first_touch() {
    let _gate = serial();
    crate::reset();
    uninstall_all();
    static HITS: Counter = Counter::new("test.hits");
    static DEPTH: Gauge = Gauge::new("test.depth");
    HITS.add(2);
    HITS.incr();
    DEPTH.set(1.5);
    assert_eq!(crate::counter_value("test.hits"), Some(3));
    assert_eq!(crate::gauge_value("test.depth"), Some(1.5));
    let snap = snapshot();
    assert_eq!(snap.counter("test.hits"), Some(3));
}

#[test]
fn counter_adds_are_thread_safe() {
    let _gate = serial();
    crate::reset();
    static PAR_HITS: Counter = Counter::new("test.par_hits");
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..1000 {
                    PAR_HITS.incr();
                }
            });
        }
    });
    assert_eq!(PAR_HITS.get(), 8000);
}

#[test]
fn step_flush_reaches_sinks_with_counter_values() {
    let _gate = serial();
    crate::reset();
    uninstall_all();
    static FLUSHED: Counter = Counter::new("test.flushed");
    FLUSHED.add(7);
    let rec = Recorder::new();
    install(rec.clone());
    flush_step(42);
    let flushes = rec.step_flushes();
    assert_eq!(flushes.len(), 1);
    assert_eq!(flushes[0].step, 42);
    let (_, v) = flushes[0]
        .counters
        .iter()
        .find(|(n, _)| *n == "test.flushed")
        .expect("counter in flush");
    assert_eq!(*v, 7);
    uninstall_all();
}

#[test]
fn children_total_sums_only_direct_children() {
    let _gate = serial();
    crate::reset();
    uninstall_all();
    {
        let _root = crate::span!("tree_test");
        let _a = crate::span!("a");
    }
    {
        let _root = crate::span!("tree_test");
        let _b = crate::span!("b");
        let _deep = crate::span!("deep");
    }
    let snap = snapshot();
    let children = snap.children_total_ns("tree_test");
    let a = snap.span("tree_test/a").unwrap().total_ns;
    let b = snap.span("tree_test/b").unwrap().total_ns;
    let deep = snap.span("tree_test/b/deep").unwrap().total_ns;
    assert_eq!(children, a + b, "grandchild {deep} must not be counted");
}

#[test]
fn no_sink_is_a_cheap_no_op() {
    let _gate = serial();
    uninstall_all();
    assert_eq!(crate::installed_sinks(), 0);
    // Must not panic or allocate sinks-side state.
    for _ in 0..100 {
        let _g = crate::span!("no_sink_test");
    }
    flush_step(0);
}

#[cfg(feature = "trace")]
#[test]
fn jsonl_sink_writes_valid_lines() {
    let _gate = serial();
    crate::reset();
    uninstall_all();
    let path = std::env::temp_dir().join(format!("obs_trace_test_{}.jsonl", std::process::id()));
    {
        let _sink = crate::install_jsonl(&path).expect("create trace file");
        static TRACED: Counter = Counter::new("test.traced");
        TRACED.incr();
        let _g = crate::span!("jsonl_test");
        drop(_g);
        flush_step(1);
        uninstall_all();
    }
    let text = std::fs::read_to_string(&path).expect("trace readable");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines
        .iter()
        .any(|l| l.contains("\"type\":\"span\"") && l.contains("jsonl_test")));
    assert!(lines
        .iter()
        .any(|l| l.contains("\"type\":\"flush\"") && l.contains("\"step\":1")));
    for line in lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "line: {line}");
        assert_eq!(
            line.matches('{').count(),
            line.matches('}').count(),
            "balanced braces: {line}"
        );
    }
}

// --- Histogram ---

#[test]
fn histogram_registers_and_reports_quantiles() {
    let _gate = serial();
    crate::reset();
    static LATENCY: Histogram = Histogram::new("test.latency");
    for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
        LATENCY.record(v);
    }
    let snap = crate::histogram_snapshot("test.latency").expect("registered on first record");
    assert_eq!(snap.count(), 5);
    assert_eq!(snap.sum(), 110.0);
    assert_eq!(snap.max(), Some(100.0));
    assert_eq!(snap.min(), Some(1.0));
    // p50 falls in the bucket holding 3.0 (≤ 1/16 relative error, clamped
    // into [min, max]).
    let p50 = snap.p50();
    assert!((2.0..=4.0).contains(&p50), "p50 = {p50}");
    assert!(snap.p99() <= 100.0);
    assert!(snap.quantile(1.0) == 100.0);
    // Histograms flow into the registry snapshot alongside counters.
    let full = snapshot();
    assert!(full.histogram("test.latency").is_some());
}

#[test]
fn histogram_handles_degenerate_values() {
    let snap = HistogramSnapshot::from_values([0.0, -3.0, f64::NAN, f64::INFINITY]);
    // All degenerate values clamp to 0 — nothing can poison the histogram.
    assert_eq!(snap.count(), 4);
    assert_eq!(snap.sum(), 0.0);
    assert_eq!(snap.max(), Some(0.0));
    assert_eq!(snap.p99(), 0.0);
    let empty = HistogramSnapshot::new();
    assert!(empty.is_empty());
    assert_eq!(empty.quantile(0.5), 0.0);
    assert_eq!(empty.max(), None);
}

#[test]
fn histogram_single_value_answers_all_quantiles_exactly() {
    let snap = HistogramSnapshot::from_values([0.37]);
    for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(snap.quantile(q), 0.37, "q = {q}");
    }
}

#[test]
fn histogram_quantile_error_is_bounded() {
    // Geometric bucketing with 8 sub-buckets per octave bounds the
    // relative quantile error at 1/16 for any value in range.
    for v in [1e-9, 3.7e-4, 0.12, 1.0, 7.5, 1234.5, 9.9e8] {
        let snap = HistogramSnapshot::from_values(std::iter::repeat_n(v, 10));
        let p90 = snap.p90();
        assert!(
            (p90 - v).abs() <= v / 16.0 + f64::EPSILON,
            "v = {v}, p90 = {p90}"
        );
    }
}

#[test]
fn histogram_merge_with_empty_is_identity() {
    let mut a = HistogramSnapshot::from_values([1.0, 5.0, 9.0]);
    let before = a.bucket_counts().to_vec();
    a.merge(&HistogramSnapshot::new());
    assert_eq!(a.bucket_counts(), &before[..]);
    assert_eq!(a.count(), 3);

    let mut empty = HistogramSnapshot::new();
    empty.merge(&a);
    assert_eq!(empty.bucket_counts(), a.bucket_counts());
    assert_eq!(empty.max(), a.max());
    assert_eq!(empty.min(), a.min());
}

fn same_distribution(a: &HistogramSnapshot, b: &HistogramSnapshot) -> bool {
    a.bucket_counts() == b.bucket_counts()
        && a.count() == b.count()
        && a.min() == b.min()
        && a.max() == b.max()
        && (a.sum() - b.sum()).abs() <= 1e-9 * (1.0 + a.sum().abs())
}

mod histogram_properties {
    use super::{same_distribution, HistogramSnapshot};
    use proptest::prelude::*;

    fn values() -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(0.0f64..1e6, 0..64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn merge_is_commutative(xs in values(), ys in values()) {
            let (a, b) = (
                HistogramSnapshot::from_values(xs.iter().copied()),
                HistogramSnapshot::from_values(ys.iter().copied()),
            );
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert!(same_distribution(&ab, &ba));
        }

        #[test]
        fn merge_is_associative(
            xs in values(),
            ys in values(),
            zs in values(),
        ) {
            let a = HistogramSnapshot::from_values(xs.iter().copied());
            let b = HistogramSnapshot::from_values(ys.iter().copied());
            let c = HistogramSnapshot::from_values(zs.iter().copied());
            // (a ∪ b) ∪ c
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // a ∪ (b ∪ c)
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            prop_assert!(same_distribution(&left, &right));
        }

        #[test]
        fn merge_equals_concatenation(xs in values(), ys in values()) {
            let mut merged = HistogramSnapshot::from_values(xs.iter().copied());
            merged.merge(&HistogramSnapshot::from_values(ys.iter().copied()));
            let concat =
                HistogramSnapshot::from_values(xs.iter().chain(ys.iter()).copied());
            prop_assert!(same_distribution(&merged, &concat));
        }

        #[test]
        fn quantiles_are_monotone_in_q(xs in values(), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
            let snap = HistogramSnapshot::from_values(xs.iter().copied());
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(snap.quantile(lo) <= snap.quantile(hi),
                "quantile({}) = {} > quantile({}) = {}",
                lo, snap.quantile(lo), hi, snap.quantile(hi));
            if !xs.is_empty() {
                prop_assert!(snap.quantile(1.0) <= snap.max().unwrap());
            }
        }
    }
}

#[test]
fn histogram_concurrent_records_equal_sequential_totals() {
    let _gate = serial();
    crate::reset();
    static CONCURRENT: Histogram = Histogram::new("test.concurrent_hist");
    // Four threads record disjoint quarters of one value stream …
    let all: Vec<f64> = (0..4000).map(|i| 0.001 * (i % 997) as f64).collect();
    std::thread::scope(|scope| {
        for chunk in all.chunks(1000) {
            scope.spawn(move || {
                for &v in chunk {
                    CONCURRENT.record(v);
                }
            });
        }
    });
    // … and the result matches recording the stream sequentially.
    let concurrent = CONCURRENT.snapshot();
    let sequential = HistogramSnapshot::from_values(all.iter().copied());
    assert_eq!(concurrent.count(), sequential.count());
    assert_eq!(concurrent.bucket_counts(), sequential.bucket_counts());
    assert_eq!(concurrent.min(), sequential.min());
    assert_eq!(concurrent.max(), sequential.max());
    assert!((concurrent.sum() - sequential.sum()).abs() <= 1e-9 * sequential.sum().abs());
}

#[test]
fn step_flush_carries_histograms() {
    let _gate = serial();
    crate::reset();
    uninstall_all();
    static FLUSHED_HIST: Histogram = Histogram::new("test.flushed_hist");
    FLUSHED_HIST.record(2.5);
    FLUSHED_HIST.record(7.5);
    let rec = Recorder::new();
    install(rec.clone());
    flush_step(9);
    let snap = rec.histogram("test.flushed_hist").expect("in flush");
    assert_eq!(snap.count(), 2);
    assert_eq!(snap.max(), Some(7.5));
    assert!(rec.histogram("test.no_such_hist").is_none());
    uninstall_all();
}

// --- Broadcast sink ---

#[test]
fn broadcast_delivers_one_event_per_flush_in_order() {
    let _gate = serial();
    crate::reset();
    uninstall_all();
    let bus = BroadcastSink::new();
    let rx = bus.subscribe();
    install(bus.clone());
    for step in 0..5 {
        flush_step(step);
    }
    let events = rx.drain();
    assert_eq!(events.len(), 5);
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.step, i);
    }
    assert!(rx.is_empty());
    uninstall_all();
}

#[test]
fn broadcast_full_ring_drops_oldest_and_counts() {
    let _gate = serial();
    crate::reset();
    uninstall_all();
    let bus = BroadcastSink::with_capacity(3);
    let rx = bus.subscribe();
    install(bus.clone());
    for step in 0..7 {
        flush_step(step);
    }
    // Capacity 3: steps 0..4 were dropped oldest-first, 4..7 remain.
    let events = rx.drain();
    assert_eq!(events.iter().map(|e| e.step).collect::<Vec<_>>(), [4, 5, 6]);
    assert_eq!(crate::counter_value("telemetry.dropped_events"), Some(4));
    uninstall_all();
}

#[test]
fn broadcast_prunes_dropped_receivers() {
    let _gate = serial();
    crate::reset();
    uninstall_all();
    let bus = BroadcastSink::new();
    let rx_keep = bus.subscribe();
    let rx_drop = bus.subscribe();
    install(bus.clone());
    assert_eq!(bus.subscriber_count(), 2);
    drop(rx_drop);
    flush_step(0);
    assert_eq!(bus.subscriber_count(), 1);
    assert_eq!(rx_keep.len(), 1);
    uninstall_all();
}

#[test]
fn broadcast_recv_timeout_wakes_on_flush() {
    let _gate = serial();
    crate::reset();
    uninstall_all();
    let bus = BroadcastSink::new();
    let rx = bus.subscribe();
    install(bus.clone());
    assert!(matches!(
        rx.recv_timeout(Duration::from_millis(5)),
        Recv::Timeout
    ));
    let waiter = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)));
    // Give the waiter a moment to park on the condvar, then flush.
    std::thread::sleep(Duration::from_millis(20));
    flush_step(17);
    match waiter.join().expect("receiver thread") {
        Recv::Event(flush) => assert_eq!(flush.step, 17),
        _ => panic!("event not delivered"),
    }
    uninstall_all();
}

// `Broadcast::finish` — these buses are local, so no gate is needed.

#[test]
fn broadcast_finish_wakes_a_parked_receiver() {
    let bus = Broadcast::<u32>::new();
    let rx = bus.subscribe();
    let (parked_tx, parked_rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        parked_tx.send(()).expect("main thread alive");
        let started = std::time::Instant::now();
        (rx.recv_timeout(Duration::from_secs(5)), started.elapsed())
    });
    parked_rx.recv().expect("waiter started");
    // Whether `finish` lands before or after the waiter parks, the wait
    // must end with `Finished` far inside the 5 s timeout.
    std::thread::sleep(Duration::from_millis(20));
    bus.finish();
    let (got, waited) = waiter.join().expect("receiver thread");
    assert_eq!(got, Recv::Finished);
    assert!(waited < Duration::from_secs(2), "woke after {waited:?}");
}

#[test]
fn broadcast_delivers_everything_published_before_finish() {
    let bus = Broadcast::<u32>::new();
    let rx = bus.subscribe();
    for i in 0..3 {
        bus.publish(&i);
    }
    bus.finish();
    // Publishing after the end is a no-op: a finished stream stays so.
    bus.publish(&99);
    for i in 0..3 {
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Recv::Event(i));
    }
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Recv::Finished);
    assert_eq!(rx.recv_timeout(Duration::ZERO), Recv::Finished);
    assert_eq!(bus.subscriber_count(), 0);
}

#[test]
fn broadcast_subscription_after_finish_is_born_finished() {
    let bus = Broadcast::<u32>::new();
    bus.finish();
    bus.finish();
    let rx = bus.subscribe();
    let started = std::time::Instant::now();
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Recv::Finished);
    assert!(started.elapsed() < Duration::from_secs(2));
    assert!(rx.is_empty());
}

#[test]
fn step_flush_to_json_is_one_valid_object() {
    let _gate = serial();
    crate::reset();
    uninstall_all();
    static JSON_HITS: Counter = Counter::new("test.json_hits");
    JSON_HITS.add(3);
    let bus = BroadcastSink::new();
    let rx = bus.subscribe();
    install(bus.clone());
    flush_step(11);
    let flush = rx.try_recv().expect("flush delivered");
    let json = flush.to_json();
    assert!(json.starts_with("{\"type\":\"flush\",\"step\":11,"));
    assert!(json.contains("\"test.json_hits\":3"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    uninstall_all();
}

// --- Histogram ↔ span bridge ---

#[test]
fn observe_span_feeds_histogram_and_registry_the_same_value() {
    let _gate = serial();
    crate::reset();
    uninstall_all();
    static SPAN_LATENCY: Histogram = Histogram::new("test.span_latency_ns");
    let guard = crate::span!("observe_span_test");
    std::thread::sleep(Duration::from_millis(1));
    let elapsed = SPAN_LATENCY.observe_span(guard);
    let snap = crate::histogram_snapshot("test.span_latency_ns").expect("registered");
    assert_eq!(snap.count(), 1);
    let recorded_ns = snap.sum();
    assert_eq!(recorded_ns, elapsed.as_nanos() as f64);
    // The span registry saw exactly the same measurement.
    let stat_ns = snapshot()
        .span("observe_span_test")
        .expect("span stat")
        .total_ns;
    assert_eq!(stat_ns as f64, recorded_ns);
}

// --- Perfetto sink ---

#[test]
fn perfetto_sink_buffers_spans_and_writes_on_uninstall() {
    let _gate = serial();
    crate::reset();
    uninstall_all();
    let path = std::env::temp_dir().join(format!("obs_perfetto_test_{}.json", std::process::id()));
    {
        let sink = crate::install_perfetto(&path).expect("create trace file");
        {
            let _outer = crate::span!("perfetto_outer");
            let _inner = crate::span!("inner");
        }
        flush_step(0);
        assert!(sink.event_count() >= 3, "spans + step marker buffered");
        uninstall_all();
        drop(sink); // last Arc → Drop writes the file
    }
    let text = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    assert!(text.starts_with('{') && text.contains("\"traceEvents\""));
    assert!(text.contains("\"ph\":\"X\"") && text.contains("perfetto_outer/inner"));
    assert!(text.contains("\"ph\":\"i\""));
}

#[cfg(feature = "trace")]
#[test]
fn jsonl_sink_flushes_buffer_on_uninstall() {
    let _gate = serial();
    crate::reset();
    uninstall_all();
    let path =
        std::env::temp_dir().join(format!("obs_trace_drop_test_{}.jsonl", std::process::id()));
    {
        let sink = crate::install_jsonl(&path).expect("create trace file");
        // Span lines are buffered (no step flush happens in this run) …
        for _ in 0..3 {
            let _g = crate::span!("drop_flush_test");
        }
        uninstall_all();
        drop(sink); // … and the last Arc dropping flushes the writer.
    }
    let text = std::fs::read_to_string(&path).expect("trace readable");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("drop_flush_test"))
            .count(),
        3,
        "no span line was truncated: {text:?}"
    );
    let last = lines.last().expect("file not empty");
    assert!(
        last.starts_with('{') && last.ends_with('}'),
        "last line complete: {last:?}"
    );
}

/// Property coverage for the flight recorder's drop-oldest contract:
/// whatever the interleaving of concurrent writers, the ring retains exactly
/// the newest `capacity` events and accounts for every displaced one.
mod flight_ring_properties {
    use crate::flight::{EventKind, FlightEvent, FlightRing};
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// After all writers quiesce: `recorded == total`,
        /// `dropped == max(0, total - capacity)`, and the surviving
        /// sequence numbers are exactly the top `min(total, capacity)`.
        #[test]
        fn drop_oldest_accounting_is_exact_under_concurrent_writers(
            capacity in 1usize..24,
            per_writer in 0usize..32,
            writers in 1usize..5,
        ) {
            let ring = Arc::new(FlightRing::with_capacity(capacity));
            let handles: Vec<_> = (0..writers)
                .map(|w| {
                    let ring = Arc::clone(&ring);
                    std::thread::spawn(move || {
                        for i in 0..per_writer {
                            let mut event = FlightEvent::new(EventKind::Step);
                            event.session = w as u64;
                            event.step = i as u64;
                            event.value = (w * per_writer + i) as f64;
                            ring.record(&event);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("writer panicked");
            }

            let total = (writers * per_writer) as u64;
            prop_assert_eq!(ring.recorded(), total);
            prop_assert_eq!(
                ring.dropped(),
                total.saturating_sub(capacity as u64),
                "dropped must equal total - capacity once the ring wraps"
            );

            let snapshot = ring.snapshot();
            let survivors = total.min(capacity as u64);
            prop_assert_eq!(snapshot.len() as u64, survivors);
            // Sorted snapshot must be exactly [total - survivors, total).
            for (offset, entry) in snapshot.iter().enumerate() {
                prop_assert_eq!(entry.seq, total - survivors + offset as u64);
            }
        }

        /// Single-writer order: the snapshot preserves write order and the
        /// payloads of the retained suffix are intact.
        #[test]
        fn single_writer_retains_newest_payloads(
            capacity in 1usize..16,
            total in 0usize..48,
        ) {
            let ring = FlightRing::with_capacity(capacity);
            for i in 0..total {
                let mut event = FlightEvent::new(EventKind::Queue);
                event.step = i as u64;
                event.value = i as f64;
                ring.record(&event);
            }
            let snapshot = ring.snapshot();
            let survivors = total.min(capacity);
            prop_assert_eq!(snapshot.len(), survivors);
            for (offset, entry) in snapshot.iter().enumerate() {
                let expect = total - survivors + offset;
                prop_assert_eq!(entry.seq, expect as u64);
                prop_assert_eq!(entry.event.step, expect as u64);
                prop_assert_eq!(entry.event.value, expect as f64);
            }
        }
    }
}
