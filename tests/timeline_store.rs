//! The telemetry timeline store, end to end: in-process recording
//! exactness across every kernel × backend combination, then the serving
//! surfaces (`/timeline`, `/sessions/{id}/timeline`) over real sockets,
//! per-session history GC on `DELETE`, and the SSE keep-alive heartbeat.
//!
//! Pins the timeline acceptance contract (DESIGN.md §16):
//!
//! * counter series are **exact**: the sum of a series' deltas equals the
//!   registry total bit-for-bit, for all three kernels on both backends;
//! * histogram quantile series (`.p50`/`.p99`/`.max`) track the registry
//!   snapshot's own quantiles;
//! * `/timeline` aggregations agree with a `/metrics` scrape of the same
//!   counter; malformed queries answer structured 400s, unknown metrics
//!   404, and a deleted session's timeline is gone (404 + empty store);
//! * an idle `/events` stream emits `: keep-alive` SSE comments and no
//!   `step` events — heartbeats must never be counted as steps.
//!
//! Kept to a single `#[test]` because the obs registry — and with it the
//! timeline store — is process-global.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use beamdyn::beam::{GaussianBunch, RpConfig};
use beamdyn::core::{
    BackendKind, KernelKind, SessionManager, SessionManagerConfig, SessionState, Simulation,
    SimulationConfig, StatusBoard,
};
use beamdyn::obs;
use beamdyn::obs::timeline;
use beamdyn::par::ThreadPool;
use beamdyn::pic::GridGeometry;
use beamdyn::serve::{MonitorServer, ServeConfig, ServeContext};
use beamdyn::simt::DeviceConfig;
use beamdyn_bench::json;
use beamdyn_bench::scrape::{http_delete, http_get, http_post, parse_exposition};

const STEPS: usize = 4;

fn poll_until(what: &str, deadline: Duration, mut check: impl FnMut() -> bool) {
    let start = Instant::now();
    while !check() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Runs a short simulation and asserts the global timeline reconstructs
/// the registry exactly: counter delta sums equal counter totals, and the
/// histogram quantile series' last samples equal the snapshot quantiles.
fn assert_exact_reconstruction(kernel: KernelKind, backend: BackendKind) {
    obs::reset();
    let pool = ThreadPool::new(2);
    let device = DeviceConfig::tesla_k40();
    let kappa = 2;
    let mut config = SimulationConfig::standard(GridGeometry::unit(16, 16), kernel);
    config.backend = backend;
    config.rp = RpConfig {
        kappa,
        dt: 0.35 / kappa as f64,
        inner_points: 3,
        beta: 0.5,
        support_x: 0.42,
        support_y: 0.09,
        center: (0.4, 0.5),
    };
    let bunch = GaussianBunch {
        sigma_x: 0.12,
        sigma_y: 0.03,
        center_x: 0.4,
        center_y: 0.5,
        charge: 1.0,
        velocity_spread: 0.0,
        drift_vx: 0.2,
        chirp: 0.0,
    };
    let mut sim = Simulation::new(&pool, &device, config, bunch.sample(2_000, 42));
    assert_eq!(sim.backend_name(), backend.name());
    for _ in 0..STEPS {
        sim.run_step();
    }

    let combo = format!("{}/{}", sim.kernel_name(), backend.name());
    // Both sides of the comparison come from one snapshot: the registry
    // keeps moving after the last step's flush (idle pool workers park,
    // the store counts its own samples), so record this snapshot and
    // check the store against exactly it.
    let snap = obs::snapshot();
    timeline::record_flush(STEPS, &snap);
    let mut nonzero = 0usize;
    for c in &snap.counters {
        let reconstructed = timeline::reconstructed_counter_total(None, c.name).unwrap_or(0.0);
        assert_eq!(
            reconstructed, c.value as f64,
            "[{combo}] counter {} must reconstruct exactly from its deltas",
            c.name
        );
        if c.value > 0 {
            nonzero += 1;
        }
    }
    assert!(
        nonzero >= 3,
        "[{combo}] the run must have exercised real counters"
    );
    let mut hists = 0usize;
    for (name, hist) in &snap.histograms {
        if hist.count() == 0 {
            continue;
        }
        hists += 1;
        for (suffix, want) in [
            ("p50", hist.p50()),
            ("p99", hist.p99()),
            ("max", hist.max().unwrap_or(0.0)),
        ] {
            let series_name = format!("{name}.{suffix}");
            let s = timeline::series(None, &series_name, 0)
                .unwrap_or_else(|| panic!("[{combo}] {series_name} has no timeline"));
            assert_eq!(
                s.samples.last().map(|x| x.value),
                Some(want),
                "[{combo}] {series_name} must track the snapshot quantile"
            );
        }
    }
    assert!(hists >= 1, "[{combo}] at least one histogram recorded");
}

/// Reads an idle SSE stream raw (no comment-skipping) for `window` and
/// returns everything received after the response headers.
fn read_sse_raw(addr: &str, window: Duration) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect SSE");
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout");
    write!(
        stream,
        "GET /events HTTP/1.1\r\nHost: {addr}\r\nAccept: text/event-stream\r\n\r\n"
    )
    .expect("write request");
    let mut raw = Vec::new();
    let deadline = Instant::now() + window;
    let mut buf = [0u8; 4096];
    while Instant::now() < deadline {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => panic!("SSE read failed: {e}"),
        }
    }
    let text = String::from_utf8_lossy(&raw).into_owned();
    text.split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or(text)
}

#[test]
fn timeline_reconstructs_serves_and_gcs_history() {
    obs::uninstall_all();

    // --- Phase A: recording exactness, all kernels × both backends.
    for kernel in [
        KernelKind::TwoPhase,
        KernelKind::Heuristic,
        KernelKind::Predictive,
    ] {
        for backend in [BackendKind::TracedSimt, BackendKind::NativeFast] {
            assert_exact_reconstruction(kernel, backend);
        }
    }

    // --- Phase B: the serving surfaces, against a live session fleet.
    obs::reset();
    let manager = SessionManager::start(SessionManagerConfig {
        threads: 2,
        step_workers: 1,
        slots: 2,
        default_backend: BackendKind::TracedSimt,
        device: DeviceConfig::tesla_k40(),
        ..SessionManagerConfig::default()
    });
    let server = MonitorServer::start(
        ServeConfig::default(),
        ServeContext {
            status: StatusBoard::new("predictive", "traced-simt"),
            events: obs::BroadcastSink::new(),
            ready: Arc::new(AtomicBool::new(true)),
            sessions: Some(Arc::clone(&manager)),
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();

    let (code, body) = http_post(
        &addr,
        "/sessions",
        &format!(r#"{{"name":"timeline-drill","resolution":8,"particles":400,"steps":{STEPS}}}"#),
    )
    .expect("POST session");
    assert_eq!(code, 201, "{body}");
    let id = json::parse(&body)
        .expect("201 JSON")
        .get("id")
        .and_then(|v| v.as_f64())
        .expect("id") as u64;
    poll_until("session finished", Duration::from_secs(60), || {
        manager.state(id) == Some(SessionState::Done)
    });

    // Global listing: the run populated real series.
    let (code, body) = http_get(&addr, "/timeline").expect("GET /timeline");
    assert_eq!(code, 200, "{body}");
    let listing = json::parse(&body).expect("/timeline is JSON");
    let metrics = listing
        .get("metrics")
        .and_then(|v| v.as_array())
        .expect("metrics array");
    assert!(!metrics.is_empty(), "global timeline must have series");
    let has = |name: &str| metrics.iter().any(|m| m.as_str() == Some(name));
    assert!(has("sessions.completed"), "{body}");

    // Aggregation consistency: the sum of a counter's timeline deltas
    // (agg=raw, full window) must equal the /metrics scrape of the same
    // counter, exactly.
    let (code, text) = http_get(&addr, "/metrics").expect("GET /metrics");
    assert_eq!(code, 200);
    let exposition = parse_exposition(&text).expect("valid exposition");
    let scraped = exposition
        .value("beamdyn_sessions_completed_total")
        .expect("sessions.completed exposed");
    let (code, body) =
        http_get(&addr, "/timeline?metric=sessions.completed&agg=raw").expect("GET counter series");
    assert_eq!(code, 200, "{body}");
    let doc = json::parse(&body).expect("series JSON");
    assert_eq!(doc.get("kind").and_then(|v| v.as_str()), Some("counter"));
    let delta_sum: f64 = doc
        .get("samples")
        .and_then(|v| v.as_array())
        .expect("samples")
        .iter()
        .map(|s| s.get("value").and_then(|v| v.as_f64()).expect("value"))
        .sum();
    assert_eq!(
        delta_sum, scraped,
        "/timeline deltas must sum to the /metrics total"
    );
    // The windowed max of a counter series is its largest single delta —
    // bounded by the total; mean over one sample of a fresh counter is the
    // total itself. Spot-check agg plumbing returns a value.
    let (code, body) =
        http_get(&addr, "/timeline?metric=sessions.completed&agg=max").expect("GET agg=max");
    assert_eq!(code, 200, "{body}");
    let max_doc = json::parse(&body).expect("agg JSON");
    let max_delta = max_doc
        .get("value")
        .and_then(|v| v.as_f64())
        .expect("max aggregation value");
    assert!(max_delta <= scraped && max_delta > 0.0, "{body}");

    // Malformed queries are structured 400s; unknown metrics are 404s.
    let (code, body) = http_get(&addr, "/timeline?metric=x&agg=bogus").expect("bad agg");
    assert_eq!(code, 400, "{body}");
    assert!(body.contains("\"accepted\""), "{body}");
    let (code, body) = http_get(&addr, "/timeline?window=many").expect("bad window");
    assert_eq!(code, 400, "{body}");
    let (code, body) = http_get(&addr, "/timeline?metric=no.such.metric").expect("unknown metric");
    assert_eq!(code, 404, "{body}");
    let (code, body) = http_get(&addr, "/timeline?bogus=1").expect("unknown param");
    assert_eq!(code, 400, "{body}");

    // Per-session history: scoped series exist while the session does,
    // and the scoped delta sum equals the session-labelled /metrics value.
    let (code, body) =
        http_get(&addr, &format!("/sessions/{id}/timeline")).expect("GET session timeline");
    assert_eq!(code, 200, "{body}");
    let listing = json::parse(&body).expect("session listing JSON");
    assert!(
        listing
            .get("metrics")
            .and_then(|v| v.as_array())
            .is_some_and(|m| m.iter().any(|x| x.as_str() == Some("session.steps"))),
        "session timeline must list session.steps: {body}"
    );
    let scoped_steps = exposition
        .labelled("beamdyn_session_steps_total", "session", &id.to_string())
        .expect("scoped steps on /metrics");
    assert_eq!(scoped_steps, STEPS as f64);
    let (code, body) = http_get(
        &addr,
        &format!("/sessions/{id}/timeline?metric=session.steps&agg=rate"),
    )
    .expect("GET scoped series");
    assert_eq!(code, 200, "{body}");
    let doc = json::parse(&body).expect("scoped series JSON");
    assert_eq!(
        doc.get("scope").and_then(|v| v.as_str()),
        Some(id.to_string().as_str())
    );
    let scoped_sum: f64 = doc
        .get("samples")
        .and_then(|v| v.as_array())
        .expect("samples")
        .iter()
        .map(|s| s.get("value").and_then(|v| v.as_f64()).expect("value"))
        .sum();
    assert_eq!(
        scoped_sum, scoped_steps,
        "scoped timeline must reconstruct the scoped counter"
    );
    assert_eq!(
        http_get(&addr, "/sessions/999/timeline")
            .expect("unknown id")
            .0,
        404
    );

    // --- GC: deleting the session deletes its history, store and route.
    assert_eq!(
        http_delete(&addr, &format!("/sessions/{id}"))
            .expect("DELETE")
            .0,
        200
    );
    poll_until("scoped timeline GC'd", Duration::from_secs(10), || {
        timeline::series(Some(&id.to_string()), "session.steps", 0).is_none()
    });
    assert_eq!(
        http_get(&addr, &format!("/sessions/{id}/timeline"))
            .expect("GET deleted timeline")
            .0,
        404,
        "a deleted session's timeline route must 404"
    );

    // --- Phase C: idle /events streams heartbeat with SSE comments, and
    // those heartbeats are never step events.
    let body = read_sse_raw(&addr, Duration::from_millis(700));
    assert!(
        body.contains(": keep-alive"),
        "idle /events must heartbeat with SSE comments: {body:?}"
    );
    assert!(
        !body.contains("event: step"),
        "an idle stream must emit no step events: {body:?}"
    );

    server.shutdown();
    server.join();
    manager.shutdown();
    obs::uninstall_all();
}
