//! The multi-tenant session service, end to end in one process: a real
//! [`SessionManager`] behind a real [`MonitorServer`] on a TCP socket,
//! exercised the way tenants and scrapers actually hit it.
//!
//! Pins the service acceptance contract (DESIGN.md §14):
//!
//! * the `/sessions` route family — POST → 201 + id, listing, per-session
//!   summary/status/metrics, DELETE — over real HTTP;
//! * every malformed request (bad JSON, unknown field, bad enum value,
//!   out-of-range number, oversized body, bad id) answers a *structured*
//!   4xx naming the field and accepted values — the daemon never panics;
//! * `/metrics` stays a valid, parseable exposition while sessions churn
//!   (submit / run / delete) under concurrent scrapers — no torn output;
//! * per-subscriber event rings drop oldest on overflow and every drop is
//!   accounted in `telemetry.dropped_events` — verified *exactly* with a
//!   capacity-2 ring and a deliberately lazy subscriber;
//! * the serving path is push-based (DESIGN.md §11): a session stream's
//!   `end` follows the last step, a DELETE or an already-finished session
//!   at once — never one keep-alive tick later — `/quitz` wakes
//!   `wait_quit`, and `join()` returns promptly from a blocking accept.
//!
//! The obs registry is process-global, so the tests here take one gate
//! and run one after the other.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use beamdyn::core::{
    BackendKind, ScenarioSpec, SessionManager, SessionManagerConfig, SessionState, StatusBoard,
};
use beamdyn::obs;
use beamdyn::serve::{MonitorServer, ServeConfig, ServeContext};
use beamdyn::simt::DeviceConfig;
use beamdyn_bench::json;
use beamdyn_bench::scrape::{http_delete, http_get, http_post, parse_exposition};

/// Event-ring capacity for every session bus in this test: small enough
/// that a lazy subscriber overflows it deterministically.
const EVENTS_CAPACITY: usize = 2;

fn tiny_spec(steps: usize) -> ScenarioSpec {
    ScenarioSpec {
        nx: 8,
        ny: 8,
        particles: 400,
        steps,
        ..ScenarioSpec::default()
    }
}

fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn start_server(addr: &str, manager: &Arc<SessionManager>) -> MonitorServer {
    MonitorServer::start(
        ServeConfig {
            addr: addr.to_string(),
            ..ServeConfig::default()
        },
        ServeContext {
            status: StatusBoard::new("predictive", "traced-simt"),
            events: obs::BroadcastSink::new(),
            ready: Arc::new(AtomicBool::new(true)),
            sessions: Some(Arc::clone(manager)),
        },
    )
    .expect("bind ephemeral port")
}

/// Sends `head` (a complete request head) and returns the status code.
fn raw_status(addr: &str, head: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(head.as_bytes()).expect("write head");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"))
}

/// An SSE stream opened and read up to the end of the response headers —
/// the server subscribes before it writes them, so the subscription exists
/// when this returns.
fn open_events(addr: &str, path: &str) -> BufReader<TcpStream> {
    let mut stream = TcpStream::connect(addr).expect("connect SSE");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").expect("write request");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while reader.read_line(&mut line).expect("SSE headers") > 0 && line != "\r\n" {
        line.clear();
    }
    reader
}

/// Reads an SSE stream to its end: every non-empty line with the time it
/// arrived.
fn read_to_end(mut reader: BufReader<TcpStream>) -> Vec<(Instant, String)> {
    let mut lines = Vec::new();
    let mut line = String::new();
    while reader.read_line(&mut line).expect("SSE line") > 0 {
        if !line.trim().is_empty() {
            lines.push((Instant::now(), line.trim().to_string()));
        }
        line.clear();
    }
    lines
}

fn arrival(lines: &[(Instant, String)], prefix: &str) -> Option<Instant> {
    lines
        .iter()
        .rev()
        .find(|(_, line)| line.starts_with(prefix))
        .map(|&(at, _)| at)
}

fn post_session(addr: &str, body: &str) -> u64 {
    let (code, response) = http_post(addr, "/sessions", body).expect("POST session");
    assert_eq!(code, 201, "{response}");
    json::parse(&response)
        .expect("201 body is JSON")
        .get("id")
        .and_then(|v| v.as_f64())
        .expect("id") as u64
}

fn wait_for_state(mgr: &SessionManager, id: u64, want: SessionState) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match mgr.state(id) {
            Some(state) if state == want => return,
            Some(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            other => panic!("session {id} never reached {want:?} (last: {other:?})"),
        }
    }
}

#[test]
fn session_service_contract_over_real_http() {
    let _gate = serial();
    obs::uninstall_all();
    obs::reset();

    let manager = SessionManager::start(SessionManagerConfig {
        threads: 2,
        step_workers: 2,
        // One slot: admission is strictly serial, which both exercises the
        // pending queue under churn and makes the dropped-events phase
        // deterministic (we subscribe while the target is still pending).
        slots: 1,
        events_capacity: EVENTS_CAPACITY,
        default_backend: BackendKind::TracedSimt,
        device: DeviceConfig::tesla_k40(),
        ..SessionManagerConfig::default()
    });
    let server = start_server("127.0.0.1:0", &manager);
    let addr = server.addr().to_string();

    // --- Structured errors: every malformed request is a 4xx with a JSON
    // body naming the field; none of them may panic the server.
    let bad_requests: &[(&str, &str, &[&str])] = &[
        ("{oops", "body", &[]),
        ("[1,2]", "body", &[]),
        (r#"{"kernl":"predictive"}"#, "kernl", &["kernel"]),
        (r#"{"kernel":"warp"}"#, "kernel", &["predictive"]),
        (r#"{"backend":"cuda"}"#, "backend", &["traced", "native"]),
        (r#"{"lattice":"fodo"}"#, "lattice", &["lcls-bend"]),
        (r#"{"steps":0}"#, "steps", &[]),
        (r#"{"particles":2.5}"#, "particles", &[]),
        (r#"{"grid":{"nx":2}}"#, "grid.nx", &[]),
        (r#"{"bunch":{"sigma_z":1}}"#, "bunch.sigma_z", &["sigma_x"]),
        (r#"{"tau":-1}"#, "tolerance", &[]),
    ];
    for (body, field, accepted) in bad_requests {
        let (code, response) = http_post(&addr, "/sessions", body).expect("POST");
        assert_eq!(code, 400, "{body} must be rejected, got {code}: {response}");
        let parsed = json::parse(&response)
            .unwrap_or_else(|e| panic!("400 body for {body} is not JSON: {e}\n{response}"));
        assert_eq!(
            parsed.get("field").and_then(|v| v.as_str()),
            Some(*field),
            "400 for {body} names the offending field"
        );
        let listed: Vec<String> = parsed
            .get("accepted")
            .and_then(|v| v.as_array())
            .map(|a| {
                a.iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default();
        for want in *accepted {
            assert!(
                listed.iter().any(|v| v == want),
                "400 for {body} must list accepted value {want}, got {listed:?}"
            );
        }
    }
    // Oversized body → 413, bad ids → 400/404, wrong method → 405.
    let huge = format!(r#"{{"name":"{}"}}"#, "x".repeat(2 << 20));
    assert_eq!(
        http_post(&addr, "/sessions", &huge).expect("POST huge").0,
        413
    );
    // An over-long head → 431, whether by line count or by bytes; a head
    // inside both bounds is served.
    let with_headers = |n: usize, value: &str| {
        let headers: String = (0..n).map(|i| format!("X-Pad-{i}: {value}\r\n")).collect();
        format!("GET /sessions HTTP/1.1\r\n{headers}\r\n")
    };
    assert_eq!(raw_status(&addr, &with_headers(90, "x")), 200);
    assert_eq!(raw_status(&addr, &with_headers(150, "x")), 431);
    assert_eq!(
        raw_status(&addr, &with_headers(1, &"x".repeat(20 << 10))),
        431
    );
    // A head dripped line by line is cut off at the request deadline (5 s),
    // although every single read arrived in time: the worker is released.
    let mut drip = TcpStream::connect(&addr).expect("connect");
    drip.set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    drip.write_all(b"GET /sessions HTTP/1.1\r\n")
        .expect("request line");
    let dripping = Instant::now();
    let closed_after = loop {
        assert!(
            dripping.elapsed() < Duration::from_secs(9),
            "a dripping client held its worker past the request deadline"
        );
        let _ = drip.write_all(b"X-Drip: 1\r\n");
        match drip.read(&mut [0u8; 64]) {
            Ok(0) => break dripping.elapsed(),
            Ok(_) => panic!("a request that never completed was answered"),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break dripping.elapsed(),
        }
    };
    assert!(closed_after > Duration::from_secs(3), "{closed_after:?}");
    assert_eq!(http_get(&addr, "/sessions/abc").expect("bad id").0, 400);
    assert_eq!(http_get(&addr, "/sessions/999").expect("GET 999").0, 404);
    assert_eq!(
        http_delete(&addr, "/sessions/999").expect("DELETE 999").0,
        404
    );
    assert_eq!(
        http_get(&addr, "/sessions/999/status")
            .expect("status 999")
            .0,
        404
    );
    assert_eq!(
        http_post(&addr, "/metrics", "{}").expect("POST metrics").0,
        405
    );

    // --- Happy path: POST → 201 + location, run to completion, per-session
    // status + scoped metrics, then DELETE.
    let (code, body) = http_post(
        &addr,
        "/sessions",
        r#"{"resolution":8,"particles":400,"steps":2,"kernel":"heuristic","backend":"native"}"#,
    )
    .expect("POST session");
    assert_eq!(code, 201, "{body}");
    let created = json::parse(&body).expect("201 body is JSON");
    let id = created.get("id").and_then(|v| v.as_f64()).expect("id") as u64;
    assert_eq!(
        created.get("location").and_then(|v| v.as_str()),
        Some(format!("/sessions/{id}").as_str())
    );
    wait_for_state(&manager, id, SessionState::Done);
    let (code, body) = http_get(&addr, &format!("/sessions/{id}/status")).expect("status");
    assert_eq!(code, 200);
    let session_status = json::parse(&body).expect("status JSON");
    assert_eq!(
        session_status
            .get("steps_completed")
            .and_then(|v| v.as_f64()),
        Some(2.0)
    );
    assert_eq!(
        session_status.get("backend").and_then(|v| v.as_str()),
        Some("native-fast")
    );
    let (code, text) = http_get(&addr, &format!("/sessions/{id}/metrics")).expect("metrics");
    assert_eq!(code, 200);
    let scoped = parse_exposition(&text).expect("scoped exposition parses");
    assert_eq!(
        scoped.labelled("beamdyn_session_steps_total", "session", &id.to_string()),
        Some(2.0),
        "per-session step counter scoped by session label"
    );
    // The session label also appears in the global exposition without
    // disturbing the unscoped families.
    let (_, global) = http_get(&addr, "/metrics").expect("global metrics");
    let global = parse_exposition(&global).expect("global exposition parses");
    assert!(
        global
            .labelled("beamdyn_session_steps_total", "session", &id.to_string())
            .is_some(),
        "global /metrics carries the per-session series"
    );
    assert!(
        global
            .value("beamdyn_sessions_completed_total")
            .unwrap_or(0.0)
            >= 1.0,
        "fleet-wide session counters advance"
    );
    let (code, _) = http_delete(&addr, &format!("/sessions/{id}")).expect("DELETE");
    assert_eq!(code, 200);
    assert_eq!(
        http_get(&addr, &format!("/sessions/{id}")).expect("GET").0,
        404
    );
    assert!(
        !parse_exposition(&http_get(&addr, "/metrics").expect("metrics").1)
            .expect("parses")
            .samples
            .iter()
            .any(|s| s.label("session") == Some(id.to_string().as_str())),
        "deleting a session drops its scoped series (bounded cardinality)"
    );

    // --- Exact dropped-events accounting: a 6-step session watched by a
    // subscriber that never drains a capacity-2 ring. The single workspace
    // slot is held by a blocker, so the subscription provably exists
    // before the target's first step — every overflow is a counted drop:
    // 6 published - 2 retained = 4 dropped.
    let dropped_before = obs::counter_value("telemetry.dropped_events").unwrap_or(0);
    let mut blocker = tiny_spec(4);
    blocker.step_delay_ms = 60;
    let blocker_id = manager.submit(blocker).expect("submit blocker");
    let target_id = manager.submit(tiny_spec(6)).expect("submit target");
    assert_eq!(manager.state(target_id), Some(SessionState::Queued));
    let rx = manager
        .subscribe(target_id)
        .expect("subscribe while queued");
    wait_for_state(&manager, target_id, SessionState::Done);
    let retained = rx.drain();
    assert_eq!(
        retained.len(),
        EVENTS_CAPACITY,
        "lazy subscriber keeps exactly the ring capacity"
    );
    assert_eq!(
        retained.iter().map(|e| e.step).collect::<Vec<_>>(),
        vec![4, 5],
        "ring keeps the newest events (drop-oldest)"
    );
    let dropped_after = obs::counter_value("telemetry.dropped_events").unwrap_or(0);
    assert_eq!(
        dropped_after - dropped_before,
        (6 - EVENTS_CAPACITY) as u64,
        "every overflow is accounted in telemetry.dropped_events"
    );
    assert_eq!(manager.state(blocker_id), Some(SessionState::Done));

    // --- Churn under concurrent scrapers: three threads hammer /metrics
    // and /sessions while sessions are submitted, run, and deleted. Every
    // response must be a complete, parseable exposition — a torn or
    // interleaved body would fail the strict parser.
    let stop = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut scrapes = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let (code, text) = http_get(&addr, "/metrics").expect("scrape /metrics");
                    assert_eq!(code, 200);
                    parse_exposition(&text).expect("no torn exposition under churn");
                    let (code, listing) = http_get(&addr, "/sessions").expect("scrape /sessions");
                    assert_eq!(code, 200);
                    json::parse(&listing).expect("listing stays valid JSON under churn");
                    scrapes += 1;
                }
                scrapes
            })
        })
        .collect();
    let mut churn_ids = Vec::new();
    for i in 0..6 {
        let id = post_session(
            &addr,
            &format!(r#"{{"name":"churn-{i}","resolution":8,"particles":400,"steps":2}}"#),
        );
        churn_ids.push(id);
        // Evict every other session mid-flight — deletes must interleave
        // cleanly with scrapes and running steps.
        if i % 2 == 1 {
            let (code, _) = http_delete(&addr, &format!("/sessions/{id}")).expect("DELETE churn");
            assert_eq!(code, 200);
        }
    }
    assert!(
        manager.wait_idle(Duration::from_secs(60)),
        "churn sessions never settled"
    );
    stop.store(true, std::sync::atomic::Ordering::Release);
    let total_scrapes: usize = scrapers
        .into_iter()
        .map(|t| t.join().expect("scraper thread panicked"))
        .sum();
    assert!(total_scrapes > 0, "scrapers never ran");
    // Survivors completed despite the churn; the fleet listing agrees.
    for (i, id) in churn_ids.iter().enumerate() {
        if i % 2 == 0 {
            let state = manager.state(*id);
            assert!(
                matches!(state, Some(SessionState::Done)),
                "churn survivor {id} should finish, got {state:?}"
            );
        }
    }

    server.join();
    manager.shutdown();
    obs::uninstall_all();
}

/// Milliseconds from `since` to the arrival of the `event: end` line.
fn end_lag_ms(lines: &[(Instant, String)], since: Instant) -> f64 {
    let end = arrival(lines, "event: end").unwrap_or_else(|| panic!("no end event in {lines:?}"));
    end.saturating_duration_since(since).as_secs_f64() * 1e3
}

/// The idle-stream keep-alive tick is 200 ms; anything an end-of-stream
/// still waited a tick for would read about that. Best of three, so a
/// busy box cannot fail what is a wake-up of microseconds.
const PROMPT_MS: f64 = 100.0;

#[test]
fn streams_end_and_the_server_stops_without_waiting_out_a_timer() {
    let _gate = serial();
    obs::uninstall_all();
    let manager = SessionManager::start(SessionManagerConfig {
        threads: 2,
        step_workers: 1,
        slots: 1,
        default_backend: BackendKind::NativeFast,
        device: DeviceConfig::tesla_k40(),
        ..SessionManagerConfig::default()
    });
    let server = start_server("127.0.0.1:0", &manager);
    let addr = server.addr().to_string();
    let paced = r#"{"resolution":8,"particles":400,"steps":6,"step_delay_ms":15}"#;

    // --- `end` follows the last `step` of a finishing session at once.
    let mut last_done = 0;
    let lag = (0..3)
        .map(|_| {
            last_done = post_session(&addr, paced);
            let lines = read_to_end(open_events(&addr, &format!("/sessions/{last_done}/events")));
            let end = &lines.last().expect("stream not empty").1;
            assert!(end.contains(r#""state":"done""#), "{lines:?}");
            let last_step = arrival(&lines, "event: step")
                .unwrap_or_else(|| panic!("subscribed too late to see a step: {lines:?}"));
            end_lag_ms(&lines, last_step)
        })
        .fold(f64::INFINITY, f64::min);
    assert!(lag < PROMPT_MS, "end came {lag:.1} ms after the last step");

    // --- A stream opened on an already-finished session is born finished:
    // `end` at once, not one heartbeat first.
    let lag = (0..3)
        .map(|_| {
            let opened = Instant::now();
            let lines = read_to_end(open_events(&addr, &format!("/sessions/{last_done}/events")));
            assert!(
                !lines.iter().any(|(_, l)| l.starts_with(": keep-alive")),
                "{lines:?}"
            );
            assert!(lines.last().expect("end").1.contains(r#""state":"done""#));
            end_lag_ms(&lines, opened)
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        lag < PROMPT_MS,
        "a finished session's stream took {lag:.1} ms"
    );

    // --- DELETE of a queued session ends its open stream as `deleted`.
    let lag = (0..3)
        .map(|_| {
            // The blocker holds the only slot, so the target stays queued.
            let blocker = post_session(&addr, paced);
            let target = post_session(&addr, paced);
            assert_eq!(manager.state(target), Some(SessionState::Queued));
            let stream = open_events(&addr, &format!("/sessions/{target}/events"));
            let deleted = Instant::now();
            let (code, _) = http_delete(&addr, &format!("/sessions/{target}")).expect("DELETE");
            assert_eq!(code, 200);
            let lines = read_to_end(stream);
            assert!(
                lines
                    .last()
                    .expect("end")
                    .1
                    .contains(r#""state":"deleted""#),
                "{lines:?}"
            );
            wait_for_state(&manager, blocker, SessionState::Done);
            end_lag_ms(&lines, deleted)
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        lag < PROMPT_MS,
        "a deleted session's stream took {lag:.1} ms"
    );
    assert!(manager.wait_idle(Duration::from_secs(60)));

    // --- `/quitz` wakes a parked `wait_quit`.
    assert!(!server.wait_quit(Duration::from_millis(10)));
    std::thread::scope(|scope| {
        let waiter = scope.spawn(|| {
            let started = Instant::now();
            (server.wait_quit(Duration::from_secs(30)), started.elapsed())
        });
        assert_eq!(http_get(&addr, "/quitz").expect("GET /quitz").0, 200);
        let (quit, waited) = waiter.join().expect("waiter thread");
        assert!(quit && waited < Duration::from_secs(5), "{quit} {waited:?}");
    });
    assert!(server.quit_requested());
    server.join();

    // --- `join()` returns promptly from a blocking accept: idle listener,
    // then with an idle `/events` subscriber attached; loopback and
    // wildcard binds (the wake-up connects to loopback either way).
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        for with_subscriber in [false, true] {
            let server = start_server(bind, &manager);
            let subscriber = with_subscriber.then(|| {
                let loopback = format!("127.0.0.1:{}", server.addr().port());
                open_events(&loopback, "/events")
            });
            let started = Instant::now();
            server.join();
            let took = started.elapsed();
            assert!(
                took < Duration::from_secs(1),
                "join on {bind} (subscriber: {with_subscriber}) took {took:?}"
            );
            drop(subscriber);
        }
    }

    manager.shutdown();
}
