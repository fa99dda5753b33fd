//! Live telemetry serving, end to end in one process: a real simulation
//! runs while the monitor server answers `/metrics`, `/status`, `/events`,
//! `/healthz`, and `/readyz` over real TCP sockets.
//!
//! This pins the serving acceptance contract (DESIGN.md §11):
//!
//! * `/metrics` is valid Prometheus 0.0.4 text — it round-trips through the
//!   in-repo `bench::scrape` parser — and the scraped
//!   `beamdyn_kernels_fallback_cells_total` equals the registry counter and
//!   the [`Recorder`]'s final step flush **exactly**;
//! * `/events` delivers exactly one SSE `step` event per completed step,
//!   ids in step order, each `data:` payload a valid JSON object;
//! * `/status` reflects the run (steps completed, totals), and the health
//!   endpoints answer while the server is up;
//! * the HTTP layer counts itself: `http.requests` and `http.request_ns`
//!   show every request made here, the SSE stream as one.
//!
//! Kept to a single `#[test]` because the obs registry is process-global.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use beamdyn::beam::{GaussianBunch, RpConfig};
use beamdyn::core::{KernelKind, Simulation, SimulationConfig, StatusBoard};
use beamdyn::obs;
use beamdyn::par::ThreadPool;
use beamdyn::pic::GridGeometry;
use beamdyn::serve::{MonitorServer, ServeConfig, ServeContext};
use beamdyn::simt::DeviceConfig;
use beamdyn_bench::json;
use beamdyn_bench::scrape::{collect_sse, http_get, parse_exposition};

const STEPS: usize = 6;

#[test]
fn live_run_serves_metrics_status_and_one_sse_event_per_step() {
    obs::uninstall_all();
    obs::reset();

    // The two telemetry consumers next to the simulation: an in-process
    // recorder (ground truth) and the broadcast fan-out backing /events.
    let recorder = obs::Recorder::new();
    obs::install(recorder.clone());
    let events = obs::BroadcastSink::new();
    obs::install(events.clone());

    let pool = ThreadPool::new(2);
    let device = DeviceConfig::tesla_k40();
    let kappa = 2;
    let mut config = SimulationConfig::standard(GridGeometry::unit(16, 16), KernelKind::Predictive);
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
    let mut sim = Simulation::new(&pool, &device, config, bunch.sample(3_000, 42));

    let status = StatusBoard::new(sim.kernel_name(), sim.backend_name());
    let ready = Arc::new(AtomicBool::new(false));
    let server = MonitorServer::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
        ServeContext {
            status: Arc::clone(&status),
            events: events.clone(),
            ready: Arc::clone(&ready),
            sessions: None,
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();

    // Health endpoints before readiness is declared.
    assert_eq!(http_get(&addr, "/healthz").unwrap().0, 200);
    assert_eq!(
        http_get(&addr, "/readyz").unwrap().0,
        503,
        "/readyz must gate on the readiness flag"
    );
    ready.store(true, Ordering::Release);
    assert_eq!(http_get(&addr, "/readyz").unwrap().0, 200);
    assert_eq!(http_get(&addr, "/nope").unwrap().0, 404);

    // Attach the SSE consumer *before* stepping so it sees every event.
    let sse = {
        let addr = addr.clone();
        std::thread::spawn(move || collect_sse(&addr, "/events", STEPS, Duration::from_secs(30)))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while events.subscriber_count() == 0 {
        assert!(
            Instant::now() < deadline,
            "SSE handler never subscribed to the broadcast"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    for _ in 0..STEPS {
        let telemetry = sim.run_step();
        status.record(&telemetry);
    }
    status.set_state("done");

    // Exactly one SSE event per step, in step order, each payload JSON.
    let sse_events = sse.join().expect("collector thread").expect("collect SSE");
    assert_eq!(
        sse_events.len(),
        STEPS,
        "exactly one SSE event per completed step"
    );
    for (i, event) in sse_events.iter().enumerate() {
        assert_eq!(event.event, "step");
        assert_eq!(event.id.as_deref(), Some(i.to_string().as_str()));
        let payload = json::parse(&event.data)
            .unwrap_or_else(|e| panic!("SSE data for step {i} is not JSON: {e}\n{}", event.data));
        assert_eq!(
            payload.get("step").and_then(|v| v.as_f64()),
            Some(i as f64),
            "SSE payload carries its step index"
        );
    }

    // /metrics round-trips through the in-repo Prometheus parser, and the
    // fallback counter agrees with the registry and the Recorder exactly.
    let (code, text) = http_get(&addr, "/metrics").expect("GET /metrics");
    assert_eq!(code, 200);
    let exposition = parse_exposition(&text).expect("valid Prometheus 0.0.4 text");
    let scraped = exposition
        .value("beamdyn_kernels_fallback_cells_total")
        .expect("fallback counter exposed");
    let registry = obs::counter_value("kernels.fallback_cells").expect("registry counter");
    assert_eq!(
        scraped, registry as f64,
        "/metrics must mirror the registry"
    );
    let flushes = recorder.step_flushes();
    assert_eq!(flushes.len(), STEPS, "one flush per step");
    let recorded = flushes
        .last()
        .unwrap()
        .counters
        .iter()
        .find(|(name, _)| *name == "kernels.fallback_cells")
        .map(|&(_, v)| v)
        .expect("recorder saw the fallback counter");
    assert_eq!(
        scraped, recorded as f64,
        "scraped fallback_cells must equal the Recorder's counter exactly"
    );
    assert_eq!(
        exposition.types.get("beamdyn_kernels_fallback_cells_total"),
        Some(&"counter".to_string())
    );
    assert_eq!(
        exposition.types.get("beamdyn_stage_step_ns"),
        Some(&"histogram".to_string()),
        "stage latency histograms are exposed"
    );
    // Histogram sanity: the step-stage histogram counted every step.
    assert_eq!(
        exposition.value("beamdyn_stage_step_ns_count"),
        Some(STEPS as f64)
    );

    // /status reflects the finished run.
    let (code, body) = http_get(&addr, "/status").expect("GET /status");
    assert_eq!(code, 200);
    let parsed = json::parse(&body).expect("/status is JSON");
    assert_eq!(parsed.get("state").and_then(|v| v.as_str()), Some("done"));
    assert_eq!(
        parsed.get("backend").and_then(|v| v.as_str()),
        Some(sim.backend_name()),
        "/status names the active compute backend"
    );
    assert_eq!(
        parsed.get("steps_completed").and_then(|v| v.as_f64()),
        Some(STEPS as f64)
    );
    assert_eq!(
        parsed
            .get("totals")
            .and_then(|t| t.get("fallback_cells"))
            .and_then(|v| v.as_f64()),
        Some(registry as f64),
        "/status totals agree with the registry counter"
    );

    // A request is on `/metrics` as soon as its response was read to the
    // end: the four health probes precede this scrape (the SSE stream is
    // recorded when it ends, which the server may not have noticed yet).
    assert!(
        exposition
            .value("beamdyn_http_requests_total")
            .is_some_and(|n| n >= 4.0),
        "/metrics counts the requests served before it"
    );
    assert_eq!(
        exposition.types.get("beamdyn_http_request_ns"),
        Some(&"histogram".to_string())
    );

    server.shutdown();
    server.join();
    // Every handler has returned: 4 health probes + 1 SSE stream +
    // /metrics + /status, each counted and timed exactly once.
    assert_eq!(obs::counter_value("http.requests"), Some(7));
    assert_eq!(
        obs::histogram_snapshot("http.request_ns").map(|h| h.count()),
        Some(7)
    );
    obs::uninstall_all();
}
