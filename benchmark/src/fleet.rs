//! The `serve_fleet` workload: a real `beamdyn-daemon` process driven over
//! HTTP by closed-loop clients, one per hardware thread, each with at most
//! one connection open.
//!
//! Sessions are small (16² grid, 4 000 particles, 6 steps — a few
//! milliseconds of arithmetic), so what is measured is the serving path:
//! accept loop, session scheduler, event streams, metrics registry.
//!
//! * Set-up — spawn, `/readyz`, eight warm-up sessions; done three times
//!   (the first two daemons are shut down again) and the median reported.
//! * Latency phase — each client runs sessions one at a time: `POST
//!   /sessions`, follow `/sessions/{id}/events` to its `end` event, `GET
//!   /sessions/{id}`, `DELETE`.
//! * Saturation phase — in rounds: the clients `POST` a round's sessions
//!   back to back (a 429 is obeyed — `Retry-After` — and counted, not
//!   failed); the round ends when a `GET /sessions` listing shows every
//!   session posted so far done.
//!
//! A request or session that fails is counted in `failed` and the run
//! carries on; only a daemon that cannot be set up or listed, or that has
//! died, ends it.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use beamdyn::core::{
    BackendKind, HealthConfig, ScenarioSpec, SessionManager, SessionManagerConfig, SimCore,
    Simulation,
};
use beamdyn::obs;
use beamdyn::par::ThreadPool;
use beamdyn::serve::parse_scenario;
use beamdyn::simt::DeviceConfig;

use crate::http;
use crate::inproc::{resolve_lane, Lane, KERNELS, SESSION_STEPS};
use crate::json::{self, Value};
use crate::probes::{fork_join_us, median_ns};
use crate::procfs;
use crate::report::{nproc, Outcome};
use crate::spans::{SpanId, Trace};
use crate::stats::{median, ms, percentile};

/// One warm-up session per workspace slot of the daemon.
const WARMUP_SESSIONS: usize = 8;
/// Long enough that the first warm-up session is still running when the
/// last is submitted (a POST takes 25 ms today).
const WARMUP_STEP_DELAY_MS: u64 = 20;
const SETUP_REPEATS: usize = 3;
/// The fleet is sized from `--seconds`, not timed against it: finished
/// sessions stay in the daemon until deleted, so its memory depends on
/// how many there were. Per second of `--seconds` each client runs this
/// many latency-phase sessions (about 250 ms each today) …
const LATENCY_SESSIONS_PER_CLIENT_SECOND: f64 = 1.5;
/// … and the saturation phase this many rounds of `ROUND_SESSIONS`
/// sessions (about 0.7 s each today).
const SATURATION_ROUNDS_PER_SECOND: f64 = 0.7;
const ROUND_SESSIONS: usize = 60;
/// One session in this many is re-run in-process and its totals compared.
const CROSS_CHECK_EVERY: usize = 50;
/// One `/metrics` scrape per this many latency-phase sessions: reads
/// beside writes.
const SCRAPE_EVERY: usize = 8;
const MAX_REFUSALS: u32 = 100;
/// Admission bound of the daemon (and of the in-process fleet): wide
/// enough that the saturation phase is queued, not refused.
const MAX_PENDING: usize = 4096;
/// Sessions of the in-process fleet (no HTTP) of the traced pass.
const INPROC_SESSIONS: usize = 300;
const DEADLINE: Duration = Duration::from_secs(60);

/// A spawned daemon; dropping it stops the process and waits for it.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns the daemon and waits until `/readyz` answers 200.
    fn spawn(bin: &Path, lane: &str, out_dir: &Path) -> Result<Self, String> {
        let addr_file = out_dir.join(format!("daemon-{}.addr", std::process::id()));
        let _ = std::fs::remove_file(&addr_file);
        let width = nproc().to_string();
        let child = Command::new(bin)
            .args(["--port", "0", "--no-scenario", "--slots", "8"])
            .args(["--max-pending", &MAX_PENDING.to_string()])
            .args([
                "--step-workers",
                &width,
                "--threads",
                &width,
                "--backend",
                lane,
            ])
            .arg("--addr-file")
            .arg(&addr_file)
            // Post-mortem dumps, should the watchdog write any, stay inside
            // the checkout; the daemon writes nothing else.
            .env("BEAMDYN_BENCH_DIR", out_dir)
            .env("BEAMDYN_TRACE", "0")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut daemon = Self {
            child,
            addr: String::new(),
        };
        let started = Instant::now();
        while daemon.addr.is_empty() {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("the daemon exited at start-up: {status}"));
            }
            if started.elapsed() > DEADLINE {
                return Err("the daemon never wrote its address file".to_string());
            }
            match std::fs::read_to_string(&addr_file) {
                Ok(text) if !text.trim().is_empty() => daemon.addr = text.trim().to_string(),
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        let _ = std::fs::remove_file(&addr_file);
        while !http::get(&daemon.addr, "/readyz").is_ok_and(|r| r.status == 200) {
            if started.elapsed() > DEADLINE {
                return Err("the daemon never became ready".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to quit and waits for it to exit cleanly.
    fn quit(mut self) -> Result<(), String> {
        http::get(&self.addr, "/quitz").map_err(|e| format!("GET /quitz: {e}"))?;
        let started = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("the daemon exited with {status}")),
                Ok(None) if started.elapsed() > DEADLINE => {
                    return Err("the daemon ignored /quitz".to_string())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // After a clean `quit` the process is gone and both calls are
        // no-ops; on an error path they make sure nothing is left behind.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The body of the `index`-th session: kernels round-robin, the bunch seed
/// derived from the run's seed.
fn session_body(lane: &str, seed: u64, index: usize) -> String {
    paced_session_body(lane, seed, index, 0)
}

/// [`session_body`] with a pause after each step.
fn paced_session_body(lane: &str, seed: u64, index: usize, step_delay_ms: u64) -> String {
    let kernel = KERNELS[index % KERNELS.len()].1;
    // JSON numbers are doubles: keep the seed below 2^53.
    let bunch_seed = seed.wrapping_mul(1_000_003).wrapping_add(index as u64) & ((1 << 53) - 1);
    format!(
        "{{\"name\":\"fleet-{index}\",\"kernel\":\"{kernel}\",\"backend\":\"{lane}\",\
         \"resolution\":16,\"particles\":4000,\"steps\":{SESSION_STEPS},\"seed\":{bunch_seed},\
         \"step_delay_ms\":{step_delay_ms}}}"
    )
}

/// The totals the daemon reports for a session, as the listing shows them.
#[derive(Debug, Clone, PartialEq)]
struct Totals {
    gpu_time_s: f64,
    fallback_cells: f64,
    launches: f64,
}

/// One session as `GET /sessions/{id}` or the listing describes it.
#[derive(Debug, Clone)]
struct Summary {
    id: u64,
    kernel: String,
    done: bool,
    wait_ms: f64,
    active_ms: f64,
    totals: Totals,
}

fn read_summary(doc: &Value) -> Option<Summary> {
    let totals = doc.get("totals")?;
    Some(Summary {
        id: doc.num("id")? as u64,
        kernel: doc.str("kernel")?.to_string(),
        done: doc.str("state")? == "done"
            && doc.num("steps_completed")? == doc.num("steps_total")?
            && doc.num("steps_total")? == SESSION_STEPS as f64,
        wait_ms: doc.num("wait_ms")?,
        active_ms: doc.num("active_ms")?,
        totals: Totals {
            gpu_time_s: totals.num("gpu_time_s")?,
            fallback_cells: totals.num("fallback_cells")?,
            launches: totals.num("launches")?,
        },
    })
}

/// What `GET /sessions` shows.
#[derive(Default)]
struct Listing {
    summaries: Vec<Summary>,
    pool_bytes: f64,
}

impl Listing {
    fn is_done(&self, id: u64) -> bool {
        self.summaries.iter().any(|s| s.id == id && s.done)
    }
}

fn parse_listing(body: &str) -> Result<Listing, String> {
    let doc = json::parse(body)?;
    let sessions = doc
        .get("sessions")
        .and_then(Value::as_array)
        .ok_or("no 'sessions' list")?;
    Ok(Listing {
        summaries: sessions.iter().filter_map(read_summary).collect(),
        pool_bytes: doc
            .get("pool")
            .and_then(|p| p.num("bytes_resident"))
            .unwrap_or(0.0),
    })
}

fn read_listing(addr: &str) -> Result<Listing, String> {
    let reply = http::get(addr, "/sessions").map_err(|e| format!("GET /sessions: {e}"))?;
    parse_listing(&reply.body).map_err(|e| format!("GET /sessions: {e}"))
}

/// An accepted submission.
struct Posted {
    id: u64,
    /// Which session of the run it was (see [`session_body`]).
    index: usize,
    /// How long the accepted POST took.
    post_ms: f64,
    /// How often the submission was refused with 429 first.
    refusals: u32,
}

/// Submits session `index`.
fn submit(addr: &str, lane: &str, seed: u64, index: usize) -> Result<Posted, String> {
    submit_body(addr, &session_body(lane, seed, index), index)
}

fn submit_body(addr: &str, body: &str, index: usize) -> Result<Posted, String> {
    let submitted = http::post_obeying_retry_after(addr, "/sessions", body, MAX_REFUSALS)
        .map_err(|e| format!("POST /sessions: {e}"))?;
    let response = submitted.response;
    if response.status != 201 {
        return Err(format!(
            "POST /sessions answered {}: {}",
            response.status, response.body
        ));
    }
    let id = json::parse(&response.body)
        .ok()
        .and_then(|doc| doc.num("id"))
        .ok_or_else(|| format!("201 without an id: {}", response.body))?;
    Ok(Posted {
        id: id as u64,
        index,
        post_ms: ms(submitted.final_request),
        refusals: submitted.refusals,
    })
}

/// Whether an `end` event's data names the state `done`.
fn ended_done(end_data: &str) -> bool {
    json::parse(end_data).is_ok_and(|end| end.str("state") == Some("done"))
}

/// What one latency-phase session cost its client.
struct Served {
    index: usize,
    submit_ms: f64,
    turnaround_ms: f64,
    sse_connect_ms: f64,
    get_ms: f64,
    delete_ms: f64,
    refusals: u32,
    /// `step` events the stream delivered before its `end` event.
    step_events: usize,
    /// Whether the `end` event named the state `done`.
    ended_done: bool,
    summary: Summary,
}

/// Runs one session the way a client would: submit, follow its events to
/// the end, read the result, delete it.
fn serve_one(
    addr: &str,
    lane: &str,
    seed: u64,
    index: usize,
    trace: &Trace,
    parent: SpanId,
) -> Result<Served, String> {
    let span = trace.open("session", parent);
    let started = Instant::now();
    let post = trace.open("serve.post", span);
    let Posted {
        id,
        post_ms,
        refusals,
        ..
    } = submit(addr, lane, seed, index)?;
    trace.close(post);
    let events = trace.open("serve.events", span);
    let followed = http::follow_to_end(addr, &format!("/sessions/{id}/events"))
        .map_err(|e| format!("session {id} events: {e}"))?;
    trace.close(events);
    let turnaround = started.elapsed();

    let get = trace.open("serve.get_session", span);
    let get_started = Instant::now();
    let reply = http::get(addr, &format!("/sessions/{id}"))
        .map_err(|e| format!("GET /sessions/{id}: {e}"))?;
    let get_time = get_started.elapsed();
    trace.close(get);
    let summary = json::parse(&reply.body)
        .ok()
        .as_ref()
        .and_then(read_summary)
        .ok_or_else(|| {
            format!(
                "GET /sessions/{id} answered {}: {}",
                reply.status, reply.body
            )
        })?;

    let delete = trace.open("serve.delete", span);
    let delete_started = Instant::now();
    let reply = http::request(addr, "DELETE", &format!("/sessions/{id}"), "")
        .map_err(|e| format!("DELETE /sessions/{id}: {e}"))?;
    let delete_time = delete_started.elapsed();
    trace.close(delete);
    if reply.status != 200 {
        return Err(format!("DELETE /sessions/{id} answered {}", reply.status));
    }
    trace.close(span);
    Ok(Served {
        index,
        submit_ms: post_ms,
        turnaround_ms: ms(turnaround),
        sse_connect_ms: ms(followed.connect),
        get_ms: ms(get_time),
        delete_ms: ms(delete_time),
        refusals,
        step_events: followed.steps,
        ended_done: ended_done(&followed.end_data),
        summary,
    })
}

/// Runs `work` on one thread per client and gathers what they return.
fn on_each_client<T: Send>(clients: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let work = &work;
                scope.spawn(move || work(client))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    })
}

/// One set-up: a fresh daemon brought to the state the phases start from.
///
/// The warm-up sessions pause after each step so that all of them are
/// admitted at once, one per workspace slot: every slot is warm when the
/// phases start, whatever the timing, and the daemon's memory does not
/// depend on how many slots the phases happen to use side by side.
fn set_up(
    bin: &Path,
    lane: &str,
    out_dir: &Path,
    seed: u64,
    clients: usize,
    trace: &Trace,
    parent: SpanId,
) -> Result<(Daemon, Duration), String> {
    let span = trace.open("setup", parent);
    let started = Instant::now();
    let daemon = Daemon::spawn(bin, lane, out_dir)?;
    let addr = daemon.addr.as_str();
    let next = AtomicUsize::new(0);
    on_each_client(clients, |_| {
        let mut held = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= WARMUP_SESSIONS {
                break;
            }
            // Warm-up sessions take indices of their own, past any the
            // phases will use, so no two sessions of a run are alike.
            let index = usize::MAX / 2 + index;
            let body = paced_session_body(lane, seed, index, WARMUP_STEP_DELAY_MS);
            held.push(submit_body(addr, &body, index)?.id);
        }
        for id in held {
            let followed = http::follow_to_end(addr, &format!("/sessions/{id}/events"))
                .map_err(|e| format!("warm-up session {id} events: {e}"))?;
            if !ended_done(&followed.end_data) {
                return Err(format!(
                    "warm-up session {id} ended as {}",
                    followed.end_data
                ));
            }
            http::request(addr, "DELETE", &format!("/sessions/{id}"), "")
                .map_err(|e| format!("DELETE /sessions/{id}: {e}"))?;
        }
        Ok(())
    })
    .into_iter()
    .collect::<Result<(), String>>()?;
    let elapsed = started.elapsed();
    trace.close(span);
    Ok((daemon, elapsed))
}

/// Re-runs session `index` in a dedicated in-process simulation and
/// returns the totals the daemon should have reported for it.
fn dedicated_totals(
    lane: &str,
    seed: u64,
    index: usize,
    pool: &ThreadPool,
) -> Result<Totals, String> {
    let spec = parse_scenario(&session_body(lane, seed, index)).map_err(|e| e.to_string())?;
    let device = DeviceConfig::tesla_k40();
    // The body names its lane, so the default passed here is never used.
    let (config, beam) = spec.build(BackendKind::default());
    let mut sim = Simulation::new(pool, &device, config, beam);
    let mut totals = Totals {
        gpu_time_s: 0.0,
        fallback_cells: 0.0,
        launches: 0.0,
    };
    for telemetry in sim.run(spec.steps) {
        totals.gpu_time_s += telemetry.potentials.gpu_time.seconds();
        totals.fallback_cells += telemetry.potentials.fallback_cells as f64;
        totals.launches += telemetry.potentials.launches as f64;
    }
    Ok(totals)
}

/// The same fleet through `SessionManager::submit`, with no HTTP: if it
/// runs far faster than the daemon serves, the serving layer is the limit.
fn inproc_sessions_per_s(lane: &str, seed: u64) -> Result<f64, String> {
    let width = nproc();
    let manager = SessionManager::start(SessionManagerConfig {
        threads: width,
        step_workers: width,
        slots: 8,
        health: HealthConfig {
            max_pending: MAX_PENDING,
            ..HealthConfig::default()
        },
        ..SessionManagerConfig::default()
    });
    let specs: Vec<ScenarioSpec> = (0..INPROC_SESSIONS)
        .map(|index| parse_scenario(&session_body(lane, seed, index)).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let started = Instant::now();
    for spec in specs {
        manager
            .submit(spec)
            .map_err(|e| format!("in-process submit: {e}"))?;
    }
    let idle = manager.wait_idle(DEADLINE);
    let elapsed = started.elapsed();
    manager.shutdown();
    if !idle {
        return Err("the in-process fleet never went idle".to_string());
    }
    Ok(INPROC_SESSIONS as f64 / elapsed.as_secs_f64())
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: &Trace,
    daemon_bin: &Path,
    out_dir: &Path,
    process_start: Instant,
) -> Result<Outcome, String> {
    let (lane, backend) = resolve_lane(Lane::FastestHost);
    let mut outcome = Outcome {
        lane: backend.name().to_string(),
        ..Outcome::default()
    };
    let clients = nproc();
    let root = trace.open("serve_fleet", None);
    let common_setup = process_start.elapsed();

    // --- set-up, several times over ---
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut daemon = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = daemon.take() {
            Daemon::quit(previous)?;
        }
        let (fresh, elapsed) = set_up(daemon_bin, lane, out_dir, seed, clients, trace, root)?;
        setups.push(elapsed.as_secs_f64());
        daemon = Some(fresh);
    }
    let daemon = daemon.expect("set-up ran at least once");
    let addr = daemon.addr.as_str();
    outcome.set(
        "setup_s",
        median(&setups) + common_setup.as_secs_f64(),
        setups.len(),
    );

    // --- latency phase ---
    let phase = trace.open("latency_phase", root);
    let latency_sessions = clients * (seconds * LATENCY_SESSIONS_PER_CLIENT_SECOND).ceil() as usize;
    let next = AtomicUsize::new(0);
    let per_client = on_each_client(clients, |_| {
        let mut served = Vec::new();
        let mut scrapes = Vec::new();
        let mut errors = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= latency_sessions {
                return (served, scrapes, errors);
            }
            match serve_one(addr, lane, seed, index, trace, phase) {
                Ok(session) => served.push(session),
                Err(e) => errors.push(format!("latency-phase session {index}: {e}")),
            }
            if index.is_multiple_of(SCRAPE_EVERY) {
                let span = trace.open("serve.metrics_scrape", phase);
                let started = Instant::now();
                match http::get(addr, "/metrics") {
                    Ok(reply) if reply.status == 200 => {
                        scrapes.push((ms(started.elapsed()), reply.body.len()));
                    }
                    Ok(reply) => errors.push(format!("GET /metrics answered {}", reply.status)),
                    Err(e) => errors.push(format!("GET /metrics: {e}")),
                }
                trace.close(span);
            }
        }
    });
    trace.close(phase);
    let mut served = Vec::new();
    let mut scrapes = Vec::new();
    let mut errors = Vec::new();
    for (s, m, e) in per_client {
        served.extend(s);
        scrapes.extend(m);
        errors.extend(e);
    }

    // --- saturation phase, in rounds ---
    let phase = trace.open("saturation_phase", root);
    let rounds = ((seconds * SATURATION_ROUNDS_PER_SECOND).round() as usize).max(3);
    let (cpu_before, _) = procfs::cpu_ms_and_thread_count(&daemon.pid());
    let mut posts: Vec<Posted> = Vec::new();
    let mut round_sessions_per_s = Vec::with_capacity(rounds);
    let mut listing = Listing::default();
    for round in 0..rounds {
        let span = trace.open("round", phase);
        let round_start = Instant::now();
        let first = latency_sessions + round * ROUND_SESSIONS;
        let taken = AtomicUsize::new(0);
        let per_client = on_each_client(clients, |_| {
            let mut posts = Vec::new();
            let mut errors = Vec::new();
            loop {
                let offset = taken.fetch_add(1, Ordering::Relaxed);
                if offset >= ROUND_SESSIONS {
                    return (posts, errors);
                }
                let post = trace.open("serve.post", span);
                match submit(addr, lane, seed, first + offset) {
                    Ok(posted) => posts.push(posted),
                    Err(e) => errors.push(format!("saturation-phase session: {e}")),
                }
                trace.close(post);
            }
        });
        for (p, e) in per_client {
            posts.extend(p);
            errors.extend(e);
        }
        // The newest session is about the last to finish (admission is in
        // order, stepping round-robin): poll it alone, so that the daemon
        // is not kept busy listing. An older session can still be in its
        // last step on the other worker, so the round ends when a listing
        // shows every session posted so far done.
        let newest = posts.iter().map(|p| p.id).max();
        let drain = trace.open("drain", span);
        let mut drained = false;
        while let (Some(newest), false) = (newest, drained) {
            if round_start.elapsed() > DEADLINE {
                break;
            }
            let newest_done = http::get(addr, &format!("/sessions/{newest}"))
                .ok()
                .and_then(|reply| json::parse(&reply.body).ok())
                .as_ref()
                .and_then(read_summary)
                .is_some_and(|s| s.done);
            if newest_done {
                listing = read_listing(addr)?;
                drained = posts.iter().all(|p| listing.is_done(p.id));
            }
            if !drained {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        trace.close(drain);
        trace.close(span);
        if !drained {
            // What did not finish is counted below, session by session.
            errors.push(format!("round {round} did not drain"));
            break;
        }
        round_sessions_per_s.push(ROUND_SESSIONS as f64 / round_start.elapsed().as_secs_f64());
    }
    trace.close(phase);
    let (cpu_after, threads) = procfs::cpu_ms_and_thread_count(&daemon.pid());
    let peak_rss_mb = procfs::peak_rss_mb(&daemon.pid());
    let Listing {
        summaries,
        pool_bytes,
    } = listing;
    Daemon::quit(daemon)?;

    // --- correctness, outside the timed region ---
    for error in errors {
        outcome.check(false, || error);
    }
    for s in &served {
        outcome.check(s.summary.done && s.ended_done, || {
            format!(
                "latency-phase session {} did not run all its steps",
                s.summary.id
            )
        });
    }
    let listed: BTreeMap<u64, &Summary> = summaries.iter().map(|s| (s.id, s)).collect();
    for Posted { id, .. } in &posts {
        outcome.check(listed.get(id).is_some_and(|s| s.done), || {
            format!("saturation-phase session {id} did not run all its steps")
        });
    }
    let check_pool = ThreadPool::new(clients.saturating_sub(1));
    let reported = served
        .iter()
        .map(|s| (s.index, &s.summary))
        .chain(
            posts
                .iter()
                .filter_map(|p| listed.get(&p.id).map(|s| (p.index, *s))),
        )
        .filter(|(index, _)| index % CROSS_CHECK_EVERY == 0);
    for (index, summary) in reported {
        let dedicated = dedicated_totals(lane, seed, index, &check_pool)?;
        outcome.check(dedicated == summary.totals, || {
            format!(
                "session {} (index {index}) reported {:?}, a dedicated run gives {dedicated:?}",
                summary.id, summary.totals
            )
        });
    }

    // --- end-to-end metrics ---
    // The daemon's latencies and round rates are set by its timers (25 ms
    // accept poll, 200 ms idle tick), which quantise them: their medians
    // are steady and their tails are not.
    let column = |f: fn(&Served) -> f64| -> Vec<f64> { served.iter().map(f).collect() };
    let turnarounds = column(|s| s.turnaround_ms);
    outcome.set("turnaround_ms", median(&turnarounds), turnarounds.len());
    let post_ms: Vec<f64> = posts.iter().map(|p| p.post_ms).collect();
    outcome.set("submit_ms", median(&post_ms), post_ms.len());
    let sessions_per_s = median(&round_sessions_per_s);
    outcome.set("steps_per_s", sessions_per_s * SESSION_STEPS as f64, rounds);
    outcome.set("peak_rss_mb", peak_rss_mb, 1);
    for (_, kernel) in KERNELS {
        // End to end a step costs a client its share of a session's
        // turnaround, whatever the daemon spent computing it …
        let per_step: Vec<f64> = served
            .iter()
            .filter(|s| s.summary.kernel == kernel)
            .map(|s| s.turnaround_ms / SESSION_STEPS as f64)
            .collect();
        outcome.set(
            format!("step_ms.{kernel}"),
            median(&per_step),
            per_step.len(),
        );
        // … which is a per-layer matter: `active_ms ÷ steps` as the daemon
        // reports it, over all sessions of the kernel.
        let computed: Vec<f64> = served
            .iter()
            .map(|s| &s.summary)
            .chain(&summaries)
            .filter(|s| s.kernel == kernel)
            .map(|s| s.active_ms / SESSION_STEPS as f64)
            .collect();
        outcome.set(
            format!("core.step_ms_p50.{kernel}"),
            median(&computed),
            computed.len(),
        );
        outcome.set(
            format!("core.step_ms_p90.{kernel}"),
            percentile(&computed, 0.9),
            computed.len(),
        );
    }

    // --- per-layer metrics ---
    outcome.set("serve.sessions_per_s", sessions_per_s, rounds);
    let end_lags: Vec<f64> = served
        .iter()
        .map(|s| s.turnaround_ms - s.submit_ms - s.summary.wait_ms - s.summary.active_ms)
        .collect();
    outcome.set("serve.end_lag_ms_p50", median(&end_lags), end_lags.len());
    outcome.set(
        "serve.sse_connect_ms_p50",
        median(&column(|s| s.sse_connect_ms)),
        served.len(),
    );
    let step_events: usize = served.iter().map(|s| s.step_events).sum();
    outcome.set(
        "serve.sse_steps_seen_frac",
        step_events as f64 / (served.len() * SESSION_STEPS) as f64,
        served.len() * SESSION_STEPS,
    );
    outcome.set(
        "serve.get_session_ms_p50",
        median(&column(|s| s.get_ms)),
        served.len(),
    );
    outcome.set(
        "serve.delete_ms_p50",
        median(&column(|s| s.delete_ms)),
        served.len(),
    );
    outcome.set(
        "serve.turnaround_ms_p95",
        percentile(&turnarounds, 0.95),
        turnarounds.len(),
    );
    let scrape_ms: Vec<f64> = scrapes.iter().map(|s| s.0).collect();
    outcome.set(
        "serve.metrics_scrape_ms_p50",
        median(&scrape_ms),
        scrapes.len(),
    );
    let scrape_bytes: Vec<f64> = scrapes.iter().map(|s| s.1 as f64).collect();
    outcome.set("serve.metrics_bytes", median(&scrape_bytes), scrapes.len());
    outcome.set(
        "serve.cpu_ms_per_session",
        (cpu_after - cpu_before) / posts.len() as f64,
        posts.len(),
    );
    outcome.set("serve.daemon_threads", threads, 1);
    let waits: Vec<f64> = summaries.iter().map(|s| s.wait_ms).collect();
    outcome.set("session.wait_ms_p50", median(&waits), waits.len());
    outcome.set("session.wait_ms_p90", percentile(&waits, 0.9), waits.len());
    let actives: Vec<f64> = summaries.iter().map(|s| s.active_ms).collect();
    outcome.set("session.active_ms_p50", median(&actives), actives.len());
    let refusals: u32 = served
        .iter()
        .map(|s| s.refusals)
        .chain(posts.iter().map(|p| p.refusals))
        .sum();
    let accepted = latency_sessions + posts.len();
    outcome.set(
        "session.rejected_frac",
        refusals as f64 / (accepted as f64 + refusals as f64),
        accepted,
    );
    outcome.set("session.pool_mb", pool_bytes / (1024.0 * 1024.0), 1);

    if trace.enabled() {
        let probes = trace.open("probes", root);
        let span = trace.open("probe.session.inproc_sessions_per_s", probes);
        outcome.set(
            "session.inproc_sessions_per_s",
            inproc_sessions_per_s(lane, seed)?,
            INPROC_SESSIONS,
        );
        trace.close(span);
        // The registry now holds what a fleet leaves in it: what a scrape
        // costs the daemon shows here without the socket.
        let span = trace.open("probe.obs", probes);
        outcome.set(
            "obs.snapshot_us",
            median_ns(51, || drop(obs::snapshot())) / 1e3,
            51,
        );
        outcome.set(
            "obs.prometheus_render_ms",
            median_ns(21, || drop(obs::prometheus::render_current())) / 1e6,
            21,
        );
        trace.close(span);
        let span = trace.open("probe.core.scenario_build_ms", probes);
        let spec = parse_scenario(&session_body(lane, seed, 0)).map_err(|e| e.to_string())?;
        let build_ns = median_ns(21, || {
            let (config, beam) = spec.build(backend);
            drop(SimCore::new(config, beam));
        });
        outcome.set("core.scenario_build_ms", build_ns / 1e6, 21);
        trace.close(span);
        let span = trace.open("probe.par.fork_join_us", probes);
        let (value, samples) = fork_join_us(&check_pool);
        outcome.set("par.fork_join_us", value, samples);
        trace.close(span);
        trace.close(probes);
    }
    trace.close(root);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_bodies_parse_as_scenarios_and_rotate_kernels() {
        let (lane, backend) = resolve_lane(Lane::FastestHost);
        for index in 0..6 {
            let spec = parse_scenario(&session_body(lane, u64::MAX, index)).unwrap();
            assert_eq!(spec.kernel_request_name(), KERNELS[index % 3].1);
            assert_eq!(spec.backend, Some(backend));
            assert_eq!(
                (spec.nx, spec.particles, spec.steps),
                (16, 4000, SESSION_STEPS)
            );
            assert!(spec.seed < 1 << 53);
        }
        let a = parse_scenario(&session_body(lane, 42, 0)).unwrap();
        let b = parse_scenario(&session_body(lane, 43, 0)).unwrap();
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn summaries_are_done_only_with_every_step_completed() {
        let text = r#"{"id":9,"name":"fleet-0","kernel":"heuristic","backend":"native-simd","state":"done","steps_completed":6,"steps_total":6,"wait_ms":0.500,"active_ms":21.000,"totals":{"gpu_time_s":0,"fallback_cells":1508,"launches":18}}"#;
        let summary = read_summary(&json::parse(text).unwrap()).unwrap();
        assert!(summary.done);
        assert_eq!((summary.id, summary.kernel.as_str()), (9, "heuristic"));
        assert_eq!(summary.totals.fallback_cells, 1508.0);
        let running = text.replace("\"steps_completed\":6", "\"steps_completed\":5");
        assert!(!read_summary(&json::parse(&running).unwrap()).unwrap().done);
        assert!(read_summary(&json::parse("{\"id\":1}").unwrap()).is_none());
    }

    #[test]
    fn a_listing_tells_which_sessions_are_done() {
        let session = |id: u64, completed: u64| {
            format!(
                r#"{{"id":{id},"name":"fleet-{id}","kernel":"two-phase","backend":"native","state":"{}","steps_completed":{completed},"steps_total":6,"wait_ms":0.5,"active_ms":9.0,"totals":{{"gpu_time_s":0,"fallback_cells":7,"launches":12}}}}"#,
                if completed == 6 { "done" } else { "running" }
            )
        };
        let body = format!(
            r#"{{"sessions":[{},{}],"counts":{{"done":1,"running":1}},"pool":{{"slots":8,"in_use":1,"bytes_resident":2097152}}}}"#,
            session(4, 6),
            session(5, 5)
        );
        let listing = parse_listing(&body).unwrap();
        assert!(listing.is_done(4));
        assert!(!listing.is_done(5), "listed, but still running");
        assert!(!listing.is_done(6), "not listed");
        assert_eq!(listing.pool_bytes, 2097152.0);
        assert!(parse_listing("{}").is_err());
    }
}
