//! Multi-tenant load smoke (`make load-smoke`, CI `load-smoke` job):
//! drives a real `beamdyn-daemon` process with hundreds of concurrent
//! sessions over HTTP — mixed kernels and backends — while scraping
//! `/metrics` from a concurrent thread, and asserts the session-engine
//! acceptance contract:
//!
//! * every `POST /sessions` is accepted (201) — zero rejected submissions;
//! * every surviving session completes all of its steps (no starvation,
//!   no stuck queue); a handful of mid-run `DELETE`s interleave cleanly;
//! * scheduling is fair: across identical scenario specs, the slowest
//!   session's active wall-clock is within a bounded ratio of the fastest;
//! * the workspace pool amortises: `beamdyn_workspace_pool_bytes_resident`
//!   plateaus once every slot has been warmed — the second half of the
//!   fleet adds (almost) no new bytes;
//! * `/metrics` stays a valid exposition under continuous scraping.
//!
//! Prints session throughput and the p50/p99 step latency recovered from
//! the `beamdyn_session_step_ns` histogram buckets. Wall-clock numbers are
//! informational — the *assertions* are structural.
//!
//! The daemon binary path comes from `$BEAMDYN_DAEMON_BIN` (default
//! `target/release/beamdyn-daemon`); `$BEAMDYN_LOAD_SESSIONS` overrides
//! the fleet size (default 144, minimum 128 enforced here).

use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use beamdyn_bench::json;
use beamdyn_bench::scrape::{http_delete, http_get, http_post, parse_exposition, Exposition};

const SLOTS: usize = 48;
const STEPS: usize = 3;
const DELETES: usize = 8;
/// Open-loop arrival: one session every 25 ms (40/s). The fairness and
/// pool-plateau bounds below were calibrated at this rate — it is what the
/// daemon's accept poll used to impose on every client. The daemon now
/// answers a POST in a fraction of a millisecond, so the rate is stated
/// here instead of inherited. (A single 144-session burst admits 48
/// sessions at once: round-robin then spreads active times up to ~48×
/// within a group and slots keep meeting new tenant kinds past the warm
/// checkpoint — inherent to the schedule, and not what these bounds gate.
/// Bursts are exercised by the benchmark's `serve_fleet` workload.)
const ARRIVAL_INTERVAL: Duration = Duration::from_millis(25);
/// Fairness bound: within one spec group, slowest/fastest active time.
/// Generous (scheduler noise on shared CI boxes is real); true starvation
/// shows up as a ratio on the order of the fleet size.
const FAIRNESS_RATIO: f64 = 25.0;
/// Absolute floor for the fairness denominator: sessions finishing in a
/// couple of milliseconds are pure jitter territory, and a raw ratio on
/// them measures the OS scheduler, not ours.
const FAIRNESS_FLOOR_MS: f64 = 15.0;

const KERNELS: [&str; 3] = ["two-phase", "heuristic", "predictive"];
const BACKENDS: [&str; 2] = ["traced", "native-simd"];

fn fail(child: &mut Child, msg: &str) -> ! {
    let _ = child.kill();
    let _ = child.wait();
    eprintln!("load_smoke: FAILED: {msg}");
    std::process::exit(1);
}

/// Percentile from Prometheus histogram buckets (cumulative `le` counts):
/// the upper bound of the first bucket covering the target rank.
fn bucket_percentile(exposition: &Exposition, family: &str, q: f64) -> Option<f64> {
    let mut buckets: Vec<(f64, f64)> = exposition
        .family(&format!("{family}_bucket"))
        .iter()
        .filter_map(|s| {
            let le = s.label("le")?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((bound, s.value))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last()?.1;
    if total == 0.0 {
        return None;
    }
    let rank = q * total;
    buckets
        .iter()
        .find(|(_, cumulative)| *cumulative >= rank)
        .map(|(bound, _)| *bound)
}

fn main() {
    let sessions: usize = std::env::var("BEAMDYN_LOAD_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(144)
        .max(128);
    let daemon_bin = std::env::var("BEAMDYN_DAEMON_BIN")
        .unwrap_or_else(|_| "target/release/beamdyn-daemon".to_string());
    let addr_file = std::env::temp_dir().join(format!("beamdyn_load_smoke_{}", std::process::id()));
    let _ = std::fs::remove_file(&addr_file);

    let mut child = Command::new(&daemon_bin)
        .args([
            "--port",
            "0",
            "--no-scenario",
            "--slots",
            &SLOTS.to_string(),
            "--step-workers",
            "4",
            "--threads",
            "4",
            "--addr-file",
        ])
        .arg(&addr_file)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("load_smoke: cannot spawn {daemon_bin}: {e} (build it first)");
            std::process::exit(1);
        });

    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&addr_file) {
            if !addr.trim().is_empty() {
                break addr.trim().to_string();
            }
        }
        if Instant::now() > deadline {
            fail(&mut child, "daemon never wrote its address file");
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    let _ = std::fs::remove_file(&addr_file);
    println!("load_smoke: daemon at {addr}, {sessions} sessions over {SLOTS} slots");

    // Concurrent scraper: /metrics must parse on every read while the
    // fleet churns. A torn exposition fails the strict parser.
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || -> Result<usize, String> {
            let mut scrapes = 0usize;
            while !stop.load(Ordering::Acquire) {
                let (code, text) =
                    http_get(&addr, "/metrics").map_err(|e| format!("scrape: {e}"))?;
                if code != 200 {
                    return Err(format!("/metrics returned {code} mid-churn"));
                }
                parse_exposition(&text).map_err(|e| format!("torn exposition: {e}"))?;
                scrapes += 1;
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(scrapes)
        })
    };

    // Submit the whole fleet: identical tiny scenarios within each
    // kernel × backend group so fairness is comparable group-wise.
    let started = Instant::now();
    let mut ids: Vec<(u64, String)> = Vec::with_capacity(sessions);
    for i in 0..sessions {
        std::thread::sleep(ARRIVAL_INTERVAL);
        let kernel = KERNELS[i % KERNELS.len()];
        let backend = BACKENDS[(i / KERNELS.len()) % BACKENDS.len()];
        let body = format!(
            r#"{{"name":"load-{kernel}-{backend}","kernel":"{kernel}","backend":"{backend}","resolution":10,"particles":800,"steps":{STEPS}}}"#
        );
        let (code, response) = http_post(&addr, "/sessions", &body)
            .unwrap_or_else(|e| fail(&mut child, &format!("POST {i}: {e}")));
        if code != 201 {
            fail(
                &mut child,
                &format!("POST {i} rejected ({code}): {response} — zero rejects allowed"),
            );
        }
        let id = json::parse(&response)
            .ok()
            .and_then(|v| v.get("id").and_then(|v| v.as_f64()))
            .unwrap_or_else(|| fail(&mut child, &format!("201 body without id: {response}")))
            as u64;
        ids.push((id, format!("{kernel}/{backend}")));
    }
    println!(
        "load_smoke: {} sessions accepted in {:.2}s (zero rejected)",
        ids.len(),
        started.elapsed().as_secs_f64()
    );

    // Pool-warm checkpoint: once ≥ SLOTS sessions have finished, every
    // slot has hosted at least one tenant — bytes_resident is warm.
    let deadline = Instant::now() + Duration::from_secs(300);
    let warm_bytes = loop {
        let (code, listing) = http_get(&addr, "/sessions")
            .unwrap_or_else(|e| fail(&mut child, &format!("/sessions: {e}")));
        if code != 200 {
            fail(&mut child, &format!("/sessions returned {code}"));
        }
        let doc = json::parse(&listing)
            .unwrap_or_else(|e| fail(&mut child, &format!("listing not JSON: {e}")));
        let done = doc
            .get("counts")
            .and_then(|c| c.get("done"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0) as usize;
        if done >= SLOTS {
            let bytes = doc
                .get("pool")
                .and_then(|p| p.get("bytes_resident"))
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| fail(&mut child, "listing lacks pool.bytes_resident"));
            break bytes;
        }
        if Instant::now() > deadline {
            fail(&mut child, "fleet never warmed the pool");
        }
        std::thread::sleep(Duration::from_millis(25));
    };

    // Mid-run deletes: evict a few sessions from the middle of the fleet
    // while their cohort is still running/queued.
    let mut deleted = Vec::new();
    for (id, _) in ids.iter().skip(sessions / 2).take(DELETES) {
        let (code, body) = http_delete(&addr, &format!("/sessions/{id}"))
            .unwrap_or_else(|e| fail(&mut child, &format!("DELETE {id}: {e}")));
        if code != 200 {
            fail(&mut child, &format!("DELETE {id} returned {code}: {body}"));
        }
        deleted.push(*id);
    }

    // Wait for the whole fleet to settle: nothing queued, nothing running.
    let listing = loop {
        let (_, listing) = http_get(&addr, "/sessions")
            .unwrap_or_else(|e| fail(&mut child, &format!("/sessions: {e}")));
        let doc = json::parse(&listing)
            .unwrap_or_else(|e| fail(&mut child, &format!("listing not JSON: {e}")));
        let active = ["queued", "running"]
            .iter()
            .map(|s| {
                doc.get("counts")
                    .and_then(|c| c.get(s))
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0) as usize
            })
            .sum::<usize>();
        if active == 0 {
            break doc;
        }
        if Instant::now() > deadline {
            fail(&mut child, &format!("{active} sessions never settled"));
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    let elapsed = started.elapsed().as_secs_f64();

    // Every surviving session completed every step; deleted ones are gone.
    let survivors: Vec<&(u64, String)> =
        ids.iter().filter(|(id, _)| !deleted.contains(id)).collect();
    let sessions_json = listing
        .get("sessions")
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| fail(&mut child, "listing lacks sessions array"));
    let mut done = 0usize;
    let mut total_steps = 0usize;
    let mut group_active: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for entry in sessions_json {
        let id = entry.get("id").and_then(|v| v.as_f64()).unwrap_or(-1.0) as u64;
        let Some((_, group)) = survivors.iter().find(|(sid, _)| *sid == id) else {
            continue;
        };
        let state = entry.get("state").and_then(|v| v.as_str()).unwrap_or("?");
        let steps = entry
            .get("steps_completed")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0) as usize;
        if state != "done" || steps != STEPS {
            fail(
                &mut child,
                &format!("session {id}: state {state}, {steps}/{STEPS} steps — starved or stuck"),
            );
        }
        done += 1;
        total_steps += steps;
        let active_ms = entry
            .get("active_ms")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        group_active
            .entry(group.clone())
            .or_default()
            .push(active_ms);
    }
    if done != survivors.len() {
        fail(
            &mut child,
            &format!("{done}/{} survivors completed", survivors.len()),
        );
    }
    for id in &deleted {
        let (code, _) = http_get(&addr, &format!("/sessions/{id}"))
            .unwrap_or_else(|e| fail(&mut child, &format!("GET deleted {id}: {e}")));
        if code != 404 {
            fail(&mut child, &format!("deleted session {id} still listed"));
        }
    }
    println!(
        "load_smoke: {done} sessions completed, {} deleted mid-run, {total_steps} steps in {elapsed:.2}s \
         ({:.1} sessions/s, {:.1} steps/s)",
        deleted.len(),
        done as f64 / elapsed,
        total_steps as f64 / elapsed
    );

    // Fairness: within each identical-spec group, bounded spread.
    for (group, mut times) in group_active {
        times.retain(|t| *t > 0.0);
        if times.len() < 2 {
            continue;
        }
        times.sort_by(f64::total_cmp);
        let (min, max) = (times[0], times[times.len() - 1]);
        let ratio = max / min.max(FAIRNESS_FLOOR_MS);
        println!("load_smoke: fairness {group}: active {min:.1}..{max:.1} ms (ratio {ratio:.2})");
        if ratio > FAIRNESS_RATIO {
            fail(
                &mut child,
                &format!("{group}: active-time ratio {ratio:.2} > {FAIRNESS_RATIO} — starvation"),
            );
        }
    }

    // Pool residency plateaus: the second half of the fleet reuses warm
    // slots instead of growing them.
    let final_bytes = listing
        .get("pool")
        .and_then(|p| p.get("bytes_resident"))
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| fail(&mut child, "final listing lacks pool.bytes_resident"));
    println!(
        "load_smoke: pool bytes_resident warm {warm_bytes:.0} -> final {final_bytes:.0} \
         ({:+.1}%)",
        100.0 * (final_bytes - warm_bytes) / warm_bytes.max(1.0)
    );
    if final_bytes > warm_bytes * 1.15 {
        fail(
            &mut child,
            &format!(
                "workspace pool kept growing after warm-up: {warm_bytes:.0} -> {final_bytes:.0}"
            ),
        );
    }

    // Step-latency percentiles from the session histogram.
    let (_, metrics) =
        http_get(&addr, "/metrics").unwrap_or_else(|e| fail(&mut child, &format!("/metrics: {e}")));
    let exposition = parse_exposition(&metrics)
        .unwrap_or_else(|e| fail(&mut child, &format!("final exposition: {e}")));
    match (
        bucket_percentile(&exposition, "beamdyn_session_step_ns", 0.50),
        bucket_percentile(&exposition, "beamdyn_session_step_ns", 0.99),
    ) {
        (Some(p50), Some(p99)) => println!(
            "load_smoke: step latency p50 <= {:.3} ms, p99 <= {:.3} ms (bucket upper bounds)",
            p50 / 1e6,
            p99 / 1e6
        ),
        _ => fail(&mut child, "beamdyn_session_step_ns histogram is empty"),
    }
    let dropped = exposition
        .value("beamdyn_telemetry_dropped_events_total")
        .unwrap_or(0.0);
    println!("load_smoke: telemetry.dropped_events = {dropped} (no subscribers attached)");

    stop.store(true, Ordering::Release);
    match scraper.join().expect("scraper thread panicked") {
        Ok(scrapes) => println!("load_smoke: {scrapes} concurrent /metrics scrapes, all parsed"),
        Err(e) => fail(&mut child, &e),
    }

    // Graceful shutdown.
    match http_get(&addr, "/quitz") {
        Ok((200, _)) => {}
        other => fail(&mut child, &format!("/quitz: {other:?}")),
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    let code = loop {
        match child.try_wait() {
            Ok(Some(code)) => break code,
            Ok(None) if Instant::now() > deadline => fail(&mut child, "daemon ignored /quitz"),
            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => fail(&mut child, &format!("waiting on daemon: {e}")),
        }
    };
    if !code.success() {
        eprintln!("load_smoke: FAILED: daemon exited with {code}");
        std::process::exit(1);
    }
    println!("load_smoke: OK");
}
