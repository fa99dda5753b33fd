//! `beamdyn-daemon` — the multi-tenant simulation service.
//!
//! Hosts a [`SessionManager`] (pooled workspaces, fair round-robin
//! stepping) behind the HTTP monitor, and — unless `--no-scenario` —
//! submits one built-in scenario session at startup so the classic
//! single-run surfaces (`/status`, `/events`, stdout step lines) behave
//! exactly as before:
//!
//! ```bash
//! beamdyn-daemon --port 6310 --steps 12 --kernel predictive
//! curl localhost:6310/status | jq .
//! curl localhost:6310/metrics | grep fallback
//! curl -N localhost:6310/events                        # one SSE event per step
//! curl -X POST localhost:6310/sessions -d '{"kernel":"heuristic","steps":4}'
//! curl localhost:6310/sessions | jq .                  # fleet listing
//! curl localhost:6310/quitz                            # graceful shutdown
//! ```
//!
//! After the built-in scenario finishes the daemon stays up serving
//! telemetry and accepting `POST /sessions` (state `done` on `/status`)
//! until `/quitz`; with `--loop` it restarts the scenario instead and runs
//! until asked to stop. Shutdown is signal-free: the main loop polls the
//! server's quit flag, so a quit request never interrupts a step
//! mid-flight.
//!
//! `--addr-file` writes the bound address (useful with `--port 0`) so
//! scripts can find an ephemeral port. Set `BEAMDYN_TRACE=1` to also write
//! a Perfetto timeline of the run on exit; by default the daemon writes no
//! files at all.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use beamdyn::core::{
    BackendKind, HealthConfig, KernelKind, ScenarioSpec, SessionManager, SessionManagerConfig,
    StatusBoard,
};
use beamdyn::obs;
use beamdyn::serve::{MonitorServer, ServeConfig, ServeContext};
use beamdyn::simt::DeviceConfig;

struct Options {
    host: String,
    port: u16,
    steps: usize,
    loop_scenarios: bool,
    kernel: KernelKind,
    backend: Option<BackendKind>,
    resolution: usize,
    particles: usize,
    threads: usize,
    step_workers: usize,
    slots: usize,
    step_delay_ms: u64,
    addr_file: Option<String>,
    no_scenario: bool,
    flight_capacity: usize,
    stall_deadline_ms: u64,
    max_pending: usize,
    slo_step_p99_ms: Option<f64>,
    alert_rules: Option<String>,
    alert_webhooks: Vec<String>,
}

impl Options {
    fn parse() -> Result<Self, String> {
        let mut opts = Self {
            host: "127.0.0.1".to_string(),
            port: 6310,
            steps: 6,
            loop_scenarios: false,
            kernel: KernelKind::Predictive,
            backend: None,
            resolution: 32,
            particles: 20_000,
            threads: 4,
            step_workers: 2,
            slots: 8,
            step_delay_ms: 0,
            addr_file: None,
            no_scenario: false,
            flight_capacity: 0,
            stall_deadline_ms: 10_000,
            max_pending: 256,
            slo_step_p99_ms: None,
            alert_rules: None,
            alert_webhooks: Vec::new(),
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        while i < args.len() {
            let flag = args[i].as_str();
            match flag {
                "--host" => {
                    opts.host = value(&args, i, flag)?;
                    i += 1;
                }
                "--port" => {
                    opts.port = value(&args, i, flag)?
                        .parse()
                        .map_err(|_| "--port must be 0..=65535".to_string())?;
                    i += 1;
                }
                "--steps" => {
                    opts.steps = value(&args, i, flag)?
                        .parse()
                        .map_err(|_| "--steps must be a count".to_string())?;
                    i += 1;
                }
                "--loop" => opts.loop_scenarios = true,
                "--no-scenario" => opts.no_scenario = true,
                "--kernel" => {
                    opts.kernel = match value(&args, i, flag)?.as_str() {
                        "two-phase" => KernelKind::TwoPhase,
                        "heuristic" => KernelKind::Heuristic,
                        "predictive" => KernelKind::Predictive,
                        other => return Err(format!("unknown kernel '{other}'")),
                    };
                    i += 1;
                }
                "--backend" => {
                    let v = value(&args, i, flag)?;
                    opts.backend = Some(BackendKind::parse(&v).ok_or_else(|| {
                        format!(
                            "unknown backend '{v}' (accepted: {})",
                            BackendKind::accepted_values().join(", ")
                        )
                    })?);
                    i += 1;
                }
                "--resolution" => {
                    opts.resolution = value(&args, i, flag)?
                        .parse()
                        .map_err(|_| "--resolution must be a grid size".to_string())?;
                    i += 1;
                }
                "--particles" => {
                    opts.particles = value(&args, i, flag)?
                        .parse()
                        .map_err(|_| "--particles must be a count".to_string())?;
                    i += 1;
                }
                "--threads" => {
                    opts.threads = value(&args, i, flag)?
                        .parse()
                        .map_err(|_| "--threads must be a count".to_string())?;
                    i += 1;
                }
                "--step-workers" => {
                    opts.step_workers = value(&args, i, flag)?
                        .parse()
                        .map_err(|_| "--step-workers must be a count".to_string())?;
                    i += 1;
                }
                "--slots" => {
                    opts.slots = value(&args, i, flag)?
                        .parse()
                        .map_err(|_| "--slots must be a count".to_string())?;
                    i += 1;
                }
                "--step-delay-ms" => {
                    opts.step_delay_ms = value(&args, i, flag)?
                        .parse()
                        .map_err(|_| "--step-delay-ms must be milliseconds".to_string())?;
                    i += 1;
                }
                "--addr-file" => {
                    opts.addr_file = Some(value(&args, i, flag)?);
                    i += 1;
                }
                "--flight-capacity" => {
                    opts.flight_capacity = value(&args, i, flag)?
                        .parse()
                        .map_err(|_| "--flight-capacity must be an event count".to_string())?;
                    i += 1;
                }
                "--stall-deadline-ms" => {
                    opts.stall_deadline_ms = value(&args, i, flag)?
                        .parse()
                        .map_err(|_| "--stall-deadline-ms must be milliseconds".to_string())?;
                    i += 1;
                }
                "--max-pending" => {
                    opts.max_pending = value(&args, i, flag)?
                        .parse()
                        .map_err(|_| "--max-pending must be a count".to_string())?;
                    i += 1;
                }
                "--alert-rules" => {
                    opts.alert_rules = Some(value(&args, i, flag)?);
                    i += 1;
                }
                "--alert-webhook" => {
                    let url = value(&args, i, flag)?;
                    beamdyn::core::health::parse_webhook_url(&url)
                        .map_err(|e| format!("--alert-webhook: {e}"))?;
                    opts.alert_webhooks.push(url);
                    i += 1;
                }
                "--slo-step-p99-ms" => {
                    opts.slo_step_p99_ms = Some(
                        value(&args, i, flag)?
                            .parse()
                            .map_err(|_| "--slo-step-p99-ms must be milliseconds".to_string())?,
                    );
                    i += 1;
                }
                "--help" | "-h" => {
                    println!(
                        "beamdyn-daemon: multi-tenant live-monitored beam-dynamics service\n\n\
                         --host H            bind host (default 127.0.0.1)\n\
                         --port P            bind port, 0 = ephemeral (default 6310)\n\
                         --steps N           steps for the built-in scenario (default 6)\n\
                         --loop              restart the built-in scenario until /quitz\n\
                         --no-scenario       serve sessions only; submit nothing at startup\n\
                         --kernel K          two-phase | heuristic | predictive\n\
                         --backend B         traced | native | native-simd (default: BEAMDYN_BACKEND or traced)\n\
                         --resolution R      grid R x R (default 32)\n\
                         --particles N       macro-particles (default 20000)\n\
                         --threads N         shared compute pool width (default 4)\n\
                         --step-workers N    concurrent session steppers (default 2)\n\
                         --slots N           workspace-pool slots = max admitted sessions (default 8)\n\
                         --step-delay-ms MS  pause between scenario steps (default 0)\n\
                         --addr-file PATH    write the bound address to PATH\n\
                         --flight-capacity N global flight-recorder ring size (default 2048)\n\
                         --stall-deadline-ms MS  watchdog stall deadline floor (default 10000)\n\
                         --max-pending N     admission bound; beyond it POST /sessions answers 429 (default 256)\n\
                         --slo-step-p99-ms MS  alert when fleet step p99 exceeds this budget (default off)\n\
                         --alert-rules PATH  load declarative alert rules (JSON) instead of the built-ins\n\
                         --alert-webhook URL POST alert firing/resolved transitions to URL (repeatable, http only)"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
            i += 1;
        }
        Ok(opts)
    }
}

/// The built-in scenario: the same drifting-bunch run the daemon has
/// always served, expressed as the declarative spec tenants POST.
fn scenario_spec(opts: &Options) -> ScenarioSpec {
    ScenarioSpec {
        name: "daemon".to_string(),
        kernel: opts.kernel,
        backend: opts.backend,
        nx: opts.resolution,
        ny: opts.resolution,
        particles: opts.particles,
        steps: opts.steps,
        kappa: 8,
        step_delay_ms: opts.step_delay_ms,
        ..ScenarioSpec::default()
    }
}

/// Timeout of a wait that only its event should end (a condvar wait needs
/// one; waking once an hour to wait again costs nothing).
const UNHURRIED: Duration = Duration::from_secs(3600);

fn main() {
    let opts = match Options::parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("beamdyn-daemon: {e} (try --help)");
            std::process::exit(2);
        }
    };
    // Resolve the process backend up front: a BEAMDYN_BACKEND typo must be
    // a clean exit-2 diagnostic, never a panic (and never silently the
    // wrong backend).
    let default_backend = match opts
        .backend
        .map(Ok)
        .unwrap_or_else(BackendKind::try_from_env)
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("beamdyn-daemon: {e}");
            std::process::exit(2);
        }
    };

    // Live-telemetry plumbing: every step flush fans out to /events
    // subscribers; the status board backs /status.
    let events = obs::BroadcastSink::new();
    obs::install(events.clone());
    // Opt-in Perfetto timeline (BEAMDYN_TRACE=1): written on exit.
    let trace = if std::env::var("BEAMDYN_TRACE").is_ok_and(|v| v == "1") {
        Some(obs::install_perfetto("beamdyn_daemon.perfetto.json").expect("perfetto file"))
    } else {
        None
    };

    let spec = scenario_spec(&opts);
    if let Err(e) = spec.validate() {
        eprintln!("beamdyn-daemon: invalid scenario options: {e}");
        std::process::exit(2);
    }

    // Alert rules come from the spec file when given, else the built-in
    // set. A malformed file is a structured exit-2 diagnostic at startup —
    // never a panic, never a daemon silently running with default rules.
    let rules = match &opts.alert_rules {
        Some(path) => {
            let body = match std::fs::read_to_string(path) {
                Ok(body) => body,
                Err(e) => {
                    eprintln!("beamdyn-daemon: cannot read --alert-rules {path}: {e}");
                    std::process::exit(2);
                }
            };
            match beamdyn::serve::parse_rules(&body) {
                Ok(rules) => rules,
                Err(e) => {
                    eprintln!("beamdyn-daemon: invalid --alert-rules {path}: {e}");
                    eprintln!("beamdyn-daemon: {}", e.to_json());
                    std::process::exit(2);
                }
            }
        }
        None => beamdyn::core::AlertRules::builtin(),
    };

    // Size the global flight ring before anything records into it (the
    // ring is built lazily on first use and keeps its capacity for the
    // process lifetime).
    if opts.flight_capacity > 0 {
        obs::flight::configure_global_capacity(opts.flight_capacity);
    }
    let manager = SessionManager::start(SessionManagerConfig {
        threads: opts.threads.max(1),
        step_workers: opts.step_workers.max(1),
        slots: opts.slots.max(1),
        default_backend,
        device: DeviceConfig::tesla_k40(),
        health: HealthConfig {
            stall_deadline: Duration::from_millis(opts.stall_deadline_ms.max(1)),
            max_pending: opts.max_pending.max(1),
            slo_step_p99_ms: opts.slo_step_p99_ms,
            rules,
            webhooks: opts.alert_webhooks.clone(),
            ..HealthConfig::default()
        },
        ..SessionManagerConfig::default()
    });

    let status = StatusBoard::new(spec.kernel_request_name(), default_backend.name());
    let ready = Arc::new(AtomicBool::new(false));
    let server = match MonitorServer::start(
        ServeConfig {
            addr: format!("{}:{}", opts.host, opts.port),
            ..ServeConfig::default()
        },
        ServeContext {
            status: Arc::clone(&status),
            events: events.clone(),
            ready: Arc::clone(&ready),
            sessions: Some(Arc::clone(&manager)),
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "beamdyn-daemon: cannot bind {}:{}: {e}",
                opts.host, opts.port
            );
            std::process::exit(1);
        }
    };
    println!(
        "beamdyn-daemon listening on {} ({} / {}, simd lane width {}, {} workspace slots)",
        server.base_url(),
        spec.kernel_request_name(),
        default_backend.name(),
        default_backend.lane_width(),
        opts.slots.max(1),
    );
    println!(
        "endpoints: /metrics /status /events /sessions /alerts /timeline /debug/flight /healthz /readyz /quitz"
    );
    if let Some(path) = &opts.addr_file {
        if let Err(e) = std::fs::write(path, server.addr().to_string()) {
            eprintln!("beamdyn-daemon: cannot write --addr-file {path}: {e}");
            std::process::exit(1);
        }
    }

    // Per-step stdout lines, fed from the same broadcast bus /events uses.
    // Counters in a flush are cumulative, so print the per-step delta.
    // The thread ends when the bus does (`events.finish()` at shutdown).
    let printer = {
        let rx = events.subscribe();
        std::thread::spawn(move || {
            let mut last_fallback: u64 = 0;
            loop {
                let flush = match rx.recv_timeout(UNHURRIED) {
                    obs::Recv::Event(flush) => flush,
                    obs::Recv::Timeout => continue,
                    obs::Recv::Finished => return,
                };
                let fallback = flush
                    .counters
                    .iter()
                    .find(|(name, _)| *name == "kernels.fallback_cells")
                    .map_or(0, |&(_, v)| v);
                println!(
                    "step {:4}: fallback {:5} cells (total {})",
                    flush.step,
                    fallback.saturating_sub(last_fallback),
                    fallback,
                );
                last_fallback = fallback;
            }
        })
    };

    // Submit the built-in scenario (unless asked not to), mirrored onto the
    // daemon's global status board so /status tracks it like before.
    let mut scenario: Option<u64> = None;
    if opts.no_scenario {
        status.set_state("idle");
    } else {
        match manager.submit_mirrored(spec.clone(), Some(Arc::clone(&status))) {
            Ok(id) => {
                println!("scenario session {id} submitted ({} steps)", opts.steps);
                scenario = Some(id);
            }
            Err(e) => {
                eprintln!("beamdyn-daemon: cannot submit scenario: {e}");
                std::process::exit(1);
            }
        }
    }
    ready.store(true, Ordering::Release);

    let mut announced_done = false;
    loop {
        if let Some(id) = scenario {
            let finished = manager
                .state(id)
                .as_ref()
                .is_none_or(|state| state.is_terminal());
            if finished {
                if opts.loop_scenarios {
                    // Fresh scenario, same serving surfaces: counters keep
                    // accumulating, the step index restarts at 0.
                    match manager.submit_mirrored(spec.clone(), Some(Arc::clone(&status))) {
                        Ok(id) => scenario = Some(id),
                        Err(e) => {
                            eprintln!("beamdyn-daemon: cannot resubmit scenario: {e}");
                            scenario = None;
                        }
                    }
                } else {
                    scenario = None;
                    announced_done = true;
                    println!("scenario finished; serving telemetry and sessions until GET /quitz");
                }
            }
        } else if opts.no_scenario && !announced_done {
            announced_done = true;
            println!("serving sessions until GET /quitz (POST /sessions to run one)");
        }
        // `/quitz` wakes this wait at once. While a scenario is tracked the
        // timeout is how soon its end is noticed (announce / `--loop`
        // resubmit); with none there is nothing to do but wait.
        let wait = if scenario.is_some() {
            Duration::from_millis(50)
        } else {
            UNHURRIED
        };
        if server.wait_quit(wait) {
            break;
        }
    }

    status.set_state("stopping");
    println!("quit requested; shutting down");
    manager.shutdown();
    // End the fleet-wide bus first: idle `/events` streams and the step
    // printer wake and finish instead of waiting out a tick.
    events.finish();
    server.join();
    let _ = printer.join();
    obs::uninstall_all();
    if trace.is_some() {
        println!("perfetto trace written to beamdyn_daemon.perfetto.json");
    }
}
