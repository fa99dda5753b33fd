//! The multi-tenant session engine: pooled workspaces, fair scheduling,
//! per-session observability.
//!
//! A simulation used to *be* the process; here it becomes a **session** —
//! a schedulable unit of ([`ScenarioSpec`] + [`SimCore`] + leased
//! [`StepWorkspace`] + per-session [`StatusBoard`] + event bus) that a
//! [`SessionManager`] multiplexes with hundreds of siblings onto one
//! shared [`ThreadPool`]:
//!
//! * **[`WorkspacePool`]** — a slab-style pool of `StepWorkspace`s in the
//!   spirit of wasmtime's pooling allocator: a fixed number of slots,
//!   each warmed slot reused verbatim by the next tenant
//!   ([`StepWorkspace::reset_for_session`] clears contents, keeps
//!   capacity), total residency bounded by `slots ×` the largest scenario
//!   a slot has hosted. Once every slot is warm, session churn allocates
//!   no steady-state workspace memory — `workspace_pool.bytes_resident`
//!   plateaus, and the load harness gates exactly that.
//! * **Fair round-robin stepping** — the unit of scheduling is *one
//!   step*: a scheduler worker pops the longest-waiting ready session,
//!   runs a single step on the shared compute pool, and re-queues the
//!   session at the back. No session starves behind a long one, and
//!   because the pool's scoped loops are width-deterministic and
//!   scheduling-independent, a session's numbers are **bit-identical** to
//!   the same scenario run alone (tests/session_identity.rs).
//! * **Sessions hold their workspace for life** — the workspace carries
//!   cross-step kernel state (the previous-partition store), so a session
//!   leases one slot at admission and returns it at completion; admission
//!   control (the pending queue) bounds concurrent residency to the slot
//!   count.
//! * **Per-session observability** — each step updates the session's
//!   `StatusBoard` (JSON `/sessions/{id}/status`), scoped Prometheus
//!   series (`beamdyn_session_*{session="<id>"}`), and a bounded
//!   drop-oldest event bus (`/sessions/{id}/events` SSE); deleting the
//!   session drops its scoped series so exposition cardinality tracks
//!   live tenants only.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use beamdyn_obs as obs;
use beamdyn_par::ThreadPool;
use beamdyn_simt::DeviceConfig;
use obs::flight::{EventKind, FlightEvent};

use crate::backend::BackendKind;
use crate::driver::SimCore;
use crate::health::{self, HealthConfig};
use crate::scenario::ScenarioSpec;
use crate::status::StatusBoard;
use crate::workspace::StepWorkspace;

/// Fixed slot count of the process's workspace pool.
static POOL_SLOTS: obs::Gauge = obs::Gauge::new("workspace_pool.slots");
/// Slots currently leased to running sessions.
static POOL_IN_USE: obs::Gauge = obs::Gauge::new("workspace_pool.in_use");
/// Total bytes of workspace capacity resident across all slots (free and
/// leased). Plateaus once the pool is warm — the bounded-residency gate.
static POOL_BYTES: obs::Gauge = obs::Gauge::new("workspace_pool.bytes_resident");
/// Lease acquisitions (every admission).
static POOL_ACQUIRES: obs::Counter = obs::Counter::new("workspace_pool.acquires");
/// Acquisitions served by a warmed slot instead of a fresh allocation.
static POOL_REUSES: obs::Counter = obs::Counter::new("workspace_pool.reuses");

/// Sessions accepted by [`SessionManager::submit`].
static SESSIONS_SUBMITTED: obs::Counter = obs::Counter::new("sessions.submitted");
/// Sessions that ran every requested step.
static SESSIONS_COMPLETED: obs::Counter = obs::Counter::new("sessions.completed");
/// Sessions whose step panicked (isolated; the worker survives).
static SESSIONS_FAILED: obs::Counter = obs::Counter::new("sessions.failed");
/// Sessions cancelled by DELETE before completing.
static SESSIONS_CANCELLED: obs::Counter = obs::Counter::new("sessions.cancelled");
/// Sessions currently admitted and stepping.
static SESSIONS_ACTIVE: obs::Gauge = obs::Gauge::new("sessions.active");
/// Sessions waiting for a workspace slot.
static SESSIONS_QUEUED: obs::Gauge = obs::Gauge::new("sessions.queued");
/// Host wall-clock nanoseconds per multiplexed session step (fleet-wide
/// distribution; the load harness reads its p50/p99).
static SESSION_STEP_NS: obs::Histogram = obs::Histogram::new("session.step_ns");
/// Sessions refused by admission back-pressure (HTTP 429 at the serve
/// layer).
static SESSIONS_REJECTED: obs::Counter = obs::Counter::new("sessions.rejected");

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// WorkspacePool
// ---------------------------------------------------------------------------

struct PoolInner {
    free: Vec<StepWorkspace>,
    /// Last-known resident bytes of each leased slot, keyed by lease id.
    leased: BTreeMap<u64, usize>,
    next_lease: u64,
    /// Slots ever created (free + leased); never exceeds capacity.
    allocated: usize,
}

/// A fixed-slot pool of [`StepWorkspace`]s. `try_acquire` hands out a
/// warmed slot when one is free, allocates a fresh one while under
/// capacity, and refuses beyond it — the caller queues the session
/// instead. Releasing resets the slot's *contents* (not its capacity) so
/// the next tenant starts numerically fresh on warm buffers.
pub struct WorkspacePool {
    capacity: usize,
    inner: Mutex<PoolInner>,
}

impl WorkspacePool {
    /// Creates a pool of `capacity` slots (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        POOL_SLOTS.set(capacity as f64);
        Self {
            capacity,
            inner: Mutex::new(PoolInner {
                free: Vec::with_capacity(capacity),
                leased: BTreeMap::new(),
                next_lease: 0,
                allocated: 0,
            }),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots currently leased.
    pub fn in_use(&self) -> usize {
        lock(&self.inner).leased.len()
    }

    /// Total resident bytes across free slots and (last-known) leased
    /// slots.
    pub fn bytes_resident(&self) -> usize {
        let inner = lock(&self.inner);
        Self::bytes_of(&inner)
    }

    fn bytes_of(inner: &PoolInner) -> usize {
        inner
            .free
            .iter()
            .map(StepWorkspace::bytes_resident)
            .sum::<usize>()
            + inner.leased.values().sum::<usize>()
    }

    fn publish(inner: &PoolInner) {
        POOL_IN_USE.set(inner.leased.len() as f64);
        POOL_BYTES.set(Self::bytes_of(inner) as f64);
    }

    /// Leases a workspace: a warmed free slot if available, a fresh one
    /// while under capacity, `None` at capacity.
    pub fn try_acquire(&self) -> Option<(u64, StepWorkspace)> {
        let mut inner = lock(&self.inner);
        let workspace = match inner.free.pop() {
            Some(ws) => {
                POOL_REUSES.incr();
                ws
            }
            None if inner.allocated < self.capacity => {
                inner.allocated += 1;
                StepWorkspace::new()
            }
            None => return None,
        };
        POOL_ACQUIRES.incr();
        let lease = inner.next_lease;
        inner.next_lease += 1;
        let bytes = workspace.bytes_resident();
        inner.leased.insert(lease, bytes);
        Self::publish(&inner);
        Some((lease, workspace))
    }

    /// Updates the residency book-keeping for a leased slot (called after
    /// steps, since a growing scenario grows its slot).
    pub fn note_bytes(&self, lease: u64, bytes: usize) {
        let mut inner = lock(&self.inner);
        if let Some(entry) = inner.leased.get_mut(&lease) {
            *entry = bytes;
        }
        Self::publish(&inner);
    }

    /// Returns a slot to the pool, clearing its contents but keeping its
    /// capacity warm for the next tenant.
    pub fn release(&self, lease: u64, mut workspace: StepWorkspace) {
        workspace.reset_for_session();
        let mut inner = lock(&self.inner);
        inner.leased.remove(&lease);
        inner.free.push(workspace);
        Self::publish(&inner);
    }
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// Lifecycle of one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionState {
    /// Waiting for a workspace slot.
    Queued,
    /// Admitted; stepping round-robin.
    Running,
    /// Ran every requested step.
    Done,
    /// Cancelled before completing.
    Cancelled,
    /// A step panicked; the session was isolated and stopped.
    Failed,
}

impl SessionState {
    /// Lower-case wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Done => "done",
            Self::Cancelled => "cancelled",
            Self::Failed => "failed",
        }
    }

    /// True once the session will never step again.
    pub fn is_terminal(&self) -> bool {
        matches!(self, Self::Done | Self::Cancelled | Self::Failed)
    }
}

/// One event on a session's bus: a completed step, pre-rendered as the
/// SSE `data:` payload.
#[derive(Debug, Clone)]
pub struct SessionEvent {
    /// Owning session.
    pub session: u64,
    /// Session-local step index.
    pub step: usize,
    /// JSON payload (`{"session":…,"step":…,…}`).
    pub json: String,
}

/// Why [`SessionManager::submit`] refused a spec. The serve layer maps
/// the variants onto distinct HTTP answers: a [`SubmitError::Rejected`]
/// spec is the client's fault (400), a [`SubmitError::Saturated`] fleet
/// is temporary back-pressure (429 + `Retry-After`).
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The spec failed validation (or the manager is shut down).
    Rejected(String),
    /// The pending queue is at the admission bound; retry later.
    Saturated {
        /// Sessions currently waiting for a slot.
        pending: usize,
        /// The configured bound ([`HealthConfig::max_pending`]).
        limit: usize,
        /// Suggested back-off, derived from the observed step p50.
        retry_after: Duration,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Rejected(msg) => write!(f, "{msg}"),
            Self::Saturated {
                pending,
                limit,
                retry_after,
            } => write!(
                f,
                "admission queue full ({pending}/{limit} pending); retry in {}s",
                retry_after.as_secs()
            ),
        }
    }
}

/// A schedulable simulation: everything the manager tracks per tenant.
struct Session {
    id: u64,
    spec: ScenarioSpec,
    state: SessionState,
    /// Owned simulation state; `None` while a worker is stepping it (the
    /// worker holds it outside the fleet lock) and after termination.
    core: Option<SimCore>,
    /// The leased workspace, moved out alongside `core` during a step.
    workspace: Option<(u64, StepWorkspace)>,
    /// True while a worker holds `core`/`workspace` out of the entry.
    stepping: bool,
    /// Set by DELETE; the worker (or the queue scan) finalises it.
    cancel: bool,
    board: Arc<StatusBoard>,
    events: Arc<obs::Broadcast<SessionEvent>>,
    /// Mirror board fed alongside the per-session board (the daemon's
    /// process-global `/status`).
    mirror: Option<Arc<StatusBoard>>,
    kernel_name: String,
    backend_name: String,
    steps_total: usize,
    steps_done: usize,
    submitted: Instant,
    started: Option<Instant>,
    finished: Option<Instant>,
    /// The last step's potentials, kept after the core is dropped so
    /// clients (and the bit-identity harness) can read the result of a
    /// finished session.
    final_potentials: Option<Vec<f64>>,
    /// When the session last proved liveness (admission, then every
    /// completed step) — what the watchdog's stall rule reads.
    last_progress: Instant,
    /// The session's own flight ring (shared with the serve layer via
    /// [`obs::flight::scope_ring`]); held here so the per-step hot path
    /// records without a registry lookup.
    flight: Arc<obs::FlightRing>,
}

impl Session {
    fn summary_json(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let snap = self.board.snapshot();
        let wait_ms = self
            .started
            .unwrap_or_else(Instant::now)
            .duration_since(self.submitted)
            .as_secs_f64()
            * 1e3;
        let active_ms = self.started.map_or(0.0, |started| {
            self.finished
                .unwrap_or_else(Instant::now)
                .duration_since(started)
                .as_secs_f64()
                * 1e3
        });
        format!(
            "{{\"id\":{},\"name\":\"{}\",\"kernel\":\"{}\",\"backend\":\"{}\",\
             \"state\":\"{}\",\"steps_completed\":{},\"steps_total\":{},\
             \"wait_ms\":{:.3},\"active_ms\":{:.3},\
             \"totals\":{{\"gpu_time_s\":{},\"fallback_cells\":{},\"launches\":{}}}}}",
            self.id,
            esc(&self.spec.name),
            esc(&self.kernel_name),
            esc(&self.backend_name),
            self.state.name(),
            self.steps_done,
            self.steps_total,
            wait_ms,
            active_ms,
            if snap.totals.gpu_time_s.is_finite() {
                snap.totals.gpu_time_s
            } else {
                0.0
            },
            snap.totals.fallback_cells,
            snap.totals.launches,
        )
    }
}

// ---------------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------------

/// Sizing and defaults of a [`SessionManager`].
#[derive(Debug, Clone)]
pub struct SessionManagerConfig {
    /// Width of the shared compute [`ThreadPool`] all sessions' scoped
    /// loops run on.
    pub threads: usize,
    /// Scheduler workers: how many sessions step *concurrently*. Each
    /// holds one session at a time; steps themselves fan out on the
    /// shared compute pool.
    pub step_workers: usize,
    /// Workspace-pool slots = max concurrently-admitted sessions.
    pub slots: usize,
    /// Ring capacity of each session's event bus.
    pub events_capacity: usize,
    /// Backend for specs that name none.
    pub default_backend: BackendKind,
    /// Simulated device model.
    pub device: DeviceConfig,
    /// Capacity of each session's flight ring.
    pub flight_capacity: usize,
    /// Watchdog / admission / SLO tuning.
    pub health: HealthConfig,
}

impl Default for SessionManagerConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            step_workers: 2,
            slots: 8,
            events_capacity: obs::BroadcastSink::DEFAULT_CAPACITY,
            default_backend: BackendKind::default(),
            device: DeviceConfig::tesla_k40(),
            flight_capacity: obs::flight::DEFAULT_SESSION_CAPACITY,
            health: HealthConfig::default(),
        }
    }
}

struct Fleet {
    sessions: BTreeMap<u64, Session>,
    /// Admitted sessions awaiting their next step, oldest first — the
    /// round-robin ring.
    ready: VecDeque<u64>,
    /// Submitted sessions awaiting a workspace slot, oldest first.
    pending: VecDeque<u64>,
    next_id: u64,
    /// Last time a session was admitted (pool-exhaustion rule input).
    last_admission: Instant,
}

impl Fleet {
    fn publish_gauges(&self) {
        let active = self
            .sessions
            .values()
            .filter(|s| s.state == SessionState::Running)
            .count();
        SESSIONS_ACTIVE.set(active as f64);
        SESSIONS_QUEUED.set(self.pending.len() as f64);
    }
}

struct Shared {
    pool: ThreadPool,
    device: DeviceConfig,
    wpool: WorkspacePool,
    fleet: Mutex<Fleet>,
    /// The fleet condvar: notified when work arrives for the scheduler
    /// workers and whenever a session turns terminal or is removed
    /// ([`SessionManager::wait_idle`] parks on it).
    fleet_changed: Condvar,
    shutdown: AtomicBool,
    default_backend: BackendKind,
    events_capacity: usize,
    flight_capacity: usize,
    health: HealthConfig,
}

/// The multi-tenant engine: accepts [`ScenarioSpec`]s, admits them
/// against the workspace pool, and steps every admitted session fairly
/// on a small team of scheduler workers.
pub struct SessionManager {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl SessionManager {
    /// Starts the engine: compute pool, workspace pool, and
    /// `step_workers` scheduler threads.
    pub fn start(config: SessionManagerConfig) -> Arc<Self> {
        let shared = Arc::new(Shared {
            pool: ThreadPool::new(config.threads.max(1)),
            device: config.device,
            wpool: WorkspacePool::new(config.slots),
            fleet: Mutex::new(Fleet {
                sessions: BTreeMap::new(),
                ready: VecDeque::new(),
                pending: VecDeque::new(),
                next_id: 1,
                last_admission: Instant::now(),
            }),
            fleet_changed: Condvar::new(),
            shutdown: AtomicBool::new(false),
            default_backend: config.default_backend,
            events_capacity: config.events_capacity.max(1),
            flight_capacity: config.flight_capacity.max(1),
            health: config.health,
        });
        let mut workers: Vec<std::thread::JoinHandle<()>> = (0..config.step_workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("beamdyn-sched-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn scheduler worker")
            })
            .collect();
        {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name("beamdyn-watchdog".to_string())
                    .spawn(move || watchdog_loop(&shared))
                    .expect("spawn watchdog"),
            );
        }
        if !shared.health.webhooks.is_empty() {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name("beamdyn-webhook".to_string())
                    .spawn(move || webhook_loop(&shared))
                    .expect("spawn webhook notifier"),
            );
        }
        Arc::new(Self {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// Accepts a validated spec; returns the new session id. The session
    /// starts `queued` and is admitted as soon as a workspace slot frees.
    pub fn submit(&self, spec: ScenarioSpec) -> Result<u64, SubmitError> {
        self.submit_mirrored(spec, None)
    }

    /// [`SessionManager::submit`], additionally mirroring every step
    /// record (and the terminal state) onto `mirror` — how the daemon
    /// keeps its process-global `/status` fed by its own scenario
    /// session.
    pub fn submit_mirrored(
        &self,
        spec: ScenarioSpec,
        mirror: Option<Arc<StatusBoard>>,
    ) -> Result<u64, SubmitError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(SubmitError::Rejected(
                "session manager is shut down".to_string(),
            ));
        }
        spec.validate()
            .map_err(|e| SubmitError::Rejected(e.to_string()))?;
        let backend = spec.backend.unwrap_or(self.shared.default_backend);
        let kernel_name = spec.kernel_request_name().to_string();
        let backend_name = backend.name().to_string();
        let mut fleet = lock(&self.shared.fleet);
        // Admission back-pressure: a bounded pending queue keeps backlog
        // memory and time-to-first-step honest; clients get 429 +
        // Retry-After instead of an unbounded queue.
        let limit = self.shared.health.max_pending;
        if fleet.pending.len() >= limit {
            let pending = fleet.pending.len();
            drop(fleet);
            SESSIONS_REJECTED.incr();
            let retry_after = retry_after_hint(pending);
            // The alert identity comes from the rules engine so a rules
            // file can rename/re-severity (or drop) admission paging;
            // the 429 + Retry-After behaviour is unconditional.
            if let Some(rule) = self.shared.health.rules.admission_rule() {
                obs::flight::fire_alert(
                    &rule.name,
                    None,
                    rule.severity,
                    format!("admission queue full: {pending}/{limit} pending"),
                );
            }
            let mut event = FlightEvent::new(EventKind::Admission);
            event.value = pending as f64;
            event.extra = limit as f64;
            obs::flight::record(event);
            return Err(SubmitError::Saturated {
                pending,
                limit,
                retry_after,
            });
        }
        let id = fleet.next_id;
        fleet.next_id += 1;
        let board = StatusBoard::new(&kernel_name, &backend_name);
        board.set_state("queued");
        if let Some(mirror) = &mirror {
            mirror.set_state("running");
        }
        let flight = obs::flight::register_scope(&id.to_string(), self.shared.flight_capacity);
        let session = Session {
            id,
            steps_total: spec.steps,
            spec,
            state: SessionState::Queued,
            core: None,
            workspace: None,
            stepping: false,
            cancel: false,
            board,
            events: obs::Broadcast::with_capacity(self.shared.events_capacity),
            mirror,
            kernel_name,
            backend_name,
            steps_done: 0,
            submitted: Instant::now(),
            started: None,
            finished: None,
            final_potentials: None,
            last_progress: Instant::now(),
            flight: Arc::clone(&flight),
        };
        fleet.sessions.insert(id, session);
        fleet.pending.push_back(id);
        SESSIONS_SUBMITTED.incr();
        let mut lifecycle = FlightEvent::new(EventKind::Lifecycle);
        lifecycle.session = id;
        obs::flight::record_scoped(Some(&flight), lifecycle);
        let mut queue = FlightEvent::new(EventKind::Queue);
        queue.session = id;
        queue.value = fleet.pending.len() as f64;
        queue.extra = limit as f64;
        obs::flight::record(queue);
        admit_pending(&self.shared, &mut fleet);
        fleet.publish_gauges();
        drop(fleet);
        self.shared.fleet_changed.notify_all();
        Ok(id)
    }

    /// Cancels and removes a session (any state). Scoped metrics are
    /// dropped immediately; if a worker currently holds the session's
    /// step, final teardown happens when it returns. Returns whether the
    /// id existed.
    pub fn delete(&self, id: u64) -> bool {
        let mut fleet = lock(&self.shared.fleet);
        let Some(session) = fleet.sessions.get_mut(&id) else {
            return false;
        };
        if session.stepping {
            // The worker owns the core/workspace right now; it will see
            // the flag, finalise as cancelled, and remove the entry.
            session.cancel = true;
            session.state = SessionState::Cancelled;
            drop(fleet);
            self.shared.fleet_changed.notify_all();
            return true;
        }
        let was_terminal = session.state.is_terminal();
        let workspace = session.workspace.take();
        // No worker holds it, so nobody else will end its event stream.
        session.events.finish();
        fleet.sessions.remove(&id);
        fleet.ready.retain(|&q| q != id);
        fleet.pending.retain(|&q| q != id);
        if let Some((lease, ws)) = workspace {
            self.shared.wpool.release(lease, ws);
        }
        if !was_terminal {
            SESSIONS_CANCELLED.incr();
            let mut event = FlightEvent::new(EventKind::Lifecycle);
            event.session = id;
            event.code = lifecycle_code(&SessionState::Cancelled);
            obs::flight::record(event);
        }
        obs::scope::drop_scope(&id.to_string());
        obs::flight::drop_scope(&id.to_string());
        obs::timeline::drop_scope(&id.to_string());
        admit_pending(&self.shared, &mut fleet);
        fleet.publish_gauges();
        drop(fleet);
        self.shared.fleet_changed.notify_all();
        true
    }

    /// The fleet listing (`GET /sessions`): per-session summaries plus
    /// rollup counts.
    pub fn list_json(&self) -> String {
        let fleet = lock(&self.shared.fleet);
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        let summaries: Vec<String> = fleet
            .sessions
            .values()
            .map(|s| {
                *counts.entry(s.state.name()).or_insert(0) += 1;
                s.summary_json()
            })
            .collect();
        let counts_json = counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"sessions\":[{}],\"counts\":{{{counts_json}}},\
             \"pool\":{{\"slots\":{},\"in_use\":{},\"bytes_resident\":{}}}}}",
            summaries.join(","),
            self.shared.wpool.capacity(),
            self.shared.wpool.in_use(),
            self.shared.wpool.bytes_resident(),
        )
    }

    /// One session's summary (`GET /sessions/{id}`), `None` when unknown.
    pub fn session_json(&self, id: u64) -> Option<String> {
        lock(&self.shared.fleet)
            .sessions
            .get(&id)
            .map(Session::summary_json)
    }

    /// One session's status-board JSON (`GET /sessions/{id}/status`).
    pub fn status_json(&self, id: u64) -> Option<String> {
        lock(&self.shared.fleet)
            .sessions
            .get(&id)
            .map(|s| s.board.to_json())
    }

    /// Subscribes to a session's step events (`/sessions/{id}/events`).
    pub fn subscribe(&self, id: u64) -> Option<obs::BroadcastReceiver<SessionEvent>> {
        lock(&self.shared.fleet)
            .sessions
            .get(&id)
            .map(|s| s.events.subscribe())
    }

    /// The session's lifecycle state, `None` when unknown (deleted ids
    /// disappear).
    pub fn state(&self, id: u64) -> Option<SessionState> {
        lock(&self.shared.fleet)
            .sessions
            .get(&id)
            .map(|s| s.state.clone())
    }

    /// The final potentials of a terminal session (the last completed
    /// step's field), `None` while running or when unknown.
    pub fn final_potentials(&self, id: u64) -> Option<Vec<f64>> {
        lock(&self.shared.fleet)
            .sessions
            .get(&id)
            .and_then(|s| s.final_potentials.clone())
    }

    /// The per-session status snapshot (board copy), `None` when unknown.
    pub fn board_snapshot(&self, id: u64) -> Option<crate::status::StatusSnapshot> {
        lock(&self.shared.fleet)
            .sessions
            .get(&id)
            .map(|s| s.board.snapshot())
    }

    /// Sessions not yet terminal (queued or running).
    pub fn active_count(&self) -> usize {
        lock(&self.shared.fleet)
            .sessions
            .values()
            .filter(|s| !s.state.is_terminal())
            .count()
    }

    /// Total sessions currently tracked (terminal ones stay listed until
    /// deleted).
    pub fn session_count(&self) -> usize {
        lock(&self.shared.fleet).sessions.len()
    }

    /// The shared workspace pool (residency introspection).
    pub fn workspace_pool(&self) -> &WorkspacePool {
        &self.shared.wpool
    }

    /// Blocks until no session is queued or running, or `deadline`
    /// passes; returns whether the fleet drained. Parks on the fleet
    /// condvar, which every terminal transition notifies.
    pub fn wait_idle(&self, deadline: Duration) -> bool {
        let busy = |fleet: &mut Fleet| fleet.sessions.values().any(|s| !s.state.is_terminal());
        let (_fleet, timeout) = self
            .shared
            .fleet_changed
            .wait_timeout_while(lock(&self.shared.fleet), deadline, busy)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        !timeout.timed_out()
    }

    /// Stops the scheduler workers (running steps finish; queued sessions
    /// stay queued) and joins them.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.fleet_changed.notify_all();
        let mut workers = lock(&self.workers);
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Moves pending sessions into the ready ring while workspace slots are
/// available. Building the `SimCore` (sampling the bunch) happens here,
/// at admission, so process memory is bounded by the slot count rather
/// than the backlog length.
fn admit_pending(shared: &Shared, fleet: &mut Fleet) {
    while let Some(&id) = fleet.pending.front() {
        if !fleet.sessions.contains_key(&id) {
            fleet.pending.pop_front();
            continue;
        }
        let Some((lease, workspace)) = shared.wpool.try_acquire() else {
            break;
        };
        fleet.pending.pop_front();
        let session = fleet.sessions.get_mut(&id).expect("checked above");
        let (config, beam) = session.spec.build(shared.default_backend);
        session.core = Some(SimCore::new(config, beam));
        session.workspace = Some((lease, workspace));
        session.state = SessionState::Running;
        session.started = Some(Instant::now());
        session.last_progress = Instant::now();
        session.board.set_state("running");
        fleet.last_admission = Instant::now();
        let mut lifecycle = FlightEvent::new(EventKind::Lifecycle);
        lifecycle.session = id;
        lifecycle.code = lifecycle_code(&SessionState::Running);
        obs::flight::record_scoped(Some(&session.flight), lifecycle);
        let mut pool = FlightEvent::new(EventKind::Pool);
        pool.session = id;
        pool.value = shared.wpool.in_use() as f64;
        pool.extra = shared.wpool.capacity() as f64;
        obs::flight::record(pool);
        fleet.ready.push_back(id);
    }
}

/// Wire encoding of [`SessionState`] in [`EventKind::Lifecycle`] events.
fn lifecycle_code(state: &SessionState) -> u32 {
    match state {
        SessionState::Queued => 0,
        SessionState::Running => 1,
        SessionState::Done => 2,
        SessionState::Cancelled => 3,
        SessionState::Failed => 4,
    }
}

/// Suggested client back-off when admission saturates: roughly how long
/// the fleet needs to drain one slot's worth of work, from the observed
/// step p50. Clamped to a polite 1–30 s.
fn retry_after_hint(pending: usize) -> Duration {
    let p50_ns = obs::histogram_snapshot("session.step_ns").map_or(0.0, |h| h.p50());
    let secs = (p50_ns * pending as f64 / 1e9).ceil().clamp(1.0, 30.0);
    Duration::from_secs(secs as u64)
}

/// Finalises a session in place: records terminal state, releases the
/// workspace, captures the final potentials, and (for cancelled
/// sessions) removes the entry entirely.
fn finalize(
    shared: &Shared,
    fleet: &mut Fleet,
    id: u64,
    state: SessionState,
    core: Option<&SimCore>,
) {
    let Some(session) = fleet.sessions.get_mut(&id) else {
        return;
    };
    session.state = state.clone();
    session.finished = Some(Instant::now());
    session.final_potentials =
        core.and_then(|c| c.last_potentials().map(|f| f.as_slice().to_vec()));
    session.board.set_state(state.name());
    // End of stream: subscribers drain what was published, then read
    // `Finished` and look the terminal state up — no tick to wait out.
    session.events.finish();
    if let Some((lease, ws)) = session.workspace.take() {
        shared.wpool.release(lease, ws);
    }
    let mirror = session.mirror.clone();
    let mut lifecycle = FlightEvent::new(EventKind::Lifecycle);
    lifecycle.session = id;
    lifecycle.step = session.steps_done as u64;
    lifecycle.code = lifecycle_code(&state);
    obs::flight::record_scoped(Some(&session.flight), lifecycle);
    match state {
        SessionState::Done => SESSIONS_COMPLETED.incr(),
        SessionState::Failed => SESSIONS_FAILED.incr(),
        SessionState::Cancelled => SESSIONS_CANCELLED.incr(),
        _ => {}
    }
    if state == SessionState::Cancelled {
        fleet.sessions.remove(&id);
        fleet.ready.retain(|&q| q != id);
        obs::scope::drop_scope(&id.to_string());
        obs::flight::drop_scope(&id.to_string());
        obs::timeline::drop_scope(&id.to_string());
    }
    if let Some(mirror) = mirror {
        // The mirror goes `done` only when no other mirrored session is
        // still active (the daemon's --loop resubmits reuse one board).
        let any_mirrored_active = fleet
            .sessions
            .values()
            .any(|s| s.mirror.is_some() && !s.state.is_terminal());
        if !any_mirrored_active {
            mirror.set_state(if state == SessionState::Failed {
                "failed"
            } else {
                "done"
            });
        }
    }
    admit_pending(shared, fleet);
    fleet.publish_gauges();
}

/// One scheduler worker: pop the longest-waiting ready session, run one
/// step outside the fleet lock, publish its telemetry, re-queue (or
/// finalise) the session. One step is the unit of fairness.
fn worker_loop(shared: &Shared) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // --- Claim one ready session (or wait). ---
        let claimed = {
            let mut fleet = lock(&shared.fleet);
            admit_pending(shared, &mut fleet);
            match fleet.ready.pop_front() {
                Some(id) => {
                    if let Some(session) = fleet.sessions.get_mut(&id) {
                        if session.cancel {
                            finalize(shared, &mut fleet, id, SessionState::Cancelled, None);
                            shared.fleet_changed.notify_all();
                            continue;
                        }
                        let core = session.core.take();
                        let workspace = session.workspace.take();
                        match (core, workspace) {
                            (Some(core), Some(ws)) => {
                                session.stepping = true;
                                let flight = Arc::clone(&session.flight);
                                Some((id, core, ws, session.spec.step_delay_ms, flight))
                            }
                            // Inconsistent entry (should not happen):
                            // drop it from the ring.
                            _ => None,
                        }
                    } else {
                        None
                    }
                }
                None => {
                    let _guard = shared
                        .fleet_changed
                        .wait_timeout(fleet, Duration::from_millis(25))
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    continue;
                }
            }
        };
        let Some((id, mut core, (lease, mut workspace), step_delay_ms, flight)) = claimed else {
            continue;
        };

        // --- Run exactly one step outside the lock. ---
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            core.run_step(&shared.pool, &shared.device, &mut workspace)
        }));
        let step_ns = started.elapsed().as_nanos() as f64;

        match outcome {
            Err(_) => {
                // The step panicked: isolate the session, survive the
                // worker. The workspace may hold arbitrary partial state,
                // so retire the slot's contents via the normal reset.
                let mut summary = None;
                let mut fleet = lock(&shared.fleet);
                if let Some(session) = fleet.sessions.get_mut(&id) {
                    session.stepping = false;
                    session.workspace = Some((lease, workspace));
                    finalize(shared, &mut fleet, id, SessionState::Failed, None);
                    summary = fleet.sessions.get(&id).map(Session::summary_json);
                } else {
                    shared.wpool.release(lease, workspace);
                }
                drop(fleet);
                if shared.health.postmortem {
                    health::write_postmortem("panic", id, summary.as_deref());
                }
                shared.fleet_changed.notify_all();
            }
            Ok(telemetry) => {
                SESSION_STEP_NS.record(step_ns);
                shared.wpool.note_bytes(lease, workspace.bytes_resident());
                // Per-session observability: scoped Prometheus series +
                // scoped timeline history + the session's own event bus.
                // Scope key = decimal id; the timeline mirrors the new
                // cumulative totals so its delta sums stay exact.
                let scope = id.to_string();
                let at = telemetry.step as u64;
                let steps_total = obs::scope::scoped_counter_add(&scope, "session.steps", 1);
                obs::timeline::record_scoped_counter(&scope, "session.steps", at, steps_total);
                let fallback_total = obs::scope::scoped_counter_add(
                    &scope,
                    "session.fallback_cells",
                    telemetry.potentials.fallback_cells as u64,
                );
                obs::timeline::record_scoped_counter(
                    &scope,
                    "session.fallback_cells",
                    at,
                    fallback_total,
                );
                let launches_total = obs::scope::scoped_counter_add(
                    &scope,
                    "session.launches",
                    telemetry.potentials.launches as u64,
                );
                obs::timeline::record_scoped_counter(
                    &scope,
                    "session.launches",
                    at,
                    launches_total,
                );
                obs::scope::scoped_gauge_set(&scope, "session.last_step_ns", step_ns);
                obs::timeline::record_scoped_gauge(&scope, "session.last_step_ns", at, step_ns);
                let mut step_event = FlightEvent::new(EventKind::SessionStep);
                step_event.session = id;
                step_event.step = telemetry.step as u64;
                step_event.value = step_ns;
                step_event.extra = telemetry.potentials.fallback_cells as f64;
                obs::flight::record_scoped(Some(&flight), step_event);

                let event_json = format!(
                    "{{\"session\":{id},\"step\":{},\"gpu_time_s\":{},\"fallback_cells\":{},\
                     \"launches\":{},\"host_step_ns\":{}}}",
                    telemetry.step,
                    {
                        let v = telemetry.potentials.gpu_time.seconds();
                        if v.is_finite() {
                            v
                        } else {
                            0.0
                        }
                    },
                    telemetry.potentials.fallback_cells,
                    telemetry.potentials.launches,
                    step_ns as u64,
                );

                let mut fleet = lock(&shared.fleet);
                let finished = if let Some(session) = fleet.sessions.get_mut(&id) {
                    session.stepping = false;
                    session.steps_done += 1;
                    session.last_progress = Instant::now();
                    session.board.record(&telemetry);
                    if let Some(mirror) = &session.mirror {
                        mirror.record(&telemetry);
                    }
                    session.events.publish(&SessionEvent {
                        session: id,
                        step: telemetry.step,
                        json: event_json,
                    });
                    let done = session.steps_done >= session.steps_total;
                    let cancelled = session.cancel;
                    if done || cancelled {
                        session.workspace = Some((lease, workspace));
                        let state = if cancelled {
                            SessionState::Cancelled
                        } else {
                            SessionState::Done
                        };
                        finalize(shared, &mut fleet, id, state, Some(&core));
                        true
                    } else {
                        session.core = Some(core);
                        session.workspace = Some((lease, workspace));
                        fleet.ready.push_back(id);
                        false
                    }
                } else {
                    // Deleted while stepping and already removed: just
                    // return the slot.
                    shared.wpool.release(lease, workspace);
                    true
                };
                drop(fleet);
                // Fleet-wide SSE: one global flush per session step, so
                // /events keeps streaming under multiplexing too.
                obs::flush_step(telemetry.step);
                if finished {
                    shared.fleet_changed.notify_all();
                }
                if step_delay_ms > 0 {
                    std::thread::sleep(Duration::from_millis(step_delay_ms));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

/// The health-engine thread: evaluates the watchdog rule set every
/// [`HealthConfig::check_interval`] until shutdown. See [`crate::health`]
/// for the rules.
fn watchdog_loop(shared: &Shared) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(shared.health.check_interval);
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        evaluate_health(shared);
    }
}

/// The webhook notifier thread: polls the bounded alert-transition
/// queue each [`HealthConfig::check_interval`] and POSTs every edge to
/// each configured URL. Strictly decoupled from the watchdog — the
/// watchdog only ever pushes to a drop-oldest queue, so slow or dead
/// receivers can never block health evaluation or the hot path.
fn webhook_loop(shared: &Shared) {
    let targets: Vec<(String, String)> = shared
        .health
        .webhooks
        .iter()
        .filter_map(|url| health::parse_webhook_url(url).ok())
        .collect();
    if targets.is_empty() {
        return;
    }
    let abort = || shared.shutdown.load(Ordering::Acquire);
    loop {
        if abort() {
            return;
        }
        std::thread::sleep(shared.health.check_interval);
        for transition in obs::flight::drain_transitions() {
            let payload = health::webhook_payload(&shared.health.rules, &transition);
            for (authority, path) in &targets {
                if abort() {
                    return;
                }
                health::deliver_webhook(authority, path, &payload, &abort);
            }
        }
    }
}

/// One watchdog tick: record a timeline tick, fire newly-violated rules
/// from [`HealthConfig::rules`], resolve no-longer-true ones, and write
/// stall post-mortems (file IO strictly outside the fleet lock).
///
/// The rule set is data ([`health::AlertRules`]); with the built-in
/// default this reproduces the PR 8 hard-coded watchdog exactly — same
/// alert names, severities, thresholds, hysteresis, and flight events.
fn evaluate_health(shared: &Shared) {
    let config = &shared.health;
    // Tick-feed the timeline so history keeps accruing while sessions
    // are stalled — exactly when the rules below need it.
    obs::timeline::record_tick(&obs::snapshot());
    let rules = &config.rules;
    let deadline = health::effective_stall_deadline(config);
    // Stall rules may override the deadline floor per rule.
    let stall_deadlines: Vec<(&health::Rule, Duration)> = rules
        .rules
        .iter()
        .filter_map(|rule| match &rule.kind {
            health::RuleKind::SessionStalled { deadline_ms } => {
                let floor = deadline_ms.map_or(config.stall_deadline, Duration::from_millis);
                Some((rule, health::effective_deadline_for(floor)))
            }
            _ => None,
        })
        .collect();
    let mut stalled_now: Vec<(u64, String)> = Vec::new();

    let (pending_len, exhausted) = {
        let fleet = lock(&shared.fleet);
        for (&id, session) in &fleet.sessions {
            if session.state != SessionState::Running {
                continue;
            }
            let silent = session.last_progress.elapsed();
            for (rule, rule_deadline) in &stall_deadlines {
                if silent <= *rule_deadline {
                    continue;
                }
                let newly = obs::flight::fire_alert(
                    &rule.name,
                    Some(id),
                    rule.severity,
                    format!(
                        "session {id} made no step progress for {:.1}s (deadline {:.1}s)",
                        silent.as_secs_f64(),
                        rule_deadline.as_secs_f64()
                    ),
                );
                if newly {
                    let mut event = FlightEvent::new(EventKind::Watchdog);
                    event.session = id;
                    event.step = session.steps_done as u64;
                    event.code = 1;
                    event.value = silent.as_nanos() as f64;
                    event.extra = rule_deadline.as_nanos() as f64;
                    obs::flight::record_scoped(Some(&session.flight), event);
                    stalled_now.push((id, session.summary_json()));
                }
            }
        }
        let pending_len = fleet.pending.len();
        let exhausted = shared.wpool.in_use() >= shared.wpool.capacity()
            && pending_len > 0
            && fleet.last_admission.elapsed() > deadline;
        (pending_len, exhausted)
    };

    let p99_ms = obs::histogram_snapshot("session.step_ns").map_or(0.0, |h| h.p99()) / 1e6;

    for rule in &rules.rules {
        match &rule.kind {
            // Handled in the fleet pass above (needs per-session state).
            health::RuleKind::SessionStalled { .. } => {}
            // Fired at rejection time by `submit`; the rule governs the
            // alert identity and its resolution below.
            health::RuleKind::AdmissionSaturated => {}
            health::RuleKind::QueueBacklog { fire_fraction, .. } => {
                if pending_len as f64 >= fire_fraction * config.max_pending.max(1) as f64 {
                    let newly = obs::flight::fire_alert(
                        &rule.name,
                        None,
                        rule.severity,
                        format!(
                            "pending queue at {pending_len}/{} ({fire_fraction} bound crossed)",
                            config.max_pending
                        ),
                    );
                    if newly {
                        let mut event = FlightEvent::new(EventKind::Queue);
                        event.value = pending_len as f64;
                        event.extra = config.max_pending as f64;
                        obs::flight::record(event);
                    }
                }
            }
            health::RuleKind::PoolExhausted => {
                if exhausted {
                    let newly = obs::flight::fire_alert(
                        &rule.name,
                        None,
                        rule.severity,
                        format!(
                            "all {} workspace slots leased, {pending_len} waiting, \
                             no admission for {:.1}s",
                            shared.wpool.capacity(),
                            deadline.as_secs_f64()
                        ),
                    );
                    if newly {
                        let mut event = FlightEvent::new(EventKind::Pool);
                        event.value = shared.wpool.in_use() as f64;
                        event.extra = shared.wpool.capacity() as f64;
                        obs::flight::record(event);
                    }
                }
            }
            health::RuleKind::SloStepP99 { budget_ms } => {
                if let Some(budget_ms) = budget_ms.or(config.slo_step_p99_ms) {
                    if p99_ms > budget_ms {
                        obs::flight::fire_alert(
                            &rule.name,
                            None,
                            rule.severity,
                            format!("step p99 {p99_ms:.2}ms over SLO budget {budget_ms:.2}ms"),
                        );
                    }
                }
            }
            health::RuleKind::Metric(m) => {
                if let Some(observed) =
                    obs::timeline::aggregate_value(None, &m.metric, m.window, m.agg)
                {
                    if m.op.holds(observed, m.value) {
                        obs::flight::fire_alert(
                            &rule.name,
                            None,
                            rule.severity,
                            format!(
                                "{}({}, window {}) = {observed} {} {}",
                                m.agg.name(),
                                m.metric,
                                m.window,
                                m.op.name(),
                                m.value
                            ),
                        );
                    }
                }
            }
        }
    }

    // Resolution pass: stateless — scan what fires and retract anything
    // whose governing rule no longer holds. Alerts without a rule (fired
    // by other components or tests) are left alone.
    for alert in obs::flight::firing_alerts() {
        let Some(rule) = rules.rule(&alert.name) else {
            continue;
        };
        let resolve = match &rule.kind {
            health::RuleKind::SessionStalled { .. } => {
                let rule_deadline = stall_deadlines
                    .iter()
                    .find(|(r, _)| r.name == alert.name)
                    .map_or(deadline, |(_, d)| *d);
                match alert.session {
                    Some(id) => {
                        let fleet = lock(&shared.fleet);
                        fleet.sessions.get(&id).is_none_or(|s| {
                            s.state != SessionState::Running
                                || s.last_progress.elapsed() <= rule_deadline
                        })
                    }
                    None => true,
                }
            }
            health::RuleKind::QueueBacklog {
                resolve_fraction, ..
            } => pending_len as f64 <= resolve_fraction * config.max_pending as f64,
            health::RuleKind::AdmissionSaturated => pending_len < config.max_pending,
            health::RuleKind::PoolExhausted => !exhausted,
            health::RuleKind::SloStepP99 { budget_ms } => budget_ms
                .or(config.slo_step_p99_ms)
                .is_none_or(|budget| p99_ms <= budget),
            health::RuleKind::Metric(m) => {
                match obs::timeline::aggregate_value(None, &m.metric, m.window, m.agg) {
                    // No history left to confirm the condition: resolve.
                    None => true,
                    Some(observed) => !m.op.holds(observed, m.resolve_value),
                }
            }
        };
        if resolve
            && obs::flight::resolve_alert(&alert.name, alert.session)
            && matches!(rule.kind, health::RuleKind::SessionStalled { .. })
        {
            let mut event = FlightEvent::new(EventKind::Watchdog);
            event.session = alert.session.unwrap_or(0);
            event.code = 0;
            obs::flight::record(event);
        }
    }

    if config.postmortem {
        for (id, summary) in stalled_now {
            health::write_postmortem("stall", id, Some(&summary));
        }
    }
}
