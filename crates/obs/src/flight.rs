//! The black-box flight recorder and the typed alert registry.
//!
//! Production PIC services need to explain an unhealthy moment *after* it
//! happened — a stalled tenant, a predictor that quietly degraded into
//! wall-to-wall fallback, a pool that stopped admitting. Metrics answer
//! "how much"; this module answers "what happened, in what order", at a
//! cost low enough to leave on permanently:
//!
//! * **[`FlightRing`]** — a bounded, lock-free, drop-oldest ring of
//!   fixed-size [`FlightEvent`] records. Writers claim a sequence number
//!   with one `fetch_add`, then publish into the slot `seq % capacity`
//!   under a per-slot seqlock; no allocation, no mutex, and a writer never
//!   blocks on a reader. When the ring laps, the oldest event is
//!   overwritten and `flight.events_dropped` counts it — the same
//!   drop-oldest discipline the [`Broadcast`](crate::Broadcast) event bus
//!   applies, with the same exactness guarantee: after writers quiesce the
//!   ring retains precisely the `capacity` highest sequence numbers and
//!   `dropped == recorded - retained` (pinned by a proptest under
//!   concurrent writers).
//! * **One global ring + per-session rings** — the process ring records
//!   everything; sessions additionally get their own ring keyed by the
//!   same decimal-id scope string [`crate::scope`] uses, registered at
//!   submit and dropped at delete so memory tracks live tenants.
//! * **Typed alerts** — [`fire_alert`] / [`resolve_alert`] maintain the
//!   firing set with a bounded resolved history. `/healthz` degrades while
//!   [`any_critical_firing`], `/alerts` serves [`alerts_json`], and
//!   Prometheus exposition carries a `beamdyn_alerts_firing` family with
//!   `alert` / `severity` / `session` labels.
//!
//! Everything here resets with [`crate::reset`] (test isolation), like the
//! rest of the registry.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, OnceLock};
use std::time::Instant;

use crate::{Counter, Gauge};

/// Events accepted by [`record`] / [`FlightRing::record`] (global ring).
static EVENTS_RECORDED: Counter = Counter::new("flight.events_recorded");
/// Events overwritten (drop-oldest) in the global ring.
static EVENTS_DROPPED: Counter = Counter::new("flight.events_dropped");
/// Alert firings (each firing-edge, not each evaluation).
static ALERTS_FIRED: Counter = Counter::new("alerts.fired");
/// Alerts currently firing.
static ALERTS_ACTIVE: Gauge = Gauge::new("alerts.active");
/// Critical alerts currently firing (`/healthz` degrades while > 0).
static ALERTS_ACTIVE_CRITICAL: Gauge = Gauge::new("alerts.active_critical");

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Nanoseconds since the process flight epoch (first use).
pub fn now_ns() -> u64 {
    static EPOCH: LazyLock<Instant> = LazyLock::new(Instant::now);
    EPOCH.elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What a [`FlightEvent`] describes. The payload fields (`code`, `value`,
/// `extra`) are kind-specific; the table below is the wire contract the
/// `/debug/flight` dumps follow.
///
/// | kind          | code                  | value                 | extra            |
/// |---------------|-----------------------|-----------------------|------------------|
/// | `Step`        | launches              | host step ns          | fallback cells   |
/// | `Grade`       | launches              | fallback fraction     | fallback cells   |
/// | `SessionStep` | 0                     | host step ns          | fallback cells   |
/// | `Lifecycle`   | state (0=queued, 1=running, 2=done, 3=cancelled, 4=failed) | — | — |
/// | `Queue`       | 0                     | pending depth         | max pending      |
/// | `Pool`        | 0                     | slots in use          | slot count       |
/// | `Watchdog`    | 1=stalled, 0=recovered| silent ns             | deadline ns      |
/// | `Alert`       | severity (1=warning, 2=critical) | 1=firing, 0=resolved | — |
/// | `Admission`   | 0                     | pending depth         | max pending      |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A driver step completed (single- or multi-tenant).
    Step = 0,
    /// A kernel plan/observe grade (prediction health).
    Grade = 1,
    /// A multiplexed session step completed.
    SessionStep = 2,
    /// A session lifecycle transition.
    Lifecycle = 3,
    /// Pending-queue depth observation.
    Queue = 4,
    /// Workspace-pool pressure observation.
    Pool = 5,
    /// A watchdog verdict (stall / recovery).
    Watchdog = 6,
    /// An alert firing or resolving.
    Alert = 7,
    /// An admission decision (back-pressure rejection).
    Admission = 8,
}

impl EventKind {
    /// Lower-case wire name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Step => "step",
            Self::Grade => "grade",
            Self::SessionStep => "session_step",
            Self::Lifecycle => "lifecycle",
            Self::Queue => "queue",
            Self::Pool => "pool",
            Self::Watchdog => "watchdog",
            Self::Alert => "alert",
            Self::Admission => "admission",
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            1 => Self::Grade,
            2 => Self::SessionStep,
            3 => Self::Lifecycle,
            4 => Self::Queue,
            5 => Self::Pool,
            6 => Self::Watchdog,
            7 => Self::Alert,
            8 => Self::Admission,
            _ => Self::Step,
        }
    }
}

/// One fixed-size flight record. No strings, no heap — the whole event is
/// seven words, so recording is a handful of atomic stores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEvent {
    /// What happened.
    pub kind: EventKind,
    /// Owning session id (0 = fleet/process scope).
    pub session: u64,
    /// Step index where meaningful (0 otherwise).
    pub step: u64,
    /// Kind-specific discriminant (see [`EventKind`] table).
    pub code: u32,
    /// Kind-specific primary payload.
    pub value: f64,
    /// Kind-specific secondary payload.
    pub extra: f64,
    /// Nanoseconds since the process flight epoch, stamped by [`record`].
    pub at_ns: u64,
}

impl FlightEvent {
    /// A zeroed event of `kind` — fill the payload fields that apply.
    pub fn new(kind: EventKind) -> Self {
        Self {
            kind,
            session: 0,
            step: 0,
            code: 0,
            value: 0.0,
            extra: 0.0,
            at_ns: 0,
        }
    }

    /// Renders the event (with its ring sequence number) as one JSON
    /// object — the `/debug/flight` dump line format.
    pub fn to_json(&self, seq: u64) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        };
        format!(
            "{{\"seq\":{seq},\"at_ns\":{},\"kind\":\"{}\",\"session\":{},\"step\":{},\
             \"code\":{},\"value\":{},\"extra\":{}}}",
            self.at_ns,
            self.kind.name(),
            self.session,
            self.step,
            self.code,
            num(self.value),
            num(self.extra),
        )
    }
}

/// One retained event with its ring sequence number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequencedEvent {
    /// Global-per-ring monotonically increasing sequence number.
    pub seq: u64,
    /// The record.
    pub event: FlightEvent,
}

// ---------------------------------------------------------------------------
// The ring
// ---------------------------------------------------------------------------

/// Per-slot seqlock state encoding: `0` = empty, `2 * seq + 1` = a writer
/// is publishing `seq`, `2 * seq + 2` = stable, holding `seq`. Values grow
/// monotonically, so a lapped (slower, lower-seq) writer detects that a
/// newer event already owns the slot and abandons — the ring always
/// converges to the highest sequence numbers.
struct Slot {
    state: AtomicU64,
    kind: AtomicU64,
    session: AtomicU64,
    step: AtomicU64,
    code: AtomicU64,
    value_bits: AtomicU64,
    extra_bits: AtomicU64,
    at_ns: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Self {
            state: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            session: AtomicU64::new(0),
            step: AtomicU64::new(0),
            code: AtomicU64::new(0),
            value_bits: AtomicU64::new(0),
            extra_bits: AtomicU64::new(0),
            at_ns: AtomicU64::new(0),
        }
    }

    /// Publishes `event` as `seq`. Returns `false` when a newer event
    /// already owns (or is claiming) the slot — the caller's event is one
    /// of the dropped ones.
    fn write(&self, seq: u64, event: &FlightEvent) -> bool {
        let stable = 2 * seq + 2;
        loop {
            let cur = self.state.load(Ordering::Acquire);
            if cur >= stable {
                // A later lap already published (or is publishing) here.
                return false;
            }
            if cur & 1 == 1 {
                // An older writer is mid-publish; it finishes in a few
                // stores — spin, then take the slot over.
                std::hint::spin_loop();
                continue;
            }
            if self
                .state
                .compare_exchange_weak(cur, 2 * seq + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
        }
        self.kind.store(event.kind as u8 as u64, Ordering::Relaxed);
        self.session.store(event.session, Ordering::Relaxed);
        self.step.store(event.step, Ordering::Relaxed);
        self.code.store(u64::from(event.code), Ordering::Relaxed);
        self.value_bits
            .store(event.value.to_bits(), Ordering::Relaxed);
        self.extra_bits
            .store(event.extra.to_bits(), Ordering::Relaxed);
        self.at_ns.store(event.at_ns, Ordering::Relaxed);
        self.state.store(stable, Ordering::Release);
        true
    }

    /// Seqlock read: version, payload, fence, version again. A torn read
    /// (writer landed mid-copy) retries; a slot that stays contended is
    /// skipped — this is a diagnostic dump, not a consistency barrier.
    fn read(&self) -> Option<SequencedEvent> {
        for _ in 0..64 {
            let v1 = self.state.load(Ordering::Acquire);
            if v1 == 0 {
                return None;
            }
            if v1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let event = FlightEvent {
                kind: EventKind::from_u8(self.kind.load(Ordering::Relaxed) as u8),
                session: self.session.load(Ordering::Relaxed),
                step: self.step.load(Ordering::Relaxed),
                code: self.code.load(Ordering::Relaxed) as u32,
                value: f64::from_bits(self.value_bits.load(Ordering::Relaxed)),
                extra: f64::from_bits(self.extra_bits.load(Ordering::Relaxed)),
                at_ns: self.at_ns.load(Ordering::Relaxed),
            };
            fence(Ordering::Acquire);
            if self.state.load(Ordering::Relaxed) == v1 {
                return Some(SequencedEvent {
                    seq: v1 / 2 - 1,
                    event,
                });
            }
        }
        None
    }

    fn clear(&self) {
        self.state.store(0, Ordering::Release);
    }
}

/// A bounded, lock-free, drop-oldest ring of [`FlightEvent`]s.
///
/// `record` costs one `fetch_add` plus eight atomic stores; it never
/// allocates and never blocks. `snapshot` walks the slots with seqlock
/// reads and returns the retained events sorted by sequence number.
pub struct FlightRing {
    slots: Box<[Slot]>,
    /// Next sequence number to assign == total events ever recorded.
    head: AtomicU64,
    /// Events overwritten by the drop-oldest discipline.
    dropped: AtomicU64,
}

impl FlightRing {
    /// Creates a ring of `capacity` slots (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events ever recorded (accepted sequence numbers).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events overwritten (drop-oldest). After writers quiesce this is
    /// exactly `recorded().saturating_sub(capacity)`.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
    }

    /// Records one event; returns its sequence number and whether the
    /// write displaced an older event.
    pub fn record(&self, event: &FlightEvent) -> (u64, bool) {
        let seq = self.head.fetch_add(1, Ordering::AcqRel);
        let cap = self.slots.len() as u64;
        let displaced = seq >= cap;
        if displaced {
            self.dropped.fetch_add(1, Ordering::AcqRel);
        }
        self.slots[(seq % cap) as usize].write(seq, event);
        (seq, displaced)
    }

    /// The retained events, oldest first (sorted by sequence number).
    pub fn snapshot(&self) -> Vec<SequencedEvent> {
        let mut events: Vec<SequencedEvent> = self.slots.iter().filter_map(Slot::read).collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Renders the ring as the `/debug/flight` JSON document, labelled
    /// `ring` (`"global"` or a session id).
    pub fn to_json(&self, ring: &str) -> String {
        let events = self.snapshot();
        let mut out = String::with_capacity(64 + events.len() * 96);
        let _ = write!(
            out,
            "{{\"ring\":\"{}\",\"capacity\":{},\"recorded\":{},\"dropped\":{},\"events\":[",
            json_escape(ring),
            self.capacity(),
            self.recorded(),
            self.dropped(),
        );
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.event.to_json(e.seq));
        }
        out.push_str("]}");
        out
    }

    /// Empties the ring (test isolation; not safe against racing writers).
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            slot.clear();
        }
        self.head.store(0, Ordering::Release);
        self.dropped.store(0, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Global + per-session rings
// ---------------------------------------------------------------------------

/// Default capacity of the process-global ring.
pub const DEFAULT_GLOBAL_CAPACITY: usize = 2048;
/// Default capacity of each per-session ring.
pub const DEFAULT_SESSION_CAPACITY: usize = 256;

static GLOBAL_CAPACITY: AtomicU64 = AtomicU64::new(DEFAULT_GLOBAL_CAPACITY as u64);
static GLOBAL: OnceLock<FlightRing> = OnceLock::new();

static SESSION_RINGS: LazyLock<Mutex<BTreeMap<String, Arc<FlightRing>>>> =
    LazyLock::new(|| Mutex::new(BTreeMap::new()));

/// Sets the global ring's capacity. Effective only before the first
/// [`record`] builds the ring (the daemon calls this at startup); returns
/// whether the setting took effect.
pub fn configure_global_capacity(capacity: usize) -> bool {
    GLOBAL_CAPACITY.store(capacity.max(1) as u64, Ordering::Release);
    GLOBAL.get().is_none()
}

/// The process-global ring.
pub fn global() -> &'static FlightRing {
    GLOBAL
        .get_or_init(|| FlightRing::with_capacity(GLOBAL_CAPACITY.load(Ordering::Acquire) as usize))
}

/// Records `event` into the global ring (stamping `at_ns`); returns its
/// sequence number. This is the hot-path entry: no allocation, no lock.
pub fn record(event: FlightEvent) -> u64 {
    record_scoped(None, event)
}

/// [`record`], additionally copying the event into a session's own ring —
/// the caller holds the [`Arc`] from [`register_scope`], so the per-step
/// hot path never touches the scope map.
pub fn record_scoped(session_ring: Option<&FlightRing>, mut event: FlightEvent) -> u64 {
    event.at_ns = now_ns();
    EVENTS_RECORDED.incr();
    let (seq, displaced) = global().record(&event);
    if displaced {
        EVENTS_DROPPED.incr();
    }
    if let Some(ring) = session_ring {
        ring.record(&event);
    }
    seq
}

/// Creates (or returns) the per-session ring of `scope` — keyed by the
/// same decimal-session-id string [`crate::scope`] uses.
pub fn register_scope(scope: &str, capacity: usize) -> Arc<FlightRing> {
    let mut rings = lock(&SESSION_RINGS);
    Arc::clone(
        rings
            .entry(scope.to_owned())
            .or_insert_with(|| Arc::new(FlightRing::with_capacity(capacity))),
    )
}

/// The per-session ring of `scope`, if registered.
pub fn scope_ring(scope: &str) -> Option<Arc<FlightRing>> {
    lock(&SESSION_RINGS).get(scope).map(Arc::clone)
}

/// Drops a session's ring (call at delete, with
/// [`crate::scope::drop_scope`]); returns whether it existed.
pub fn drop_scope(scope: &str) -> bool {
    lock(&SESSION_RINGS).remove(scope).is_some()
}

/// Number of live per-session rings.
pub fn scope_count() -> usize {
    lock(&SESSION_RINGS).len()
}

// ---------------------------------------------------------------------------
// Alerts
// ---------------------------------------------------------------------------

/// How bad a firing alert is. `/healthz` degrades to 503 only while a
/// [`AlertSeverity::Critical`] alert fires; warnings surface through
/// `/alerts` and the `beamdyn_alerts_firing` family without failing
/// health.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertSeverity {
    /// Degraded but serving.
    Warning,
    /// The fleet (or a tenant) needs intervention.
    Critical,
}

impl AlertSeverity {
    /// Lower-case wire name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Warning => "warning",
            Self::Critical => "critical",
        }
    }

    fn code(self) -> u32 {
        match self {
            Self::Warning => 1,
            Self::Critical => 2,
        }
    }
}

/// One typed alert with its firing/resolved lifecycle. Keyed by
/// `(name, session)`: re-firing an already-firing key is a no-op (the
/// original `fired_at_ns` stands); resolving moves it into the bounded
/// resolved history.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Dotted rule name, e.g. `watchdog.session_stalled`.
    pub name: String,
    /// Affected session (`None` = fleet-wide).
    pub session: Option<u64>,
    /// Severity class.
    pub severity: AlertSeverity,
    /// Human-readable cause, set at firing time.
    pub message: String,
    /// When the alert fired (flight-epoch ns).
    pub fired_at_ns: u64,
    /// When it resolved (`None` while firing).
    pub resolved_at_ns: Option<u64>,
}

impl Alert {
    /// Renders one alert as a JSON object.
    pub fn to_json(&self) -> String {
        let session = self.session.map_or("null".to_string(), |id| id.to_string());
        let resolved = self
            .resolved_at_ns
            .map_or("null".to_string(), |ns| ns.to_string());
        format!(
            "{{\"name\":\"{}\",\"severity\":\"{}\",\"session\":{session},\
             \"message\":\"{}\",\"fired_at_ns\":{},\"resolved_at_ns\":{resolved}}}",
            json_escape(&self.name),
            self.severity.name(),
            json_escape(&self.message),
            self.fired_at_ns,
        )
    }
}

/// How many resolved alerts the history retains (drop-oldest).
const RESOLVED_HISTORY: usize = 64;

#[derive(Default)]
struct AlertRegistry {
    firing: BTreeMap<(String, Option<u64>), Alert>,
    resolved: VecDeque<Alert>,
}

static ALERTS: LazyLock<Mutex<AlertRegistry>> =
    LazyLock::new(|| Mutex::new(AlertRegistry::default()));

/// One firing or resolving alert edge, queued for push notifiers.
#[derive(Debug, Clone)]
pub struct AlertTransition {
    /// Monotone sequence number (gaps reveal dropped transitions).
    pub seq: u64,
    /// `true` on the firing edge, `false` on resolution.
    pub firing: bool,
    /// The alert as of the edge.
    pub alert: Alert,
}

/// Bound of the pending-transition queue (drop-oldest beyond it) — the
/// watchdog only ever pushes here, so a slow or absent consumer can
/// never block alert evaluation.
const TRANSITION_CAPACITY: usize = 256;

#[derive(Default)]
struct TransitionLog {
    queue: VecDeque<AlertTransition>,
    next_seq: u64,
    dropped: u64,
}

static TRANSITIONS: LazyLock<Mutex<TransitionLog>> =
    LazyLock::new(|| Mutex::new(TransitionLog::default()));

fn push_transition(firing: bool, alert: Alert) {
    let mut log = lock(&TRANSITIONS);
    let seq = log.next_seq;
    log.next_seq += 1;
    if log.queue.len() >= TRANSITION_CAPACITY {
        log.queue.pop_front();
        log.dropped += 1;
    }
    log.queue.push_back(AlertTransition { seq, firing, alert });
}

/// Takes every queued alert transition, oldest first (the webhook
/// notifier's poll). Non-destructive observers should use
/// [`firing_alerts`] instead.
pub fn drain_transitions() -> Vec<AlertTransition> {
    lock(&TRANSITIONS).queue.drain(..).collect()
}

/// Number of transitions evicted before any consumer drained them.
pub fn transitions_dropped() -> u64 {
    lock(&TRANSITIONS).dropped
}

fn publish_alert_gauges(reg: &AlertRegistry) {
    ALERTS_ACTIVE.set(reg.firing.len() as f64);
    ALERTS_ACTIVE_CRITICAL.set(
        reg.firing
            .values()
            .filter(|a| a.severity == AlertSeverity::Critical)
            .count() as f64,
    );
}

/// Fires (or keeps firing) the `(name, session)` alert. Returns `true` on
/// the firing edge — the first call for a not-currently-firing key — which
/// is when callers emit side effects (post-mortem dumps, logs). Also
/// records an [`EventKind::Alert`] flight event on that edge.
pub fn fire_alert(
    name: &str,
    session: Option<u64>,
    severity: AlertSeverity,
    message: impl Into<String>,
) -> bool {
    let newly = {
        let mut reg = lock(&ALERTS);
        let key = (name.to_owned(), session);
        if let std::collections::btree_map::Entry::Vacant(slot) = reg.firing.entry(key) {
            let alert = Alert {
                name: name.to_owned(),
                session,
                severity,
                message: message.into(),
                fired_at_ns: now_ns(),
                resolved_at_ns: None,
            };
            slot.insert(alert.clone());
            publish_alert_gauges(&reg);
            Some(alert)
        } else {
            None
        }
    };
    match newly {
        Some(alert) => {
            ALERTS_FIRED.incr();
            let mut event = FlightEvent::new(EventKind::Alert);
            event.session = session.unwrap_or(0);
            event.code = severity.code();
            event.value = 1.0;
            record(event);
            push_transition(true, alert);
            true
        }
        None => false,
    }
}

/// Resolves the `(name, session)` alert, moving it into the bounded
/// resolved history; returns whether it was firing. Records an
/// [`EventKind::Alert`] flight event on the resolving edge.
pub fn resolve_alert(name: &str, session: Option<u64>) -> bool {
    let resolved = {
        let mut reg = lock(&ALERTS);
        let key = (name.to_owned(), session);
        match reg.firing.remove(&key) {
            None => None,
            Some(mut alert) => {
                alert.resolved_at_ns = Some(now_ns());
                if reg.resolved.len() >= RESOLVED_HISTORY {
                    reg.resolved.pop_front();
                }
                reg.resolved.push_back(alert.clone());
                publish_alert_gauges(&reg);
                Some(alert)
            }
        }
    };
    match resolved {
        None => false,
        Some(alert) => {
            let mut event = FlightEvent::new(EventKind::Alert);
            event.session = session.unwrap_or(0);
            event.code = alert.severity.code();
            event.value = 0.0;
            record(event);
            push_transition(false, alert);
            true
        }
    }
}

/// The currently-firing alerts, sorted by key.
pub fn firing_alerts() -> Vec<Alert> {
    lock(&ALERTS).firing.values().cloned().collect()
}

/// Whether the `(name, session)` alert currently fires.
pub fn alert_firing(name: &str, session: Option<u64>) -> bool {
    lock(&ALERTS)
        .firing
        .contains_key(&(name.to_owned(), session))
}

/// True while any [`AlertSeverity::Critical`] alert fires — the `/healthz`
/// degradation condition.
pub fn any_critical_firing() -> bool {
    lock(&ALERTS)
        .firing
        .values()
        .any(|a| a.severity == AlertSeverity::Critical)
}

/// The `/alerts` JSON document: the firing set, the bounded resolved
/// history (newest last), and rollup counts.
pub fn alerts_json() -> String {
    let reg = lock(&ALERTS);
    let firing: Vec<String> = reg.firing.values().map(Alert::to_json).collect();
    let resolved: Vec<String> = reg.resolved.iter().map(Alert::to_json).collect();
    let critical = reg
        .firing
        .values()
        .filter(|a| a.severity == AlertSeverity::Critical)
        .count();
    format!(
        "{{\"healthy\":{},\"counts\":{{\"firing\":{},\"critical\":{},\"resolved\":{}}},\
         \"firing\":[{}],\"resolved\":[{}]}}",
        critical == 0,
        reg.firing.len(),
        critical,
        reg.resolved.len(),
        firing.join(","),
        resolved.join(","),
    )
}

/// Renders the `beamdyn_alerts_firing` exposition family (empty string
/// when nothing fires). Called by
/// [`prometheus::render_current`](crate::prometheus::render_current).
pub(crate) fn render_alert_family() -> String {
    let firing = firing_alerts();
    if firing.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# HELP beamdyn_alerts_firing Firing alerts (1 per alert/session pair)."
    );
    let _ = writeln!(out, "# TYPE beamdyn_alerts_firing gauge");
    for alert in firing {
        let session = alert
            .session
            .map_or(String::new(), |id| format!(",session=\"{id}\""));
        let _ = writeln!(
            out,
            "beamdyn_alerts_firing{{alert=\"{}\",severity=\"{}\"{session}}} 1",
            crate::prometheus::escape_label_value(&alert.name),
            alert.severity.name(),
        );
    }
    out
}

/// Clears the global ring, every session ring, and the alert registry
/// (test isolation; wired into [`crate::reset`]).
pub(crate) fn reset_all() {
    if let Some(ring) = GLOBAL.get() {
        ring.clear();
    }
    lock(&SESSION_RINGS).clear();
    let mut reg = lock(&ALERTS);
    reg.firing.clear();
    reg.resolved.clear();
    publish_alert_gauges(&reg);
    drop(reg);
    let mut log = lock(&TRANSITIONS);
    log.queue.clear();
    log.dropped = 0;
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_retains_newest_and_counts_drops_exactly() {
        let ring = FlightRing::with_capacity(4);
        for i in 0..10u64 {
            let mut e = FlightEvent::new(EventKind::Step);
            e.step = i;
            ring.record(&e);
        }
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 6);
        let seqs: Vec<u64> = ring.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_under_capacity_drops_nothing() {
        let ring = FlightRing::with_capacity(8);
        for _ in 0..5 {
            ring.record(&FlightEvent::new(EventKind::Grade));
        }
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.snapshot().len(), 5);
    }

    #[test]
    fn event_json_is_well_formed() {
        let mut e = FlightEvent::new(EventKind::SessionStep);
        e.session = 3;
        e.step = 7;
        e.value = 1.5;
        let json = e.to_json(42);
        assert!(json.contains("\"seq\":42"), "{json}");
        assert!(json.contains("\"kind\":\"session_step\""), "{json}");
        assert!(json.contains("\"session\":3"), "{json}");
        assert!(json.contains("\"value\":1.5"), "{json}");
    }

    #[test]
    fn alert_lifecycle_fires_once_and_resolves() {
        let _gate = crate::tests::serial();
        crate::reset();
        assert!(fire_alert(
            "test.lifecycle",
            Some(9),
            AlertSeverity::Critical,
            "m"
        ));
        assert!(
            !fire_alert("test.lifecycle", Some(9), AlertSeverity::Critical, "m"),
            "re-firing a firing key must not edge"
        );
        assert!(any_critical_firing());
        assert!(alert_firing("test.lifecycle", Some(9)));
        assert!(resolve_alert("test.lifecycle", Some(9)));
        assert!(!resolve_alert("test.lifecycle", Some(9)));
        assert!(!any_critical_firing());
        let json = alerts_json();
        assert!(json.contains("\"healthy\":true"), "{json}");
        assert!(json.contains("\"resolved_at_ns\":"), "{json}");
        crate::reset();
    }

    #[test]
    fn ring_json_shape() {
        let ring = FlightRing::with_capacity(2);
        ring.record(&FlightEvent::new(EventKind::Queue));
        let json = ring.to_json("global");
        assert!(json.starts_with("{\"ring\":\"global\""), "{json}");
        assert!(json.contains("\"capacity\":2"), "{json}");
        assert!(json.contains("\"events\":[{"), "{json}");
    }
}
