//! The HTTP/1.1 monitor + session server.
//!
//! Deliberately minimal: `GET`/`POST`/`DELETE`, `Connection: close`,
//! bodies read only when `Content-Length` says so (capped at 1 MiB), the
//! request head capped at 100 lines / 16 KiB, the whole request at 5 s.
//! That subset is exactly what Prometheus scrapers, `curl`, and
//! `EventSource` clients need, and it keeps the server free of any
//! dependency beyond `std::net` and the workspace's own thread pool
//! (plus the in-repo `bench::json` parser for scenario bodies).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use beamdyn_core::scenario::SpecError;
use beamdyn_core::{SessionManager, StatusBoard, SubmitError};
use beamdyn_obs::{self as obs, flight, prometheus, timeline, BroadcastSink, Recv};
use beamdyn_par::ThreadPool;

use crate::spec::parse_scenario;

/// How the monitor binds and sizes itself.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`MonitorServer::addr`]).
    pub addr: String,
    /// Connection-handling pool width. Each `/events` stream occupies one
    /// worker for the lifetime of the connection, so this bounds the number
    /// of concurrent live streams plus in-flight scrapes.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
        }
    }
}

/// What the endpoints serve from: the driver's status mailbox, the step
/// event bus, the readiness flag the run loop flips once it is up, and —
/// when the host embeds one — the multi-tenant session manager.
#[derive(Clone)]
pub struct ServeContext {
    /// `/status` source.
    pub status: Arc<StatusBoard>,
    /// `/events` source: each connection takes one subscription.
    pub events: Arc<BroadcastSink>,
    /// `/readyz` turns 200 once this is set.
    pub ready: Arc<AtomicBool>,
    /// `/sessions` backend. `None` makes every session route answer 503 —
    /// embeddings that only monitor a single fixed run stay valid.
    pub sessions: Option<Arc<SessionManager>>,
}

/// Connections handled, whatever their outcome (a malformed request
/// counts; the shutdown wake-up connection does not).
static HTTP_REQUESTS: obs::Counter = obs::Counter::new("http.requests");
/// Nanoseconds from accepted connection to handler return. An SSE stream
/// is one request, recorded when the stream ends.
static HTTP_REQUEST_NS: obs::Histogram = obs::Histogram::new("http.request_ns");

struct Flags {
    /// Stops the accept loop and every streaming handler.
    stop: AtomicBool,
    /// Set by `GET /quitz`; the hosting run loop parks on `quit_signal`
    /// ([`MonitorServer::wait_quit`]).
    quit_requested: Mutex<bool>,
    quit_signal: Condvar,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A running monitor. Dropping the handle stops the server; prefer an
/// explicit [`MonitorServer::shutdown`] + [`MonitorServer::join`] for a
/// deterministic teardown.
pub struct MonitorServer {
    addr: SocketAddr,
    flags: Arc<Flags>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl MonitorServer {
    /// Binds `config.addr` and starts serving `ctx` in the background.
    pub fn start(config: ServeConfig, ctx: ServeContext) -> std::io::Result<Self> {
        let addr = config
            .addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("bind address resolved to nothing"))?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let flags = Arc::new(Flags {
            stop: AtomicBool::new(false),
            quit_requested: Mutex::new(false),
            quit_signal: Condvar::new(),
        });
        let loop_flags = Arc::clone(&flags);
        let workers = config.workers.max(1);
        let accept_thread = std::thread::Builder::new()
            .name("beamdyn-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, workers, &ctx, &loop_flags))?;
        Ok(Self {
            addr,
            flags,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Convenience: `http://host:port`.
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// True once a client has hit `GET /quitz`. The hosting run loop
    /// winds down at its own pace — the server keeps answering (`/status`
    /// reports the draining state) until [`MonitorServer::shutdown`].
    pub fn quit_requested(&self) -> bool {
        *lock(&self.flags.quit_requested)
    }

    /// Parks until a client hits `GET /quitz` or `timeout` passes; returns
    /// [`MonitorServer::quit_requested`]. `/quitz` wakes the wait at once.
    pub fn wait_quit(&self, timeout: Duration) -> bool {
        let (quit, _timed_out) = self
            .flags
            .quit_signal
            .wait_timeout_while(lock(&self.flags.quit_requested), timeout, |quit| !*quit)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *quit
    }

    /// Asks the accept loop and all streaming handlers to stop.
    pub fn shutdown(&self) {
        if self.flags.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // The accept loop blocks in `accept()`: one loopback connection to
        // our own port wakes it, it sees the flag and drops the connection.
        // A wildcard bind address is not connectable; its loopback is.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }

    /// [`MonitorServer::shutdown`] + wait for the accept loop (and its
    /// connection pool) to finish.
    pub fn join(mut self) {
        self.shutdown();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MonitorServer {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Keep-alive cadence of an idle SSE stream: how long an `/events` writer
/// waits before emitting an SSE comment (which is also how it notices a
/// client that went away, or the server stopping). On no latency path —
/// events and end-of-stream wake the writer at once.
const EVENT_TICK: Duration = Duration::from_millis(200);
/// Largest request body the server reads. A scenario spec is a few hundred
/// bytes; anything past this is a client error, answered 413.
const MAX_BODY: usize = 1 << 20;
/// Bounds on the request head (request line + headers), answered 431 when
/// exceeded: a client cannot hold a connection worker by sending headers
/// forever.
const MAX_HEADER_LINES: usize = 100;
const MAX_HEADER_BYTES: u64 = 16 << 10;
/// The whole request (head and body) must arrive within this, however the
/// client paces its bytes.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

fn accept_loop(listener: &TcpListener, workers: usize, ctx: &ServeContext, flags: &Arc<Flags>) {
    // Job-per-connection on the workspace's own pool (DESIGN.md §11);
    // dropping the pool at the end of this function joins the workers, so
    // `MonitorServer::join` returns only after every handler finished.
    let pool = ThreadPool::new(workers);
    loop {
        let accepted = listener.accept();
        // Checked after every return of the blocking `accept`: the
        // connection that woke us for shutdown is dropped unanswered.
        if flags.stop.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let ctx = ctx.clone();
                let flags = Arc::clone(flags);
                pool.execute(move || handle_connection(stream, &ctx, &flags));
            }
            // A persistent failure (out of descriptors) must not spin.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// One parsed request: method, path, and the body (empty unless the client
/// sent `Content-Length`).
struct Request {
    method: String,
    path: String,
    body: String,
}

enum ReadOutcome {
    Ok(Request),
    /// `Content-Length` exceeded [`MAX_BODY`]; answer 413.
    TooLarge,
    /// The head exceeded [`MAX_HEADER_LINES`] or [`MAX_HEADER_BYTES`];
    /// answer 431.
    HeadTooLarge,
}

/// The socket read against a deadline: each read's timeout is what is left
/// of it, so dripping a byte at a time cannot stretch a request past it
/// (a plain per-read timeout restarts with every byte).
struct UntilDeadline<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for UntilDeadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Parses one HTTP request: request line, headers (only `Content-Length`
/// matters), then exactly that many body bytes.
fn read_request(stream: &TcpStream) -> std::io::Result<ReadOutcome> {
    let mut reader = BufReader::with_capacity(
        2048,
        UntilDeadline {
            stream,
            deadline: Instant::now() + REQUEST_DEADLINE,
        },
    );
    // The whole head is read through one byte budget, so neither many
    // lines nor one endless line can grow past it.
    let mut head = reader.by_ref().take(MAX_HEADER_BYTES);
    let mut request_line = String::new();
    head.read_line(&mut request_line)?;
    let mut content_length: usize = 0;
    let mut lines = 0;
    loop {
        let mut line = String::new();
        if head.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        lines += 1;
        if lines > MAX_HEADER_LINES || !line.ends_with('\n') {
            return Ok(head_too_large(reader));
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    if head.limit() == 0 {
        // Budget spent exactly at a line end, or inside the request line.
        return Ok(head_too_large(reader));
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return Err(std::io::Error::other("malformed request line"));
    }
    if content_length > MAX_BODY {
        // Drain (bounded) what the client already committed to sending, so
        // it can finish writing and read the 413 instead of hitting a
        // reset pipe.
        let drain = content_length.min(8 * MAX_BODY) as u64;
        let _ = std::io::copy(&mut reader.take(drain), &mut std::io::sink());
        return Ok(ReadOutcome::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body)?;
    }
    let body =
        String::from_utf8(body).map_err(|_| std::io::Error::other("request body is not UTF-8"))?;
    Ok(ReadOutcome::Ok(Request { method, path, body }))
}

/// Swallows (bounded in bytes and time) what an over-long head's client has
/// already sent, so it reads the 431 instead of hitting a reset pipe.
fn head_too_large(mut reader: BufReader<UntilDeadline<'_>>) -> ReadOutcome {
    reader.get_mut().deadline = Instant::now() + Duration::from_millis(100);
    let _ = std::io::copy(&mut reader.take(4 * MAX_HEADER_BYTES), &mut std::io::sink());
    ReadOutcome::HeadTooLarge
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write_response_with(stream, status, content_type, &[], body)
}

/// [`write_response`] with extra headers (`name: value` pairs) — how the
/// 429 back-pressure answer carries `Retry-After`.
fn write_response_with(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    let mut headers = String::new();
    for (name, value) in extra_headers {
        headers.push_str(&format!("{name}: {value}\r\n"));
    }
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{headers}Connection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

fn write_json(stream: &mut TcpStream, status: &str, body: &str) -> std::io::Result<()> {
    write_response(stream, status, "application/json", body)
}

fn not_found(stream: &mut TcpStream) -> std::io::Result<()> {
    write_response(
        stream,
        "404 Not Found",
        "text/plain; charset=utf-8",
        "unknown endpoint; try /metrics /status /events /sessions /alerts /debug/flight /healthz /readyz /quitz\n",
    )
}

fn handle_connection(mut stream: TcpStream, ctx: &ServeContext, flags: &Flags) {
    let started = Instant::now();
    serve_request(&mut stream, ctx, flags);
    // Recorded before the connection closes: a client that read its
    // response to the end finds its own request in the next `/metrics`.
    HTTP_REQUESTS.incr();
    HTTP_REQUEST_NS.record(started.elapsed().as_nanos() as f64);
}

fn serve_request(stream: &mut TcpStream, ctx: &ServeContext, flags: &Flags) {
    let _ = stream.set_nodelay(true);
    let request = match read_request(stream) {
        Ok(ReadOutcome::Ok(r)) => r,
        Ok(ReadOutcome::TooLarge) => {
            let _ = write_response(
                stream,
                "413 Content Too Large",
                "text/plain; charset=utf-8",
                "request body too large\n",
            );
            return;
        }
        Ok(ReadOutcome::HeadTooLarge) => {
            let _ = write_response(
                stream,
                "431 Request Header Fields Too Large",
                "text/plain; charset=utf-8",
                "request head too large\n",
            );
            return;
        }
        Err(_) => return,
    };
    // Split the query string off the route; `/timeline` consumes it,
    // every other endpoint ignores it.
    let (route, query) = match request.path.split_once('?') {
        Some((route, query)) => (route.to_string(), query.to_string()),
        None => (request.path.clone(), String::new()),
    };
    let result = match (request.method.as_str(), route.as_str()) {
        ("GET", "/metrics") => write_response(
            stream,
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &prometheus::render_current(),
        ),
        ("GET", "/status") => write_json(stream, "200 OK", &ctx.status.to_json()),
        // Liveness vs. readiness vs. health are three distinct answers:
        // the process is *live* as long as it answers at all, *ready*
        // (`/readyz`) once startup finished — and stays ready while
        // degraded — and *healthy* only while no critical alert fires.
        // Orchestrators restart on liveness, drain on readiness, page on
        // health; conflating them turns one stalled tenant into a restart
        // loop (pinned by tests/health_engine.rs).
        ("GET", "/healthz") => {
            if flight::any_critical_firing() {
                write_response(
                    stream,
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    "critical alert firing; see /alerts\n",
                )
            } else {
                write_response(stream, "200 OK", "text/plain; charset=utf-8", "ok\n")
            }
        }
        ("GET", "/alerts") => write_json(stream, "200 OK", &flight::alerts_json()),
        ("GET", "/timeline") => serve_timeline(stream, None, &query),
        ("GET", "/debug/flight") => {
            write_json(stream, "200 OK", &flight::global().to_json("global"))
        }
        ("GET", "/readyz") => {
            if ctx.ready.load(Ordering::Acquire) {
                write_response(stream, "200 OK", "text/plain; charset=utf-8", "ready\n")
            } else {
                write_response(
                    stream,
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    "starting\n",
                )
            }
        }
        ("GET", "/quitz") => {
            *lock(&flags.quit_requested) = true;
            flags.quit_signal.notify_all();
            write_response(
                stream,
                "200 OK",
                "text/plain; charset=utf-8",
                "shutdown requested\n",
            )
        }
        ("GET", "/events") => stream_events(stream, ctx, flags),
        (_, route) if route == "/sessions" || route.starts_with("/sessions/") => {
            handle_sessions(stream, ctx, flags, &request, route, &query)
        }
        ("GET", _) => not_found(stream),
        _ => write_response(
            stream,
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n",
        ),
    };
    let _ = result;
}

/// Dispatches everything under `/sessions`. Routes:
///
/// | method + path                  | behaviour                               |
/// |--------------------------------|-----------------------------------------|
/// | `POST /sessions`               | submit a scenario spec → 201 + id       |
/// | `GET /sessions`                | fleet listing + counts + pool gauges    |
/// | `GET /sessions/{id}`           | one session's summary                   |
/// | `DELETE /sessions/{id}`        | cancel/evict                            |
/// | `GET /sessions/{id}/status`    | the session's StatusBoard JSON          |
/// | `GET /sessions/{id}/metrics`   | Prometheus text scoped to the session   |
/// | `GET /sessions/{id}/events`    | SSE stream of the session's steps       |
/// | `GET /sessions/{id}/timeline`  | scoped metric history (`?metric=…`)     |
/// | `GET /sessions/{id}/debug/flight` | the session's flight-ring dump       |
///
/// `POST /sessions` can also answer `429 Too Many Requests` (+
/// `Retry-After`) when admission back-pressure engages.
fn handle_sessions(
    stream: &mut TcpStream,
    ctx: &ServeContext,
    flags: &Flags,
    request: &Request,
    route: &str,
    query: &str,
) -> std::io::Result<()> {
    let Some(mgr) = ctx.sessions.as_ref() else {
        return write_json(
            stream,
            "503 Service Unavailable",
            "{\"error\":\"session engine not enabled on this server\"}",
        );
    };
    let rest = route.strip_prefix("/sessions").unwrap_or_default();
    match (request.method.as_str(), rest) {
        ("POST", "") | ("POST", "/") => {
            // An empty body means "run the default scenario" — same as `{}`.
            let body = if request.body.trim().is_empty() {
                "{}"
            } else {
                &request.body
            };
            let spec = match parse_scenario(body) {
                Ok(spec) => spec,
                Err(err) => return write_json(stream, "400 Bad Request", &err.to_json()),
            };
            match mgr.submit(spec) {
                Ok(id) => write_json(
                    stream,
                    "201 Created",
                    &format!(
                        "{{\"id\":{id},\"state\":\"queued\",\"location\":\"/sessions/{id}\"}}"
                    ),
                ),
                Err(SubmitError::Saturated {
                    pending,
                    limit,
                    retry_after,
                }) => write_response_with(
                    stream,
                    "429 Too Many Requests",
                    "application/json",
                    &[("Retry-After", &retry_after.as_secs().to_string())],
                    &format!(
                        "{{\"error\":\"admission queue full\",\"pending\":{pending},\
                         \"limit\":{limit},\"retry_after_s\":{}}}",
                        retry_after.as_secs()
                    ),
                ),
                Err(SubmitError::Rejected(msg)) => write_json(
                    stream,
                    "400 Bad Request",
                    &SpecError::range("spec", msg).to_json(),
                ),
            }
        }
        ("GET", "") | ("GET", "/") => write_json(stream, "200 OK", &mgr.list_json()),
        (method, rest) => {
            let rest = rest.trim_start_matches('/');
            let (id_str, tail) = match rest.split_once('/') {
                Some((id, tail)) => (id, Some(tail)),
                None => (rest, None),
            };
            let Ok(id) = id_str.parse::<u64>() else {
                return write_json(
                    stream,
                    "400 Bad Request",
                    "{\"error\":\"session id must be an integer\"}",
                );
            };
            match (method, tail) {
                ("GET", None) => match mgr.session_json(id) {
                    Some(json) => write_json(stream, "200 OK", &json),
                    None => session_not_found(stream, id),
                },
                ("DELETE", None) => {
                    if mgr.delete(id) {
                        write_json(stream, "200 OK", &format!("{{\"deleted\":{id}}}"))
                    } else {
                        session_not_found(stream, id)
                    }
                }
                ("GET", Some("status")) => match mgr.status_json(id) {
                    Some(json) => write_json(stream, "200 OK", &json),
                    None => session_not_found(stream, id),
                },
                ("GET", Some("metrics")) => {
                    if mgr.state(id).is_none() {
                        return session_not_found(stream, id);
                    }
                    write_response(
                        stream,
                        "200 OK",
                        "text/plain; version=0.0.4; charset=utf-8",
                        &prometheus::render_session(&id.to_string()),
                    )
                }
                ("GET", Some("events")) => stream_session_events(stream, mgr, flags, id),
                ("GET", Some("timeline")) => {
                    if mgr.state(id).is_none() {
                        return session_not_found(stream, id);
                    }
                    serve_timeline(stream, Some(&id.to_string()), query)
                }
                ("GET", Some("debug/flight")) => {
                    if mgr.state(id).is_none() {
                        return session_not_found(stream, id);
                    }
                    let scope = id.to_string();
                    match flight::scope_ring(&scope) {
                        Some(ring) => write_json(stream, "200 OK", &ring.to_json(&scope)),
                        None => session_not_found(stream, id),
                    }
                }
                _ => not_found(stream),
            }
        }
    }
}

fn session_not_found(stream: &mut TcpStream, id: u64) -> std::io::Result<()> {
    write_json(
        stream,
        "404 Not Found",
        &format!("{{\"error\":\"no such session\",\"id\":{id}}}"),
    )
}

/// Serves `GET /timeline` (and the per-session variant): windowed metric
/// history from [`beamdyn_obs::timeline`].
///
/// Query parameters: `metric=<name>` (omit to list the scope's metric
/// names), `window=<n>` trailing samples (default all), `agg=raw|mean|
/// min|max|rate` (default `raw`). Malformed parameters answer structured
/// 400s; an unknown metric answers 404.
fn serve_timeline(stream: &mut TcpStream, scope: Option<&str>, query: &str) -> std::io::Result<()> {
    let mut metric: Option<&str> = None;
    let mut window: usize = 0;
    let mut agg = timeline::Agg::Raw;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "metric" => metric = Some(value),
            "window" => match value.parse::<usize>() {
                Ok(n) => window = n,
                Err(_) => {
                    return write_json(
                        stream,
                        "400 Bad Request",
                        &SpecError::range("window", "must be a non-negative integer").to_json(),
                    )
                }
            },
            "agg" => match timeline::Agg::parse(value) {
                Some(parsed) => agg = parsed,
                None => {
                    return write_json(
                        stream,
                        "400 Bad Request",
                        &SpecError::choice("agg", value, timeline::Agg::ACCEPTED).to_json(),
                    )
                }
            },
            other => {
                return write_json(
                    stream,
                    "400 Bad Request",
                    &SpecError::choice(other, other, &["metric", "window", "agg"]).to_json(),
                )
            }
        }
    }
    let Some(metric) = metric else {
        // No metric selected: list what this scope has history for.
        let names: Vec<String> = timeline::metric_names(scope)
            .iter()
            .map(|n| format!("\"{}\"", n.replace('"', "\\\"")))
            .collect();
        return write_json(
            stream,
            "200 OK",
            &format!("{{\"metrics\":[{}]}}", names.join(",")),
        );
    };
    match timeline::query_json(scope, metric, window, agg) {
        Some(body) => write_json(stream, "200 OK", &body),
        None => write_json(
            stream,
            "404 Not Found",
            &format!(
                "{{\"error\":\"no timeline for metric\",\"metric\":\"{}\"}}",
                metric.replace('"', "\\\"")
            ),
        ),
    }
}

/// Serves one Server-Sent Events stream: one `step` event per simulation
/// step flush, `data:` carrying the flush's canonical JSON (the same line
/// the JSONL trace sink writes). Ends when the client disconnects or the
/// server shuts down.
fn stream_events(stream: &mut TcpStream, ctx: &ServeContext, flags: &Flags) -> std::io::Result<()> {
    let rx = ctx.events.subscribe();
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    while !flags.stop.load(Ordering::Acquire) {
        match rx.recv_timeout(EVENT_TICK) {
            Recv::Event(flush) => {
                write!(
                    stream,
                    "event: step\nid: {}\ndata: {}\n\n",
                    flush.step,
                    flush.to_json()
                )?;
                stream.flush()?;
            }
            Recv::Timeout => {
                // SSE comment as keep-alive; also how we notice a client
                // that went away between steps.
                write!(stream, ": keep-alive\n\n")?;
                stream.flush()?;
            }
            // The host ended the bus (it is shutting down).
            Recv::Finished => break,
        }
    }
    Ok(())
}

/// Serves one session's SSE stream. Unlike the fleet-wide `/events`, this
/// stream *ends*: the session engine finishes the session's bus the moment
/// the session turns terminal or is deleted, the subscriber drains its
/// ring, and a final `end` event is sent and the connection closes —
/// `curl` on a finished session returns at once.
fn stream_session_events(
    stream: &mut TcpStream,
    mgr: &Arc<SessionManager>,
    flags: &Flags,
    id: u64,
) -> std::io::Result<()> {
    let Some(rx) = mgr.subscribe(id) else {
        return session_not_found(stream, id);
    };
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    while !flags.stop.load(Ordering::Acquire) {
        match rx.recv_timeout(EVENT_TICK) {
            Recv::Event(event) => {
                write!(
                    stream,
                    "event: step\nid: {}\ndata: {}\n\n",
                    event.step, event.json
                )?;
                stream.flush()?;
            }
            Recv::Timeout => {
                write!(stream, ": keep-alive\n\n")?;
                stream.flush()?;
            }
            Recv::Finished => {
                // Ring drained and the bus ended: the session is terminal,
                // or gone from the fleet (deleted).
                let state = mgr.state(id);
                let state_name = state.as_ref().map_or("deleted", |s| s.name());
                write!(
                    stream,
                    "event: end\ndata: {{\"session\":{id},\"state\":\"{state_name}\"}}\n\n"
                )?;
                return stream.flush();
            }
        }
    }
    Ok(())
}
