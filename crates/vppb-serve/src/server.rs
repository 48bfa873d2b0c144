//! The std-only HTTP server around [`PredictionService`].
//!
//! Architecture (DESIGN.md §6h): one **epoll event-loop thread** (the
//! reactor, `event_loop.rs`) owns the listener and every connection as a
//! non-blocking state machine — read-accumulate → parse → admission →
//! dispatch → buffered write-back, with HTTP/1.1 keep-alive reuse. The
//! CPU-bound work (predict, sweep, salvage) runs on a fixed pool of
//! worker threads fed through the [`Dispatcher`]'s notified (never
//! polled) queue; finished responses ride back on the [`Completions`]
//! channel, which wakes the reactor through an eventfd.
//!
//! * **Admission control** — arrivals beyond `--queue-depth` (global) or
//!   `--tenant-backlog` (per client identity) are answered `503` with
//!   `retry-after`, written non-blockingly so a slow rejected peer can
//!   never stall the accept path. Queued jobs drain by weighted
//!   round-robin across tenants.
//! * **Isolation** — each request runs inside `catch_unwind`; a panicking
//!   job (an engine bug, or the deliberate `panic_after_events` fault)
//!   becomes that request's `500` and nothing else. Workers never die.
//! * **Deadlines** — per-request read deadlines bound slow-loris peers
//!   (408), write deadlines bound stalled readers; neither occupies a
//!   worker.
//! * **Graceful drain** — on `POST /shutdown` or SIGTERM/SIGINT the
//!   reactor stops accepting, in-flight requests finish, keep-alive
//!   connections close after their current response, and
//!   [`Server::join`] returns once the last worker exits.

use crate::dispatch::{AdmissionConfig, AdmissionStats, Completions, Dispatcher};
use crate::event_loop;
use crate::http::{Request, Response};
use crate::persist::StartupReport;
use crate::service::{PredictionService, ServeError};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use vppb_model::{FaultSpec, FaultVfs, RealVfs, Vfs};

/// Tuning knobs for [`start`]; `vppb serve` flags map onto these 1:1.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:7979`; use port 0 to let the OS pick).
    pub addr: String,
    /// Worker threads (0 = one per available core).
    pub workers: usize,
    /// Plan-cache byte budget.
    pub cache_bytes: u64,
    /// Bounded job-queue depth; beyond it, arrivals get 503.
    pub queue_depth: usize,
    /// Per-request read/write deadline, milliseconds (slow-loris bound;
    /// also the keep-alive idle timeout).
    pub request_timeout_ms: u64,
    /// Largest accepted request body (uploaded logs), bytes.
    pub max_body_bytes: usize,
    /// Durable store root (`--store DIR`); `None` serves memory-only.
    pub store_dir: Option<String>,
    /// Fault-injection spec for the durable store's VFS (the
    /// `VPPB_FAULT_VFS` knob; chaos testing only).
    pub fault_vfs: Option<String>,
    /// Bound on one tenant's queued jobs (0 = same as `queue_depth`,
    /// which makes a single-tenant server behave exactly like the
    /// global bound alone).
    pub tenant_backlog: usize,
    /// Weighted-round-robin weights per tenant identity; unlisted
    /// tenants weigh 1.
    pub tenant_weights: Vec<(String, u32)>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:7979".to_string(),
            workers: 0,
            cache_bytes: 64 * 1024 * 1024,
            queue_depth: 128,
            request_timeout_ms: 30_000,
            max_body_bytes: 256 * 1024 * 1024,
            store_dir: None,
            fault_vfs: None,
            tenant_backlog: 0,
            tenant_weights: Vec::new(),
        }
    }
}

/// How many 4xx/5xx responses `GET /metrics` keeps for correlation.
const RECENT_ERRORS_CAP: usize = 32;

/// One recent error, correlatable with a client's `x-vppb-request` id.
#[derive(Clone, serde::Serialize)]
struct RecentError {
    /// The request-correlation id the client saw (`-` for failures with
    /// no request, like accept errors).
    request: String,
    /// HTTP status answered (0 when no response was sent).
    status: u16,
    /// Stable machine-readable code (`payload-too-large`,
    /// `accept:emfile`, ...).
    code: String,
}

/// HTTP-level counters for `GET /metrics`.
#[derive(Default)]
pub(crate) struct HttpCounters {
    pub requests: AtomicU64,
    pub ok_2xx: AtomicU64,
    pub client_4xx: AtomicU64,
    pub server_5xx: AtomicU64,
    pub rejected_503: AtomicU64,
    pub accept_errors: AtomicU64,
    pub connections: AtomicU64,
    pub keepalive_reuses: AtomicU64,
}

#[derive(serde::Serialize)]
struct HttpStats {
    /// Requests that reached parsing (served, rejected, or errored).
    requests: u64,
    /// Responses in the 2xx class.
    ok_2xx: u64,
    /// Responses in the 4xx class.
    client_4xx: u64,
    /// Responses in the 5xx class (including backpressure 503s).
    server_5xx: u64,
    /// Backpressure rejections alone (also counted in `server_5xx`).
    rejected_503: u64,
    /// `accept(2)` failures (fd exhaustion, aborts); see
    /// `recent_errors` for the classified tail.
    accept_errors: u64,
    /// Connections accepted.
    connections: u64,
    /// Keep-alive requests served beyond the first on their connection.
    keepalive_reuses: u64,
}

/// The full `GET /metrics` document.
#[derive(serde::Serialize)]
struct MetricsDoc {
    http: HttpStats,
    admission: AdmissionStats,
    service: crate::service::ServiceMetrics,
    /// Last [`RECENT_ERRORS_CAP`] 4xx/5xx responses, oldest first.
    recent_errors: Vec<RecentError>,
}

pub(crate) struct Shared {
    pub(crate) service: PredictionService,
    /// Set by `POST /shutdown`, [`Server::shutdown`], or a signal.
    draining: std::sync::atomic::AtomicBool,
    pub(crate) http: HttpCounters,
    /// Monotonic request-correlation counter (`r-1`, `r-2`, ...).
    rid: AtomicU64,
    /// Ring of recent error responses for `GET /metrics`.
    recent_errors: Mutex<VecDeque<RecentError>>,
    pub(crate) opts: ServeOptions,
    pub(crate) dispatcher: Arc<Dispatcher>,
    pub(crate) completions: Arc<Completions>,
}

impl Shared {
    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || signals::terminated()
    }

    pub(crate) fn start_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // The reactor owns the sockets; wake it so the drain begins now.
        self.completions.wake();
    }

    /// The next request-correlation id.
    pub(crate) fn next_rid(&self) -> String {
        format!("r-{}", self.rid.fetch_add(1, Ordering::Relaxed) + 1)
    }

    fn push_recent(&self, entry: RecentError) {
        let mut ring = self.recent_errors.lock().expect("errors lock");
        if ring.len() >= RECENT_ERRORS_CAP {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// Remember an error response for `GET /metrics` correlation.
    pub(crate) fn record_error(&self, rid: &str, response: &Response) {
        if response.status < 400 {
            return;
        }
        self.push_recent(RecentError {
            request: rid.to_string(),
            status: response.status,
            code: response.error_code().unwrap_or("error").to_string(),
        });
    }

    /// Remember a classified `accept(2)` failure.
    pub(crate) fn record_accept_error(&self, tag: &str) {
        self.push_recent(RecentError {
            request: "-".to_string(),
            status: 0,
            code: format!("accept:{tag}"),
        });
    }

    /// Count a response's status class.
    pub(crate) fn count_class(&self, status: u16) {
        match status {
            200..=299 => self.http.ok_2xx.fetch_add(1, Ordering::Relaxed),
            400..=499 => self.http.client_4xx.fetch_add(1, Ordering::Relaxed),
            _ => self.http.server_5xx.fetch_add(1, Ordering::Relaxed),
        };
    }
}

/// A running server: its bound address plus the thread handles to join.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    reactor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    startup: Option<StartupReport>,
}

impl Server {
    /// The address actually bound (resolves `:0` to the chosen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// What durable-store recovery found at startup (`--store` only).
    pub fn startup_report(&self) -> Option<&StartupReport> {
        self.startup.as_ref()
    }

    /// Direct access to the service (in-process callers: benches, tests).
    pub fn service(&self) -> &PredictionService {
        &self.shared.service
    }

    /// Begin a graceful drain: stop accepting, finish what's in flight.
    pub fn shutdown(&self) {
        self.shared.start_drain();
    }

    /// Wait until the server has fully drained (after [`Server::shutdown`],
    /// `POST /shutdown`, or SIGTERM). Joins every thread.
    pub fn join(self) {
        let _ = self.reactor.join();
        // The reactor stops the dispatcher on exit; repeat in case it
        // panicked, so workers can never hang the join.
        self.shared.dispatcher.stop();
        for w in self.workers {
            let _ = w.join();
        }
        signals::clear_wake_fd(self.shared.completions.waker_fd());
    }
}

/// Bind and start serving. Returns once the listener, the event loop and
/// the workers are up.
pub fn start(opts: ServeOptions) -> io::Result<Server> {
    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let n_workers = if opts.workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2)
    } else {
        opts.workers
    };
    let (service, startup) = match &opts.store_dir {
        Some(dir) => {
            let vfs: Arc<dyn Vfs> = match &opts.fault_vfs {
                Some(spec) => {
                    let spec = FaultSpec::parse(spec).map_err(io::Error::other)?;
                    Arc::new(FaultVfs::new(Arc::new(RealVfs), spec))
                }
                None => Arc::new(RealVfs),
            };
            let (service, report) = PredictionService::with_store(opts.cache_bytes, dir, vfs)
                .map_err(|e| io::Error::other(format!("opening durable store: {e}")))?;
            (service, Some(report))
        }
        None => (PredictionService::new(opts.cache_bytes), None),
    };

    let poll = mio::Poll::new()?;
    let waker = mio::Waker::new(&poll, mio::Token(event_loop::TOK_WAKER))?;
    let completions = Arc::new(Completions::new(waker));
    signals::set_wake_fd(completions.waker_fd());
    let dispatcher = Arc::new(Dispatcher::new(AdmissionConfig {
        queue_depth: opts.queue_depth,
        tenant_backlog: if opts.tenant_backlog == 0 {
            opts.queue_depth
        } else {
            opts.tenant_backlog
        },
        weights: opts.tenant_weights.iter().cloned().collect(),
    }));
    let shared = Arc::new(Shared {
        service,
        draining: std::sync::atomic::AtomicBool::new(false),
        http: HttpCounters::default(),
        rid: AtomicU64::new(0),
        recent_errors: Mutex::new(VecDeque::new()),
        opts,
        dispatcher: Arc::clone(&dispatcher),
        completions: Arc::clone(&completions),
    });

    let reactor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("vppb-reactor".into())
            .spawn(move || event_loop::run(listener, poll, shared))
            .expect("spawn reactor")
    };
    let workers = (0..n_workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("vppb-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();
    Ok(Server { shared, addr, reactor, workers, startup })
}

/// Pull jobs until the dispatcher stops. The route runs inside an unwind
/// boundary: a panicking prediction answers 500 and the worker moves on.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.dispatcher.dequeue() {
        // The service owns no lock across a simulation and every mutex
        // is re-acquired per operation, so observing its state after an
        // unwind is sound (the sweep engine makes the same argument for
        // its per-cell isolation).
        let response =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(&job.request, shared)))
                .unwrap_or_else(|payload| {
                    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                        s
                    } else if let Some(s) = payload.downcast_ref::<String>() {
                        s
                    } else {
                        "non-string panic payload"
                    };
                    Response::error(500, &format!("request handler panicked: {msg}"))
                });
        // Every response — success or error — carries the correlation id
        // in `x-vppb-request`; error bodies repeat it so a client log
        // line finds the matching `recent_errors` entry in /metrics.
        let rid = shared.next_rid();
        let response = response.with_request(&rid);
        shared.record_error(&rid, &response);
        shared.count_class(response.status);
        shared.completions.push(job.conn, response);
    }
}

/// Value of `key` in a raw `a=1&b=2` query string.
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| match pair.split_once('=') {
        Some((k, v)) if k == key => Some(v),
        None if pair == key => Some(""),
        _ => None,
    })
}

pub(crate) fn route(request: &Request, shared: &Arc<Shared>) -> Response {
    // `POST /logs/{id}/append`: grow a streaming session by one chunk.
    if request.method == "POST" {
        if let Some(id) =
            request.path.strip_prefix("/logs/").and_then(|rest| rest.strip_suffix("/append"))
        {
            return match shared.service.append(id, &request.body) {
                Ok(ap) => Response::json(200, &ap),
                Err(e) => error_response(&e),
            };
        }
    }
    // `GET /predict?follow=1&id=...&cpus=N`: predict from the stream's
    // last engine checkpoint instead of replaying from scratch.
    if (request.method.as_str(), request.path.as_str()) == ("GET", "/predict") {
        if query_param(&request.query, "follow") != Some("1") {
            return Response::error(400, "GET /predict requires follow=1 (else POST /predict)");
        }
        let Some(id) = query_param(&request.query, "id") else {
            return Response::error(400, "missing `id` query parameter");
        };
        let cpus: u32 = match query_param(&request.query, "cpus").map(str::parse) {
            None => 8,
            Some(Ok(n)) => n,
            Some(Err(_)) => return Response::error(400, "bad `cpus` query parameter"),
        };
        return match shared.service.predict_follow(id, cpus) {
            Ok((response, cached)) => {
                Response::json(200, &*response).with_header("x-vppb-cache", cached.header())
            }
            Err(e) => error_response(&e),
        };
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/logs") => match shared.service.upload(&request.body) {
            Ok(up) => Response::json(200, &up),
            Err(e) => error_response(&e),
        },
        ("POST", "/predict") => match serde_json::from_slice(&request.body) {
            Ok(req) => match shared.service.predict(&req) {
                Ok((response, cached)) => {
                    Response::json(200, &*response).with_header("x-vppb-cache", cached.header())
                }
                Err(e) => error_response(&e),
            },
            Err(e) => Response::error(400, &format!("bad predict request: {e}")),
        },
        ("POST", "/sweep") => match serde_json::from_slice(&request.body) {
            Ok(req) => match shared.service.sweep(&req) {
                Ok(response) => Response::json(200, &response),
                Err(e) => error_response(&e),
            },
            Err(e) => Response::error(400, &format!("bad sweep request: {e}")),
        },
        ("GET", "/metrics") => {
            let http = HttpStats {
                requests: shared.http.requests.load(Ordering::Relaxed),
                ok_2xx: shared.http.ok_2xx.load(Ordering::Relaxed),
                client_4xx: shared.http.client_4xx.load(Ordering::Relaxed),
                server_5xx: shared.http.server_5xx.load(Ordering::Relaxed),
                rejected_503: shared.http.rejected_503.load(Ordering::Relaxed),
                accept_errors: shared.http.accept_errors.load(Ordering::Relaxed),
                connections: shared.http.connections.load(Ordering::Relaxed),
                keepalive_reuses: shared.http.keepalive_reuses.load(Ordering::Relaxed),
            };
            let recent_errors =
                shared.recent_errors.lock().expect("errors lock").iter().cloned().collect();
            Response::json(
                200,
                &MetricsDoc {
                    http,
                    admission: shared.dispatcher.stats(),
                    service: shared.service.metrics(),
                    recent_errors,
                },
            )
        }
        ("GET", "/healthz") => {
            #[derive(serde::Serialize)]
            struct Health {
                ok: bool,
                draining: bool,
                /// Durable store degraded: serving read-only.
                degraded: bool,
            }
            let degraded = shared.service.degraded();
            Response::json(200, &Health { ok: !degraded, draining: shared.is_draining(), degraded })
        }
        ("POST", "/shutdown") => {
            shared.start_drain();
            #[derive(serde::Serialize)]
            struct Draining {
                draining: bool,
            }
            Response::json(200, &Draining { draining: true })
        }
        (_, "/logs" | "/predict" | "/sweep" | "/metrics" | "/healthz" | "/shutdown") => {
            Response::error(405, "wrong method for this endpoint")
        }
        _ => Response::error(404, "no such endpoint"),
    }
}

/// Map a [`ServeError`] onto its response; a 503 (degraded durable
/// store) tells clients when to come back.
fn error_response(e: &ServeError) -> Response {
    let response = Response::error(e.status(), e.message());
    if e.status() == 503 {
        response.with_header("retry-after", "2")
    } else {
        response
    }
}

/// Map [`ServeError`] → HTTP directly (used by in-process callers).
impl From<ServeError> for Response {
    fn from(e: ServeError) -> Response {
        error_response(&e)
    }
}

/// SIGTERM/SIGINT → graceful drain, with no libc *crate*: std already
/// links the platform libc, so the C `signal` entry point is declared
/// here directly. The handler stores to an atomic and pokes the event
/// loop's eventfd — both async-signal-safe — so the drain starts on the
/// next loop turn instead of a poll tick.
pub mod signals {
    use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

    static TERMINATED: AtomicBool = AtomicBool::new(false);
    /// The running server's reactor-waker eventfd (-1 when none).
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

    /// Whether a termination signal has been observed.
    pub fn terminated() -> bool {
        TERMINATED.load(Ordering::SeqCst)
    }

    /// Register the reactor's waker so a signal interrupts its wait.
    pub(crate) fn set_wake_fd(fd: i32) {
        WAKE_FD.store(fd, Ordering::SeqCst);
    }

    /// Forget the waker fd, but only if it is still ours (a newer server
    /// in the same process may have replaced it).
    pub(crate) fn clear_wake_fd(fd: i32) {
        let _ = WAKE_FD.compare_exchange(fd, -1, Ordering::SeqCst, Ordering::SeqCst);
    }

    #[cfg(unix)]
    extern "C" fn on_signal(_signum: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
        let fd = WAKE_FD.load(Ordering::SeqCst);
        if fd >= 0 {
            mio::Waker::wake_raw(fd);
        }
    }

    /// Install SIGTERM/SIGINT handlers that request a graceful drain.
    #[cfg(unix)]
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    /// No-op off unix; `POST /shutdown` still drains gracefully.
    #[cfg(not(unix))]
    pub fn install() {}
}

/// Process-wide fd-limit helpers for the server and the load bench: a
/// 10k-connection front end needs the soft `RLIMIT_NOFILE` raised to the
/// hard cap, and the accept-error regression test needs it *lowered*.
/// Same no-libc-crate precedent as [`signals`].
pub mod rlimit {
    /// `struct rlimit` on 64-bit Linux.
    #[cfg(target_os = "linux")]
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }

    #[cfg(target_os = "linux")]
    const RLIMIT_NOFILE: i32 = 7;

    /// Current `(soft, hard)` fd limits.
    #[cfg(target_os = "linux")]
    pub fn nofile() -> Option<(u64, u64)> {
        extern "C" {
            fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        }
        let mut r = Rlimit { cur: 0, max: 0 };
        (unsafe { getrlimit(RLIMIT_NOFILE, &mut r) } == 0).then_some((r.cur, r.max))
    }

    /// Set the soft fd limit (clamped to the hard cap). Returns the
    /// limit now in force.
    #[cfg(target_os = "linux")]
    pub fn set_nofile(soft: u64) -> Option<u64> {
        extern "C" {
            fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
        }
        let (_, hard) = nofile()?;
        let want = soft.min(hard);
        let r = Rlimit { cur: want, max: hard };
        (unsafe { setrlimit(RLIMIT_NOFILE, &r) } == 0).then_some(want)
    }

    /// Raise the soft fd limit to the hard cap; best-effort.
    #[cfg(target_os = "linux")]
    pub fn raise_nofile() -> Option<u64> {
        let (_, hard) = nofile()?;
        set_nofile(hard)
    }

    #[cfg(not(target_os = "linux"))]
    pub fn nofile() -> Option<(u64, u64)> {
        None
    }
    #[cfg(not(target_os = "linux"))]
    pub fn set_nofile(_soft: u64) -> Option<u64> {
        None
    }
    #[cfg(not(target_os = "linux"))]
    pub fn raise_nofile() -> Option<u64> {
        None
    }
}
