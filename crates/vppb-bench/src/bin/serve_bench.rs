//! serve_bench — keep-alive load bench for the `vppb serve` event loop,
//! run by CI's `serve-bench-smoke` job (fast mode) and by hand to
//! regenerate the checked-in `BENCH_serve.json` (full mode).
//!
//! The bench spawns a **real** `vppb serve` child process, uploads one
//! recorded workload, warms the prediction memo, then drives N
//! concurrent keep-alive connections closed-loop: every connection
//! repeats `POST /predict` (a memo hit) and a new request starts the
//! moment the previous response completes. The client side is its own
//! epoll event loop over the same `mio` shim the server uses, so ten
//! thousand sockets cost two threads, not ten thousand.
//!
//! ```text
//! serve_bench                  # full: 10_000 clients, 10 s
//! serve_bench --fast           # CI smoke: 200 clients, 3 s
//! serve_bench --clients N --duration-s S
//! serve_bench --out FILE       # write the report JSON
//! serve_bench --fast --check --baseline BENCH_serve.json
//! ```
//!
//! A flag it does not read exits 2 with the usage before any server
//! starts.
//!
//! The run **fails** (panic, non-zero exit) if any request gets a 5xx —
//! the server is provisioned with a deep queue, so sheds are
//! regressions here — or any socket errors mid-run. `--check` adds the
//! regression gate: fast-mode p99 must stay within [`GATE_FACTOR`]× of
//! the baseline's recorded fast-mode p99 (plus an absolute floor to
//! absorb timer noise on tiny baselines).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use vppb_model::binlog;
use vppb_recorder::{record, RecordOptions};
use vppb_testkit::httpc::{parse_framed, HttpClient, ServerProc};
use vppb_workloads::{splash, KernelParams};

/// Client reactor threads; connections are split evenly across them.
const CLIENT_THREADS: usize = 2;
/// Grace period after the measurement window for in-flight responses.
const DRAIN_GRACE: Duration = Duration::from_millis(500);
/// `--check`: current fast p99 may be at most this × the baseline's.
const GATE_FACTOR: f64 = 5.0;
/// `--check`: and never flagged below this absolute p99, microseconds.
const GATE_FLOOR_US: u64 = 50_000;

/// Defaults for the fast phase: CI smoke, and the reference measurement
/// embedded in a full run's report (what `--check` gates against).
const FAST_CLIENTS: usize = 200;
const FAST_DURATION: Duration = Duration::from_secs(3);

#[derive(serde::Serialize)]
struct Report {
    mode: String,
    clients: usize,
    duration_s: f64,
    /// Responses completed inside the measurement window.
    requests: u64,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    max_us: u64,
    /// Socket-level failures (resets, unexpected EOF).
    io_errors: u64,
    /// Responses outside the 2xx class, by class.
    client_4xx: u64,
    server_5xx: u64,
    /// Server-side counters scraped from `GET /metrics` after the run.
    server: ServerSide,
    /// Full runs embed a fast-phase measurement against the same server
    /// — the comparable baseline for CI's `--fast --check` gate.
    fast: Option<Measurement>,
}

/// One measurement window's client-side numbers.
#[derive(serde::Serialize)]
struct Measurement {
    clients: usize,
    duration_s: f64,
    requests: u64,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    max_us: u64,
    io_errors: u64,
    client_4xx: u64,
    server_5xx: u64,
}

#[derive(serde::Serialize)]
struct ServerSide {
    requests: u64,
    rejected_503: u64,
    accept_errors: u64,
    connections: u64,
    keepalive_reuses: u64,
}

/// One keep-alive connection in the client reactor.
struct ClientConn {
    stream: TcpStream,
    /// Bytes of the (shared) request already written.
    wpos: usize,
    /// Accumulated response bytes.
    rbuf: Vec<u8>,
    /// When the current request's first byte was written.
    sent_at: Instant,
    /// Sending (false) vs awaiting the response (true).
    awaiting: bool,
    /// Finished for good (measurement window closed).
    done: bool,
}

/// What one reactor thread measured.
#[derive(Default)]
struct ThreadStats {
    latencies_us: Vec<u64>,
    io_errors: u64,
    client_4xx: u64,
    server_5xx: u64,
}

const USAGE: &str = "usage: serve_bench [--fast] [--check --baseline FILE] [--clients N] \
                     [--duration-s S] [--out FILE]";

fn main() {
    let flags = vppb_bench::parse_flags(
        std::env::args().skip(1),
        USAGE,
        &["--fast", "--check"],
        &["--clients", "--duration-s", "--out", "--baseline"],
    );
    let fast = flags.contains_key("--fast");
    let check = flags.contains_key("--check");
    let flag = |name: &str| flags.get(name).cloned().flatten();
    let clients: usize = flag("--clients")
        .map(|v| v.parse().expect("--clients"))
        .unwrap_or(if fast { 200 } else { 10_000 });
    let duration = Duration::from_secs_f64(
        flag("--duration-s").map(|v| v.parse().expect("--duration-s")).unwrap_or(if fast {
            3.0
        } else {
            10.0
        }),
    );
    let out = flag("--out");
    let baseline = flag("--baseline");

    // This process holds one fd per client; take the hard cap.
    let fd_limit = vppb_serve::rlimit::raise_nofile().unwrap_or(0);
    assert!(
        fd_limit as usize > clients + 64,
        "fd limit {fd_limit} cannot hold {clients} client connections"
    );

    // A real child server, provisioned so nothing sheds: the bench
    // measures the event loop, and a 503 here is a failure.
    let server = ServerProc::spawn(
        &vppb_bin(),
        &["--queue-depth", "20000", "--workers", "2", "--request-timeout-ms", "60000"],
    );
    let addr = server.addr;
    eprintln!("serve_bench: server on {addr}");

    // Upload once, then warm the memo so the steady state is the hot
    // path: parse → admission → dispatch → memo hit → write-back.
    let rec = record(&splash::ocean(KernelParams::scaled(8, 0.05)), &RecordOptions::default())
        .expect("record ocean");
    let bytes = binlog::encode(&rec.log).expect("encode");
    let http = HttpClient::new(addr);
    let (status, body) = http.request("POST", "/logs", &bytes).expect("upload");
    assert_eq!(status, 200, "upload: {}", String::from_utf8_lossy(&body));
    let up: serde::Value = serde_json::from_slice(&body).expect("upload json");
    let id = match up.get("id") {
        Some(serde::Value::Str(s)) => s.clone(),
        other => panic!("upload response id: {other:?}"),
    };
    let predict = format!("{{\"id\":\"{id}\",\"cpus\":8}}");
    let (status, _) = http.request("POST", "/predict", predict.as_bytes()).expect("warm predict");
    assert_eq!(status, 200, "warm predict failed");

    let request: Arc<[u8]> =
        Arc::from(vppb_testkit::httpc::encode_request("POST", "/predict", predict.as_bytes(), &[]));

    // ---- the load ------------------------------------------------
    // Full runs take a fast-phase reference first (same server, same
    // request) so the checked-in report carries a number CI's 200-client
    // smoke run is actually comparable to.

    let fast_ref = if fast {
        None
    } else {
        let m = run_load(addr, FAST_CLIENTS, FAST_DURATION, &request);
        check_clean(&m, "fast phase");
        Some(m)
    };
    let main_m = run_load(addr, clients, duration, &request);
    let metrics = scrape_metrics(&http);
    let report = Report {
        mode: if fast { "fast" } else { "full" }.to_string(),
        clients: main_m.clients,
        duration_s: main_m.duration_s,
        requests: main_m.requests,
        throughput_rps: main_m.throughput_rps,
        p50_us: main_m.p50_us,
        p99_us: main_m.p99_us,
        p999_us: main_m.p999_us,
        max_us: main_m.max_us,
        io_errors: main_m.io_errors,
        client_4xx: main_m.client_4xx,
        server_5xx: main_m.server_5xx,
        server: metrics,
        fast: fast_ref,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    println!("{json}");
    if let Some(path) = out {
        std::fs::write(&path, format!("{json}\n")).expect("write report");
        eprintln!("serve_bench: wrote {path}");
    }

    // ---- hard requirements ---------------------------------------

    check_clean(&main_m, "main phase");
    assert_eq!(report.server.rejected_503, 0, "nothing may shed at queue-depth 20000");

    if check {
        let path = baseline.expect("--check needs --baseline FILE");
        let raw = std::fs::read(&path).expect("read baseline");
        let base: serde::Value = serde_json::from_slice(&raw).expect("baseline json");
        let base_p99 = match base.get("fast").and_then(|f| f.get("p99_us")) {
            Some(serde::Value::UInt(n)) => *n,
            other => panic!("baseline has no fast.p99_us: {other:?}"),
        };
        let gate = ((base_p99 as f64) * GATE_FACTOR) as u64;
        let gate = gate.max(GATE_FLOOR_US);
        assert!(
            report.p99_us <= gate,
            "p99 regression: {} µs now vs {} µs baseline (gate {} µs)",
            report.p99_us,
            base_p99,
            gate
        );
        eprintln!("serve_bench: p99 {} µs within gate {} µs — ok", report.p99_us, gate);
    }
}

/// Run one measurement window: `clients` keep-alive connections split
/// across [`CLIENT_THREADS`] reactors, closed-loop for `duration`.
fn run_load(
    addr: std::net::SocketAddr,
    clients: usize,
    duration: Duration,
    request: &Arc<[u8]>,
) -> Measurement {
    let stop = Arc::new(AtomicBool::new(false));
    let ready = Arc::new(Barrier::new(CLIENT_THREADS + 1));
    let threads: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| {
            let share = clients / CLIENT_THREADS + usize::from(t < clients % CLIENT_THREADS);
            let request = Arc::clone(request);
            let stop = Arc::clone(&stop);
            let ready = Arc::clone(&ready);
            std::thread::spawn(move || client_reactor(addr, share, &request, &stop, &ready))
        })
        .collect();
    ready.wait(); // every thread has all its connections up
    let started = Instant::now();
    eprintln!("serve_bench: {clients} connections up, measuring {duration:?}");
    std::thread::sleep(duration);
    stop.store(true, Ordering::SeqCst);
    let stats: Vec<ThreadStats> = threads.into_iter().map(|t| t.join().expect("reactor")).collect();
    let elapsed = started.elapsed();

    let mut latencies: Vec<u64> =
        stats.iter().flat_map(|s| s.latencies_us.iter().copied()).collect();
    latencies.sort_unstable();
    assert!(!latencies.is_empty(), "no request completed — the bench is broken");
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    Measurement {
        clients,
        duration_s: elapsed.as_secs_f64(),
        requests: latencies.len() as u64,
        throughput_rps: latencies.len() as f64 / elapsed.as_secs_f64(),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        p999_us: pct(0.999),
        max_us: *latencies.last().unwrap(),
        io_errors: stats.iter().map(|s| s.io_errors).sum(),
        client_4xx: stats.iter().map(|s| s.client_4xx).sum(),
        server_5xx: stats.iter().map(|s| s.server_5xx).sum(),
    }
}

/// The bench's hard floor: every request answered 2xx, every socket
/// healthy. A provisioned server has no excuse for anything else.
fn check_clean(m: &Measurement, phase: &str) {
    assert_eq!(m.server_5xx, 0, "{phase}: a provisioned server must not answer 5xx");
    assert_eq!(m.io_errors, 0, "{phase}: no socket may error mid-run");
    assert_eq!(m.client_4xx, 0, "{phase}: the bench sends only well-formed requests");
}

/// One reactor thread: bring up `n` keep-alive connections, then run
/// them closed-loop until `stop`, measuring per-request latency.
fn client_reactor(
    addr: std::net::SocketAddr,
    n: usize,
    request: &[u8],
    stop: &AtomicBool,
    ready: &Barrier,
) -> ThreadStats {
    let poll = mio::Poll::new().expect("client epoll");
    let mut conns: Vec<Option<ClientConn>> = Vec::with_capacity(n);
    for i in 0..n {
        let stream = connect_with_retry(addr);
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true).expect("nonblocking");
        poll.register(
            stream.as_raw_fd(),
            mio::Token(i),
            mio::Interest::READABLE.add(mio::Interest::WRITABLE).edge(),
        )
        .expect("register client conn");
        conns.push(Some(ClientConn {
            stream,
            wpos: 0,
            rbuf: Vec::new(),
            sent_at: Instant::now(),
            awaiting: false,
            done: false,
        }));
        // Pace the ramp so the listen backlog never overflows.
        if i % 64 == 63 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    ready.wait();

    let mut stats = ThreadStats::default();
    // First shot on every connection; most writes complete inline.
    for slot in conns.iter_mut() {
        drive(slot, request, stop, &mut stats);
    }
    let mut events = mio::Events::with_capacity(1024);
    let mut live = conns.iter().filter(|c| c.is_some()).count();
    let mut grace: Option<Instant> = None;
    while live > 0 {
        if stop.load(Ordering::SeqCst) {
            let end = *grace.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
            if Instant::now() >= end {
                break; // whatever is still in flight stays unmeasured
            }
        }
        if poll.poll(&mut events, Some(Duration::from_millis(50))).is_err() {
            break;
        }
        for ev in &events {
            let mio::Token(i) = ev.token();
            let was_live = conns[i].is_some();
            drive(&mut conns[i], request, stop, &mut stats);
            if was_live && conns[i].is_none() {
                live -= 1;
            }
        }
    }
    stats
}

/// Advance one connection: flush the request, read the response, record
/// the latency, fire the next request — until `WouldBlock` or `stop`.
/// `None`s the slot on socket errors (counted) or clean completion.
fn drive(
    slot: &mut Option<ClientConn>,
    request: &[u8],
    stop: &AtomicBool,
    stats: &mut ThreadStats,
) {
    let Some(conn) = slot.as_mut() else { return };
    loop {
        if conn.done {
            return;
        }
        if !conn.awaiting {
            // Flush the (remainder of the) request.
            if conn.wpos == 0 {
                conn.sent_at = Instant::now();
            }
            while conn.wpos < request.len() {
                match conn.stream.write(&request[conn.wpos..]) {
                    Ok(0) => {
                        stats.io_errors += 1;
                        *slot = None;
                        return;
                    }
                    Ok(k) => conn.wpos += k,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        stats.io_errors += 1;
                        *slot = None;
                        return;
                    }
                }
            }
            conn.awaiting = true;
            conn.wpos = 0;
        }
        // Accumulate the response.
        let mut chunk = [0u8; 4096];
        let complete = loop {
            if let Some(((status, _, _), total)) = parse_framed(&conn.rbuf) {
                break Some((status, total));
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    stats.io_errors += 1;
                    *slot = None;
                    return;
                }
                Ok(k) => conn.rbuf.extend_from_slice(&chunk[..k]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break None,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    stats.io_errors += 1;
                    *slot = None;
                    return;
                }
            }
        };
        let Some((status, total)) = complete else { return };
        if stop.load(Ordering::SeqCst) {
            // Completed after the window closed: do not measure, stop.
            conn.done = true;
            *slot = None;
            return;
        }
        stats.latencies_us.push(conn.sent_at.elapsed().as_micros() as u64);
        match status {
            200..=299 => {}
            400..=499 => stats.client_4xx += 1,
            _ => stats.server_5xx += 1,
        }
        conn.rbuf.drain(..total);
        conn.awaiting = false; // closed loop: fire the next request
    }
}

fn connect_with_retry(addr: std::net::SocketAddr) -> TcpStream {
    for attempt in 0..50 {
        match TcpStream::connect_timeout(&addr, Duration::from_secs(5)) {
            Ok(s) => return s,
            Err(_) => std::thread::sleep(Duration::from_millis(10 * (attempt + 1))),
        }
    }
    panic!("could not connect to {addr} after 50 attempts");
}

fn scrape_metrics(http: &HttpClient) -> ServerSide {
    let (status, body) = http.request("GET", "/metrics", b"").expect("metrics");
    assert_eq!(status, 200, "metrics: {}", String::from_utf8_lossy(&body));
    let v: serde::Value = serde_json::from_slice(&body).expect("metrics json");
    let at = |path: &[&str]| -> u64 {
        let mut cur = &v;
        for key in path {
            cur = cur.get(key).unwrap_or_else(|| panic!("metrics missing {path:?}"));
        }
        match cur {
            serde::Value::UInt(n) => *n,
            other => panic!("metrics {path:?} not a uint: {other:?}"),
        }
    };
    ServerSide {
        requests: at(&["http", "requests"]),
        rejected_503: at(&["http", "rejected_503"]),
        accept_errors: at(&["http", "accept_errors"]),
        connections: at(&["http", "connections"]),
        keepalive_reuses: at(&["http", "keepalive_reuses"]),
    }
}

/// The `vppb` binary next to this harness (or `$VPPB_BIN`).
fn vppb_bin() -> String {
    if let Ok(bin) = std::env::var("VPPB_BIN") {
        return bin;
    }
    let me = std::env::current_exe().expect("current_exe");
    let bin = me.parent().expect("bin dir").join("vppb");
    assert!(
        bin.exists(),
        "{} not found — build the vppb binary first or set VPPB_BIN",
        bin.display()
    );
    bin.to_string_lossy().into_owned()
}
