//! `serve`: the HTTP front end under closed-loop load. An in-process
//! `vppb_serve::start` server (memory-only, default options, so one
//! worker per core) holds the sweep inputs, uploaded as text, with the
//! result memo warmed for cpus {2, 4, 8}. Two client threads each drive
//! one keep-alive connection through a fixed list of `POST /predict`
//! requests. 90 % are memo hits; 10 % are what-if predicts on 8 CPUs
//! with a `comm_delay_us` the server has not seen, so a memo miss and a
//! plan hit: one engine run.
//!
//! The hot requests are the memo hits. The memo empties itself when it
//! reaches 8,192 entries; `serve.memo_cleared` records whether the run
//! crossed that point (after it, each hot request misses once).

use super::{
    build_app, end_to_end, ms_since, repeated_setup, replay_on, span_layers, sweep, EngineCounts,
    Run, Timed, CACHE_BYTES,
};
use crate::host::{probe_ms, HostClock};
use crate::http::{encode_request, Conn, Reply};
use crate::inputs::{self, Recorded};
use crate::report::Outcome;
use crate::schedule::{rounds_for, schedule, Rng};
use crate::trace::{merge, Span, Tracer};
use serde::Value;
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::Instant;
use vppb_machine::MetricsObserver;
use vppb_model::{ModelKind, SimParams};
use vppb_serve::http::{parse_request, Parse, Response};
use vppb_serve::service::{PredictRequest, PredictResponse, PredictionService};
use vppb_serve::{ServeOptions, Server};
use vppb_sim::{analyze, ReplayPlan};

/// One round on the reference host, seconds (60 requests).
const ROUND_S: f64 = 0.0086;
const MIN_ROUNDS: usize = 20;
/// How strongly request latencies follow the host probe (see
/// [`crate::host`]): across two sets of runs on the reference host,
/// median `ops_per_s` as measured fell from 12,619 to 9,515 while the
/// median reading rose from 1.069 to 1.453 ms, a log-log slope of 0.93.
/// (Per segment inside a run the slope reads only 0.3: a segment's two
/// readings say little about where its requests ran.)
const SENSITIVITY: f64 = 0.9;
const HOT_CPUS: [u32; 3] = [2, 4, 8];
/// Copies of each hot request per round; every log gets one miss.
const HOT_COPIES: usize = 3;
const CLIENTS: usize = 2;
/// The service's result-memo cap: it empties itself on reaching it.
const MEMO_CAP: usize = 8192;
/// Requests per client between host-clock segment boundaries (about
/// 0.15 s on the reference host).
const SEGMENT_REQUESTS: usize = 1024;
/// The default `comm_delay` is 1 µs, so miss delays start above it.
const FIRST_MISS_DELAY_US: u64 = 2;
const MAX_BODY: usize = 256 * 1024 * 1024;

struct Log {
    rec: Recorded,
    id: String,
    plan: ReplayPlan,
    uni_wall_ns: u64,
}

/// A running server with its uploads warmed, and an in-process service
/// that has seen the same uploads and warm-ups.
struct Setup {
    server: Option<Server>,
    logs: Vec<Log>,
    reference: PredictionService,
    /// Wire bytes and expected body of each hot request, log-major.
    hot: Vec<(Vec<u8>, Vec<u8>)>,
    record_ms: f64,
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

fn body(id: &str, cpus: u32, comm_delay_us: Option<u64>) -> String {
    match comm_delay_us {
        None => format!("{{\"id\":\"{id}\",\"cpus\":{cpus}}}"),
        Some(d) => format!("{{\"id\":\"{id}\",\"cpus\":{cpus},\"comm_delay_us\":{d}}}"),
    }
}

fn ok_body(r: std::io::Result<Reply>, what: &str) -> Result<Vec<u8>, String> {
    match r {
        Ok(r) if r.status == 200 => Ok(r.body),
        Ok(r) => Err(format!("{what}: HTTP {}", r.status)),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

fn setup(seed: u64) -> Result<Setup, String> {
    let t = Instant::now();
    let recs = sweep::recordings(seed).map_err(|e| e.to_string())?;
    let record_ms = ms_since(t);
    let opts = ServeOptions { addr: "127.0.0.1:0".into(), ..ServeOptions::default() };
    let server = vppb_serve::start(opts).map_err(|e| format!("starting the server: {e}"))?;
    let mut s = Setup {
        server: Some(server),
        logs: Vec::new(),
        reference: PredictionService::new(CACHE_BYTES),
        hot: Vec::new(),
        record_ms,
    };
    let mut conn = s.conn()?;
    for rec in recs {
        let text = inputs::text(&rec.log);
        let up = ok_body(conn.call(&encode_request("POST", "/logs", &text)), "upload")?;
        let id = match serde_json::from_slice::<Value>(&up).ok().and_then(|v| v.get("id").cloned())
        {
            Some(Value::Str(id)) => id,
            _ => return Err("upload answered no id".into()),
        };
        s.reference.upload(&text).map_err(|e| e.to_string())?;
        let mut uni_wall_ns = 0;
        for cpus in HOT_CPUS {
            let wire = encode_request("POST", "/predict", body(&id, cpus, None).as_bytes());
            ok_body(conn.call(&wire), "warm-up predict")?;
            let (r, _) =
                s.reference.predict(&PredictRequest::new(&id, cpus)).map_err(|e| e.to_string())?;
            uni_wall_ns = r.uni_wall_ns;
            s.hot.push((wire, serde_json::to_vec(&*r).map_err(|e| e.to_string())?));
        }
        let plan = analyze(&rec.log).map_err(|e| e.to_string())?;
        s.logs.push(Log { rec, id, plan, uni_wall_ns });
    }
    Ok(s)
}

impl Setup {
    fn conn(&self) -> Result<Conn, String> {
        let addr = self.server.as_ref().expect("server running").local_addr();
        Conn::connect(addr).map_err(|e| format!("connecting: {e}"))
    }
}

/// One scheduled request.
#[derive(Clone)]
struct Op {
    /// Index into `Setup::hot`, or `None` for a miss.
    hot: Option<usize>,
    log: usize,
    /// The miss's comm delay (0 for hot requests).
    delay_us: u64,
    wire: Arc<Vec<u8>>,
}

/// The request list: per round, every hot request [`HOT_COPIES`] times
/// and one miss per log. Miss delays are a seeded permutation of one
/// fixed set per log, so every seed sends the same requests.
fn ops(s: &Setup, rounds: usize, seed: u64) -> Vec<Op> {
    let n_hot = s.hot.len();
    let per_round: Vec<usize> =
        (0..n_hot).map(|_| HOT_COPIES).chain(s.logs.iter().map(|_| 1)).collect();
    let mut rng = Rng::new(seed ^ 0xDE1A);
    let mut delays: Vec<Vec<u64>> = s
        .logs
        .iter()
        .map(|_| {
            let mut d: Vec<u64> = (0..rounds as u64).map(|r| FIRST_MISS_DELAY_US + r).collect();
            rng.shuffle(&mut d);
            d
        })
        .collect();
    let hot_wire: Vec<Arc<Vec<u8>>> = s.hot.iter().map(|(w, _)| Arc::new(w.clone())).collect();
    schedule(&per_round, rounds, seed)
        .into_iter()
        .map(|kind| {
            if kind < n_hot {
                let log = kind / HOT_CPUS.len();
                Op { hot: Some(kind), log, delay_us: 0, wire: Arc::clone(&hot_wire[kind]) }
            } else {
                let log = kind - n_hot;
                let delay_us = delays[log].pop().expect("one delay per round");
                let b = body(&s.logs[log].id, 8, Some(delay_us));
                let wire = Arc::new(encode_request("POST", "/predict", b.as_bytes()));
                Op { hot: None, log, delay_us, wire }
            }
        })
        .collect()
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    /// `(op index, latency ms, memo hit, clock segment)` per answered
    /// request.
    latency: Vec<(usize, f64, bool, usize)>,
    /// Miss bodies to verify after the run.
    miss_bodies: Vec<(usize, Vec<u8>)>,
    failed: u64,
    problems: Vec<String>,
    spans: Vec<Span>,
    /// Host readings on this client's thread, one at each segment
    /// boundary (both clients read at once, each on its own vCPU).
    readings: Vec<f64>,
    /// Wall time of each segment, s (the first client's log only).
    segments: Vec<f64>,
}

/// Drive `ops` over [`CLIENTS`] keep-alive connections, closed loop.
/// Before the first request, every [`SEGMENT_REQUESTS`] requests per
/// client and after the last, both clients stop at a barrier and take a
/// host reading at once.
/// `decompose` is called after each answered request with the op index
/// and the thread's tracer (traced runs only).
fn load(
    s: &Setup,
    ops: &[Op],
    tracing: bool,
    decompose: &(dyn Fn(&Tracer, usize) -> Result<(), String> + Sync),
) -> Result<Vec<ClientLog>, String> {
    // Every client passes every boundary: each has at least this many ops.
    let shortest = ops.len() / CLIENTS;
    let conns = (0..CLIENTS).map(|_| s.conn()).collect::<Result<Vec<_>, _>>()?;
    let barrier = Barrier::new(CLIENTS);
    let epoch = Instant::now();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let tr = Tracer::new(epoch);
                    let mut log = ClientLog::default();
                    let mine: Vec<usize> = (c..ops.len()).step_by(CLIENTS).collect();
                    let mut answered = 0;
                    let mut gone = false;
                    log.readings.push(probe_ms());
                    barrier.wait();
                    let mut opened = Instant::now();
                    let mut seg = 0;
                    for (k, &i) in mine.iter().enumerate() {
                        if k > 0 && k % SEGMENT_REQUESTS == 0 && k < shortest {
                            barrier.wait();
                            log.segments.push(opened.elapsed().as_secs_f64());
                            log.readings.push(probe_ms());
                            barrier.wait();
                            opened = Instant::now();
                            seg += 1;
                        }
                        if gone {
                            continue;
                        }
                        let op = &ops[i];
                        let t = Instant::now();
                        let reply = conn.call(&op.wire);
                        let ms = ms_since(t);
                        match reply {
                            Ok(r) if r.status == 200 => {
                                match op.hot {
                                    Some(h) if r.body != s.hot[h].1 => {
                                        log.problem(format!("op {i}: hot body differs"));
                                    }
                                    Some(_) => answered += 1,
                                    None => {
                                        answered += 1;
                                        log.miss_bodies.push((i, r.body));
                                    }
                                }
                                log.latency.push((i, ms, r.hit == Some(true), seg));
                            }
                            Ok(r) => log.problem(format!("op {i}: HTTP {}", r.status)),
                            // The connection is gone: the rest of its ops
                            // fail, but the client still meets the others
                            // at every segment boundary.
                            Err(e) => {
                                log.problem(format!("op {i}: {e}"));
                                gone = true;
                                continue;
                            }
                        }
                        if tracing {
                            tr.set_op(i as u32);
                            if let Err(e) = decompose(&tr, i) {
                                log.failed += 1;
                                log.problem(format!("traced op {i}: {e}"));
                            }
                        }
                    }
                    log.failed += (mine.len() - answered) as u64;
                    barrier.wait();
                    log.segments.push(opened.elapsed().as_secs_f64());
                    log.readings.push(probe_ms());
                    log.spans = tr.into_spans();
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
    });
    Ok(logs)
}

impl ClientLog {
    /// Keep the first few reasons a request failed.
    fn problem(&mut self, what: String) {
        if self.problems.len() < 5 {
            self.problems.push(what);
        }
    }
}

/// A number at `path` in a JSON document, 0 when absent.
fn num(v: &Value, path: &[&str]) -> f64 {
    match path.iter().try_fold(v, |v, k| v.get(k)) {
        Some(Value::UInt(n)) => *n as f64,
        Some(Value::Int(n)) => *n as f64,
        Some(Value::Float(x)) => *x,
        _ => 0.0,
    }
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let (s, setup_s) = repeated_setup(run, SENSITIVITY, || setup(run.seed))?;
    let ops = ops(&s, rounds_for(run.seconds, ROUND_S, MIN_ROUNDS), run.seed);

    let mut clients = load(&s, &ops, false, &|_, _| Ok(()))?;
    let mut out = Outcome { attempted: ops.len() as u64, ..Outcome::default() };
    let mut latency = vec![None; ops.len()];
    let mut hot = Vec::new();
    for c in &clients {
        out.fail(c.failed, || c.problems.join("; "));
        for &(i, ms, hit, seg) in &c.latency {
            latency[i] = Some((ms, seg));
            if hit {
                hot.push((ms, seg));
            }
        }
    }
    // A boundary's reading is the mean over the clients; the segments'
    // wall times are the first client's (both left each barrier at once).
    let readings = (0..clients[0].readings.len())
        .map(|b| clients.iter().map(|c| c.readings[b]).sum::<f64>() / CLIENTS as f64)
        .collect();
    let clock =
        HostClock::from_parts(SENSITIVITY, readings, std::mem::take(&mut clients[0].segments));
    let timed = Timed { latency: latency.into_iter().flatten().collect(), hot, clock };

    // Every miss body must be byte-equal to the in-process service's
    // answer; the reference work runs after the timed phase.
    let misses: Vec<&(usize, Vec<u8>)> = clients.iter().flat_map(|c| &c.miss_bodies).collect();
    let wrong: u64 = std::thread::scope(|scope| {
        let parts: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (misses, ops, s) = (&misses, &ops, &s);
                scope.spawn(move || {
                    let mut wrong = 0u64;
                    for (i, got) in misses.iter().skip(t).step_by(CLIENTS).map(|m| (m.0, &m.1)) {
                        let op = &ops[i];
                        let mut req = PredictRequest::new(&s.logs[op.log].id, 8);
                        req.comm_delay_us = Some(op.delay_us);
                        let want = s
                            .reference
                            .predict(&req)
                            .ok()
                            .and_then(|(r, _)| serde_json::to_vec(&*r).ok());
                        wrong += u64::from(want.as_ref() != Some(got));
                    }
                    wrong
                })
            })
            .collect();
        parts.into_iter().map(|p| p.join().expect("verifier thread")).sum()
    });
    out.fail(wrong, || format!("{wrong} miss bodies differ from the in-process service"));

    let metrics = {
        let mut conn = s.conn()?;
        let doc = ok_body(conn.call(&encode_request("GET", "/metrics", b"")), "metrics")?;
        serde_json::from_slice::<Value>(&doc).map_err(|e| format!("metrics: {e}"))?
    };
    let entries = num(&metrics, &["service", "result_cache", "entries"]) as usize;
    let cleared = entries < s.hot.len() + misses.len();
    out.notes.push(format!(
        "{} requests, {} misses, memo entries {entries} (cap {MEMO_CAP}, cleared: {cleared})",
        ops.len(),
        misses.len()
    ));

    // Table-1 cells among the answers: the 8-thread programs on 8 CPUs.
    let mut cells = Vec::new();
    for (l, log) in s.logs.iter().enumerate() {
        let Some((suite, p)) = log.rec.cell else { continue };
        let (_, want) = &s.hot[l * HOT_CPUS.len() + HOT_CPUS.len() - 1];
        let resp: Value = serde_json::from_slice(want).map_err(|e| e.to_string())?;
        let real = inputs::table1_real(suite, p).map_err(|e| e.to_string())?;
        cells.push((real, num(&resp, &["speedup"])));
    }
    end_to_end(&mut out, &timed, setup_s, inputs::pred_error_pct(&cells));

    if run.trace {
        let untraced = timed.raw_total_ms();
        let (mut layers, spans) = traced(run, &ops, untraced)?;
        let lookups = num(&metrics, &["service", "result_cache", "hits"])
            + num(&metrics, &["service", "result_cache", "misses"]);
        let plan_lookups = num(&metrics, &["service", "plan_cache", "hits"])
            + num(&metrics, &["service", "plan_cache", "misses"]);
        layers.insert(
            "serve.memo_hit_ratio",
            num(&metrics, &["service", "result_cache", "hits"]) / lookups.max(1.0),
        );
        layers.insert(
            "serve.plan_hit_ratio",
            num(&metrics, &["service", "plan_cache", "hits"]) / plan_lookups.max(1.0),
        );
        layers.insert("serve.queue_peak", num(&metrics, &["admission", "peak_queued"]));
        layers.insert(
            "serve.shed",
            num(&metrics, &["admission", "shed_queue_full"])
                + num(&metrics, &["admission", "shed_tenant_backlog"]),
        );
        layers.insert("serve.memo_cleared", f64::from(u8::from(cleared)));
        layers.insert("recorder.record_ms", s.record_ms);
        out.layers = layers;
        out.spans = spans;
    }
    Ok(out)
}

/// Replay the schedule against a fresh set-up; after each request the
/// client thread repeats the server's work in-process, one span per
/// stage: the HTTP and JSON decode, the service call (a memo hit, or for
/// a miss the engine run the service makes), and the response encode.
fn traced(
    run: &Run,
    ops: &[Op],
    untraced_ms: f64,
) -> Result<(BTreeMap<&'static str, f64>, Vec<Span>), String> {
    let s = setup(run.seed)?;
    let engine = std::sync::Mutex::new(EngineCounts::default());
    let decompose = |tr: &Tracer, i: usize| -> Result<(), String> {
        let op = &ops[i];
        let req = tr.span("serve.http_parse_us", || match parse_request(&op.wire, MAX_BODY) {
            Parse::Ready { request, .. } => {
                serde_json::from_slice::<PredictRequest>(&request.body).map_err(|e| e.to_string())
            }
            other => Err(format!("request did not parse: {other:?}")),
        })?;
        let response: Arc<PredictResponse> = match op.hot {
            Some(_) => tr.span("serve.predict_hit_us", || {
                s.reference.predict(&req).map(|(r, _)| r).map_err(|e| e.to_string())
            }),
            None => tr.span("serve.predict_miss_ms", || {
                let log = &s.logs[op.log];
                let mut params = SimParams::cpus(req.cpus);
                params.machine.comm_delay =
                    vppb_model::Duration::from_micros(req.comm_delay_us.unwrap_or(1));
                let app = build_app(tr, &log.plan, &log.rec.log).map_err(|e| e.to_string())?;
                let mut observer = MetricsObserver::new();
                let multi = replay_on(tr, &app, &log.plan, &params, Some(&mut observer))
                    .map_err(|e| e.to_string())?;
                observer.finish(&multi);
                engine.lock().expect("engine counts").add(&multi);
                let wall_ns = multi.wall_time.nanos();
                Ok(Arc::new(PredictResponse {
                    id: req.id.clone(),
                    program: log.rec.log.header.program.clone(),
                    cpus: req.cpus,
                    model: ModelKind::SolarisTs.name().to_string(),
                    wall_ns,
                    uni_wall_ns: log.uni_wall_ns,
                    speedup: log.uni_wall_ns as f64 / wall_ns as f64,
                    audit_clean: multi.audit.is_clean(),
                    des_events: multi.des_events,
                }))
            }),
        }?;
        tr.span("serve.http_encode_us", || {
            Response::json(200, &*response)
                .with_header("x-vppb-cache", if op.hot.is_some() { "hit" } else { "miss" })
                .with_request("1")
                .encode(true)
        });
        Ok(())
    };
    let clients = load(&s, ops, true, &decompose)?;
    if let Some(c) = clients.iter().find(|c| c.failed > 0) {
        return Err(c.problems.join("; "));
    }
    let traced_ms: f64 = clients.iter().flat_map(|c| &c.latency).map(|l| l.1).sum();
    let spans = merge(clients.into_iter().map(|c| c.spans).collect());
    let n = ops.len();
    let mut layers = span_layers(&spans, n, untraced_ms, traced_ms);
    engine.into_inner().expect("engine counts").fill(&mut layers, n);
    // Service calls per call of their kind, not per op.
    let n_miss = ops.iter().filter(|o| o.hot.is_none()).count().max(1) as f64;
    let inclusive = |name: &str| -> f64 {
        spans.iter().filter(|s| s.name == name).map(|s| (s.end_ns - s.start_ns) as f64).sum()
    };
    layers.insert(
        "serve.predict_hit_us",
        inclusive("serve.predict_hit_us") / 1e3 / (n as f64 - n_miss),
    );
    layers.insert("serve.predict_miss_ms", inclusive("serve.predict_miss_ms") / 1e6 / n_miss);
    let stages: f64 = [
        "serve.http_parse_us",
        "serve.predict_hit_us",
        "serve.predict_miss_ms",
        "serve.http_encode_us",
    ]
    .iter()
    .map(|name| inclusive(name) / 1e6)
    .sum();
    layers.insert("serve.wire_ms", (untraced_ms - stages) / n as f64);
    Ok((layers, spans))
}
