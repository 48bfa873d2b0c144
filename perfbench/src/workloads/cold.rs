//! `cold`: every op is a first-time user. It creates a fresh
//! `PredictionService`, uploads one log and predicts on as many CPUs as
//! the program has threads. Ingest and analysis do most of the work;
//! binary decode of the LU logs sets the throughput and the tail.
//!
//! Inputs, each used once per round (33): the five Table-1 programs at
//! 2, 4 and 8 threads in text and in binary, prodcons-naive in text and
//! binary, and prodcons-improved in text. The hot ops are those on text
//! logs: the default format, which skips the binary decode that
//! dominates this workload.

use super::{
    build_app, end_to_end, ms_since, repeated_setup, replay_on, span_layers, Answer, EngineCounts,
    Run, Timed, CACHE_BYTES,
};
use crate::host::HostClock;
use crate::inputs::{self, Recorded, TABLE1_THREADS};
use crate::report::Outcome;
use crate::schedule::{rounds_for, rounds_with_tail_inside, schedule};
use crate::trace::{Span, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;
use vppb_machine::MetricsObserver;
use vppb_model::{binlog, salvage_traced, textlog, ContentId, SimParams, TraceLog, VppbError};
use vppb_serve::service::{PredictRequest, PredictionService};
use vppb_sim::{analyze, simulate_plan};

/// One round on the reference host (2 vCPUs), seconds.
const ROUND_S: f64 = 0.7;
const MIN_ROUNDS: usize = 4;
/// How strongly op times follow the host probe (see [`crate::host`]):
/// the log-log slope of a cold op's time against the reading, measured
/// with the thread pinned to each vCPU in turn on the reference host
/// (0.88 for a text op, 0.85 for an LU binary op).
const SENSITIVITY: f64 = 0.85;

struct Input {
    /// Index into `Setup::recs`.
    rec: usize,
    binary: bool,
    bytes: Vec<u8>,
}

struct Setup {
    recs: Vec<Recorded>,
    inputs: Vec<Input>,
    /// Per recording: the answer computed from the in-memory log.
    expected: Vec<Answer>,
    record_ms: f64,
}

fn setup(seed: u64) -> Result<Setup, VppbError> {
    let t = Instant::now();
    let mut recs = inputs::table1(&TABLE1_THREADS)?;
    let scale = inputs::duration_scale(seed);
    recs.push(inputs::case_study(false, scale)?);
    recs.push(inputs::case_study(true, scale)?);
    let record_ms = ms_since(t);
    let mut inputs = Vec::new();
    for (rec, r) in recs.iter().enumerate() {
        inputs.push(Input { rec, binary: false, bytes: inputs::text(&r.log) });
        // prodcons-improved in binary takes ~17 s to decode: out of scope.
        if r.name != "prodcons-improved" {
            inputs.push(Input { rec, binary: true, bytes: inputs::binary(&r.log)? });
        }
    }
    let expected = recs.iter().map(|r| reference(&r.log, r.threads)).collect::<Result<_, _>>()?;
    Ok(Setup { recs, inputs, expected, record_ms })
}

/// The service's answer, computed straight from the recording.
fn reference(log: &TraceLog, cpus: u32) -> Result<Answer, VppbError> {
    let plan = analyze(log)?;
    let uni = simulate_plan(&plan, log, &SimParams::cpus(1))?;
    let multi = simulate_plan(&plan, log, &SimParams::cpus(cpus))?;
    Ok(Answer {
        wall_ns: multi.wall_time.nanos(),
        uni_wall_ns: uni.wall_time.nanos(),
        des_events: multi.des_events,
        audit_clean: multi.audit.is_clean(),
    })
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let pinned = crate::host::pin_to_current_cpu();
    let (s, setup_s) = repeated_setup(run, SENSITIVITY, || setup(run.seed))?;
    let per_round = vec![1; s.inputs.len()];
    let n_text = s.inputs.iter().filter(|i| !i.binary).count();
    let rounds = rounds_for(run.seconds, ROUND_S, MIN_ROUNDS);
    let rounds = rounds_with_tail_inside(&[per_round.len(), n_text], rounds);
    let ops = schedule(&per_round, rounds, run.seed);

    let mut latency = Vec::with_capacity(ops.len());
    let mut hot = Vec::with_capacity(ops.len());
    let (mut upload_ms, mut predict_ms) = (0.0, 0.0);
    let mut answers = Vec::with_capacity(ops.len());
    let (mut memo_hits, mut plan_hits, mut lookups) = (0u64, 0u64, 0u64);
    let mut clock = HostClock::start(SENSITIVITY);
    for &kind in &ops {
        let input = &s.inputs[kind];
        let cpus = s.recs[input.rec].threads;
        let t0 = Instant::now();
        let svc = PredictionService::new(CACHE_BYTES);
        let mut t1 = t0;
        let answer = svc.upload(&input.bytes).and_then(|up| {
            t1 = Instant::now();
            svc.predict(&PredictRequest::new(up.id, cpus))
        });
        let t2 = Instant::now();
        let sample = ((t2 - t0).as_secs_f64() * 1e3, clock.segment());
        latency.push(sample);
        if !input.binary {
            hot.push(sample);
        }
        upload_ms += (t1 - t0).as_secs_f64() * 1e3;
        predict_ms += (t2 - t1).as_secs_f64() * 1e3;
        answers.push(answer.map(|(r, _)| Answer::of(&r)));
        let m = svc.metrics();
        memo_hits += m.result_cache.hits;
        plan_hits += m.plan_cache.hits;
        lookups += m.result_cache.hits + m.result_cache.misses;
        drop(svc);
        clock.tick();
    }
    clock.close();
    let timed = Timed { latency, hot, clock };

    // Every answer must equal the in-memory reference, so the text and
    // binary form of each log answer alike.
    let mut out = Outcome { attempted: ops.len() as u64, ..Outcome::default() };
    out.notes.push(match pinned {
        Some(cpu) => format!("pinned to vCPU {cpu}"),
        None => "not pinned: the host refused".into(),
    });
    let mut wrong = 0;
    for (&kind, answer) in ops.iter().zip(&answers) {
        let rec = s.inputs[kind].rec;
        match answer {
            Ok(a) if *a == s.expected[rec] => {}
            Ok(a) => {
                wrong += 1;
                let e = s.expected[rec];
                out.wrong(format!("{}: answered {a:?}, expected {e:?}", s.recs[rec].name));
            }
            Err(e) => {
                wrong += 1;
                out.wrong(format!("{}: {e}", s.recs[rec].name));
            }
        }
    }
    out.fail(wrong, || format!("{wrong} cold answers differ from the reference"));

    // Prediction error over the 15 Table-1 cells, from the answers given.
    let mut cells = Vec::new();
    for (rec, r) in s.recs.iter().enumerate() {
        let Some((suite, p)) = r.cell else { continue };
        let given = ops.iter().zip(&answers).find_map(|(&k, a)| match a {
            Ok(a) if s.inputs[k].rec == rec => Some(a.uni_wall_ns as f64 / a.wall_ns as f64),
            _ => None,
        });
        if let Some(pred) = given {
            cells.push((inputs::table1_real(suite, p).map_err(|e| e.to_string())?, pred));
        }
    }
    if cells.len() != 15 {
        out.problems.push(format!("only {} of 15 Table-1 cells answered", cells.len()));
    }
    end_to_end(&mut out, &timed, setup_s, inputs::pred_error_pct(&cells));

    if run.trace {
        let untraced = timed.raw_total_ms();
        let n = ops.len();
        let (mut layers, spans) = traced(&s, &ops, untraced)?;
        layers.insert("serve.upload_ms", upload_ms / n as f64);
        layers.insert("serve.predict_miss_ms", predict_ms / n as f64);
        let ratio = |hits: u64| if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
        layers.insert("serve.memo_hit_ratio", ratio(memo_hits));
        layers.insert("serve.plan_hit_ratio", ratio(plan_hits));
        layers.insert("recorder.record_ms", s.record_ms);
        out.layers = layers;
        out.spans = spans;
    }
    Ok(out)
}

/// Replay the schedule through the public functions the service calls,
/// in its order, one span per call.
fn traced(
    s: &Setup,
    ops: &[usize],
    untraced_ms: f64,
) -> Result<(BTreeMap<&'static str, f64>, Vec<Span>), String> {
    let tr = Tracer::new(Instant::now());
    let mut engine = EngineCounts::default();
    let (mut callsites, mut records, mut edits, mut plan_ops) = (0usize, 0usize, 0usize, 0usize);
    let mut traced_ms = 0.0;
    for (i, &kind) in ops.iter().enumerate() {
        tr.set_op(i as u32);
        let input = &s.inputs[kind];
        let cpus = s.recs[input.rec].threads;
        let t = Instant::now();
        let mut step = || -> Result<(), VppbError> {
            let bytes = input.bytes.as_slice();
            let (mut log, _diagnostics) = if bytes.starts_with(b"VPPB") {
                tr.span("model.binlog_decode_ms", || binlog::decode_lenient(bytes))?
            } else {
                tr.span("model.textlog_parse_ms", || {
                    textlog::parse_log_lenient(&String::from_utf8_lossy(bytes))
                })
            };
            if tr.span("model.validate_ms", || log.validate()).is_err() {
                let (report, _) = tr.span("model.salvage_ms", || salvage_traced(&mut log));
                edits += report.edits.len();
                tr.span("model.validate_ms", || log.validate())?;
            }
            let canonical = tr.span("model.encode_ms", || binlog::encode(&log))?;
            tr.span("model.hash_ms", || ContentId::of_bytes(&canonical));
            let plan = tr.span("sim.analyze_ms", || analyze(&log))?;
            tr.span("sim.tapes_ms", || plan.tapes())?;
            let app = build_app(&tr, &plan, &log)?;
            engine.add(&replay_on(&tr, &app, &plan, &SimParams::cpus(1), None)?);
            drop(app);
            let app = build_app(&tr, &plan, &log)?;
            let mut observer = MetricsObserver::new();
            let multi = replay_on(&tr, &app, &plan, &SimParams::cpus(cpus), Some(&mut observer))?;
            observer.finish(&multi);
            engine.add(&multi);
            callsites += log.header.source_map.len();
            records += log.len();
            plan_ops += plan.total_ops();
            Ok(())
        };
        step().map_err(|e| format!("traced op {i}: {e}"))?;
        traced_ms += ms_since(t);
    }
    let n = ops.len();
    let spans = tr.into_spans();
    let mut layers = span_layers(&spans, n, untraced_ms, traced_ms);
    engine.fill(&mut layers, n);
    layers.insert("model.callsites", callsites as f64 / n as f64);
    layers.insert("model.records", records as f64 / n as f64);
    layers.insert("model.salvage_edits", edits as f64 / n as f64);
    layers.insert("sim.plan_ops", plan_ops as f64 / n as f64);
    Ok((layers, spans))
}
