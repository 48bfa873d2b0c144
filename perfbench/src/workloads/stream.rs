//! `stream`: a user follows a growing log. The lock-step mill (8 workers
//! × 400 rounds, about 21.6k records) is recorded in v2 binary, the only
//! format the incremental path takes, and cut into 200 record-aligned
//! chunks at seeded offsets. Each session uploads the first chunk on a
//! fresh service and appends the other 199; every chunk is followed by
//! `predict_follow` on 8 CPUs. One op = one chunk plus its follow
//! predict, so a session is 200 ops and the op cost grows along it.
//!
//! This is the only workload on the checkpoint chain and the service's
//! append path. The hot part of an op is its follow predict.

use super::{end_to_end, ms_since, repeated_setup, span_layers, Answer, Run, Timed, CACHE_BYTES};
use crate::host::HostClock;
use crate::inputs;
use crate::report::Outcome;
use crate::schedule::{rounds_for, Rng};
use crate::trace::{Span, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;
use vppb_model::{binlog, chunk, ContentId, SimParams, VppbError};
use vppb_serve::service::PredictionService;
use vppb_sim::{cold_run, StreamSession};

const WORKERS: u32 = 8;
const ROUNDS: u64 = 400;
const CHUNKS: usize = 200;
const CPUS: u32 = 8;
/// One session on the reference host, seconds.
const SESSION_S: f64 = 0.5;
const MIN_SESSIONS: usize = 2;
/// How strongly op times follow the host probe (see [`crate::host`]):
/// the log-log slope of an append plus follow predict against the
/// reading, measured with the thread pinned to each vCPU in turn on the
/// reference host (0.66).
const SENSITIVITY: f64 = 0.65;
/// Chunks (besides the last) whose answers are checked against a cold run.
const SAMPLED: usize = 6;

struct Setup {
    bytes: Vec<u8>,
    /// End offset of each chunk; the last is `bytes.len()`.
    cuts: Vec<usize>,
    record_ms: f64,
}

fn setup(seed: u64) -> Result<Setup, VppbError> {
    let t = Instant::now();
    let log = inputs::record_app(&inputs::mill(WORKERS, ROUNDS))?;
    let record_ms = ms_since(t);
    let bytes = binlog::encode(&log)?;
    let bounds = chunk::record_boundaries(&bytes);
    // Evenly spaced cuts, each moved by a seeded offset of under a
    // quarter of the spacing, so chunks stay non-empty and ordered.
    let step = bounds.len() / CHUNKS;
    let mut rng = Rng::new(seed);
    let mut cuts: Vec<usize> =
        (1..CHUNKS).map(|i| bounds[i * step + rng.below(step / 2) - step / 4]).collect();
    cuts.push(bytes.len());
    Ok(Setup { bytes, cuts, record_ms })
}

impl Setup {
    fn chunk(&self, k: usize) -> &[u8] {
        let start = if k == 0 { 0 } else { self.cuts[k - 1] };
        &self.bytes[start..self.cuts[k]]
    }
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let pinned = crate::host::pin_to_current_cpu();
    let (s, setup_s) = repeated_setup(run, SENSITIVITY, || setup(run.seed))?;
    let sessions = rounds_for(run.seconds, SESSION_S, MIN_SESSIONS);

    let mut latency = Vec::with_capacity(sessions * CHUNKS);
    let mut hot = Vec::with_capacity(sessions * CHUNKS);
    let mut append_ms = Vec::new();
    let mut answers: Vec<Result<Answer, String>> = Vec::with_capacity(sessions * CHUNKS);
    let (mut memo_hits, mut lookups) = (0u64, 0u64);
    let mut clock = HostClock::start(SENSITIVITY);
    for _ in 0..sessions {
        let svc = PredictionService::new(CACHE_BYTES);
        let mut id = String::new();
        for k in 0..CHUNKS {
            let t0 = Instant::now();
            let grown = if k == 0 {
                svc.upload(s.chunk(0)).map(|up| id = up.id)
            } else {
                svc.append(&id, s.chunk(k)).map(|_| ())
            };
            let t1 = Instant::now();
            let answer = grown.and_then(|()| svc.predict_follow(&id, CPUS));
            let t2 = Instant::now();
            latency.push(((t2 - t0).as_secs_f64() * 1e3, clock.segment()));
            hot.push(((t2 - t1).as_secs_f64() * 1e3, clock.segment()));
            if k > 0 {
                append_ms.push((t1 - t0).as_secs_f64() * 1e3);
            }
            answers.push(answer.map_err(|e| e.to_string()).map(|(r, _)| Answer::of(&r)));
            if k + 1 == CHUNKS {
                let m = svc.metrics().result_cache;
                memo_hits += m.hits;
                lookups += m.hits + m.misses;
            }
            clock.tick();
        }
    }
    clock.close();
    let timed = Timed { latency, hot, clock };

    let mut out = Outcome { attempted: answers.len() as u64, ..Outcome::default() };
    out.notes.push(match pinned {
        Some(cpu) => format!("pinned to vCPU {cpu}"),
        None => "not pinned: the host refused".into(),
    });
    let errors = answers.iter().filter(|a| a.is_err()).count() as u64;
    out.fail(errors, || format!("{errors} stream ops failed"));
    // Outside the timer: the last chunk and a seeded sample of the others
    // must match a cold run over the same prefix, in every session.
    let mut rng = Rng::new(run.seed ^ 0xC0FFEE);
    let mut sample: Vec<usize> = (0..SAMPLED).map(|_| rng.below(CHUNKS - 1)).collect();
    sample.push(CHUNKS - 1);
    let mut wrong = 0;
    for &k in &sample {
        let prefix = &s.bytes[..s.cuts[k]];
        let cold = |cpus| cold_run(prefix, &SimParams::cpus(cpus)).map_err(|e| e.to_string());
        let (multi, uni) = (cold(CPUS)?, cold(1)?);
        let want = Answer {
            wall_ns: multi.wall_time.nanos(),
            uni_wall_ns: uni.wall_time.nanos(),
            des_events: multi.des_events,
            audit_clean: multi.audit.is_clean(),
        };
        for session in 0..sessions {
            if let Ok(got) = &answers[session * CHUNKS + k] {
                if *got != want {
                    wrong += 1;
                    out.wrong(format!("chunk {k}: followed {got:?}, cold {want:?}"));
                }
            }
        }
    }
    out.fail(wrong, || format!("{wrong} follow predictions differ from a cold run"));

    // The final follow prediction against the mill's real speed-up.
    let last = answers[CHUNKS - 1].clone()?;
    let mill = inputs::mill(WORKERS, ROUNDS);
    let real =
        vppb_bench::harness::real_speedup(&mill, &mill, CPUS).map_err(|e| e.to_string())?.median;
    let predicted = last.uni_wall_ns as f64 / last.wall_ns as f64;
    end_to_end(&mut out, &timed, setup_s, inputs::pred_error_pct(&[(real, predicted)]));

    if run.trace {
        let untraced = timed.raw_total_ms();
        let (mut layers, spans) = traced(&s, sessions, untraced)?;
        let n = timed.latency.len() as f64;
        layers.insert("serve.append_ms", append_ms.iter().sum::<f64>() / append_ms.len() as f64);
        layers.insert("serve.predict_miss_ms", timed.hot.iter().map(|h| h.0).sum::<f64>() / n);
        layers.insert("serve.memo_hit_ratio", memo_hits as f64 / lookups.max(1) as f64);
        layers.insert("recorder.record_ms", s.record_ms);
        out.layers = layers;
        out.spans = spans;
    }
    Ok(out)
}

/// Replay the sessions through a `StreamSession` of our own, calling
/// what the service's append and follow predict call, in their order.
fn traced(
    s: &Setup,
    sessions: usize,
    untraced_ms: f64,
) -> Result<(BTreeMap<&'static str, f64>, Vec<Span>), String> {
    let tr = Tracer::new(Instant::now());
    let (uni, multi) = (SimParams::cpus(1), SimParams::cpus(CPUS));
    let (mut resumed, mut saved, mut events) = (0u64, 0u64, 0u64);
    let mut traced_ms = 0.0;
    let mut op = 0u32;
    for _ in 0..sessions {
        let mut session = StreamSession::new();
        for k in 0..CHUNKS {
            tr.set_op(op);
            op += 1;
            let t = Instant::now();
            let mut step = |session: &mut StreamSession| -> Result<(), VppbError> {
                let state = tr.span("sim.stream_append_ms", || session.append(s.chunk(k)))?;
                let canonical = tr.span("model.encode_ms", || binlog::encode(&state.loaded.log))?;
                tr.span("model.hash_ms", || ContentId::of_bytes(&canonical));
                tr.span("sim.stream_predict_ms", || session.predict(&uni))?;
                let banked = session.checkpoint_events(&multi);
                let r = tr.span("sim.stream_predict_ms", || session.predict(&multi))?;
                events += r.des_events;
                if session.checkpoint_events(&multi).is_some() {
                    resumed += 1;
                    saved += banked.unwrap_or(0);
                }
                Ok(())
            };
            step(&mut session).map_err(|e| format!("traced chunk {k}: {e}"))?;
            traced_ms += ms_since(t);
        }
    }
    let spans = tr.into_spans();
    let n = sessions * CHUNKS;
    let mut layers = span_layers(&spans, n, untraced_ms, traced_ms);
    layers.insert("sim.stream_resumed_ratio", resumed as f64 / n as f64);
    layers.insert("sim.stream_saved_event_ratio", saved as f64 / events.max(1) as f64);
    Ok((layers, spans))
}
