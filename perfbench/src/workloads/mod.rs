//! The four workloads and what they share: repeated set-up, the
//! end-to-end metric block, and traced replays through the simulator.

pub mod cold;
pub mod serve;
pub mod stream;
pub mod sweep;

use crate::host::{self, HostClock, REFERENCE_PROBE_MS};
use crate::report::{Metric, Outcome};
use crate::schedule::{median, percentile, tail};
use crate::trace::{self_times, Span, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;
use vppb_machine::{RunResult, SchedObserver};
use vppb_model::{SimParams, TraceLog, VppbError};
use vppb_serve::service::PredictResponse;
use vppb_sim::{build_replay_app, replay_with_engine, ReplayPlan};
use vppb_threads::App;

/// Plan-cache budget of every service the benchmark creates (the
/// `vppb serve` default).
pub const CACHE_BYTES: u64 = 64 * 1024 * 1024;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// What a prediction answers, compared field by field against a
/// reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    pub wall_ns: u64,
    pub uni_wall_ns: u64,
    pub des_events: u64,
    pub audit_clean: bool,
}

impl Answer {
    /// The fields of a service response.
    pub fn of(r: &PredictResponse) -> Answer {
        Answer {
            wall_ns: r.wall_ns,
            uni_wall_ns: r.uni_wall_ns,
            des_events: r.des_events,
            audit_clean: r.audit_clean,
        }
    }
}

/// One invocation's arguments.
pub struct Run {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Process start: the first set-up is timed from here.
    pub started: Instant,
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `setup_s` as reported (reference-host seconds) and as measured.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    pub scaled_s: f64,
    pub raw_s: f64,
}

/// Run `setup` [`SETUP_REPS`] times and keep the last result. Returns it
/// with the median set-up time. The first set-up is timed from process
/// start; earlier results are dropped between set-ups, outside the timer.
/// A probe reading follows each set-up, and each set-up is scaled by the
/// readings on either side of it (the first by the one after it), for a
/// workload of `sensitivity` (see [`host`]).
pub fn repeated_setup<T, E: std::fmt::Display>(
    run: &Run,
    sensitivity: f64,
    mut setup: impl FnMut() -> Result<T, E>,
) -> Result<(T, SetupTime), String> {
    let (mut raw, mut scaled, mut readings) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for i in 0..SETUP_REPS {
        drop(last.take());
        let t = if i == 0 { run.started } else { Instant::now() };
        last = Some(setup().map_err(|e| format!("set-up failed: {e}"))?);
        let s = t.elapsed().as_secs_f64();
        readings.push(host::probe_ms());
        raw.push(s);
        scaled.push(s * host::scale(&readings[i.saturating_sub(1)..], sensitivity));
    }
    let time = SetupTime { scaled_s: median(&scaled), raw_s: median(&raw) };
    Ok((last.expect("at least one set-up"), time))
}

/// What the untraced timed phase measured.
pub struct Timed {
    /// Per-op latency as measured, ms, with the clock segment the op ran
    /// in; in op order.
    pub latency: Vec<(f64, usize)>,
    /// The hot ops (see the workload docs), likewise.
    pub hot: Vec<(f64, usize)>,
    /// The phase's segments and host readings.
    pub clock: HostClock,
}

impl Timed {
    /// The summed op latency as measured, ms.
    pub fn raw_total_ms(&self) -> f64 {
        self.latency.iter().map(|l| l.0).sum()
    }

    /// Latencies in reference-host ms, ascending.
    fn scaled_sorted(&self, samples: &[(f64, usize)]) -> Vec<f64> {
        let mut v: Vec<f64> = samples.iter().map(|&(ms, seg)| ms * self.clock.scale(seg)).collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Fill in the end-to-end block. Metrics always appear in this order.
/// Timings are in reference-host units (see [`host`]); the values as
/// measured go to stderr.
pub fn end_to_end(out: &mut Outcome, timed: &Timed, setup: SetupTime, pred_error_pct: f64) {
    let sorted = timed.scaled_sorted(&timed.latency);
    let hot = timed.scaled_sorted(&timed.hot);
    let n = sorted.len();
    let (Some(t), Some(h)) = (tail(&sorted), tail(&hot)) else {
        out.problems.push(format!("too few samples for a tail ({n} ops, {} hot)", hot.len()));
        return;
    };
    out.notes.push(format!(
        "latency_tail_ms = p{} with {} of {n} samples beyond; hot_tail_ms = p{} with {} of {} beyond",
        t.pct,
        t.beyond,
        h.pct,
        h.beyond,
        hot.len()
    ));
    let mut raw: Vec<f64> = timed.latency.iter().map(|l| l.0).collect();
    raw.sort_by(f64::total_cmp);
    out.notes.push(format!(
        "host probe median {:.3} ms over {} readings (reference {REFERENCE_PROBE_MS} ms); \
         as measured: setup_s {:.4}, ops_per_s {:.2}, latency_p50_ms {:.4}, latency_tail_ms {:.4}",
        timed.clock.median_reading(),
        timed.clock.readings(),
        setup.raw_s,
        n as f64 / timed.clock.raw_phase_s(),
        percentile(&raw, 50),
        tail(&raw).map_or(f64::NAN, |t| t.value),
    ));
    let m = |name, unit, value| Metric { name, unit, value };
    out.end_to_end = vec![
        m("setup_s", "s", setup.scaled_s),
        m("ops_per_s", "1/s", n as f64 / timed.clock.phase_s()),
        m("latency_p50_ms", "ms", percentile(&sorted, 50)),
        m("latency_tail_ms", "ms", t.value),
        m("hot_tail_ms", "ms", h.value),
        m("peak_heap_mb", "MiB", crate::heap::peak_mb()),
        m("pred_error_pct", "%", pred_error_pct),
    ];
}

/// Per-layer values derived from spans: every span name's self time as
/// a mean per op (ms), plus `trace.coverage_pct` and `trace.overhead_pct`.
/// `untraced_ms` is the untraced latency of the same ops, `traced_ms`
/// what the traced run measured for them.
pub fn span_layers(
    spans: &[Span],
    ops: usize,
    untraced_ms: f64,
    traced_ms: f64,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let mut covered_ns = 0u64;
    for (name, (ns, _)) in self_times(spans) {
        covered_ns += ns;
        let per_op_ms = ns as f64 / 1e6 / ops as f64;
        out.insert(name, if name.ends_with("_us") { per_op_ms * 1e3 } else { per_op_ms });
    }
    out.insert("trace.coverage_pct", 100.0 * covered_ns as f64 / 1e6 / untraced_ms);
    out.insert("trace.overhead_pct", 100.0 * (traced_ms / untraced_ms - 1.0));
    out
}

/// Build a plan's replay app, as every simulate call does.
pub fn build_app(tr: &Tracer, plan: &ReplayPlan, log: &TraceLog) -> Result<App, VppbError> {
    tr.span("sim.build_app_ms", || build_replay_app(plan, log.header.source_map.clone()))
}

/// Replay `app` under `params` the way the simulator's front door does,
/// with the engine run in its own span.
pub fn replay_on(
    tr: &Tracer,
    app: &App,
    plan: &ReplayPlan,
    params: &SimParams,
    observer: Option<&mut dyn SchedObserver>,
) -> Result<RunResult, VppbError> {
    tr.span("sim.replay_ms", || {
        replay_with_engine(app, plan, params, observer, |app, cfg, opts| {
            tr.span("machine.run_ms", || vppb_machine::run(app, cfg, opts))
        })
    })
}

/// Engine counters accumulated over a traced run.
#[derive(Default)]
pub struct EngineCounts {
    pub runs: u64,
    pub des_events: u64,
}

impl EngineCounts {
    pub fn add(&mut self, r: &RunResult) {
        self.runs += 1;
        self.des_events += r.des_events;
    }

    /// `machine.runs`, `machine.des_events` per op, and `ns_per_event`
    /// against the engine self time already in `layers`.
    pub fn fill(&self, layers: &mut BTreeMap<&'static str, f64>, ops: usize) {
        let run_ms = layers.get("machine.run_ms").copied().unwrap_or(0.0);
        layers.insert("machine.runs", self.runs as f64 / ops as f64);
        layers.insert("machine.des_events", self.des_events as f64 / ops as f64);
        if self.des_events > 0 {
            layers
                .insert("machine.ns_per_event", run_ms * 1e6 * ops as f64 / self.des_events as f64);
        }
    }
}
