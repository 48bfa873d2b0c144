//! `sweep`: what-if exploration over logs the service already holds.
//! Each op is one `PredictionService::sweep` with `jobs = 1` over a
//! 30-cell grid: cpus {1,2,4,8,16} × lwps {per-thread, 2, 4} × models
//! {solaris, async}. The engine does nearly all the work; ingest none.
//!
//! Inputs: the five Table-1 programs at 8 threads and prodcons-naive,
//! uploaded as text. A round sweeps FFT, the cheapest, twice and every
//! other input once: seven sweeps, an odd count, so the median falls
//! inside one input's cluster of samples. Every op is hot: it reads a
//! plan the set-up already cached.

use super::{
    build_app, end_to_end, ms_since, repeated_setup, replay_on, span_layers, EngineCounts, Run,
    Timed, CACHE_BYTES,
};
use crate::host::HostClock;
use crate::inputs::{self, Recorded};
use crate::report::Outcome;
use crate::schedule::{rounds_for, rounds_with_tail_inside, schedule};
use crate::trace::{Span, Tracer};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;
use vppb_model::{SimParams, VppbError};
use vppb_serve::service::{PredictionService, SweepRequest, SweepResponse};
use vppb_sim::{analyze, simulate_plan, ReplayPlan, SweepGrid};

const ROUND_S: f64 = 0.25;
const MIN_ROUNDS: usize = 4;
/// How strongly op times follow the host probe (see [`crate::host`]):
/// the log-log slope of a 30-cell sweep's time against the reading,
/// measured with the thread pinned to each vCPU in turn on the reference
/// host (0.76).
const SENSITIVITY: f64 = 0.75;

const CPUS: [u32; 5] = [1, 2, 4, 8, 16];

/// The grid's cells in service order, as simulation parameters.
fn grid() -> Vec<SimParams> {
    let lwps = ["per-thread", "2", "4"].map(parse_lwps);
    SweepGrid::over_cpus(CPUS)
        .with_lwps(lwps)
        .with_models([vppb_model::ModelKind::SolarisTs, vppb_model::ModelKind::AsyncPool])
        .configs()
        .into_iter()
        .map(|c| c.params)
        .collect()
}

fn parse_lwps(s: &str) -> vppb_model::LwpPolicy {
    match s {
        "per-thread" => vppb_model::LwpPolicy::PerThread,
        n => vppb_model::LwpPolicy::Fixed(n.parse().expect("numeric lwp count")),
    }
}

fn request(id: &str) -> SweepRequest {
    SweepRequest {
        id: id.to_string(),
        cpus: CPUS.to_vec(),
        lwps: Some(vec!["per-thread".into(), "2".into(), "4".into()]),
        comm_delay_us: None,
        model: Some(vec!["solaris".into(), "async".into()]),
        jobs: 1,
    }
}

/// One cell's answer, compared field by field.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    wall_ns: u64,
    des_events: u64,
    audit_clean: bool,
}

struct Input {
    rec: Recorded,
    id: String,
    plan: ReplayPlan,
    /// Serial `simulate_plan` of every grid cell, and the 1-CPU wall.
    expected: Vec<Cell>,
    uni_wall_ns: u64,
}

pub(super) struct Setup {
    inputs: Vec<Input>,
    svc: PredictionService,
    record_ms: f64,
}

/// The sweep inputs: Table-1 programs at 8 threads, then prodcons-naive.
pub(super) fn recordings(seed: u64) -> Result<Vec<Recorded>, VppbError> {
    let mut recs = inputs::table1(&[8])?;
    recs.push(inputs::case_study(false, inputs::duration_scale(seed))?);
    Ok(recs)
}

/// Sweeps per round of each input, in [`recordings`] order.
const PER_ROUND: [usize; 6] = [1, 1, 2, 1, 1, 1];

fn setup(seed: u64) -> Result<Setup, String> {
    let t = Instant::now();
    let recs = recordings(seed).map_err(|e| e.to_string())?;
    let record_ms = ms_since(t);
    let svc = PredictionService::new(CACHE_BYTES);
    let cells = grid();
    let mut inputs = Vec::new();
    for rec in recs {
        let id = svc.upload(&inputs::text(&rec.log)).map_err(|e| e.to_string())?.id;
        // Warm the service's plan with a one-cell sweep.
        let warm = SweepRequest { cpus: vec![1], lwps: None, model: None, ..request(&id) };
        svc.sweep(&warm).map_err(|e| e.to_string())?;
        let sim = |e: VppbError| e.to_string();
        let plan = analyze(&rec.log).map_err(sim)?;
        plan.tapes().map_err(sim)?;
        let mut expected = Vec::new();
        for params in &cells {
            let x = simulate_plan(&plan, &rec.log, params).map_err(sim)?;
            expected.push(Cell {
                wall_ns: x.wall_time.nanos(),
                des_events: x.des_events,
                audit_clean: x.audit.is_clean(),
            });
        }
        let uni_wall_ns =
            simulate_plan(&plan, &rec.log, &SimParams::cpus(1)).map_err(sim)?.wall_time.nanos();
        inputs.push(Input { rec, id, plan, expected, uni_wall_ns });
    }
    Ok(Setup { inputs, svc, record_ms })
}

/// Wrong cells in one response.
fn wrong_cells(input: &Input, r: &SweepResponse) -> usize {
    if r.points.len() != input.expected.len() || r.uni_wall_ns != input.uni_wall_ns {
        return input.expected.len().max(1);
    }
    r.points
        .iter()
        .zip(&input.expected)
        .filter(|(p, e)| {
            let got =
                Cell { wall_ns: p.wall_ns, des_events: p.des_events, audit_clean: p.audit_clean };
            let speedup = input.uni_wall_ns as f64 / e.wall_ns as f64;
            p.error.is_some() || got != **e || p.speedup != speedup
        })
        .count()
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let pinned = crate::host::pin_to_current_cpu();
    let (s, setup_s) = repeated_setup(run, SENSITIVITY, || setup(run.seed))?;
    let per_round_ops = PER_ROUND.iter().sum();
    let rounds = rounds_for(run.seconds, ROUND_S, MIN_ROUNDS);
    let ops = schedule(&PER_ROUND, rounds_with_tail_inside(&[per_round_ops], rounds), run.seed);

    let mut latency = Vec::with_capacity(ops.len());
    let mut responses = Vec::with_capacity(ops.len());
    let mut clock = HostClock::start(SENSITIVITY);
    for &kind in &ops {
        let t = Instant::now();
        let r = s.svc.sweep(&request(&s.inputs[kind].id));
        latency.push((ms_since(t), clock.segment()));
        responses.push(r);
        clock.tick();
    }
    clock.close();
    let timed = Timed { hot: latency.clone(), latency, clock };

    let mut out = Outcome { attempted: ops.len() as u64, ..Outcome::default() };
    out.notes.push(match pinned {
        Some(cpu) => format!("pinned to vCPU {cpu}"),
        None => "not pinned: the host refused".into(),
    });
    let mut wrong = 0;
    let (mut unique, mut cells) = (0usize, 0usize);
    for (&kind, r) in ops.iter().zip(&responses) {
        let input = &s.inputs[kind];
        match r {
            Ok(r) => {
                unique += r.unique_runs;
                cells += r.points.len();
                let bad = wrong_cells(input, r);
                if bad > 0 {
                    wrong += 1;
                    out.wrong(format!("{}: {bad} cells differ", input.rec.name));
                }
            }
            Err(e) => {
                wrong += 1;
                out.wrong(format!("{}: {e}", input.rec.name));
            }
        }
    }
    out.fail(wrong, || format!("{wrong} sweeps differ from serial simulate_plan"));

    // Table-1 cells among the answers: each program at 8 CPUs, one LWP
    // per thread, Solaris model (grid cell 3).
    let mut t1 = Vec::new();
    for (kind, input) in s.inputs.iter().enumerate() {
        let Some((suite, p)) = input.rec.cell else { continue };
        let Some(Ok(r)) = ops.iter().position(|&k| k == kind).map(|i| &responses[i]) else {
            continue;
        };
        t1.push((inputs::table1_real(suite, p).map_err(|e| e.to_string())?, r.points[3].speedup));
    }
    end_to_end(&mut out, &timed, setup_s, inputs::pred_error_pct(&t1));

    if run.trace {
        let untraced = timed.raw_total_ms();
        let (mut layers, spans) = traced(&s, &ops, untraced)?;
        let n = ops.len() as f64;
        let run_ms = layers.get("machine.run_ms").copied().unwrap_or(0.0);
        layers.insert("sim.sweep_rest_ms", untraced / n - run_ms);
        layers.insert("sim.sweep_unique_ratio", unique as f64 / cells.max(1) as f64);
        let plans = s.svc.metrics().plan_cache;
        let lookups = plans.hits + plans.misses;
        layers.insert("serve.plan_hit_ratio", plans.hits as f64 / lookups.max(1) as f64);
        layers.insert("recorder.record_ms", s.record_ms);
        out.layers = layers;
        out.spans = spans;
    }
    Ok(out)
}

/// Replay the schedule as the sweep does it: build the replay app once,
/// then run every distinct configuration (the 1-CPU reference first).
fn traced(
    s: &Setup,
    ops: &[usize],
    untraced_ms: f64,
) -> Result<(BTreeMap<&'static str, f64>, Vec<Span>), String> {
    let tr = Tracer::new(Instant::now());
    let cells = grid();
    let mut engine = EngineCounts::default();
    let mut traced_ms = 0.0;
    for (i, &kind) in ops.iter().enumerate() {
        tr.set_op(i as u32);
        let input = &s.inputs[kind];
        let t = Instant::now();
        let app = build_app(&tr, &input.plan, &input.rec.log).map_err(|e| e.to_string())?;
        let mut seen = HashSet::new();
        for params in std::iter::once(&SimParams::cpus(1)).chain(&cells) {
            if seen.insert(params.fingerprint()) {
                let r =
                    replay_on(&tr, &app, &input.plan, params, None).map_err(|e| e.to_string())?;
                engine.add(&r);
            }
        }
        traced_ms += ms_since(t);
    }
    let spans = tr.into_spans();
    let mut layers = span_layers(&spans, ops.len(), untraced_ms, traced_ms);
    engine.fill(&mut layers, ops.len());
    Ok((layers, spans))
}
