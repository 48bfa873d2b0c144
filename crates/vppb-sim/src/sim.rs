//! The Simulator's front door: a plan of a log and checked
//! [`SimParams`] in, one [`RunResult`] out (boxes d → g of the paper's
//! fig. 1).
//!
//! Outside input (CLI flags, service requests, sweep grid cells) becomes
//! `SimParams` through [`crate::sim_params`] only, and every engine run
//! checks the machine again ([`vppb_model::MachineConfig::check`]).
//! [`replay_plan`] is the one plan replay, with a scheduling observer and
//! a [`Timeline`] choice: the predicted timeline is recorded only for a
//! caller that reads it. [`simulate`], [`simulate_plan`] and
//! [`simulate_plan_metrics`] replay once and record; [`predict`] divides
//! the [`reference_params`] run, which records none, by the recorded
//! N-CPU run.

use crate::plan::ReplayPlan;
use crate::rules::ReplayRules;
use crate::sorter::analyze;
use vppb_machine::{
    run, JitterModel, ManipTable, MetricsObserver, NullHooks, RunLimits, RunOptions, RunResult,
    SchedObserver,
};
use vppb_model::{Duration, SchedMetrics, SimParams, ThreadId, Time, TraceLog, VppbError};
use vppb_threads::{App, Body, FuncDecl, FuncId, TapeCursor};

/// Build the synthetic replay [`App`] from a plan.
///
/// Fails (rather than panicking) on plans whose create bookkeeping is
/// inconsistent — a `thr_create` with no recorded child, or a child with
/// no thread plan. [`analyze`] never produces such plans; the checks
/// guard hand-built or future deserialized ones.
pub fn build_replay_app(
    plan: &ReplayPlan,
    source_map: vppb_model::SourceMap,
) -> Result<App, VppbError> {
    // The op lists come pre-compiled from the plan's tape cache, so a
    // sweep over CPU counts pays the plan→tape compile exactly once.
    let tapes = plan.tapes()?;
    tape_app(plan, tapes.iter().map(|ops| TapeCursor::new(ops.clone())), source_map)
}

/// Assemble a replay [`App`] around per-thread tapes, capped or not, in
/// plan order: one function per recorded thread, so tape `i` is
/// `FuncId(i)`. O(threads), not O(ops): the op lists are shared.
pub(crate) fn tape_app(
    plan: &ReplayPlan,
    tapes: impl IntoIterator<Item = TapeCursor>,
    source_map: vppb_model::SourceMap,
) -> Result<App, VppbError> {
    let functions = plan
        .threads
        .iter()
        .zip(tapes)
        .map(|(tp, tape)| FuncDecl {
            name: tp.start_fn.clone(),
            entry: tp.entry,
            body: Body::Tape(tape),
        })
        .collect();
    let main =
        plan.threads.iter().position(|t| t.id == ThreadId::MAIN).map(FuncId).ok_or_else(|| {
            VppbError::MalformedLog("replay plan: no plan for the main thread".into())
        })?;
    Ok(App {
        name: format!("{} (replay)", plan.program),
        functions,
        main,
        source_map,
        sem_initial: plan.sem_initial.clone(),
        n_mutexes: plan.n_mutexes,
        n_condvars: plan.n_condvars,
        n_rwlocks: plan.n_rwlocks,
        barrier_parties: plan.barrier_parties.clone(),
        once_init: plan.once_init.clone(),
        var_initial: vec![],
    })
}

/// Whether a replay records its predicted timeline: the transitions and
/// placed events of the result's `trace`, the Visualizer's input (§3.3).
/// Everything else a [`RunResult`] carries — wall time, DES count, CPU
/// busy and total time, thread count, `trace.threads` and the audit,
/// which checks the CPU-occupancy law online — is the same either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Timeline {
    /// Record the timeline, for a caller that draws or compares it.
    Record,
    /// Record none, for a caller that reads only times, counts and the
    /// audit: a speed-up's two walls, a sweep cell, a follow predict.
    Skip,
}

/// Simulate the multiprocessor execution described by `params` from the
/// recorded information in `log`. The result's `trace` is the predicted
/// timeline, the Visualizer's input.
pub fn simulate(log: &TraceLog, params: &SimParams) -> Result<RunResult, VppbError> {
    let plan = analyze(log)?;
    simulate_plan(&plan, log, params)
}

/// Like [`simulate`], reusing a precomputed plan (the harness sweeps many
/// CPU counts over one log).
pub fn simulate_plan(
    plan: &ReplayPlan,
    log: &TraceLog,
    params: &SimParams,
) -> Result<RunResult, VppbError> {
    let app = build_replay_app(plan, log.header.source_map.clone())?;
    replay_plan(&app, plan, params, None, Timeline::Record)
}

/// Like [`simulate_plan`], additionally returning the scheduling metrics
/// of the replay run (context switches, migrations, contention, queue
/// depths), which `--metrics-json` dumps beside the timeline's
/// divergence report.
pub fn simulate_plan_metrics(
    plan: &ReplayPlan,
    log: &TraceLog,
    params: &SimParams,
) -> Result<(RunResult, SchedMetrics), VppbError> {
    let app = build_replay_app(plan, log.header.source_map.clone())?;
    replay_plan_metrics(&app, plan, params, Timeline::Record)
}

/// [`replay_plan`] with a [`MetricsObserver`] attached: the run and its
/// scheduling metrics. The service's `/metrics` rollup reads the metrics
/// of runs that record no timeline.
pub fn replay_plan_metrics(
    app: &App,
    plan: &ReplayPlan,
    params: &SimParams,
    timeline: Timeline,
) -> Result<(RunResult, SchedMetrics), VppbError> {
    let mut metrics = MetricsObserver::new();
    let result = replay_plan(app, plan, params, Some(&mut metrics), timeline)?;
    metrics.finish(&result);
    Ok((result, metrics.into_metrics()))
}

/// Replay `plan` through its replay `app` ([`build_replay_app`]) under
/// `params` on the machine engine, reporting every scheduling decision to
/// `observer` and recording the predicted timeline if `timeline` asks.
/// The one plan replay: every `simulate*`, [`predict`], each sweep cell
/// and the checkpoint chain's cold fallback run through it.
pub fn replay_plan(
    app: &App,
    plan: &ReplayPlan,
    params: &SimParams,
    observer: Option<&mut dyn SchedObserver>,
    timeline: Timeline,
) -> Result<RunResult, VppbError> {
    replay_on(app, plan, params, observer, timeline, run)
}

/// Execute a plan replay on an arbitrary *engine* — any function with the
/// shape of [`vppb_machine::run`], or of [`vppb_machine::run_stream`]
/// with its stream control bound — recording the timeline.
///
/// This is the seam differential testing hangs off: the replay rules,
/// id assignment, thread manipulations and cost conventions are set up
/// here exactly once, so the optimized engine and the `vppb-oracle`
/// executable specification replay the *same plan under the same
/// options* and any disagreement in their decision streams is a
/// scheduling bug, not a harness artifact.
pub fn replay_with_engine<R, E>(
    app: &App,
    plan: &ReplayPlan,
    params: &SimParams,
    observer: Option<&mut dyn SchedObserver>,
    engine: E,
) -> Result<R, VppbError>
where
    E: FnOnce(&App, &vppb_model::MachineConfig, RunOptions<'_>) -> Result<R, VppbError>,
{
    replay_on(app, plan, params, observer, Timeline::Record, engine)
}

/// [`replay_with_engine`] with a [`Timeline`] choice: the run setup every
/// replay shares, the checkpoint chain's segments included.
pub(crate) fn replay_on<R, E>(
    app: &App,
    plan: &ReplayPlan,
    params: &SimParams,
    observer: Option<&mut dyn SchedObserver>,
    timeline: Timeline,
    engine: E,
) -> Result<R, VppbError>
where
    E: FnOnce(&App, &vppb_model::MachineConfig, RunOptions<'_>) -> Result<R, VppbError>,
{
    // The paper's Simulator does not model kernel LWP context-switch
    // overhead (§6); mirror that unless the caller overrode the cost.
    let mut machine = params.machine.clone();
    machine.base_costs.lwp_switch = Duration::ZERO;

    // `RunOptions` borrows everything under one lifetime; wrapping the
    // caller's observer in a local forwarder lets it coexist with the
    // locally owned rules/hooks.
    struct Fwd<'x>(&'x mut dyn SchedObserver);
    impl SchedObserver for Fwd<'_> {
        fn on_sched(&mut self, now: Time, ev: &vppb_machine::SchedEvent) {
            self.0.on_sched(now, ev);
        }
    }
    let mut fwd = observer.map(Fwd);

    let mut rules = ReplayRules::new(plan, params.barrier_aware_broadcast);
    let create_map = plan.create_map.clone();
    let mut hooks = NullHooks;
    let opts = RunOptions {
        interceptor: Some(&mut rules),
        id_assigner: Some(Box::new(move |creator, seq| {
            create_map.get(&(creator, seq)).copied().unwrap_or(ThreadId(u32::MAX))
            // unreachable for valid plans
        })),
        manips: ManipTable::from_map(&params.manips),
        jitter: JitterModel::none(),
        limits: RunLimits::default(),
        record_trace: timeline == Timeline::Record,
        observer: fwd.as_mut().map(|f| f as &mut dyn SchedObserver),
        faults: params.faults,
        size_hint: plan.total_ops(),
        ..RunOptions::new(&mut hooks)
    };
    engine(app, &machine, opts).map_err(|e| match e {
        VppbError::ProgramError(msg) => VppbError::ReplayDiverged(msg),
        other => other,
    })
}

/// The 1-CPU reference run a predicted speed-up divides by: one CPU
/// under the scheduling model and the `cond_broadcast` replay rule of
/// `params`, defaults otherwise (no manipulations, no faults), so the
/// ratio compares two replays of one model under one rule.
pub fn reference_params(params: &SimParams) -> SimParams {
    let mut uni = SimParams::cpus(1);
    uni.machine.model = params.machine.model;
    uni.barrier_aware_broadcast = params.barrier_aware_broadcast;
    uni
}

/// Table-1 speed-up: the 1-CPU reference wall over an N-CPU wall, and 0.0
/// for a run of zero length.
pub fn speedup(uni: Time, wall: Time) -> f64 {
    if wall == Time::ZERO {
        return 0.0;
    }
    uni.nanos() as f64 / wall.nanos() as f64
}

/// A predicted speed-up the way Table 1 reports it: the predicted 1-CPU
/// wall time and the predicted N-CPU execution, both replayed from the
/// same log, so recording intrusion cancels out.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Predicted wall time of the [`reference_params`] run.
    pub uni_wall: Time,
    /// The predicted N-CPU execution.
    pub run: RunResult,
    /// Scheduling metrics of the N-CPU run.
    pub metrics: SchedMetrics,
}

impl Prediction {
    /// The 1-CPU wall over the N-CPU wall.
    pub fn speedup(&self) -> f64 {
        speedup(self.uni_wall, self.run.wall_time)
    }
}

/// Predict the speed-up under `params` from a plan of `log`: the
/// [`reference_params`] run, which records no timeline (only its wall is
/// read), then the recorded N-CPU run with its metrics, both on one
/// replay app.
pub fn predict(
    plan: &ReplayPlan,
    log: &TraceLog,
    params: &SimParams,
) -> Result<Prediction, VppbError> {
    let app = build_replay_app(plan, log.header.source_map.clone())?;
    let uni = reference_params(params);
    let uni_wall = replay_plan(&app, plan, &uni, None, Timeline::Skip)?.wall_time;
    let (run, metrics) = replay_plan_metrics(&app, plan, params, Timeline::Record)?;
    Ok(Prediction { uni_wall, run, metrics })
}
