//! The differential driver: engine vs. oracle over a configuration grid.
//!
//! For each seed: synthesize a program ([`crate::gen`]), record it on the
//! monitored 1-CPU/1-LWP machine, analyze the log into a replay plan, and
//! replay that plan through **both** schedulers — the optimized
//! [`vppb_machine::run`] and the naive [`crate::engine::run_with`] — under
//! every point of a scheduler-model × CPU-count × LWP-policy grid. The
//! recording side always runs the Solaris model (the monitored machine is
//! what it is); the *replay* machine's `model` is a grid axis, so the
//! engine's work-stealing pool and the oracle's naive mirror are compared
//! with exactly the same rigor as the Solaris queues. The two runs must
//! agree
//! *bit for bit*: same wall time, same DES event count and the same full
//! stream of scheduling decisions (every dispatch, preemption, enqueue,
//! block, wakeup and priority change, via [`vppb_machine::StepRecorder`]),
//! not just the same makespan; and the engine's run must pass its
//! conservation audit. The first disagreement is reported as the first
//! divergent dispatch decision. The engine walks each replay tape with its
//! own cursor while the oracle walks it through the reference
//! [`vppb_threads::TapeProgram`], so the grid checks the cursor too.

use crate::engine::OracleTweaks;
use crate::gen::{GenParams, ProgSpec};
use vppb_machine::{first_divergence, StepRecorder};
use vppb_model::{Binding, LwpPolicy, ModelKind, SimParams, ThreadManip, VppbError};
use vppb_recorder::{record, RecordOptions};
use vppb_sim::{analyze, build_replay_app, replay_with_engine, ReplayPlan};

/// LWP-policy axis of the replay grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LwpMode {
    /// One LWP per unbound thread (`SimParams::cpus` default).
    PerThread,
    /// Two pool LWPs multiplexing all unbound threads.
    FixedTwo,
    /// Three pool LWPs: the smallest pool where a work-stealing worker
    /// has *two* distinct victims, making steal **order** observable
    /// (with two workers any scan order finds the same lone victim).
    FixedThree,
    /// Per-thread LWPs, but every other recorded thread re-bound to a
    /// dedicated LWP via what-if manipulation.
    BoundMix,
}

impl LwpMode {
    /// All modes, in grid order.
    pub const ALL: [LwpMode; 4] =
        [LwpMode::PerThread, LwpMode::FixedTwo, LwpMode::FixedThree, LwpMode::BoundMix];
}

impl std::fmt::Display for LwpMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LwpMode::PerThread => write!(f, "per-thread"),
            LwpMode::FixedTwo => write!(f, "2-lwp"),
            LwpMode::FixedThree => write!(f, "3-lwp"),
            LwpMode::BoundMix => write!(f, "bound-mix"),
        }
    }
}

/// The model × CPU × LWP-policy grid a seed is checked over.
#[derive(Debug, Clone)]
pub struct ConfigGrid {
    /// Simulated CPU counts.
    pub cpus: Vec<u32>,
    /// LWP policies.
    pub modes: Vec<LwpMode>,
    /// User-level scheduling models the replay machine runs.
    pub models: Vec<ModelKind>,
}

impl Default for ConfigGrid {
    fn default() -> ConfigGrid {
        ConfigGrid {
            cpus: vec![1, 2, 4, 8],
            modes: LwpMode::ALL.to_vec(),
            models: vec![ModelKind::SolarisTs, ModelKind::AsyncPool],
        }
    }
}

impl ConfigGrid {
    /// The default grid restricted to one scheduling model.
    pub fn for_model(model: ModelKind) -> ConfigGrid {
        ConfigGrid { models: vec![model], ..ConfigGrid::default() }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.cpus.len() * self.modes.len() * self.models.len()
    }

    /// Whether the grid is degenerate.
    pub fn is_empty(&self) -> bool {
        self.cpus.is_empty() || self.modes.is_empty() || self.models.is_empty()
    }
}

/// One engine/oracle disagreement.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Generator seed of the offending program.
    pub seed: u64,
    /// Grid point where the schedules split.
    pub cpus: u32,
    /// Grid point where the schedules split.
    pub mode: LwpMode,
    /// Scheduling model at the diverging grid point.
    pub model: ModelKind,
    /// Human-readable account: the first divergent scheduling decision,
    /// a wall-time or DES-count mismatch, a failed engine audit, or a
    /// one-sided error.
    pub detail: String,
    /// Size of the offending replay plan in ops — the shrinker's metric.
    pub plan_ops: usize,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {:#018x} on {} cpu(s), {} lwps, {} model ({} plan ops):\n{}",
            self.seed,
            self.cpus,
            self.mode,
            self.model.name(),
            self.plan_ops,
            self.detail
        )
    }
}

/// Aggregate over a seed corpus.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Seeds checked.
    pub seeds: usize,
    /// Total (seed × grid point) comparisons performed.
    pub configs_checked: usize,
    /// Every divergence found (one per offending seed, first grid point).
    pub divergences: Vec<Divergence>,
}

impl FuzzReport {
    /// Whether the whole corpus agreed.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Build the `SimParams` for one grid point. `BoundMix` needs the plan to
/// know which thread ids exist.
pub fn params_for(cpus: u32, mode: LwpMode, model: ModelKind, plan: &ReplayPlan) -> SimParams {
    let mut p = SimParams::cpus(cpus);
    p.machine.model = model;
    match mode {
        LwpMode::PerThread => {}
        LwpMode::FixedTwo => p.machine.lwps = LwpPolicy::Fixed(2),
        LwpMode::FixedThree => p.machine.lwps = LwpPolicy::Fixed(3),
        LwpMode::BoundMix => {
            for (i, t) in plan.threads.iter().enumerate() {
                // Re-bind every other non-main thread.
                if i > 0 && i % 2 == 1 {
                    p = p.manip(
                        t.id,
                        ThreadManip { binding: Some(Binding::BoundLwp), priority: None },
                    );
                }
            }
        }
    }
    p
}

/// Record `spec`, then replay its plan through engine and oracle at every
/// grid point. Returns the first divergence, or `None` if all points
/// agree. Errors are *pipeline* failures (record/analyze), which the
/// generator rules out by construction — they indicate harness bugs, not
/// scheduling divergences.
pub fn check_spec(
    spec: &ProgSpec,
    grid: &ConfigGrid,
    tweaks: OracleTweaks,
) -> Result<Option<Divergence>, VppbError> {
    let app = spec.build_app();
    let rec = record(&app, &RecordOptions::default())?;
    let plan = analyze(&rec.log)?;
    let replay_app = build_replay_app(&plan, rec.log.header.source_map.clone())?;
    let plan_ops = plan.total_ops();

    for &model in &grid.models {
        for &cpus in &grid.cpus {
            for &mode in &grid.modes {
                let params = params_for(cpus, mode, model, &plan);
                let mut engine_steps = StepRecorder::new();
                let engine_run = replay_with_engine(
                    &replay_app,
                    &plan,
                    &params,
                    Some(&mut engine_steps),
                    vppb_machine::run,
                );
                let mut oracle_steps = StepRecorder::new();
                let oracle_run = replay_with_engine(
                    &replay_app,
                    &plan,
                    &params,
                    Some(&mut oracle_steps),
                    |a, c, o| crate::engine::run_with(a, c, o, tweaks),
                );
                let diverged = |detail: String| Divergence {
                    seed: spec.seed,
                    cpus,
                    mode,
                    model,
                    detail,
                    plan_ops,
                };
                let (engine_run, oracle_run) = match (engine_run, oracle_run) {
                    (Ok(e), Ok(o)) => (e, o),
                    (Err(e), Ok(_)) => {
                        return Ok(Some(diverged(format!("engine errored, oracle succeeded: {e}"))))
                    }
                    (Ok(_), Err(o)) => {
                        return Ok(Some(diverged(format!("oracle errored, engine succeeded: {o}"))))
                    }
                    // Both failing identically is agreement; differing
                    // messages are a divergence.
                    (Err(e), Err(o)) => {
                        if e.to_string() == o.to_string() {
                            continue;
                        }
                        return Ok(Some(diverged(format!(
                            "both errored, differently:\n  engine: {e}\n  oracle: {o}"
                        ))));
                    }
                };
                if let Some(d) = first_divergence(engine_steps.steps(), oracle_steps.steps()) {
                    return Ok(Some(diverged(d.to_string())));
                }
                if engine_run.wall_time != oracle_run.wall_time {
                    return Ok(Some(diverged(format!(
                        "identical decision streams but different wall times: engine {} vs oracle {}",
                        engine_run.wall_time, oracle_run.wall_time
                    ))));
                }
                if engine_run.des_events != oracle_run.des_events {
                    return Ok(Some(diverged(format!(
                        "identical decision streams but different DES event counts: engine {} vs \
                         oracle {}",
                        engine_run.des_events, oracle_run.des_events
                    ))));
                }
                if !engine_run.audit.is_clean() {
                    return Ok(Some(diverged(format!(
                        "engine run failed its audit:\n{}",
                        engine_run.audit.render()
                    ))));
                }
            }
        }
    }
    Ok(None)
}

/// Run a whole seed corpus: generate each seed's program, record it, and
/// compare engine and oracle over the grid. Pipeline errors are folded
/// into the report as divergences (detail-tagged), so CI sees them
/// without aborting the sweep.
pub fn fuzz_corpus(
    seeds: impl IntoIterator<Item = u64>,
    gen: &GenParams,
    grid: &ConfigGrid,
    tweaks: OracleTweaks,
) -> FuzzReport {
    let mut report = FuzzReport::default();
    for seed in seeds {
        report.seeds += 1;
        match check_spec(&ProgSpec::generate(seed, gen), grid, tweaks) {
            Ok(None) => report.configs_checked += grid.len(),
            Ok(Some(d)) => {
                report.configs_checked += 1;
                report.divergences.push(d);
            }
            Err(e) => report.divergences.push(Divergence {
                seed,
                cpus: 0,
                mode: LwpMode::PerThread,
                model: ModelKind::SolarisTs,
                detail: format!("pipeline error (not a scheduling divergence): {e}"),
                plan_ops: 0,
            }),
        }
    }
    report
}
