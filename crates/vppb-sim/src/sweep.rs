//! Parallel what-if configuration sweeps — the paper's cheap-exploration
//! promise, industrialised.
//!
//! One recorded execution, many machine configurations: the sweep engine
//! analyzes the log once, builds the replay [`App`] once, shares both
//! immutably behind [`Arc`] across `std::thread::scope` workers, and
//! replays every configuration of a grid (CPUs × LWP policies ×
//! communication delays × scheduling models) concurrently.
//! Identical configurations are deduplicated by fingerprint and simulated
//! once; every grid cell still gets its row in the resulting speed-up
//! surface.
//!
//! Cells that cannot differ share a run too. A replay that never holds
//! more than `L` LWPs at once ([`lwp_bound`]) occupies only CPUs `0..L`
//! (the engine fills idle CPUs lowest index first) and never preempts,
//! so on any CPU count above `L` it is step for step the run on `L`
//! CPUs. Each cell's CPU count is therefore folded to `min(cpus, L)`
//! before it is fingerprinted; its row still reports its own CPU count,
//! and its utilization is computed over that many CPUs.
//!
//! A cell records no timeline ([`Timeline::Skip`]): a sweep reports
//! each configuration's wall time, utilization, DES cost and audit
//! verdict, and nothing reads a cell's trace. The audit stays complete
//! without one (the CPU-occupancy law is checked online).
//!
//! Determinism is untouched: each replay is an independent, fully seeded
//! engine run, so every point of a parallel sweep equals what serial
//! [`crate::simulate`] calls report (there is a regression test for it).

use crate::plan::ReplayPlan;
use crate::sim::{build_replay_app, replay_plan, speedup, Timeline};
use crate::sorter::analyze;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use vppb_machine::RunResult;
use vppb_model::{
    Binding, ConfigError, Duration, LwpPolicy, MachineConfig, ModelKind, SimParams, Time, TraceLog,
    VppbError,
};
use vppb_threads::{Action, LibCall};

/// The one way a configuration spelled outside the program — a CLI flag,
/// a service request, a sweep grid cell — becomes [`SimParams`]: `cpus`
/// processors, the LWP policy, the cross-CPU communication delay in µs
/// (`None`: the machine default) and the scheduler model, checked by
/// [`MachineConfig::check`]. The µs convert with a checked multiply, so a
/// delay too long for a nanosecond count is refused rather than wrapped.
/// The error names the refused field.
pub fn sim_params(
    cpus: u32,
    lwps: LwpPolicy,
    comm_delay_us: Option<u64>,
    model: ModelKind,
) -> Result<SimParams, ConfigError> {
    let mut machine = MachineConfig::sun_enterprise(cpus).with_lwps(lwps).with_model(model);
    if let Some(us) = comm_delay_us {
        machine.comm_delay = Duration::checked_from_micros(us).ok_or_else(|| {
            ConfigError::field("comm_delay_us", format!("{us} us overflows a nanosecond count"))
        })?;
    }
    machine.check()?;
    Ok(SimParams::new(machine))
}

/// One labeled cell of a sweep grid.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Human-readable cell label (`"8p"`, `"4p lwps=2"`, …).
    pub label: String,
    /// The full simulation parameters for this cell.
    pub params: SimParams,
}

/// Grid builder: the cartesian product of the axes the paper's §3.2 lets
/// the user vary. Axes left untouched contribute a single default value.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Simulated processor counts.
    pub cpus: Vec<u32>,
    /// LWP-pool policies (default: one LWP per thread, like `predict`).
    pub lwps: Vec<LwpPolicy>,
    /// Cross-CPU communication delays in µs (default: the machine
    /// default).
    pub comm_delays_us: Vec<Option<u64>>,
    /// User-level scheduling models (default: the Solaris TS queues).
    pub models: Vec<ModelKind>,
}

impl SweepGrid {
    /// Most cells a grid may expand into.
    pub const MAX_CELLS: usize = 4096;

    /// A grid varying only the processor count.
    pub fn over_cpus(cpus: impl Into<Vec<u32>>) -> SweepGrid {
        SweepGrid {
            cpus: cpus.into(),
            lwps: vec![LwpPolicy::PerThread],
            comm_delays_us: vec![None],
            models: vec![ModelKind::SolarisTs],
        }
    }

    /// Builder-style: also vary the LWP policy.
    pub fn with_lwps(mut self, lwps: impl Into<Vec<LwpPolicy>>) -> SweepGrid {
        self.lwps = lwps.into();
        self
    }

    /// Builder-style: also vary the communication delay, in µs.
    pub fn with_comm_delays_us(mut self, delays_us: impl Into<Vec<u64>>) -> SweepGrid {
        self.comm_delays_us = delays_us.into().into_iter().map(Some).collect();
        self
    }

    /// Builder-style: also vary the user-level scheduling model.
    pub fn with_models(mut self, models: impl Into<Vec<ModelKind>>) -> SweepGrid {
        self.models = models.into();
        self
    }

    /// Expand the grid into labeled configurations, CPUs varying fastest,
    /// each cell built by [`sim_params`]. The cell count is checked to be
    /// 1 to [`Self::MAX_CELLS`] before anything is built, and the first
    /// cell [`sim_params`] refuses fails the whole grid.
    pub fn try_configs(&self) -> Result<Vec<SweepConfig>, ConfigError> {
        let axes = [self.cpus.len(), self.lwps.len(), self.comm_delays_us.len(), self.models.len()];
        let cells = axes.iter().try_fold(1usize, |n, &k| n.checked_mul(k)).unwrap_or(usize::MAX);
        if !(1..=Self::MAX_CELLS).contains(&cells) {
            let reason = format!(
                "the grid has {} cells; a sweep takes 1 to {}",
                axes.map(|k| k.to_string()).join(" x "),
                Self::MAX_CELLS
            );
            return Err(ConfigError { field: None, reason });
        }
        let mut out = Vec::with_capacity(cells);
        for &model in &self.models {
            for &delay in &self.comm_delays_us {
                for &lwps in &self.lwps {
                    for &cpus in &self.cpus {
                        let params = sim_params(cpus, lwps, delay, model)?;
                        let mut label = format!("{cpus}p");
                        if self.lwps.len() > 1 {
                            label += &format!(" lwps={lwps}");
                        }
                        if self.comm_delays_us.len() > 1 && delay.is_some() {
                            label += &format!(" comm={}", params.machine.comm_delay);
                        }
                        if self.models.len() > 1 {
                            label += &format!(" model={}", model.name());
                        }
                        out.push(SweepConfig { label, params });
                    }
                }
            }
        }
        Ok(out)
    }

    /// [`Self::try_configs`] of a grid built from values known to be in
    /// bounds.
    ///
    /// # Panics
    ///
    /// When [`Self::try_configs`] refuses the grid: outside input goes
    /// through that instead.
    pub fn configs(&self) -> Vec<SweepConfig> {
        self.try_configs().unwrap_or_else(|e| panic!("sweep grid out of bounds: {e}"))
    }
}

/// One row of the speed-up surface (serializes into the `--metrics-json`
/// dump and the Table-1-style report).
#[derive(Debug, Clone, serde::Serialize)]
pub struct SweepPoint {
    /// Grid-cell label.
    pub label: String,
    /// Simulated processor count.
    pub cpus: u32,
    /// User-level scheduling model of this cell (`"solaris"` / `"async"`).
    pub model: String,
    /// Predicted wall time, virtual nanoseconds.
    pub wall_ns: u64,
    /// Table-1-style speed-up: predicted 1-CPU wall over this wall.
    pub speedup: f64,
    /// Average CPU utilization of the predicted run, `0..=1`.
    pub utilization: f64,
    /// Engine cost of this cell (discrete-event steps).
    pub des_events: u64,
    /// Whether the conservation-law audit came back clean.
    pub audit_clean: bool,
    /// Whether this cell shares its run with an earlier cell or the
    /// 1-CPU reference: it has the same fingerprint, or it asks for more
    /// CPUs than its replay can hold LWPs and folds onto the run at that
    /// bound (simulated once, reported per cell).
    pub deduplicated: bool,
    /// Why this cell has no prediction: the error (or panic, contained by
    /// the worker's unwind boundary) its replay died with. `None` for a
    /// successful cell. Sibling cells are unaffected either way.
    pub error: Option<String>,
}

/// A completed sweep: the speed-up surface.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One row per grid cell, in grid order.
    pub points: Vec<SweepPoint>,
    /// Predicted 1-CPU wall time the speed-ups are relative to.
    pub uni_wall: Time,
    /// Distinct configurations actually simulated (after dedup and the
    /// fold of CPU counts above the LWP bound; includes the 1-CPU
    /// reference if it wasn't part of the grid).
    pub unique_runs: usize,
    /// Worker threads used.
    pub workers: usize,
}

/// Extract the human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// How many `thr_create` calls in `plan` create a bound thread. The
/// replay binds by the flag on the create op itself.
fn bound_creates(plan: &ReplayPlan) -> usize {
    let bound = |op: &&Action| matches!(op, Action::Call(LibCall::Create { bound: true, .. }, _));
    plan.threads.iter().map(|t| t.ops.iter().filter(bound).count()).sum()
}

/// The most LWPs a replay of `plan` under `params` can ever hold at
/// once, or `None` when the plan alone does not bound it. Above this many
/// CPUs the run cannot change (see the module docs):
///
/// * one LWP per thread: the plan's thread count;
/// * a fixed pool of `n`: `max(n, 1)` plus one dedicated LWP per thread
///   created bound or bound to an LWP by a manipulation;
/// * a pool that follows `thr_setconcurrency`, or any thread bound to a
///   CPU (its CPU index is part of the schedule): `None`.
pub fn lwp_bound(plan: &ReplayPlan, params: &SimParams) -> Option<u32> {
    bound_with(plan, bound_creates(plan), params)
}

/// [`lwp_bound`], given the plan's [`bound_creates`].
fn bound_with(plan: &ReplayPlan, bound_creates: usize, params: &SimParams) -> Option<u32> {
    let mut bound_lwps = 0;
    for m in params.manips.values() {
        match m.binding {
            Some(Binding::BoundCpu(_)) => return None,
            Some(Binding::BoundLwp) => bound_lwps += 1,
            _ => {}
        }
    }
    let lwps = match params.machine.lwps {
        LwpPolicy::FollowProgram => return None,
        LwpPolicy::PerThread => plan.threads.len(),
        LwpPolicy::Fixed(n) => n.max(1) as usize + bound_creates + bound_lwps,
    };
    Some(u32::try_from(lwps.max(1)).unwrap_or(u32::MAX))
}

/// Sweep `configs` over `log` on up to `workers` threads (`0` = all
/// available cores). Analyzes the log once; see the module docs.
pub fn sweep(
    log: &TraceLog,
    configs: &[SweepConfig],
    workers: usize,
) -> Result<SweepOutcome, VppbError> {
    let plan = analyze(log)?;
    sweep_plan(&plan, log, configs, workers)
}

/// Like [`sweep`], reusing a precomputed plan.
pub fn sweep_plan(
    plan: &ReplayPlan,
    log: &TraceLog,
    configs: &[SweepConfig],
    workers: usize,
) -> Result<SweepOutcome, VppbError> {
    // Build the replay program once; workers share it immutably.
    let app = Arc::new(build_replay_app(plan, log.header.source_map.clone())?);

    // Deduplicate: map each grid cell to a unique job. The 1-CPU
    // reference the speed-ups divide by is itself a job, so it also
    // dedups against a 1-CPU grid cell. It is the Solaris run for every
    // cell, async ones included: one surface, one denominator. A cell
    // asking for more CPUs than its replay can hold LWPs is interned at
    // the bound, where its run is the same.
    let bound_creates = bound_creates(plan);
    let mut jobs: Vec<SimParams> = Vec::new();
    let mut job_of_print: HashMap<u64, usize> = HashMap::new();
    let mut cell_jobs: Vec<usize> = Vec::with_capacity(configs.len());
    let mut intern = |params: &SimParams, jobs: &mut Vec<SimParams>| -> usize {
        let bound = bound_with(plan, bound_creates, params);
        let folded = bound.filter(|&l| params.machine.cpus > l).map(|l| {
            let mut p = params.clone();
            p.machine.cpus = l;
            p
        });
        let params = folded.as_ref().unwrap_or(params);
        *job_of_print.entry(params.fingerprint()).or_insert_with(|| {
            jobs.push(params.clone());
            jobs.len() - 1
        })
    };
    let uni_job = intern(&SimParams::cpus(1), &mut jobs);
    for c in configs {
        cell_jobs.push(intern(&c.params, &mut jobs));
    }

    // Fan the unique jobs out over scoped workers pulling from a shared
    // atomic cursor; results land in a slot table, so completion order
    // doesn't matter.
    let n_workers = if workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        workers
    }
    .min(jobs.len())
    .max(1);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<RunResult, VppbError>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..n_workers {
            let app = Arc::clone(&app);
            let (jobs, slots, cursor) = (&jobs, &slots, &cursor);
            s.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(params) = jobs.get(i) else { return };
                // Unwind boundary: a panicking replay (an engine bug, or
                // deliberate fault injection) poisons only its own cell.
                // The closure owns no shared mutable state, so resuming
                // after its unwind observes nothing broken.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    replay_plan(&app, plan, params, None, Timeline::Skip)
                }))
                .unwrap_or_else(|payload| {
                    Err(VppbError::ProgramError(format!(
                        "replay worker panicked: {}",
                        panic_message(payload.as_ref())
                    )))
                });
                *slots[i].lock().expect("no poisoned sweep worker") = Some(result);
            });
        }
    });

    let mut results: Vec<Result<RunResult, VppbError>> = Vec::with_capacity(jobs.len());
    for slot in slots {
        results.push(slot.into_inner().expect("no poisoned sweep worker").expect("job ran"));
    }

    // The 1-CPU reference every speed-up divides by has no cell to carry
    // its error; without it the surface is meaningless.
    let uni_wall = match &results[uni_job] {
        Ok(r) => r.wall_time,
        Err(e) => {
            return Err(VppbError::ProgramError(format!(
                "the 1-CPU reference run failed, so no speed-up can be computed: {e}"
            )))
        }
    };
    let mut seen_job = vec![false; jobs.len()];
    seen_job[uni_job] = true; // the reference doesn't claim a cell
    let mut points = Vec::with_capacity(configs.len());
    for (cell, &job) in configs.iter().zip(&cell_jobs) {
        let deduplicated = std::mem::replace(&mut seen_job[job], true);
        let cpus = cell.params.machine.cpus;
        match &results[job] {
            Ok(r) => {
                // Over the cell's own CPUs: a folded run has fewer.
                let wall = r.wall_time;
                let busy: u64 = r.cpu_busy.iter().map(|d| d.nanos()).sum();
                let capacity = wall.nanos().saturating_mul(u64::from(cpus));
                points.push(SweepPoint {
                    label: cell.label.clone(),
                    cpus,
                    model: cell.params.machine.model.name().to_string(),
                    wall_ns: wall.nanos(),
                    speedup: speedup(uni_wall, wall),
                    utilization: if capacity == 0 { 0.0 } else { busy as f64 / capacity as f64 },
                    des_events: r.des_events,
                    audit_clean: r.audit.is_clean(),
                    deduplicated,
                    error: None,
                });
            }
            Err(e) => {
                points.push(SweepPoint {
                    label: cell.label.clone(),
                    cpus,
                    model: cell.params.machine.model.name().to_string(),
                    wall_ns: 0,
                    speedup: 0.0,
                    utilization: 0.0,
                    des_events: 0,
                    audit_clean: false,
                    deduplicated,
                    error: Some(e.to_string()),
                });
            }
        }
    }
    Ok(SweepOutcome { points, uni_wall, unique_runs: jobs.len(), workers: n_workers })
}
