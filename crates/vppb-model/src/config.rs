//! Machine, scheduling and simulation configuration.
//!
//! These structures carry the user-adjustable knobs listed in §3.2 of the
//! paper: number of processors, number of LWPs, communication delay between
//! CPUs, per-thread bindings (unbound / bound to an LWP / bound to a CPU)
//! and per-thread priority overrides, plus the cost factors for bound
//! threads taken from the Solaris multithreaded-programming guide
//! (creation 6.7× and synchronization 5.9× more expensive than unbound).

use crate::dispatch::{DispatchTable, TS_DEFAULT_PRI};
use crate::ids::{CpuId, ThreadId};
use crate::time::Duration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// Which scheduler world governs the *user-level* run queue: how runnable
/// unbound threads are ordered, picked by LWPs, and (not) time-sliced.
/// Kernel-level LWP dispatch onto CPUs is common machinery shared by all
/// models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ModelKind {
    /// The paper's world: Solaris 2.5 two-level scheduling. Unbound
    /// threads sit in one global priority queue (128 TS levels, FIFO
    /// within a level) and are preemptively time-sliced by the dispatch
    /// table. The faithful default.
    #[default]
    SolarisTs,
    /// An async-executor world: cooperative tasks over M:N work-stealing
    /// run queues. Each pool LWP is a worker with its own deque; tasks
    /// with no local affinity land in a shared injector; an idle worker
    /// pops its own deque first, then the injector, then steals from the
    /// other workers in deterministic (ascending, wrapping) order. Tasks
    /// run to their next blocking point — no preemptive slicing, and
    /// priorities do not reorder the queues.
    AsyncPool,
}

impl ModelKind {
    /// All models, in display order (the sweep `--model all` axis).
    pub const ALL: [ModelKind; 2] = [ModelKind::SolarisTs, ModelKind::AsyncPool];

    /// Short name used on the CLI, in JSON and in table output.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::SolarisTs => "solaris",
            ModelKind::AsyncPool => "async",
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ModelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<ModelKind, String> {
        match s {
            "solaris" | "solaris-ts" | "ts" => Ok(ModelKind::SolarisTs),
            "async" | "async-pool" | "work-stealing" => Ok(ModelKind::AsyncPool),
            other => Err(format!("unknown scheduler model {other:?} (want solaris|async)")),
        }
    }
}

/// How many LWPs the process gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LwpPolicy {
    /// Exactly this many LWPs serve unbound threads (bound threads always
    /// get a private LWP on top). When the Simulator is given a fixed
    /// count, `thr_setconcurrency` calls in the log are ignored (§3.2).
    Fixed(u32),
    /// One LWP per thread — the configuration where user-level
    /// multiplexing never throttles parallelism.
    PerThread,
    /// Follow the program: start with one LWP and honour
    /// `thr_setconcurrency` requests, as unmodified Solaris would.
    FollowProgram,
}

impl fmt::Display for LwpPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LwpPolicy::Fixed(n) => write!(f, "{n}"),
            LwpPolicy::PerThread => f.write_str("per-thread"),
            LwpPolicy::FollowProgram => f.write_str("follow"),
        }
    }
}

/// Parses the spelling [`LwpPolicy`] displays as: `per-thread`, `follow`
/// or a pool size.
impl FromStr for LwpPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<LwpPolicy, String> {
        match s {
            "per-thread" => Ok(LwpPolicy::PerThread),
            "follow" => Ok(LwpPolicy::FollowProgram),
            n => n
                .parse()
                .map(LwpPolicy::Fixed)
                .map_err(|_| format!("unknown LWP policy {n:?} (want per-thread|follow|N)")),
        }
    }
}

impl LwpPolicy {
    /// Unbound-pool size for a program with `threads` live threads and a
    /// current `setconcurrency` request of `requested`.
    pub fn pool_size(self, threads: u32, requested: u32) -> u32 {
        match self {
            LwpPolicy::Fixed(n) => n.max(1),
            LwpPolicy::PerThread => threads.max(1),
            LwpPolicy::FollowProgram => requested.max(1),
        }
    }
}

/// Per-thread placement, adjustable in the Simulator (§3.2: "Each thread
/// can individually be unbound; bound to a LWP; or bound to a certain CPU").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Binding {
    /// Multiplexed on the process's LWP pool.
    #[default]
    Unbound,
    /// Permanently attached to a private LWP.
    BoundLwp,
    /// Attached to a private LWP which is itself bound to a processor.
    BoundCpu(CpuId),
}

impl Binding {
    /// Whether the thread owns a dedicated LWP.
    pub fn is_bound(self) -> bool {
        !matches!(self, Binding::Unbound)
    }
}

/// A what-if manipulation of one thread, applied by the Simulator before
/// replay. A priority override makes the simulator ignore `thr_setprio`
/// events for that thread, as described in §3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ThreadManip {
    /// Override the thread's placement (unbound / bound LWP / bound CPU).
    pub binding: Option<Binding>,
    /// Pin the thread's user priority, ignoring recorded `thr_setprio`s.
    pub priority: Option<i32>,
}

/// Cost model for bound threads, relative to unbound ones.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundCosts {
    /// `thr_create` of a bound thread costs this factor more (paper: 6.7).
    pub create_factor: f64,
    /// Synchronization on semaphores — and, as the paper says, the same
    /// value is used for mutexes, conditions and read/write locks — costs
    /// this factor more for bound threads (paper: 5.9).
    pub sync_factor: f64,
}

impl Default for BoundCosts {
    fn default() -> BoundCosts {
        BoundCosts { create_factor: 6.7, sync_factor: 5.9 }
    }
}

/// Base costs of thread-library operations for *unbound* threads. These are
/// the latencies the bound factors multiply. Values are in the
/// microseconds range of mid-90s UltraSPARC measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaseCosts {
    /// Creating an unbound thread.
    pub create: Duration,
    /// One uncontended synchronization operation (lock, post, signal, ...).
    pub sync_op: Duration,
    /// A user-level context switch between threads on one LWP.
    pub uthread_switch: Duration,
    /// A kernel context switch between LWPs on one CPU (the Simulator
    /// deliberately does *not* model this — §6 — but the machine does).
    pub lwp_switch: Duration,
}

impl Default for BaseCosts {
    fn default() -> BaseCosts {
        BaseCosts {
            create: Duration::from_micros(50),
            sync_op: Duration::from_micros(2),
            uthread_switch: Duration::from_micros(5),
            lwp_switch: Duration::from_micros(15),
        }
    }
}

/// The hardware + kernel configuration of a (real or simulated) machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of processors.
    pub cpus: u32,
    /// LWP pool policy for unbound threads.
    pub lwps: LwpPolicy,
    /// Delay for an event on one CPU (e.g. an unlock) to become visible on
    /// another (§3.2: "how fast an event on one CPU is propagated to
    /// another CPU").
    pub comm_delay: Duration,
    /// TS-class dispatch table (priority ⇄ quantum ⇄ aging).
    pub dispatch: DispatchTable,
    /// Whether preemptive time slicing is enabled. Disabling it makes LWPs
    /// run-to-block, which is useful in tests.
    pub time_slicing: bool,
    /// Initial TS priority for new LWPs.
    pub initial_priority: i32,
    /// Latency model for thread-library operations.
    pub base_costs: BaseCosts,
    /// Bound-thread cost factors.
    pub bound_costs: BoundCosts,
    /// Cache-affinity model: extra CPU time charged when a thread runs on
    /// a different CPU than it last ran on ("parts of the old cache
    /// contents has to be moved to the cache on the new processor" —
    /// §3.2). The paper's simulator does not model caches, so the default
    /// is zero; the binding what-ifs become quantitative when set.
    pub migration_penalty: Duration,
    /// Which scheduler world runs the user-level queue (Solaris TS or the
    /// async work-stealing pool). Defaults to the paper's Solaris world;
    /// absent in older serialized configs, hence the serde default.
    #[serde(default)]
    pub model: ModelKind,
}

impl MachineConfig {
    /// A machine like the paper's validation host: 8 CPUs, one LWP per
    /// thread is *not* assumed — SPLASH-style programs call
    /// `thr_setconcurrency`, so the pool follows the program.
    pub fn sun_enterprise(cpus: u32) -> MachineConfig {
        MachineConfig { cpus, ..MachineConfig::default() }
    }

    /// The Recorder's host: one CPU and one LWP (§3.1/§6: monitoring is
    /// only possible on a single LWP).
    pub fn uniprocessor_one_lwp() -> MachineConfig {
        MachineConfig { cpus: 1, lwps: LwpPolicy::Fixed(1), ..MachineConfig::default() }
    }

    /// Builder-style: set the processor count.
    pub fn with_cpus(mut self, cpus: u32) -> MachineConfig {
        self.cpus = cpus;
        self
    }

    /// Builder-style: set the LWP policy.
    pub fn with_lwps(mut self, lwps: LwpPolicy) -> MachineConfig {
        self.lwps = lwps;
        self
    }

    /// Builder-style: set the cross-CPU communication delay.
    pub fn with_comm_delay(mut self, d: Duration) -> MachineConfig {
        self.comm_delay = d;
        self
    }

    /// Builder-style: set the scheduler model.
    pub fn with_model(mut self, model: ModelKind) -> MachineConfig {
        self.model = model;
        self
    }
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            cpus: 1,
            lwps: LwpPolicy::FollowProgram,
            comm_delay: Duration::from_micros(1),
            dispatch: DispatchTable::solaris_ts(),
            time_slicing: true,
            initial_priority: TS_DEFAULT_PRI,
            base_costs: BaseCosts::default(),
            bound_costs: BoundCosts::default(),
            migration_penalty: Duration::ZERO,
            model: ModelKind::SolarisTs,
        }
    }
}

/// Deliberate corruption knobs for robustness tests. Each one breaks an
/// invariant some later layer must catch — conservation faults feed the
/// end-of-run auditor, the panic fault feeds the sweep's worker isolation.
/// Production callers leave everything `None`.
///
/// Lives in the model crate (not the machine crate that consumes it) so
/// [`SimParams`] can carry it through serialized sweep configurations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultInjection {
    /// Skip the release semantics of `mutex_unlock` on this mutex: the
    /// call completes normally but the lock stays held (and any waiters
    /// stay queued), so a sound run ends with `lock-held-at-exit`.
    pub leak_mutex: Option<u32>,
    /// Charge this CPU's busy time twice while threads are charged once,
    /// breaking `Σ busy == Σ thread time`.
    pub double_charge_cpu: Option<u32>,
    /// Panic the simulation engine after this many discrete events — a
    /// stand-in for "any unexpected bug in a worker", used to prove that
    /// one poisoned sweep configuration cannot take down its siblings.
    pub panic_after_events: Option<u64>,
    /// Skip the release semantics of a *reader's* `rw_unlock` on this
    /// rwlock: the call completes but the read guard stays registered, so
    /// a sound run ends with `lock-held-at-exit` on the rwlock.
    pub leak_rw_reader: Option<u32>,
    /// When this barrier trips, wake all but one of its waiters and leave
    /// the last one queued — the "skipped waker" bug. The run completes
    /// (the skipped thread stays blocked) and the audit must flag both the
    /// non-empty wait queue and the broken generation-count law.
    pub skip_barrier_waker: Option<u32>,
}

impl FaultInjection {
    /// No faults (the default).
    pub fn none() -> FaultInjection {
        FaultInjection::default()
    }

    /// Whether any fault is armed.
    pub fn any(&self) -> bool {
        self.leak_mutex.is_some()
            || self.double_charge_cpu.is_some()
            || self.panic_after_events.is_some()
            || self.leak_rw_reader.is_some()
            || self.skip_barrier_waker.is_some()
    }
}

/// Full parameter set for one Simulator run: the simulated machine plus the
/// per-thread what-if manipulations and the replay-rule switches that the
/// ablation study exercises.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimParams {
    /// The simulated machine (fig. 1 boxes (e) and (f)).
    pub machine: MachineConfig,
    /// Per-thread overrides (binding, priority).
    pub manips: BTreeMap<ThreadId, ThreadManip>,
    /// Model `cond_broadcast` as a barrier release (hold the broadcaster
    /// until the recorded number of waiters have arrived — §6). On by
    /// default; the `whatif` ablation turns it off.
    pub barrier_aware_broadcast: bool,
    /// Deliberate corruption for robustness tests; all off by default.
    pub faults: FaultInjection,
}

impl SimParams {
    /// Simulate on the given machine, with no manipulations.
    pub fn new(machine: MachineConfig) -> SimParams {
        SimParams {
            machine,
            manips: BTreeMap::new(),
            barrier_aware_broadcast: true,
            faults: FaultInjection::none(),
        }
    }

    /// Convenience: simulate `cpus` processors with one LWP per thread.
    pub fn cpus(cpus: u32) -> SimParams {
        SimParams::new(MachineConfig::sun_enterprise(cpus).with_lwps(LwpPolicy::PerThread))
    }

    /// Builder-style: attach a manipulation to one thread.
    pub fn manip(mut self, thread: ThreadId, m: ThreadManip) -> SimParams {
        self.manips.insert(thread, m);
        self
    }

    /// Builder-style: bind `thread` to a specific processor (§3.2).
    pub fn bind_to_cpu(self, thread: ThreadId, cpu: CpuId) -> SimParams {
        let m = ThreadManip { binding: Some(Binding::BoundCpu(cpu)), priority: None };
        self.manip(thread, m)
    }

    /// Builder-style: pin `thread`'s priority, ignoring recorded
    /// `thr_setprio` events for it (§3.2).
    pub fn override_priority(mut self, thread: ThreadId, prio: i32) -> SimParams {
        self.manips.entry(thread).or_default().priority = Some(prio);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lwp_policy_pool_sizes() {
        assert_eq!(LwpPolicy::Fixed(4).pool_size(10, 2), 4);
        assert_eq!(LwpPolicy::Fixed(0).pool_size(10, 2), 1, "at least one LWP");
        assert_eq!(LwpPolicy::PerThread.pool_size(10, 2), 10);
        assert_eq!(LwpPolicy::FollowProgram.pool_size(10, 6), 6);
        assert_eq!(LwpPolicy::FollowProgram.pool_size(10, 0), 1);
    }

    #[test]
    fn default_bound_costs_match_paper() {
        let c = BoundCosts::default();
        assert!((c.create_factor - 6.7).abs() < 1e-9);
        assert!((c.sync_factor - 5.9).abs() < 1e-9);
    }

    #[test]
    fn recorder_machine_is_one_cpu_one_lwp() {
        let m = MachineConfig::uniprocessor_one_lwp();
        assert_eq!(m.cpus, 1);
        assert_eq!(m.lwps, LwpPolicy::Fixed(1));
    }

    #[test]
    fn sim_params_manipulations_accumulate() {
        let p = SimParams::cpus(8)
            .bind_to_cpu(ThreadId(4), CpuId(2))
            .override_priority(ThreadId(4), 50);
        let m = p.manips.get(&ThreadId(4)).unwrap();
        assert_eq!(m.binding, Some(Binding::BoundCpu(CpuId(2))));
        assert_eq!(m.priority, Some(50));
        assert!(p.barrier_aware_broadcast);
    }

    #[test]
    fn binding_boundness() {
        assert!(!Binding::Unbound.is_bound());
        assert!(Binding::BoundLwp.is_bound());
        assert!(Binding::BoundCpu(CpuId(0)).is_bound());
    }

    #[test]
    fn lwp_policy_parses_what_it_displays() {
        for p in [LwpPolicy::PerThread, LwpPolicy::FollowProgram, LwpPolicy::Fixed(3)] {
            assert_eq!(p.to_string().parse::<LwpPolicy>().unwrap(), p);
        }
        assert_eq!(LwpPolicy::Fixed(3).to_string(), "3");
        assert!("all".parse::<LwpPolicy>().is_err());
        assert!("-1".parse::<LwpPolicy>().is_err());
    }

    #[test]
    fn model_kind_parses_and_displays() {
        for m in ModelKind::ALL {
            assert_eq!(m.name().parse::<ModelKind>().unwrap(), m);
        }
        assert_eq!("work-stealing".parse::<ModelKind>().unwrap(), ModelKind::AsyncPool);
        assert!("fifo".parse::<ModelKind>().is_err());
    }

    #[test]
    fn older_machine_configs_still_deserialize() {
        // A config serialized before the scheduler-model axis existed has
        // no `model` key, and one serialized while the rwlock-preference
        // and priority-inheritance knobs existed carries their keys; both
        // must load as the Solaris defaults.
        let text = serde_json::to_string(&MachineConfig::default()).expect("render");
        let Ok(serde::Value::Object(fields)) = serde_json::from_str(&text) else {
            panic!("a machine config serializes as an object");
        };
        let without_model: Vec<_> = fields.iter().filter(|(k, _)| k != "model").cloned().collect();
        let mut with_knobs = fields.clone();
        with_knobs.push(("rw_writer_preference".into(), serde::Value::Bool(true)));
        with_knobs.push(("priority_inheritance".into(), serde::Value::Bool(false)));
        for old in [without_model, with_knobs] {
            let text = serde_json::to_string(&serde::Value::Object(old)).expect("render");
            let back: MachineConfig = serde_json::from_str(&text).expect("old config must load");
            assert_eq!(back, MachineConfig::default());
        }
    }
}
