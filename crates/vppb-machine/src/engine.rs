//! The discrete-event execution engine: a virtual shared-memory
//! multiprocessor running Solaris 2.5-style two-level thread scheduling.
//!
//! This is the substrate standing in for the paper's Sun Ultra Enterprise
//! 4000. It executes [`App`] programs faithfully: user-level threads are
//! multiplexed on a pool of LWPs (unless bound), the kernel dispatches LWPs
//! onto CPUs by TS-class priority with per-priority time slices and
//! priority aging, synchronization blocks threads at user level (the LWP
//! picks up another runnable thread), and cross-CPU wakeups pay the
//! configured communication delay.
//!
//! The same engine executes *real* runs (ground truth for Table 1),
//! *monitored* runs (the Recorder attaches [`Hooks`] and a 1-CPU/1-LWP
//! configuration), and *predicted* runs (the Simulator feeds replay
//! tapes plus a [`CallInterceptor`] implementing the §3.2 replay rules).

use crate::audit::{self, AuditInput, BarrierAudit, OccupancyCheck, SyncAudit, ThreadAudit};
use crate::calendar::Calendar;
use crate::hooks::{event_kind_of, Hooks};
use crate::idmap::{IdMap, ManipTable};
use crate::jitter::JitterModel;
use crate::observer::{SchedEvent, SchedObserver};
use crate::prioq::PrioQueue;
use crate::result::{RunLimits, RunResult};
use crate::sched::{build_model, SchedModel};
use crate::sync::{BarrierState, CondState, MutexState, OnceState, RwState, RwWaiter, SemState};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::Arc;
use vppb_model::{
    Binding, BlockReason, CodeAddr, CpuId, Duration, EventKind, EventResult, ExecutionTrace,
    FaultInjection, LwpId, LwpPolicy, MachineConfig, PlacedEvent, SyncObjId, ThreadId, ThreadInfo,
    ThreadState, Time, Transition, VppbError, TS_DEFAULT_PRI,
};
use vppb_threads::{
    Action, App, Body, FuncId, LibCall, Outcome, Program, ResumeCtx, TapeCursor, VarOp,
};

/// Maximum consecutive zero-time actions before a thread is declared
/// livelocked (a spin loop with no `Work` in its body).
const SPIN_LIMIT: u64 = 1_000_000;

/// Decision of a [`CallInterceptor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intercept {
    /// Execute this (possibly rewritten) call.
    Proceed(LibCall),
    /// Drop the call entirely: no probes, no cost, outcome `None`.
    Skip,
}

/// Rewrites thread-library calls just before execution. The trace-driven
/// Simulator uses this to implement the paper's replay rules (barrier-aware
/// `cond_broadcast`, lost-signal credits).
pub trait CallInterceptor {
    /// Decide what to do with `call`, issued by `thread` at `now`.
    fn intercept(&mut self, thread: ThreadId, call: LibCall, now: Time) -> Intercept;
}

/// Assigns thread ids at `thr_create`. The Simulator pins ids to the ones
/// in the log so replayed `thr_join`/`thr_setprio` targets resolve.
pub type IdAssigner<'a> = Box<dyn FnMut(ThreadId, u64) -> ThreadId + 'a>;

/// Per-run options.
pub struct RunOptions<'a> {
    /// Probe interposition (the Recorder); [`crate::NullHooks`] for bare runs.
    pub hooks: &'a mut dyn Hooks,
    /// Replay-rule hook (the Simulator).
    pub interceptor: Option<&'a mut dyn CallInterceptor>,
    /// Thread-id pinning (the Simulator keeps log ids).
    pub id_assigner: Option<IdAssigner<'a>>,
    /// Per-thread what-if manipulations (binding/priority overrides),
    /// resolved to dense O(1) lookups at bind time ([`ManipTable`]).
    pub manips: ManipTable,
    /// Work-duration variance for ground-truth runs.
    pub jitter: JitterModel,
    /// Livelock / runaway guards.
    pub limits: RunLimits,
    /// Collect the full transition/event timeline (costs memory on long
    /// runs; speed-up measurements can turn it off). The audit is complete
    /// either way: the CPU-occupancy law is checked online as each
    /// transition is made, not by scanning the recorded timeline.
    pub record_trace: bool,
    /// Structured scheduling observer ([`crate::MetricsObserver`],
    /// [`crate::StepRecorder`], …). `None` skips every emission.
    pub observer: Option<&'a mut dyn SchedObserver>,
    /// Deliberate invariant breakage, so tests can prove the end-of-run
    /// auditor catches real corruption. All off by default.
    pub faults: FaultInjection,
    /// Expected number of program events (library calls) this run will
    /// execute — the Simulator passes the replay plan's op count. Used to
    /// pre-size the transition/event buffers and the event heap so long
    /// replays don't regrow them; `0` (the default) means unknown.
    pub size_hint: usize,
}

impl<'a> RunOptions<'a> {
    /// Default options around the given hooks.
    pub fn new(hooks: &'a mut dyn Hooks) -> RunOptions<'a> {
        RunOptions {
            hooks,
            interceptor: None,
            id_assigner: None,
            manips: ManipTable::default(),
            jitter: JitterModel::none(),
            limits: RunLimits::default(),
            record_trace: true,
            observer: None,
            faults: FaultInjection::default(),
            size_hint: 0,
        }
    }
}

/// Execute `app` on a machine with configuration `cfg`.
pub fn run(app: &App, cfg: &MachineConfig, opts: RunOptions<'_>) -> Result<RunResult, VppbError> {
    cfg.check()?;
    app.validate()?;
    Engine::new(app, cfg, opts).run()
}

/// Where a streaming run starts and where it must stop.
#[derive(Default)]
pub struct StreamControl {
    /// Resume from this snapshot instead of bootstrapping a fresh run.
    pub resume_from: Option<Box<EngineSnapshot>>,
    /// Pause at the boundary before DES event number `m` is processed
    /// (events are numbered from 1). `Some(0)` pauses immediately.
    pub stop_before: Option<u64>,
}

/// How a streaming run ended.
pub enum StreamOutcome {
    /// Every thread exited; the result is bit-identical to what [`run`]
    /// would have produced for the same program and options.
    Done(Box<RunResult>),
    /// Paused at the requested event boundary with resumable state.
    Paused(Box<EngineSnapshot>),
    /// A program returned [`Action::Stall`] while DES event `event` was
    /// being processed (`0` = during bootstrap, before any event). The
    /// run's state is unrecoverable — rerun with `stop_before = event`.
    Stalled {
        /// DES event number during which the first stall occurred.
        event: u64,
    },
}

impl std::fmt::Debug for StreamOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamOutcome::Done(r) => {
                write!(f, "Done({} after {} events)", r.wall_time, r.des_events)
            }
            StreamOutcome::Paused(s) => write!(f, "Paused(at event {})", s.des_events()),
            StreamOutcome::Stalled { event } => write!(f, "Stalled {{ event: {event} }}"),
        }
    }
}

/// Checkpointable variant of [`run`]: execute `app`, optionally resuming
/// from a snapshot and/or pausing at an event boundary.
///
/// Determinism contract: a paused run resumed with the same app, config,
/// and (re-created, stateless) options evolves exactly as the uninterrupted
/// run would — callers must pass `JitterModel::none()`, since jitter RNG
/// state lives in the options, not the snapshot.
pub fn run_stream(
    app: &App,
    cfg: &MachineConfig,
    opts: RunOptions<'_>,
    control: StreamControl,
) -> Result<StreamOutcome, VppbError> {
    cfg.check()?;
    app.validate()?;
    let mut engine = match control.resume_from {
        Some(snap) => Engine::from_snapshot(app, cfg, opts, *snap)?,
        None => {
            let mut e = Engine::new(app, cfg, opts);
            e.bootstrap()?;
            e
        }
    };
    match engine.event_loop(control.stop_before)? {
        LoopEnd::Finished => {
            engine.opts.hooks.on_collect(false, engine.now);
            Ok(StreamOutcome::Done(Box::new(engine.into_result())))
        }
        LoopEnd::Paused => Ok(StreamOutcome::Paused(Box::new(engine.into_snapshot()))),
        LoopEnd::Stalled(event) => Ok(StreamOutcome::Stalled { event }),
    }
}

// ---------------------------------------------------------------------------
// shared trace storage
// ---------------------------------------------------------------------------

/// Append-only trace buffer whose frozen prefix is shared between
/// snapshot clones. Pushes land in a plain mutable tail; sealing moves
/// the tail into an `Arc`d segment, after which `clone` costs O(segments)
/// instead of O(trace). A run that never snapshots (the cold path) never
/// seals, so `into_vec` hands its tail back without copying.
struct SegVec<T> {
    sealed: Vec<Arc<Vec<T>>>,
    sealed_len: usize,
    tail: Vec<T>,
}

impl<T> Default for SegVec<T> {
    fn default() -> SegVec<T> {
        SegVec { sealed: Vec::new(), sealed_len: 0, tail: Vec::new() }
    }
}

impl<T: Clone> Clone for SegVec<T> {
    fn clone(&self) -> SegVec<T> {
        SegVec { sealed: self.sealed.clone(), sealed_len: self.sealed_len, tail: self.tail.clone() }
    }
}

impl<T: Clone> SegVec<T> {
    fn with_capacity(cap: usize) -> SegVec<T> {
        SegVec { sealed: Vec::new(), sealed_len: 0, tail: Vec::with_capacity(cap) }
    }

    fn push(&mut self, v: T) {
        self.tail.push(v);
    }

    fn len(&self) -> usize {
        self.sealed_len + self.tail.len()
    }

    /// Freeze the tail into a shared segment so clones stop copying it.
    fn seal(&mut self) {
        if !self.tail.is_empty() {
            self.sealed_len += self.tail.len();
            self.sealed.push(Arc::new(std::mem::take(&mut self.tail)));
        }
    }

    /// Flatten into a single contiguous vector (segment order, then tail).
    fn into_vec(mut self) -> Vec<T> {
        if self.sealed.is_empty() {
            return self.tail;
        }
        let mut out = Vec::with_capacity(self.len());
        for seg in &self.sealed {
            out.extend_from_slice(seg);
        }
        out.append(&mut self.tail);
        out
    }
}

/// Sort placed events by `(start, thread)`, preserving insertion order on
/// ties — the result contract `ExecutionTrace` promises.
///
/// Events arrive in *completion* order, which is nearly start order: an
/// element lands a handful of slots from home (inverted only where call
/// latencies overlap across CPUs), so an adaptive stable insertion sort
/// runs in O(n + inversions) with no allocation — an order of magnitude
/// cheaper per run than a general sort here. A shift budget of 16·n
/// guards the pathological case (e.g. long sleeps displacing an event
/// arbitrarily far): past it, the tail is finished by the allocating
/// stable sort instead. Both paths preserve tie order, so the composed
/// result is bit-identical to one stable `sort_by_key`.
fn sort_events(events: &mut [PlacedEvent]) {
    #[inline]
    fn key(e: &PlacedEvent) -> (u64, u32) {
        (e.start.0, e.thread.0)
    }
    let mut budget = 16 * events.len() as u64 + 1024;
    for i in 1..events.len() {
        if key(&events[i]) < key(&events[i - 1]) {
            let tmp = events[i];
            let mut j = i;
            while j > 0 && key(&tmp) < key(&events[j - 1]) {
                events[j] = events[j - 1];
                j -= 1;
                budget = budget.saturating_sub(1);
            }
            events[j] = tmp;
            if budget == 0 {
                // Stable sort of the partially-ordered whole: stability
                // composes, the final order is unchanged.
                events.sort_by_key(key);
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// internal state
// ---------------------------------------------------------------------------

type Tix = usize;
type Lix = usize;
type Cix = usize;

/// A pending DES event, packed flat: 16 bytes instead of the 24 a
/// `(tag, usize, u64)` enum needs, so a calendar entry (with its u128
/// key) stays a power-of-two 32 bytes. `idx` is the CPU or thread
/// index (both fit u32 by construction); `stamp` is the staleness
/// token/generation and stays u64 so it can never wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ev {
    stamp: u64,
    idx: u32,
    tag: EvTag,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvTag {
    /// The CPU's current run (segment or quantum) ends.
    CpuStop,
    /// A wakeup becomes visible to the thread.
    Wake,
    /// A `cond_timedwait` timeout or `Sleep` expiry.
    Timer,
}

impl Ev {
    #[inline]
    fn cpu_stop(cpu: Cix, token: u64) -> Ev {
        Ev { stamp: token, idx: cpu as u32, tag: EvTag::CpuStop }
    }
    #[inline]
    fn wake(thread: Tix, gen: u64) -> Ev {
        Ev { stamp: gen, idx: thread as u32, tag: EvTag::Wake }
    }
    #[inline]
    fn timer(thread: Tix, gen: u64) -> Ev {
        Ev { stamp: gen, idx: thread as u32, tag: EvTag::Timer }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Ask the program for its next action.
    Resume,
    /// Computing on a CPU.
    Compute { left: Duration },
    /// Inside a library call's latency; semantics execute at completion.
    CallLatency { left: Duration },
    /// Call semantics complete (or thread woken inside a blocking call);
    /// emit the AFTER probe when next on a CPU.
    CallFinish,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Embryo,
    Runnable,
    Running(Cix),
    Blocked(BlockReason),
    Zombie,
    Done,
}

#[derive(Clone, Copy)]
struct Inflight {
    call: LibCall,
    site: CodeAddr,
    /// Probe kind of `call`, computed once at issue (the BEFORE probe);
    /// the AFTER probe and the placed event reuse it.
    kind: EventKind,
    before: Time,
    cpu: Cix,
}

/// A thread body in the hot loop: either a flat replay tape walked by
/// cursor (no virtual dispatch, no allocation) or a boxed coroutine for
/// programs with data-dependent control flow.
pub(crate) enum ProgSlot {
    /// Compiled linear op list (replay apps).
    Tape(TapeCursor),
    /// General coroutine.
    Boxed(Box<dyn Program>),
}

impl ProgSlot {
    #[inline]
    fn resume(&mut self, ctx: ResumeCtx) -> Action {
        match self {
            ProgSlot::Tape(t) => t.take(),
            ProgSlot::Boxed(p) => p.resume(ctx),
        }
    }

    fn fork(&self) -> Option<ProgSlot> {
        match self {
            ProgSlot::Tape(t) => Some(ProgSlot::Tape(t.clone())),
            ProgSlot::Boxed(p) => p.fork().map(ProgSlot::Boxed),
        }
    }
}

/// Struct-of-arrays thread table. Every column is indexed by the dense
/// thread handle `Tix` (creation order, never reused); the hot loop
/// touches only the columns an event needs instead of dragging whole
/// 200-byte thread records through the cache.
struct Threads {
    id: Vec<ThreadId>,
    func: Vec<FuncId>,
    program: Vec<ProgSlot>,
    state: Vec<TState>,
    phase: Vec<Phase>,
    binding: Vec<Binding>,
    user_prio: Vec<i32>,
    prio_locked: Vec<bool>,
    lwp: Vec<Option<Lix>>,
    last_cpu: Vec<Option<Cix>>,
    /// The pool LWP this thread last ran on. Wakeups hand it back to the
    /// scheduling model as the `local` hint so per-worker-queue models
    /// give woken tasks affinity to their old worker; `SolarisTs` ignores
    /// it (one global queue).
    last_pool_lwp: Vec<Option<Lix>>,
    outcome: Vec<Outcome>,
    call: Vec<Option<Inflight>>,
    /// (condvar index, mutex index) while waiting on a condition.
    cv_wait: Vec<Option<(u32, u32)>>,
    started: Vec<Option<Time>>,
    ended: Vec<Option<Time>>,
    cpu_time: Vec<Duration>,
    pre_charge: Vec<Duration>,
    create_seq: Vec<u64>,
    gen: Vec<u64>,
    yield_pending: Vec<bool>,
    suspend_self_pending: Vec<bool>,
    suspended: Vec<bool>,
}

impl Threads {
    fn new() -> Threads {
        Threads {
            id: Vec::new(),
            func: Vec::new(),
            program: Vec::new(),
            state: Vec::new(),
            phase: Vec::new(),
            binding: Vec::new(),
            user_prio: Vec::new(),
            prio_locked: Vec::new(),
            lwp: Vec::new(),
            last_cpu: Vec::new(),
            last_pool_lwp: Vec::new(),
            outcome: Vec::new(),
            call: Vec::new(),
            cv_wait: Vec::new(),
            started: Vec::new(),
            ended: Vec::new(),
            cpu_time: Vec::new(),
            pre_charge: Vec::new(),
            create_seq: Vec::new(),
            gen: Vec::new(),
            yield_pending: Vec::new(),
            suspend_self_pending: Vec::new(),
            suspended: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.id.len()
    }

    /// Append a freshly spawned thread; returns its handle.
    fn push_new(
        &mut self,
        id: ThreadId,
        func: FuncId,
        program: ProgSlot,
        binding: Binding,
        user_prio: i32,
        prio_locked: bool,
    ) -> Tix {
        let tix = self.id.len();
        self.id.push(id);
        self.func.push(func);
        self.program.push(program);
        self.state.push(TState::Embryo);
        self.phase.push(Phase::Resume);
        self.binding.push(binding);
        self.user_prio.push(user_prio);
        self.prio_locked.push(prio_locked);
        self.lwp.push(None);
        self.last_cpu.push(None);
        self.last_pool_lwp.push(None);
        self.outcome.push(Outcome::None);
        self.call.push(None);
        self.cv_wait.push(None);
        self.started.push(None);
        self.ended.push(None);
        self.cpu_time.push(Duration::ZERO);
        self.pre_charge.push(Duration::ZERO);
        self.create_seq.push(0);
        self.gen.push(0);
        self.yield_pending.push(false);
        self.suspend_self_pending.push(false);
        self.suspended.push(false);
        tix
    }

    /// Clone the table, forking every coroutine. `None` if any boxed
    /// program is not forkable (tapes always fork).
    fn try_clone(&self) -> Option<Threads> {
        let program = self.program.iter().map(ProgSlot::fork).collect::<Option<Vec<_>>>()?;
        Some(Threads {
            id: self.id.clone(),
            func: self.func.clone(),
            program,
            state: self.state.clone(),
            phase: self.phase.clone(),
            binding: self.binding.clone(),
            user_prio: self.user_prio.clone(),
            prio_locked: self.prio_locked.clone(),
            lwp: self.lwp.clone(),
            last_cpu: self.last_cpu.clone(),
            last_pool_lwp: self.last_pool_lwp.clone(),
            outcome: self.outcome.clone(),
            call: self.call.clone(),
            cv_wait: self.cv_wait.clone(),
            started: self.started.clone(),
            ended: self.ended.clone(),
            cpu_time: self.cpu_time.clone(),
            pre_charge: self.pre_charge.clone(),
            create_seq: self.create_seq.clone(),
            gen: self.gen.clone(),
            yield_pending: self.yield_pending.clone(),
            suspend_self_pending: self.suspend_self_pending.clone(),
            suspended: self.suspended.clone(),
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LState {
    /// Pool LWP with no thread to run.
    Parked,
    /// Ready to be dispatched onto a CPU.
    Ready,
    Running(Cix),
    /// Bound LWP sleeping with its blocked thread.
    Sleeping,
    /// Bound LWP whose thread exited.
    Dead,
}

/// Struct-of-arrays LWP table, indexed by the dense LWP handle `Lix`.
#[derive(Clone, Default)]
struct Lwps {
    id: Vec<LwpId>,
    state: Vec<LState>,
    prio: Vec<i32>,
    quantum_left: Vec<Duration>,
    fresh_quantum: Vec<bool>,
    thread: Vec<Option<Tix>>,
    /// Dedicated to one (bound) thread.
    dedicated: Vec<bool>,
    cpu_binding: Vec<Option<Cix>>,
    last_thread: Vec<Option<Tix>>,
}

impl Lwps {
    fn len(&self) -> usize {
        self.id.len()
    }

    /// Append a new LWP; returns its handle.
    fn push_new(&mut self, id: LwpId, state: LState, prio: i32, dedicated: bool) -> Lix {
        let lix = self.id.len();
        self.id.push(id);
        self.state.push(state);
        self.prio.push(prio);
        self.quantum_left.push(Duration::ZERO);
        self.fresh_quantum.push(true);
        self.thread.push(None);
        self.dedicated.push(dedicated);
        self.cpu_binding.push(None);
        self.last_thread.push(None);
        lix
    }
}

#[derive(Clone)]
struct CpuRt {
    lwp: Option<Lix>,
    run_start: Time,
    token: u64,
    busy: Duration,
    last_lwp: Option<Lix>,
}

struct Engine<'a, 'o> {
    app: &'a App,
    cfg: &'a MachineConfig,
    opts: RunOptions<'o>,
    now: Time,
    seq: u64,
    cal: Calendar<Ev>,
    threads: Threads,
    by_id: IdMap,
    lwps: Lwps,
    cpus: Vec<CpuRt>,
    /// `opts.hooks.probe_cost()` resolved once at construction (the trait
    /// documents it as a per-run constant) — the per-call hot path pays no
    /// virtual dispatch for it.
    probe_cost: Duration,
    mutexes: Vec<MutexState>,
    sems: Vec<SemState>,
    conds: Vec<CondState>,
    rws: Vec<RwState>,
    barriers: Vec<BarrierState>,
    onces: Vec<OnceState>,
    vars: Vec<i64>,
    /// Runnable unbound threads without an LWP, ordered by the pluggable
    /// user-level scheduling policy ([`MachineConfig::model`]).
    model: Box<dyn SchedModel>,
    /// Ready LWPs awaiting a CPU, highest priority first.
    kernel_rq: PrioQueue<Lix>,
    /// Parked pool LWPs, lowest index first (the seed scanned the LWP
    /// table for the first parked one; the min-heap picks the same LWP
    /// without the O(n) walk).
    parked: BinaryHeap<Reverse<Lix>>,
    /// Count of LWPs carrying a CPU binding. While zero (the common
    /// case) CPU dispatch takes the O(1) pop instead of the eligibility
    /// scan.
    cpu_bound_lwps: u32,
    /// Threads blocked in `thr_join`, in blocking order.
    joiners: VecDeque<(Tix, Option<ThreadId>)>,
    /// Exited-but-unjoined threads, in exit order (a single-level
    /// [`PrioQueue`]: FIFO with O(1) removal at reap).
    zombies: PrioQueue<Tix>,
    next_id: u32,
    live: u32,
    des_events: u64,
    /// Online CPU-occupancy law (audit law 5), fed every transition.
    occupancy: OccupancyCheck,
    transitions: SegVec<Transition>,
    events: SegVec<PlacedEvent>,
    /// First DES event during which a program returned [`Action::Stall`]
    /// (streaming replay ran off its committed plan prefix). The event
    /// loop stops at the next event boundary and reports it; a stalled
    /// run's state is discarded by the caller.
    stalled_at: Option<u64>,
}

/// What happened to the calling thread after call semantics ran.
enum CallOutcome {
    /// Call complete; thread keeps the CPU (phase = CallFinish).
    Done,
    /// Thread blocked inside the call.
    Blocked(BlockReason),
    /// Thread entered a blocking I/O system call: unlike user-level
    /// synchronization, the *LWP* sleeps in the kernel with the thread
    /// still attached, for this long.
    BlockedIo(Duration),
    /// The call runs for this much longer *on the CPU* and then re-enters
    /// its semantics (a `once` winner executing the initializer inside the
    /// call span).
    Extend(Duration),
    /// Thread exited.
    Exited,
}

/// How the event loop ended.
enum LoopEnd {
    /// Every thread exited.
    Finished,
    /// Paused at the requested event boundary.
    Paused,
    /// A program returned [`Action::Stall`] during this event.
    Stalled(u64),
}

impl<'a, 'o> Engine<'a, 'o> {
    fn new(app: &'a App, cfg: &'a MachineConfig, opts: RunOptions<'o>) -> Engine<'a, 'o> {
        // Pre-size the growth-only buffers from the caller's hint: every
        // program event lands in `events` once, produces a handful of
        // transitions, and the heap never holds more than the in-flight
        // timers/quanta (bounded by threads, itself bounded by events).
        let hint = opts.size_hint;
        let trace_hint = if opts.record_trace { hint } else { 0 };
        let probe_cost = opts.hooks.probe_cost();
        Engine {
            app,
            cfg,
            opts,
            now: Time::ZERO,
            seq: 0,
            cal: Calendar::with_capacity(64 + hint / 8),
            threads: Threads::new(),
            by_id: IdMap::default(),
            lwps: Lwps::default(),
            probe_cost,
            cpus: (0..cfg.cpus)
                .map(|_| CpuRt {
                    lwp: None,
                    run_start: Time::ZERO,
                    token: 0,
                    busy: Duration::ZERO,
                    last_lwp: None,
                })
                .collect(),
            mutexes: vec![MutexState::default(); app.n_mutexes as usize],
            sems: app.sem_initial.iter().map(|&v| SemState::new(v)).collect(),
            conds: vec![CondState::default(); app.n_condvars as usize],
            rws: vec![RwState::default(); app.n_rwlocks as usize],
            barriers: app.barrier_parties.iter().map(|&p| BarrierState::new(p)).collect(),
            onces: vec![OnceState::default(); app.once_init.len()],
            vars: app.var_initial.clone(),
            model: build_model(cfg.model),
            kernel_rq: PrioQueue::new(),
            parked: BinaryHeap::new(),
            cpu_bound_lwps: 0,
            joiners: VecDeque::new(),
            zombies: PrioQueue::new(),
            next_id: ThreadId::FIRST_USER.0,
            live: 0,
            des_events: 0,
            occupancy: OccupancyCheck::default(),
            transitions: SegVec::with_capacity(trace_hint.saturating_mul(3)),
            events: SegVec::with_capacity(trace_hint),
            stalled_at: None,
        }
    }

    // -- small helpers ------------------------------------------------------

    #[inline]
    fn push_ev(&mut self, at: Time, ev: Ev) {
        self.seq += 1;
        // Unique key: time in the high 64 bits, strictly-increasing seq in
        // the low 64 — one u128 comparison orders the calendar exactly as
        // the seed's (Time, seq, Ev) tuple heap did.
        self.cal.push((u128::from(at.0) << 64) | u128::from(self.seq), ev);
    }

    /// Report a scheduling decision to the attached observer, if any.
    #[inline]
    fn observe(&mut self, ev: SchedEvent) {
        if let Some(o) = self.opts.observer.as_deref_mut() {
            o.on_sched(self.now, &ev);
        }
    }

    /// Whether an observer is attached (guard for emissions whose event
    /// payload is not free to compute, e.g. queue depths).
    #[inline]
    fn observing(&self) -> bool {
        self.opts.observer.is_some()
    }

    fn viz_state(&self, tix: Tix) -> ThreadState {
        match self.threads.state[tix] {
            TState::Embryo => ThreadState::Blocked(BlockReason::NotStarted),
            TState::Runnable => ThreadState::Runnable,
            TState::Running(c) => ThreadState::Running {
                cpu: CpuId(c as u32),
                lwp: LwpId(self.lwps.id[self.threads.lwp[tix].expect("running thread has lwp")].0),
            },
            TState::Blocked(r) => ThreadState::Blocked(r),
            TState::Zombie | TState::Done => ThreadState::Exited,
        }
    }

    fn set_state(&mut self, tix: Tix, state: TState) {
        self.threads.state[tix] = state;
        let cpu = match state {
            TState::Running(c) => Some(CpuId(c as u32)),
            _ => None,
        };
        self.occupancy.transition(self.now, self.threads.id[tix], cpu);
        if self.opts.record_trace {
            let s = self.viz_state(tix);
            self.transitions.push(Transition {
                time: self.now,
                thread: self.threads.id[tix],
                state: s,
            });
        }
    }

    fn is_bound(&self, tix: Tix) -> bool {
        self.threads.binding[tix].is_bound()
    }

    fn call_cost(&self, call: &LibCall, bound: bool) -> Duration {
        let b = &self.cfg.base_costs;
        let f = &self.cfg.bound_costs;
        match call {
            LibCall::Create { bound: child_bound, .. } => {
                // Creating a bound thread is 6.7x the cost of unbound [17].
                if *child_bound {
                    b.create.scale(f.create_factor)
                } else {
                    b.create
                }
            }
            // Synchronization by a bound thread is 5.9x [17]; the paper
            // applies the semaphore factor to mutexes, conditions and
            // read/write locks alike.
            _ => {
                if bound {
                    b.sync_op.scale(f.sync_factor)
                } else {
                    b.sync_op
                }
            }
        }
    }

    // -- user-level run queue ----------------------------------------------

    /// Hand a runnable unbound thread to the scheduling model. `local`
    /// names the LWP whose queue should receive it when the model keeps
    /// per-worker queues (a yield on that worker); wakeups pass `None`.
    fn user_rq_push(&mut self, tix: Tix, front: bool, local: Option<Lix>) {
        let prio = self.threads.user_prio[tix];
        self.model.push(tix, prio, front, local);
        if self.observing() {
            let depth = self.model.len() as u32;
            let thread = self.threads.id[tix];
            self.observe(SchedEvent::UserEnqueue { thread, prio, depth });
        }
    }

    fn user_rq_pop(&mut self, lix: Lix) -> Option<Tix> {
        self.model.pop_for(lix)
    }

    fn user_rq_remove(&mut self, tix: Tix) -> bool {
        self.model.remove(tix)
    }

    // -- kernel run queue ----------------------------------------------------

    fn kernel_enqueue(&mut self, lix: Lix) {
        self.lwps.state[lix] = LState::Ready;
        let prio = self.lwps.prio[lix];
        self.kernel_rq.push_back(lix, prio);
        if self.observing() {
            let depth = self.kernel_rq.len() as u32;
            let lwp = self.lwps.id[lix];
            self.observe(SchedEvent::KernelEnqueue { lwp, prio, depth });
        }
    }

    /// Dequeue a ready LWP. Returns whether it was queued — callers that
    /// *know* it must be (a `Ready` LWP is by definition in the queue)
    /// assert on the result instead of silently succeeding.
    fn kernel_remove(&mut self, lix: Lix) -> bool {
        self.kernel_rq.remove(lix)
    }

    fn eligible(lwps: &Lwps, lix: Lix, cix: Cix) -> bool {
        match lwps.cpu_binding[lix] {
            None => true,
            Some(c) => c == cix,
        }
    }

    /// Pick the best ready LWP that may run on `cix`.
    fn pick_for_cpu(&mut self, cix: Cix) -> Option<Lix> {
        // With no CPU-bound LWP alive every ready LWP is eligible: take
        // the head of the highest non-empty level, O(1).
        if self.cpu_bound_lwps == 0 {
            return self.kernel_rq.pop_max();
        }
        let lwps = &self.lwps;
        let lix = self.kernel_rq.find_max(|l| Self::eligible(lwps, l, cix))?;
        let removed = self.kernel_rq.remove(lix);
        debug_assert!(removed, "found LWP must be queued");
        Some(lix)
    }

    // -- dispatch -------------------------------------------------------------

    /// Attach runnable unbound threads to parked pool LWPs (lowest LWP
    /// index first, as the seed's LWP-table scan did).
    fn attach_parked(&mut self) {
        if self.model.is_empty() {
            return;
        }
        while let Some(&Reverse(lix)) = self.parked.peek() {
            debug_assert!(
                self.lwps.state[lix] == LState::Parked && !self.lwps.dedicated[lix],
                "parked heap holds only parked pool LWPs"
            );
            let Some(tix) = self.user_rq_pop(lix) else { return };
            self.parked.pop();
            self.attach(lix, tix, true);
            self.kernel_enqueue(lix);
        }
    }

    /// Attach `tix` to LWP `lix`. `slept` boosts the LWP's priority as a
    /// sleep return (it was parked / sleeping in the kernel). Freshly
    /// created threads do *not* get the boost — they enter at whatever
    /// priority the LWP already has, like a new TS-class LWP.
    fn attach(&mut self, lix: Lix, tix: Tix, slept: bool) {
        let boost = slept && self.threads.started[tix].is_some();
        self.lwps.thread[lix] = Some(tix);
        if boost {
            self.lwps.prio[lix] = self.cfg.dispatch.on_sleep_return(self.lwps.prio[lix]);
        }
        if slept {
            self.lwps.fresh_quantum[lix] = true;
        }
        self.threads.lwp[tix] = Some(lix);
        if !self.lwps.dedicated[lix] {
            self.threads.last_pool_lwp[tix] = Some(lix);
        }
    }

    /// Place ready LWPs on CPUs until nothing changes: fill idle CPUs
    /// lowest index first, then try one preemption. The lowest-index fill
    /// is an invariant callers rely on: a run that never holds more than
    /// `L` LWPs only ever occupies CPUs `0..L` and never preempts, so it
    /// is step for step the same on any machine with at least `L` CPUs
    /// (the sweep folds such CPU counts into one replay).
    fn dispatch(&mut self) -> Result<(), VppbError> {
        loop {
            self.attach_parked();
            // Nothing ready: neither a CPU fill nor a preemption can
            // happen, and attach_parked found no thread/LWP pair either.
            if self.kernel_rq.is_empty() {
                return Ok(());
            }
            let mut changed = false;
            // Fill idle CPUs. Once the run queue drains there is nothing
            // left to place — skip the remaining idle-CPU scans.
            for c in 0..self.cpus.len() {
                if self.kernel_rq.is_empty() {
                    break;
                }
                if self.cpus[c].lwp.is_none() {
                    if let Some(l) = self.pick_for_cpu(c) {
                        self.grant(c, l)?;
                        changed = true;
                    }
                }
            }
            // One preemption: the best queued LWP vs the worst running one.
            if let Some((qprio, lix)) = self.kernel_rq.peek_max() {
                // Worst eligible running LWP.
                let mut worst: Option<(i32, Cix)> = None;
                for c in 0..self.cpus.len() {
                    if !Self::eligible(&self.lwps, lix, c) {
                        continue;
                    }
                    if let Some(rl) = self.cpus[c].lwp {
                        let p = self.lwps.prio[rl];
                        if worst.is_none_or(|(wp, _)| p < wp) {
                            worst = Some((p, c));
                        }
                    }
                }
                if let Some((wp, c)) = worst {
                    if wp < qprio {
                        self.preempt(c);
                        changed = true;
                    }
                }
            }
            if !changed {
                return Ok(());
            }
        }
    }

    /// Grant CPU `c` to ready LWP `l` and start running its thread.
    fn grant(&mut self, c: Cix, l: Lix) -> Result<(), VppbError> {
        debug_assert!(self.cpus[c].lwp.is_none());
        let tix = self.lwps.thread[l].expect("ready LWP carries a thread");
        self.lwps.state[l] = LState::Running(c);
        if self.lwps.fresh_quantum[l] {
            self.lwps.quantum_left[l] = self.cfg.dispatch.quantum(self.lwps.prio[l]);
            self.lwps.fresh_quantum[l] = false;
        }
        // Context-switch costs are charged to the incoming thread.
        let mut charge = Duration::ZERO;
        let uthread_switch =
            self.lwps.last_thread[l].is_some() && self.lwps.last_thread[l] != Some(tix);
        if uthread_switch {
            charge += self.cfg.base_costs.uthread_switch;
        }
        let lwp_switch = self.cpus[c].last_lwp.is_some() && self.cpus[c].last_lwp != Some(l);
        if lwp_switch {
            charge += self.cfg.base_costs.lwp_switch;
        }
        // Cache-affinity: a thread migrating between CPUs refills caches.
        let migrated = self.threads.last_cpu[tix].is_some_and(|prev| prev != c);
        if migrated {
            charge += self.cfg.migration_penalty;
        }
        self.threads.pre_charge[tix] += charge;
        self.observe(SchedEvent::Dispatch {
            cpu: CpuId(c as u32),
            lwp: self.lwps.id[l],
            thread: self.threads.id[tix],
            uthread_switch,
            lwp_switch,
            migrated,
        });
        self.lwps.last_thread[l] = Some(tix);
        self.cpus[c].lwp = Some(l);
        self.cpus[c].last_lwp = Some(l);
        self.cpus[c].run_start = self.now;
        self.threads.last_cpu[tix] = Some(c);
        if self.threads.started[tix].is_none() {
            self.threads.started[tix] = Some(self.now);
            let entry = self.app.func_entry(self.threads.func[tix]);
            let id = self.threads.id[tix];
            self.opts.hooks.on_thread_start(self.now, id, entry);
        }
        self.set_state(tix, TState::Running(c));
        self.run_thread(c)
    }

    /// Charge elapsed run time on CPU `c` to its LWP/thread phases.
    fn charge_elapsed(&mut self, c: Cix) {
        let elapsed = self.now - self.cpus[c].run_start;
        self.cpus[c].run_start = self.now;
        if elapsed.is_zero() {
            return;
        }
        self.cpus[c].busy += elapsed;
        if self.opts.faults.double_charge_cpu == Some(c as u32) {
            // Deliberate corruption (FaultInjection): busy time diverges
            // from the per-thread charges so the auditor has a real
            // imbalance to catch.
            self.cpus[c].busy += elapsed;
        }
        let l = self.cpus[c].lwp.expect("charging a busy cpu");
        self.lwps.quantum_left[l] = self.lwps.quantum_left[l].saturating_sub(elapsed);
        let tix = self.lwps.thread[l].expect("running lwp has thread");
        self.threads.cpu_time[tix] += elapsed;
        match &mut self.threads.phase[tix] {
            Phase::Compute { left } | Phase::CallLatency { left } => {
                *left = left.saturating_sub(elapsed);
            }
            _ => {}
        }
    }

    /// Kernel preemption: stop the LWP on `c` and requeue it (it keeps its
    /// priority and remaining quantum).
    fn preempt(&mut self, c: Cix) {
        self.cpus[c].token += 1;
        self.charge_elapsed(c);
        let l = self.cpus[c].lwp.take().expect("preempting a busy cpu");
        self.cpus[c].last_lwp = Some(l);
        let tix = self.lwps.thread[l].expect("running lwp has thread");
        self.observe(SchedEvent::Preempt {
            cpu: CpuId(c as u32),
            lwp: self.lwps.id[l],
            thread: self.threads.id[tix],
        });
        self.set_state(tix, TState::Runnable);
        self.kernel_enqueue(l);
    }

    /// The LWP on CPU `c` lost its thread (block/exit/yield): pick another
    /// runnable unbound thread or park/sleep.
    fn lwp_continue_or_park(&mut self, c: Cix) -> Result<(), VppbError> {
        let l = self.cpus[c].lwp.expect("cpu busy");
        if self.lwps.dedicated[l] {
            // Bound LWP sleeps with its thread (or died with it).
            let dead = self.lwps.thread[l].is_none();
            self.lwps.state[l] = if dead { LState::Dead } else { LState::Sleeping };
            self.cpus[c].lwp = None;
            self.cpus[c].last_lwp = Some(l);
            self.cpus[c].token += 1;
            return self.dispatch();
        }
        match self.user_rq_pop(l) {
            Some(next) => {
                self.attach(l, next, false);
                self.cpus[c].run_start = self.now;
                // Same CPU continues with the new thread.
                let mut charge = Duration::ZERO;
                let uthread_switch =
                    self.lwps.last_thread[l].is_some() && self.lwps.last_thread[l] != Some(next);
                if uthread_switch {
                    charge = self.cfg.base_costs.uthread_switch;
                }
                let migrated = self.threads.last_cpu[next].is_some_and(|prev| prev != c);
                if migrated {
                    charge += self.cfg.migration_penalty;
                }
                self.threads.pre_charge[next] += charge;
                self.observe(SchedEvent::Dispatch {
                    cpu: CpuId(c as u32),
                    lwp: self.lwps.id[l],
                    thread: self.threads.id[next],
                    uthread_switch,
                    lwp_switch: false,
                    migrated,
                });
                self.lwps.last_thread[l] = Some(next);
                self.threads.last_cpu[next] = Some(c);
                if self.threads.started[next].is_none() {
                    self.threads.started[next] = Some(self.now);
                    let entry = self.app.func_entry(self.threads.func[next]);
                    let id = self.threads.id[next];
                    self.opts.hooks.on_thread_start(self.now, id, entry);
                }
                self.set_state(next, TState::Running(c));
                self.run_thread(c)
            }
            None => {
                self.lwps.state[l] = LState::Parked;
                self.lwps.thread[l] = None;
                self.parked.push(Reverse(l));
                self.cpus[c].lwp = None;
                self.cpus[c].last_lwp = Some(l);
                self.cpus[c].token += 1;
                self.dispatch()
            }
        }
    }

    // -- running a thread -----------------------------------------------------

    /// Drive the thread currently on CPU `c` until it schedules a stop,
    /// blocks, or exits.
    fn run_thread(&mut self, c: Cix) -> Result<(), VppbError> {
        loop {
            let Some(l) = self.cpus[c].lwp else { return Ok(()) };
            let Some(tix) = self.lwps.thread[l] else { return Ok(()) };
            match self.threads.phase[tix] {
                Phase::Resume => {
                    if !self.resume_loop(tix, c)? {
                        return Ok(());
                    }
                }
                Phase::CallFinish => {
                    if !self.finish_call(tix, c)? {
                        return Ok(());
                    }
                }
                Phase::Compute { left } | Phase::CallLatency { left } => {
                    let total = left + std::mem::take(&mut self.threads.pre_charge[tix]);
                    match &mut self.threads.phase[tix] {
                        Phase::Compute { left } | Phase::CallLatency { left } => *left = total,
                        _ => unreachable!(),
                    }
                    // Cooperative models (the async pool) never preempt a
                    // pool worker mid-task — the quantum only applies to
                    // dedicated (bound-thread) LWPs, which stay ordinary
                    // kernel-scheduled LWPs in every model.
                    let coop = self.model.cooperative() && !self.lwps.dedicated[l];
                    let stop = if self.cfg.time_slicing && !coop {
                        Duration::from_nanos(total.nanos().min(self.lwps.quantum_left[l].nanos()))
                    } else {
                        total
                    };
                    self.cpus[c].token += 1;
                    let token = self.cpus[c].token;
                    self.push_ev(self.now + stop, Ev::cpu_stop(c, token));
                    return Ok(());
                }
            }
        }
    }

    /// Pump the program for actions until one takes time or blocks.
    /// Returns `Ok(true)` if the thread still occupies the CPU.
    fn resume_loop(&mut self, tix: Tix, c: Cix) -> Result<bool, VppbError> {
        let mut spins: u64 = 0;
        loop {
            let outcome = std::mem::take(&mut self.threads.outcome[tix]);
            let id = self.threads.id[tix];
            let ctx = ResumeCtx { outcome, self_id: id, now: self.now };
            let action = self.threads.program[tix].resume(ctx);
            match action {
                Action::Work(d) => {
                    let d = self.opts.jitter.apply(id, d);
                    self.threads.phase[tix] = Phase::Compute { left: d };
                    return Ok(true);
                }
                Action::Stall => {
                    if self.stalled_at.is_none() {
                        self.stalled_at = Some(self.des_events);
                    }
                    // Unwind like a far-future sleep so the dispatch
                    // cascade stays consistent; the streaming driver
                    // discards the run at the next event boundary, so the
                    // fake timer never fires.
                    self.threads.phase[tix] = Phase::Resume;
                    self.threads.gen[tix] += 1;
                    let gen = self.threads.gen[tix];
                    self.push_ev(self.now + Duration::from_nanos(1 << 60), Ev::timer(tix, gen));
                    self.observe(SchedEvent::Block {
                        thread: id,
                        reason: BlockReason::Timer,
                        queue_depth: 0,
                    });
                    self.set_state(tix, TState::Blocked(BlockReason::Timer));
                    self.detach_thread(tix);
                    self.lwp_continue_or_park(c)?;
                    return Ok(false);
                }
                Action::Sleep(d) => {
                    self.threads.phase[tix] = Phase::Resume;
                    self.threads.gen[tix] += 1;
                    let gen = self.threads.gen[tix];
                    self.push_ev(self.now + d, Ev::timer(tix, gen));
                    self.observe(SchedEvent::Block {
                        thread: id,
                        reason: BlockReason::Timer,
                        queue_depth: 0,
                    });
                    self.set_state(tix, TState::Blocked(BlockReason::Timer));
                    self.detach_thread(tix);
                    self.lwp_continue_or_park(c)?;
                    return Ok(false);
                }
                Action::Var(op) => {
                    self.threads.outcome[tix] = self.apply_var(op);
                    spins += 1;
                    if spins > SPIN_LIMIT {
                        return Err(VppbError::ProgramError(format!(
                            "{id} livelocked: {SPIN_LIMIT} consecutive zero-time actions \
                             (spinning on a variable with no work in the loop body?)"
                        )));
                    }
                }
                Action::Call(call, site) => {
                    let resolved = match self.opts.interceptor.as_deref_mut() {
                        Some(i) => i.intercept(id, call, self.now),
                        None => Intercept::Proceed(call),
                    };
                    match resolved {
                        Intercept::Skip => {
                            self.threads.outcome[tix] = Outcome::None;
                            spins += 1;
                            if spins > SPIN_LIMIT {
                                return Err(VppbError::ProgramError(format!(
                                    "{id} livelocked in skipped calls"
                                )));
                            }
                        }
                        Intercept::Proceed(call) => {
                            let kind = event_kind_of(&call, self.app);
                            self.opts.hooks.on_before(self.now, id, kind, site);
                            let bound = self.is_bound(tix);
                            let cost = self.probe_cost + self.call_cost(&call, bound);
                            self.threads.call[tix] =
                                Some(Inflight { call, site, kind, before: self.now, cpu: c });
                            self.threads.phase[tix] = Phase::CallLatency { left: cost };
                            return Ok(true);
                        }
                    }
                }
            }
        }
    }

    fn apply_var(&mut self, op: VarOp) -> Outcome {
        match op {
            VarOp::Read(v) => Outcome::Value(self.vars[v.0]),
            VarOp::Set(v, x) => {
                self.vars[v.0] = x;
                Outcome::None
            }
            VarOp::FetchAdd(v, d) => {
                let old = self.vars[v.0];
                self.vars[v.0] = old.wrapping_add(d);
                Outcome::Value(old)
            }
        }
    }

    /// Emit the AFTER probe and the placed event; honour deferred
    /// yield/suspend. Returns `Ok(true)` if the thread keeps the CPU.
    fn finish_call(&mut self, tix: Tix, c: Cix) -> Result<bool, VppbError> {
        let inflight = self.threads.call[tix].take().expect("CallFinish without call");
        let id = self.threads.id[tix];
        let kind = inflight.kind;
        let result = match self.threads.outcome[tix] {
            Outcome::Created(t) => EventResult::Created(t),
            Outcome::Joined(t) => EventResult::Joined(t),
            Outcome::Acquired(b) => EventResult::Acquired(b),
            Outcome::TimedOut(b) => EventResult::TimedOut(b),
            Outcome::None | Outcome::Value(_) => EventResult::None,
        };
        self.opts.hooks.on_after(self.now, id, kind, result, inflight.site);
        if self.opts.record_trace {
            self.events.push(PlacedEvent {
                start: inflight.before,
                end: self.now,
                thread: id,
                kind,
                cpu: CpuId(inflight.cpu as u32),
                caller: inflight.site,
            });
        }
        self.threads.pre_charge[tix] += self.probe_cost;
        self.threads.phase[tix] = Phase::Resume;
        if std::mem::take(&mut self.threads.yield_pending[tix]) {
            // thr_yield: go to the back of the user run queue (unbound) or
            // of the kernel queue (bound).
            if self.is_bound(tix) {
                let l = self.threads.lwp[tix].expect("bound thread keeps lwp");
                self.charge_elapsed(c);
                self.cpus[c].token += 1;
                self.cpus[c].lwp = None;
                self.cpus[c].last_lwp = Some(l);
                self.set_state(tix, TState::Runnable);
                self.kernel_enqueue(l);
                self.dispatch()?;
            } else {
                let l = self.cpus[c].lwp;
                self.charge_elapsed(c);
                self.set_state(tix, TState::Runnable);
                self.detach_thread(tix);
                // A yield stays local to the worker it ran on (models with
                // per-worker queues put it at the back of that deque).
                self.user_rq_push(tix, false, l);
                self.lwp_continue_or_park(c)?;
            }
            return Ok(false);
        }
        if std::mem::take(&mut self.threads.suspend_self_pending[tix]) {
            self.charge_elapsed(c);
            self.threads.suspended[tix] = true;
            self.set_state(tix, TState::Blocked(BlockReason::Suspended));
            self.detach_thread(tix);
            self.lwp_continue_or_park(c)?;
            return Ok(false);
        }
        Ok(true)
    }

    /// Detach an unbound thread from its pool LWP (bound threads keep
    /// theirs; the LWP state is handled by the caller).
    fn detach_thread(&mut self, tix: Tix) {
        if let Some(l) = self.threads.lwp[tix] {
            if !self.lwps.dedicated[l] {
                self.lwps.thread[l] = None;
                self.threads.lwp[tix] = None;
            }
        }
    }

    // -- wakeups ---------------------------------------------------------------

    /// Make a blocked thread runnable after the communication delay (if the
    /// wake crosses CPUs).
    fn wake_thread(&mut self, tix: Tix, waker_cpu: Option<Cix>) {
        let delay = match (waker_cpu, self.threads.last_cpu[tix]) {
            (Some(a), Some(b)) if a != b => self.cfg.comm_delay,
            _ => Duration::ZERO,
        };
        self.threads.gen[tix] += 1;
        let gen = self.threads.gen[tix];
        self.push_ev(self.now + delay, Ev::wake(tix, gen));
    }

    fn deliver_wake(&mut self, tix: Tix, gen: u64) -> Result<(), VppbError> {
        if self.threads.gen[tix] != gen {
            return Ok(()); // stale
        }
        if !matches!(self.threads.state[tix], TState::Blocked(_) | TState::Embryo) {
            return Ok(()); // already running/runnable
        }
        if self.threads.suspended[tix] {
            self.set_state(tix, TState::Blocked(BlockReason::Suspended));
            return Ok(());
        }
        self.observe(SchedEvent::Wakeup { thread: self.threads.id[tix] });
        self.make_runnable(tix)?;
        self.dispatch()
    }

    fn make_runnable(&mut self, tix: Tix) -> Result<(), VppbError> {
        self.set_state(tix, TState::Runnable);
        if let Some(l) = self.threads.lwp[tix] {
            // The thread kept its LWP while blocked (bound thread, or any
            // thread sleeping in a kernel syscall): the LWP wakes with it
            // (no boost on first start).
            if self.threads.started[tix].is_some() {
                self.lwps.prio[l] = self.cfg.dispatch.on_sleep_return(self.lwps.prio[l]);
            }
            self.lwps.fresh_quantum[l] = true;
            self.kernel_enqueue(l);
        } else {
            // Wake affinity: hand the thread back to the worker it last
            // ran on (ignored by the global-queue Solaris model).
            self.user_rq_push(tix, false, self.threads.last_pool_lwp[tix]);
        }
        Ok(())
    }

    // -- thread lifecycle --------------------------------------------------------

    fn spawn_thread(
        &mut self,
        func: FuncId,
        bound_flag: bool,
        creator: Option<Tix>,
    ) -> Result<Tix, VppbError> {
        let id = match (&mut self.opts.id_assigner, creator) {
            (Some(assign), Some(cix)) => {
                let seq = self.threads.create_seq[cix];
                self.threads.create_seq[cix] += 1;
                let creator_id = self.threads.id[cix];
                assign(creator_id, seq)
            }
            _ => {
                if creator.is_none() {
                    ThreadId::MAIN
                } else {
                    let id = ThreadId(self.next_id);
                    self.next_id += 1;
                    id
                }
            }
        };
        if self.by_id.get(id).is_some() {
            return Err(VppbError::ProgramError(format!("duplicate thread id {id}")));
        }
        let manip = self.opts.manips.lookup(id);
        let binding =
            manip.binding.unwrap_or(if bound_flag { Binding::BoundLwp } else { Binding::Unbound });
        // A tape body is walked by its own cursor (no virtual dispatch);
        // a coroutine body gets a fresh coroutine.
        let program = match &self.app.functions[func.0].body {
            Body::Tape(tape) => ProgSlot::Tape(tape.clone()),
            Body::Coroutine(factory) => ProgSlot::Boxed(factory()),
        };
        let tix = self.threads.push_new(
            id,
            func,
            program,
            binding,
            manip.priority.unwrap_or(0),
            manip.priority.is_some(),
        );
        self.by_id.insert(id, tix);
        self.live += 1;
        self.occupancy.transition(self.now, id, None);
        if self.opts.record_trace {
            self.transitions.push(Transition {
                time: self.now,
                thread: id,
                state: ThreadState::Blocked(BlockReason::NotStarted),
            });
        }
        match binding {
            Binding::Unbound => {
                if self.cfg.lwps == LwpPolicy::PerThread {
                    self.new_pool_lwp();
                }
            }
            Binding::BoundLwp | Binding::BoundCpu(_) => {
                let cpu_binding = match binding {
                    Binding::BoundCpu(c) => {
                        let c = c.0 as usize;
                        if c >= self.cpus.len() {
                            return Err(VppbError::InvalidConfig(format!(
                                "thread {id} bound to non-existent CPU{c}"
                            )));
                        }
                        Some(c)
                    }
                    _ => None,
                };
                if cpu_binding.is_some() {
                    self.cpu_bound_lwps += 1;
                }
                let lix = self.lwps.len();
                let lix =
                    self.lwps.push_new(LwpId(lix as u32), LState::Sleeping, TS_DEFAULT_PRI, true);
                self.lwps.thread[lix] = Some(tix);
                self.lwps.cpu_binding[lix] = cpu_binding;
                self.threads.lwp[tix] = Some(lix);
            }
        }
        self.make_runnable(tix)?;
        Ok(tix)
    }

    fn new_pool_lwp(&mut self) -> Lix {
        let id = LwpId(self.lwps.len() as u32);
        let lix = self.lwps.push_new(id, LState::Parked, TS_DEFAULT_PRI, false);
        self.model.register_worker(lix);
        self.parked.push(Reverse(lix));
        lix
    }

    fn pool_lwp_count(&self) -> u32 {
        self.lwps.dedicated.iter().filter(|&&d| !d).count() as u32
    }

    fn exit_thread(&mut self, tix: Tix, c: Cix) -> Result<(), VppbError> {
        let id = self.threads.id[tix];
        // The placed event for thr_exit spans BEFORE to the exit instant
        // (thr_exit never returns, so there is no AFTER probe).
        if let Some(inflight) = self.threads.call[tix].take() {
            if self.opts.record_trace {
                self.events.push(PlacedEvent {
                    start: inflight.before,
                    end: self.now,
                    thread: id,
                    kind: inflight.kind,
                    cpu: CpuId(inflight.cpu as u32),
                    caller: inflight.site,
                });
            }
        }
        self.charge_elapsed(c);
        self.threads.ended[tix] = Some(self.now);
        self.set_state(tix, TState::Zombie);
        self.live -= 1;
        // Release the LWP.
        if let Some(l) = self.threads.lwp[tix] {
            if self.lwps.dedicated[l] {
                self.lwps.thread[l] = None;
            } else {
                self.detach_thread(tix);
            }
        }
        self.zombies.push_back(tix, 0);
        // Wake the first matching joiner, if any.
        let mut chosen: Option<usize> = None;
        for (i, (_, target)) in self.joiners.iter().enumerate() {
            match target {
                Some(t) if *t == id => {
                    chosen = Some(i);
                    break;
                }
                None if chosen.is_none() => chosen = Some(i),
                _ => {}
            }
        }
        // Specific joins take precedence over an earlier wildcard only if
        // they match; the scan above picks the earliest wildcard otherwise.
        if let Some(i) = chosen {
            // A wildcard joiner chosen here must reap *this* thread.
            let (jix, target) = self.joiners.remove(i).expect("index valid");
            let reaped = match target {
                Some(t) => {
                    debug_assert_eq!(t, id);
                    tix
                }
                None => tix,
            };
            self.reap(reaped);
            self.threads.outcome[jix] = Outcome::Joined(self.threads.id[reaped]);
            self.finish_blocking_wake(jix, c);
        }
        self.lwp_continue_or_park(c)
    }

    fn reap(&mut self, tix: Tix) {
        self.threads.state[tix] = TState::Done;
        let removed = self.zombies.remove(tix);
        assert!(removed, "reaping a thread not on the zombie list");
    }

    // -- call semantics ----------------------------------------------------------

    /// Current sleep-queue population behind `reason` (observer metadata).
    fn sleep_queue_len(&self, reason: BlockReason) -> u32 {
        let BlockReason::Sync(obj) = reason else { return 0 };
        let ix = obj.index as usize;
        (match obj.kind {
            vppb_model::ObjKind::Mutex => self.mutexes[ix].queue.len(),
            vppb_model::ObjKind::Semaphore => self.sems[ix].queue.len(),
            vppb_model::ObjKind::Condvar => self.conds[ix].queue.len(),
            vppb_model::ObjKind::RwLock => self.rws[ix].queue.len(),
            vppb_model::ObjKind::Barrier => self.barriers[ix].queue.len(),
            vppb_model::ObjKind::Once => self.onces[ix].queue.len(),
        }) as u32
    }

    fn perform_call(&mut self, tix: Tix, c: Cix) -> Result<(), VppbError> {
        let call = self.threads.call[tix].as_ref().expect("in call").call;
        let id = self.threads.id[tix];
        let sem = self.call_semantics(tix, c, call)?;
        match sem {
            CallOutcome::Done => {
                self.threads.phase[tix] = Phase::CallFinish;
                self.run_thread(c)
            }
            CallOutcome::Blocked(reason) => {
                self.charge_elapsed(c);
                if self.observing() {
                    let queue_depth = self.sleep_queue_len(reason);
                    self.observe(SchedEvent::Block { thread: id, reason, queue_depth });
                }
                self.set_state(tix, TState::Blocked(reason));
                self.detach_thread(tix);
                self.lwp_continue_or_park(c)
            }
            CallOutcome::BlockedIo(latency) => {
                // The LWP sleeps in the kernel with the thread attached —
                // this is why I/O-bound programs defeat single-LWP
                // recording in the original tool, and why probes around
                // the syscall (this extension) restore soundness: the
                // whole wait lands inside the call span.
                self.charge_elapsed(c);
                self.observe(SchedEvent::Block {
                    thread: id,
                    reason: BlockReason::Io,
                    queue_depth: 0,
                });
                self.set_state(tix, TState::Blocked(BlockReason::Io));
                self.threads.gen[tix] += 1;
                let gen = self.threads.gen[tix];
                self.push_ev(self.now + latency, Ev::timer(tix, gen));
                let l = self.cpus[c].lwp.take().expect("io on busy cpu");
                self.lwps.state[l] = LState::Sleeping;
                self.cpus[c].last_lwp = Some(l);
                self.cpus[c].token += 1;
                self.dispatch()
            }
            CallOutcome::Extend(d) => {
                // The call keeps running on the CPU for `d` more (a once
                // initializer); its semantics re-enter when that elapses.
                self.threads.phase[tix] = Phase::CallLatency { left: d };
                self.run_thread(c)
            }
            CallOutcome::Exited => self.exit_thread(tix, c),
        }
    }

    fn call_semantics(
        &mut self,
        tix: Tix,
        c: Cix,
        call: LibCall,
    ) -> Result<CallOutcome, VppbError> {
        let id = self.threads.id[tix];
        use LibCall::*;
        Ok(match call {
            Create { func, bound } => {
                let child = self.spawn_thread(func, bound, Some(tix))?;
                self.threads.outcome[tix] = Outcome::Created(self.threads.id[child]);
                self.dispatch()?;
                CallOutcome::Done
            }
            Join(target) => {
                let found = match target {
                    Some(t) => match self.by_id.get(t) {
                        None => {
                            return Err(VppbError::ProgramError(format!(
                                "{id} joins unknown thread {t}"
                            )))
                        }
                        Some(zix) => match self.threads.state[zix] {
                            TState::Zombie => Some(zix),
                            TState::Done => {
                                return Err(VppbError::ProgramError(format!(
                                    "{id} joins already-joined thread {t}"
                                )))
                            }
                            _ => None,
                        },
                    },
                    None => self.zombies.peek_max().map(|(_, z)| z),
                };
                match found {
                    Some(zix) => {
                        self.reap(zix);
                        self.threads.outcome[tix] = Outcome::Joined(self.threads.id[zix]);
                        CallOutcome::Done
                    }
                    None => {
                        self.joiners.push_back((tix, target));
                        CallOutcome::Blocked(BlockReason::Join(target))
                    }
                }
            }
            Exit => CallOutcome::Exited,
            Yield => {
                self.threads.yield_pending[tix] = true;
                CallOutcome::Done
            }
            SetPrio { target, prio } => {
                if let Some(xix) = self.by_id.get(target) {
                    if !self.threads.prio_locked[xix] {
                        // Only priority-ordered models re-queue; the async
                        // deques keep FIFO positions across setprio.
                        let was_queued = self.model.requeue_priority() && self.user_rq_remove(xix);
                        self.threads.user_prio[xix] = prio;
                        if was_queued {
                            self.user_rq_push(xix, false, None);
                        }
                    }
                }
                CallOutcome::Done
            }
            SetConcurrency(n) => {
                if self.cfg.lwps == LwpPolicy::FollowProgram {
                    while self.pool_lwp_count() < n {
                        self.new_pool_lwp();
                    }
                    self.dispatch()?;
                }
                CallOutcome::Done
            }
            Suspend(target) => {
                if target == id {
                    self.threads.suspend_self_pending[tix] = true;
                } else if let Some(xix) = self.by_id.get(target) {
                    self.suspend_thread(xix)?;
                }
                CallOutcome::Done
            }
            IoWait(latency) => CallOutcome::BlockedIo(latency),
            Continue(target) => {
                if let Some(xix) = self.by_id.get(target) {
                    if std::mem::take(&mut self.threads.suspended[xix])
                        && matches!(
                            self.threads.state[xix],
                            TState::Blocked(BlockReason::Suspended)
                        )
                    {
                        self.make_runnable(xix)?;
                        self.dispatch()?;
                    }
                }
                CallOutcome::Done
            }

            MutexLock(m) => {
                if self.mutexes[m.0 as usize].try_lock(tix as u32) {
                    CallOutcome::Done
                } else {
                    self.mutexes[m.0 as usize].queue.push_back(tix as u32);
                    CallOutcome::Blocked(BlockReason::Sync(SyncObjId::mutex(m.0)))
                }
            }
            MutexTryLock(m) => {
                let got = self.mutexes[m.0 as usize].try_lock(tix as u32);
                self.threads.outcome[tix] = Outcome::Acquired(got);
                CallOutcome::Done
            }
            MutexUnlock(m) => {
                if self.opts.faults.leak_mutex == Some(m.0) {
                    // Deliberate corruption (FaultInjection): the unlock
                    // "succeeds" but the lock is never released, so the
                    // auditor must flag lock-held-at-exit.
                    return Ok(CallOutcome::Done);
                }
                match self.mutexes[m.0 as usize].unlock(tix as u32) {
                    Err(owner) => {
                        return Err(VppbError::ProgramError(format!(
                            "{id} unlocked a mutex owned by {:?}",
                            owner.map(|o| self.threads.id[o as usize])
                        )))
                    }
                    Ok(Some(w)) => {
                        // The woken thread may be re-acquiring after a
                        // cond_wait; its outcome was staged then.
                        self.finish_blocking_wake(w as Tix, c);
                    }
                    Ok(None) => {}
                }
                CallOutcome::Done
            }

            SemWait(s) => {
                if self.sems[s.0 as usize].try_wait() {
                    CallOutcome::Done
                } else {
                    self.sems[s.0 as usize].queue.push_back(tix as u32);
                    CallOutcome::Blocked(BlockReason::Sync(SyncObjId::semaphore(s.0)))
                }
            }
            SemTryWait(s) => {
                let got = self.sems[s.0 as usize].try_wait();
                self.threads.outcome[tix] = Outcome::Acquired(got);
                CallOutcome::Done
            }
            SemPost(s) => {
                if let Some(w) = self.sems[s.0 as usize].post() {
                    self.finish_blocking_wake(w as Tix, c);
                }
                CallOutcome::Done
            }

            CondWait { cond, mutex } => self.begin_cond_wait(tix, c, cond.0, mutex.0, None)?,
            CondTimedWait { cond, mutex, timeout } => {
                self.begin_cond_wait(tix, c, cond.0, mutex.0, Some(timeout))?
            }
            CondSignal(cv) => {
                if let Some(w) = self.conds[cv.0 as usize].signal() {
                    self.cond_wake(w as Tix, c, false)?;
                }
                CallOutcome::Done
            }
            CondBroadcast(cv) => {
                for w in self.conds[cv.0 as usize].broadcast() {
                    self.cond_wake(w as Tix, c, false)?;
                }
                CallOutcome::Done
            }

            RwRdLock(r) => {
                if self.rws[r.0 as usize].try_read(tix as u32) {
                    CallOutcome::Done
                } else {
                    self.rws[r.0 as usize].queue.push_back(RwWaiter::Reader(tix as u32));
                    CallOutcome::Blocked(BlockReason::Sync(SyncObjId::rwlock(r.0)))
                }
            }
            RwWrLock(r) => {
                if self.rws[r.0 as usize].try_write(tix as u32) {
                    CallOutcome::Done
                } else {
                    self.rws[r.0 as usize].queue.push_back(RwWaiter::Writer(tix as u32));
                    CallOutcome::Blocked(BlockReason::Sync(SyncObjId::rwlock(r.0)))
                }
            }
            RwTryRdLock(r) => {
                let got = self.rws[r.0 as usize].try_read(tix as u32);
                self.threads.outcome[tix] = Outcome::Acquired(got);
                CallOutcome::Done
            }
            RwTryWrLock(r) => {
                let got = self.rws[r.0 as usize].try_write(tix as u32);
                self.threads.outcome[tix] = Outcome::Acquired(got);
                CallOutcome::Done
            }
            RwUnlock(r) => {
                if self.opts.faults.leak_rw_reader == Some(r.0)
                    && self.rws[r.0 as usize].readers.contains(&(tix as u32))
                {
                    // Deliberate corruption (FaultInjection): the reader's
                    // unlock "succeeds" but its share is never dropped, so
                    // the auditor must flag lock-held-at-exit.
                    return Ok(CallOutcome::Done);
                }
                let granted = self.rws[r.0 as usize].unlock(tix as u32).ok_or_else(|| {
                    VppbError::ProgramError(format!("{id} rw-unlocked a lock it does not hold"))
                })?;
                for w in granted {
                    self.finish_blocking_wake(w as Tix, c);
                }
                CallOutcome::Done
            }

            BarrierWait(b) => {
                let bix = b.0 as usize;
                match self.barriers[bix].arrive(tix as u32) {
                    Some(waiters) => {
                        if self.opts.faults.skip_barrier_waker == Some(b.0) {
                            // Deliberate corruption (FaultInjection): the
                            // trip wakes everyone but forgets to clear one
                            // waiter's queue entry, so the auditor must
                            // flag the stale queue and the broken
                            // generation ledger.
                            if let Some(&first) = waiters.first() {
                                self.barriers[bix].queue.push_back(first);
                            }
                        }
                        for w in waiters {
                            self.threads.outcome[w as usize] = Outcome::Acquired(false);
                            self.finish_blocking_wake(w as Tix, c);
                        }
                        // The tripping arrival is the "serial" caller.
                        self.threads.outcome[tix] = Outcome::Acquired(true);
                        CallOutcome::Done
                    }
                    None => CallOutcome::Blocked(BlockReason::Sync(SyncObjId::barrier(b.0))),
                }
            }

            OnceCall(o) => {
                let oix = o.0 as usize;
                if self.onces[oix].done {
                    self.threads.outcome[tix] = Outcome::Acquired(false);
                    CallOutcome::Done
                } else if self.onces[oix].running == Some(tix as u32) {
                    // Re-entered after the Extend latency: the initializer
                    // just finished on this thread's CPU.
                    self.onces[oix].running = None;
                    self.onces[oix].done = true;
                    let waiters: Vec<u32> = self.onces[oix].queue.drain(..).collect();
                    for w in waiters {
                        self.threads.outcome[w as usize] = Outcome::Acquired(false);
                        self.finish_blocking_wake(w as Tix, c);
                    }
                    self.threads.outcome[tix] = Outcome::Acquired(true);
                    CallOutcome::Done
                } else if self.onces[oix].running.is_some() {
                    self.onces[oix].queue.push_back(tix as u32);
                    CallOutcome::Blocked(BlockReason::Sync(SyncObjId::once(o.0)))
                } else {
                    // Winner: run the initializer inside the call span.
                    self.onces[oix].running = Some(tix as u32);
                    CallOutcome::Extend(self.app.once_init[oix])
                }
            }
        })
    }

    /// Wake a thread whose blocking call just succeeded (mutex handoff,
    /// semaphore grant, rwlock grant).
    fn finish_blocking_wake(&mut self, wix: Tix, waker_cpu: Cix) {
        self.threads.phase[wix] = Phase::CallFinish;
        self.wake_thread(wix, Some(waker_cpu));
    }

    fn begin_cond_wait(
        &mut self,
        tix: Tix,
        c: Cix,
        cv: u32,
        m: u32,
        timeout: Option<Duration>,
    ) -> Result<CallOutcome, VppbError> {
        if self.mutexes[m as usize].owner != Some(tix as u32) {
            let id = self.threads.id[tix];
            return Err(VppbError::ProgramError(format!(
                "{id} cond_waits without holding the mutex mtx{m}"
            )));
        }
        // Atomically release the mutex and sleep on the condvar. The
        // unlock cannot fail: the owner check above just passed.
        let next = self.mutexes[m as usize].unlock(tix as u32).expect("owner checked");
        if let Some(w) = next {
            self.finish_blocking_wake(w as Tix, c);
        }
        self.conds[cv as usize].queue.push_back(tix as u32);
        self.threads.cv_wait[tix] = Some((cv, m));
        if let Some(d) = timeout {
            self.threads.gen[tix] += 1;
            let gen = self.threads.gen[tix];
            self.push_ev(self.now + d, Ev::timer(tix, gen));
        }
        Ok(CallOutcome::Blocked(BlockReason::Sync(SyncObjId::condvar(cv))))
    }

    /// A condvar waiter was signalled (or timed out): stage its outcome and
    /// re-acquire the mutex before the wait can return.
    fn cond_wake(&mut self, wix: Tix, waker_cpu: Cix, timed_out: bool) -> Result<(), VppbError> {
        let (_, m) =
            self.threads.cv_wait[wix].take().expect("cond_wake on thread not in cond_wait");
        let is_timed = matches!(
            self.threads.call[wix].as_ref().map(|i| i.call),
            Some(LibCall::CondTimedWait { .. })
        );
        self.threads.outcome[wix] =
            if is_timed { Outcome::TimedOut(timed_out) } else { Outcome::None };
        if self.mutexes[m as usize].try_lock(wix as u32) {
            self.finish_blocking_wake(wix, waker_cpu);
        } else {
            self.mutexes[m as usize].queue.push_back(wix as u32);
            self.threads.phase[wix] = Phase::CallFinish;
            // Still blocked, now on the mutex; record the reason change.
            self.set_state(wix, TState::Blocked(BlockReason::Sync(SyncObjId::mutex(m))));
        }
        Ok(())
    }

    fn suspend_thread(&mut self, xix: Tix) -> Result<(), VppbError> {
        self.threads.suspended[xix] = true;
        match self.threads.state[xix] {
            TState::Running(c) => {
                self.cpus[c].token += 1;
                self.charge_elapsed(c);
                self.set_state(xix, TState::Blocked(BlockReason::Suspended));
                // Free the CPU; the LWP continues with other work.
                self.detach_thread(xix);
                self.lwp_continue_or_park(c)?;
            }
            TState::Runnable => {
                if let Some(l) = self.threads.lwp[xix] {
                    // A Runnable thread holding an LWP means the LWP is
                    // Ready, i.e. definitely queued — anything else is an
                    // engine invariant violation the old linear scans
                    // would have papered over.
                    let removed = self.kernel_remove(l);
                    assert!(removed, "suspending a Runnable thread whose LWP was not queued");
                    if self.lwps.dedicated[l] {
                        self.lwps.state[l] = LState::Sleeping;
                    } else {
                        // Attached to a pool LWP awaiting CPU: detach; the
                        // LWP parks (dispatch may re-attach it elsewhere).
                        self.lwps.state[l] = LState::Parked;
                        self.lwps.thread[l] = None;
                        self.parked.push(Reverse(l));
                        self.threads.lwp[xix] = None;
                    }
                } else {
                    let removed = self.user_rq_remove(xix);
                    assert!(removed, "suspending a Runnable LWP-less thread not in the run queue");
                }
                self.set_state(xix, TState::Blocked(BlockReason::Suspended));
                self.dispatch()?;
            }
            TState::Blocked(_) => { /* flag set; handled at wake */ }
            TState::Embryo | TState::Zombie | TState::Done => {}
        }
        Ok(())
    }

    // -- event handlers -----------------------------------------------------------

    fn on_cpu_stop(&mut self, c: Cix, token: u64) -> Result<(), VppbError> {
        if self.cpus[c].token != token {
            return Ok(()); // stale
        }
        self.charge_elapsed(c);
        let l = self.cpus[c].lwp.expect("stop on busy cpu");
        let tix = self.lwps.thread[l].expect("running lwp has thread");
        match self.threads.phase[tix] {
            Phase::Compute { left } if left.is_zero() => {
                self.threads.phase[tix] = Phase::Resume;
                self.run_thread(c)
            }
            Phase::CallLatency { left } if left.is_zero() => self.perform_call(tix, c),
            Phase::Compute { .. } | Phase::CallLatency { .. } => {
                // Quantum expiry: age the LWP and requeue it.
                debug_assert!(self.lwps.quantum_left[l].is_zero());
                let from_prio = self.lwps.prio[l];
                self.lwps.prio[l] = self.cfg.dispatch.on_quantum_expiry(from_prio);
                self.observe(SchedEvent::Age {
                    lwp: self.lwps.id[l],
                    from_prio,
                    to_prio: self.lwps.prio[l],
                });
                self.lwps.fresh_quantum[l] = true;
                self.cpus[c].token += 1;
                self.cpus[c].lwp = None;
                self.cpus[c].last_lwp = Some(l);
                self.set_state(tix, TState::Runnable);
                self.kernel_enqueue(l);
                self.dispatch()
            }
            _ => unreachable!("CpuStop in non-running phase"),
        }
    }

    fn on_timer(&mut self, tix: Tix, gen: u64) -> Result<(), VppbError> {
        if self.threads.gen[tix] != gen {
            return Ok(()); // cancelled (signalled first, or woken)
        }
        match self.threads.cv_wait[tix] {
            Some((cv, _)) => {
                if self.conds[cv as usize].remove(tix as u32) {
                    self.cond_wake(tix, usize::MAX, true)?;
                    self.dispatch()
                } else {
                    Ok(())
                }
            }
            None => match self.threads.state[tix] {
                // A Sleep() expiry.
                TState::Blocked(BlockReason::Timer) => self.deliver_wake(tix, gen),
                // An I/O completion: the call finishes once back on a CPU.
                TState::Blocked(BlockReason::Io) => {
                    self.threads.phase[tix] = Phase::CallFinish;
                    self.threads.outcome[tix] = Outcome::None;
                    self.deliver_wake(tix, gen)
                }
                _ => Ok(()),
            },
        }
    }

    // -- main loop --------------------------------------------------------------

    /// Start-of-run work: collection on, spawn `main`, create the initial
    /// LWP pool, and dispatch. Only ever runs on a fresh engine — resuming
    /// from a snapshot skips it entirely.
    fn bootstrap(&mut self) -> Result<(), VppbError> {
        self.opts.hooks.on_collect(true, self.now);
        let main_tix = self.spawn_thread(self.app.main, false, None)?;
        debug_assert_eq!(main_tix, 0);
        // Initial pool LWPs.
        let initial = match self.cfg.lwps {
            LwpPolicy::Fixed(n) => n.max(1),
            LwpPolicy::PerThread => 0, // created per thread at spawn
            LwpPolicy::FollowProgram => 1,
        };
        for _ in 0..initial {
            self.new_pool_lwp();
        }
        self.dispatch()
    }

    /// Pump DES events. With `stop_before = Some(m)` the loop pauses at the
    /// boundary *before* event number `m` is popped, leaving the engine in
    /// a consistent between-events state a snapshot can capture.
    fn event_loop(&mut self, stop_before: Option<u64>) -> Result<LoopEnd, VppbError> {
        // A program can stall during bootstrap (or immediately after a
        // resume), before any event is popped.
        if let Some(at) = self.stalled_at {
            return Ok(LoopEnd::Stalled(at));
        }
        loop {
            if self.live == 0 {
                return Ok(LoopEnd::Finished);
            }
            if stop_before.is_some_and(|m| self.des_events + 1 >= m) {
                return Ok(LoopEnd::Paused);
            }
            let Some(entry) = self.cal.pop() else {
                return Err(VppbError::ProgramError(format!(
                    "deadlock: no runnable threads ({})",
                    self.progress_report()
                )));
            };
            let time = Time((entry.key >> 64) as u64);
            let ev = entry.ev;
            debug_assert!(time >= self.now, "time must not run backwards");
            self.now = time;
            self.des_events += 1;
            if self.opts.faults.panic_after_events.is_some_and(|n| self.des_events >= n) {
                // Deliberate crash (FaultInjection): stands in for any
                // unexpected engine bug so callers can prove their
                // isolation boundaries actually contain a panic.
                panic!(
                    "fault injection: engine panicked after {} events at t={}",
                    self.des_events, self.now
                );
            }
            if self.des_events > self.opts.limits.max_des_events {
                return Err(VppbError::ProgramError(format!(
                    "run exceeded {} engine events at t={} — livelock or runaway program ({})",
                    self.opts.limits.max_des_events,
                    self.now,
                    self.progress_report()
                )));
            }
            if self.now > self.opts.limits.max_time {
                return Err(VppbError::ProgramError(format!(
                    "run exceeded the virtual-time limit ({})",
                    self.progress_report()
                )));
            }
            match ev.tag {
                EvTag::CpuStop => self.on_cpu_stop(ev.idx as usize, ev.stamp)?,
                EvTag::Wake => self.deliver_wake(ev.idx as usize, ev.stamp)?,
                EvTag::Timer => self.on_timer(ev.idx as usize, ev.stamp)?,
            }
            if let Some(at) = self.stalled_at {
                return Ok(LoopEnd::Stalled(at));
            }
        }
    }

    fn run(mut self) -> Result<RunResult, VppbError> {
        self.bootstrap()?;
        match self.event_loop(None)? {
            LoopEnd::Finished => {
                self.opts.hooks.on_collect(false, self.now);
                Ok(self.into_result())
            }
            LoopEnd::Stalled(at) => Err(VppbError::ProgramError(format!(
                "program stalled at event {at} outside streaming replay"
            ))),
            LoopEnd::Paused => unreachable!("run() never passes stop_before"),
        }
    }

    /// Capture every piece of mutable scheduler state. Destructive because
    /// thread coroutines are moved, not cloned — use
    /// [`EngineSnapshot::try_clone`] to duplicate afterwards.
    fn into_snapshot(mut self) -> EngineSnapshot {
        // Freeze the trace so every snapshot clone shares it instead of
        // copying it; the resumed engine keeps appending in a new tail.
        self.transitions.seal();
        self.events.seal();
        EngineSnapshot {
            now: self.now,
            seq: self.seq,
            cal: self.cal,
            threads: self.threads,
            by_id: self.by_id,
            lwps: self.lwps,
            cpus: self.cpus,
            mutexes: self.mutexes,
            sems: self.sems,
            conds: self.conds,
            rws: self.rws,
            barriers: self.barriers,
            onces: self.onces,
            vars: self.vars,
            model: self.model,
            kernel_rq: self.kernel_rq,
            parked: self.parked,
            cpu_bound_lwps: self.cpu_bound_lwps,
            joiners: self.joiners,
            zombies: self.zombies,
            next_id: self.next_id,
            live: self.live,
            des_events: self.des_events,
            occupancy: self.occupancy,
            transitions: self.transitions,
            events: self.events,
        }
    }

    /// Rebuild an engine around a snapshot. `app` may declare *more* sync
    /// objects, semaphores, and functions than existed when the snapshot
    /// was taken (the incremental analyzer's object universe only grows);
    /// the extra objects start fresh, exactly as a cold run would have
    /// left objects it never touched.
    fn from_snapshot(
        app: &'a App,
        cfg: &'a MachineConfig,
        opts: RunOptions<'o>,
        snap: EngineSnapshot,
    ) -> Result<Engine<'a, 'o>, VppbError> {
        if cfg.cpus as usize != snap.cpus.len() {
            return Err(VppbError::InvalidConfig(format!(
                "snapshot was taken on a {}-CPU machine, resuming on {}",
                snap.cpus.len(),
                cfg.cpus
            )));
        }
        let shrunk = (app.n_mutexes as usize) < snap.mutexes.len()
            || app.sem_initial.len() < snap.sems.len()
            || (app.n_condvars as usize) < snap.conds.len()
            || (app.n_rwlocks as usize) < snap.rws.len()
            || app.barrier_parties.len() < snap.barriers.len()
            || app.once_init.len() < snap.onces.len();
        if shrunk {
            return Err(VppbError::InvalidConfig(
                "resume app declares fewer sync objects than the snapshot holds".into(),
            ));
        }
        if snap.threads.func.iter().any(|f| f.0 >= app.functions.len()) {
            return Err(VppbError::InvalidConfig(
                "snapshot thread references a function the resume app lacks".into(),
            ));
        }
        let mut mutexes = snap.mutexes;
        mutexes.resize_with(app.n_mutexes as usize, MutexState::default);
        let mut conds = snap.conds;
        conds.resize_with(app.n_condvars as usize, CondState::default);
        let mut rws = snap.rws;
        rws.resize_with(app.n_rwlocks as usize, RwState::default);
        let mut barriers = snap.barriers;
        for &p in app.barrier_parties.iter().skip(barriers.len()) {
            barriers.push(BarrierState::new(p));
        }
        let mut onces = snap.onces;
        onces.resize_with(app.once_init.len(), OnceState::default);
        let mut sems = snap.sems;
        for &v in app.sem_initial.iter().skip(sems.len()) {
            sems.push(SemState::new(v));
        }
        let mut vars = snap.vars;
        for &v in app.var_initial.iter().skip(vars.len()) {
            vars.push(v);
        }
        let probe_cost = opts.hooks.probe_cost();
        Ok(Engine {
            app,
            cfg,
            opts,
            now: snap.now,
            seq: snap.seq,
            cal: snap.cal,
            probe_cost,
            threads: snap.threads,
            by_id: snap.by_id,
            lwps: snap.lwps,
            cpus: snap.cpus,
            mutexes,
            sems,
            conds,
            rws,
            barriers,
            onces,
            vars,
            model: snap.model,
            kernel_rq: snap.kernel_rq,
            parked: snap.parked,
            cpu_bound_lwps: snap.cpu_bound_lwps,
            joiners: snap.joiners,
            zombies: snap.zombies,
            next_id: snap.next_id,
            live: snap.live,
            des_events: snap.des_events,
            occupancy: snap.occupancy,
            transitions: snap.transitions,
            events: snap.events,
            stalled_at: None,
        })
    }

    fn progress_report(&self) -> String {
        let mut parts = Vec::new();
        for tix in 0..self.threads.len() {
            let s = match self.threads.state[tix] {
                TState::Embryo => "embryo".to_string(),
                TState::Runnable => "runnable".to_string(),
                TState::Running(c) => format!("running on CPU{c}"),
                TState::Blocked(r) => format!("blocked on {r:?}"),
                TState::Zombie => "zombie".to_string(),
                TState::Done => continue,
            };
            parts.push(format!("{}={s}", self.threads.id[tix]));
        }
        parts.join(", ")
    }

    /// Summarize the engine's final state for the conservation auditor.
    fn audit_input_sync(&self) -> Vec<SyncAudit> {
        let mut sync = Vec::new();
        for (i, m) in self.mutexes.iter().enumerate() {
            sync.push(SyncAudit {
                obj: SyncObjId::mutex(i as u32),
                held_by: m.owner.into_iter().map(|t| self.threads.id[t as usize]).collect(),
                queued: m.queue.len(),
            });
        }
        for (i, s) in self.sems.iter().enumerate() {
            sync.push(SyncAudit {
                obj: SyncObjId::semaphore(i as u32),
                held_by: Vec::new(), // leftover units are legal
                queued: s.queue.len(),
            });
        }
        for (i, cv) in self.conds.iter().enumerate() {
            sync.push(SyncAudit {
                obj: SyncObjId::condvar(i as u32),
                held_by: Vec::new(),
                queued: cv.queue.len(),
            });
        }
        for (i, rw) in self.rws.iter().enumerate() {
            let mut held_by: Vec<ThreadId> =
                rw.readers.iter().map(|&t| self.threads.id[t as usize]).collect();
            held_by.extend(rw.writer.map(|t| self.threads.id[t as usize]));
            sync.push(SyncAudit {
                obj: SyncObjId::rwlock(i as u32),
                held_by,
                queued: rw.queue.len(),
            });
        }
        for (i, b) in self.barriers.iter().enumerate() {
            sync.push(SyncAudit {
                obj: SyncObjId::barrier(i as u32),
                held_by: Vec::new(),
                queued: b.queue.len(),
            });
        }
        for (i, o) in self.onces.iter().enumerate() {
            sync.push(SyncAudit {
                obj: SyncObjId::once(i as u32),
                // A still-running initializer at exit is a held "lock".
                held_by: o.running.into_iter().map(|t| self.threads.id[t as usize]).collect(),
                queued: o.queue.len(),
            });
        }
        sync
    }

    /// Barrier arrival ledgers for the generation-count law.
    fn audit_input_barriers(&self) -> Vec<BarrierAudit> {
        self.barriers
            .iter()
            .enumerate()
            .map(|(i, b)| BarrierAudit {
                obj: SyncObjId::barrier(i as u32),
                parties: b.parties,
                generation: b.generation,
                arrivals: b.arrivals,
                queued: b.queue.len(),
            })
            .collect()
    }

    fn run_audit(&self) -> vppb_model::AuditReport {
        let cpu_busy: Vec<Duration> = self.cpus.iter().map(|c| c.busy).collect();
        let thread_audits: Vec<ThreadAudit> = (0..self.threads.len())
            .map(|tix| ThreadAudit {
                id: self.threads.id[tix],
                cpu_time: self.threads.cpu_time[tix],
                started: self.threads.started[tix],
                ended: self.threads.ended[tix],
                exited: matches!(self.threads.state[tix], TState::Zombie | TState::Done),
            })
            .collect();
        let sync = self.audit_input_sync();
        let barriers = self.audit_input_barriers();
        let runnable_left = self.model.len() + self.kernel_rq.len();
        audit::run_audit(&AuditInput {
            wall: self.now,
            cpu_busy: &cpu_busy,
            threads: &thread_audits,
            sync: &sync,
            barriers: &barriers,
            runnable_left,
            joiners_left: self.joiners.len(),
            occupancy: &self.occupancy,
        })
    }

    fn into_result(mut self) -> RunResult {
        // Flatten the (possibly segmented) trace into the contiguous form
        // the result carries.
        let transitions = std::mem::take(&mut self.transitions).into_vec();
        let mut events = std::mem::take(&mut self.events).into_vec();
        let audit = self.run_audit();
        let wall_time = self.now;
        let mut threads = BTreeMap::new();
        for tix in 0..self.threads.len() {
            threads.insert(
                self.threads.id[tix],
                ThreadInfo {
                    start_fn: self.app.func_name(self.threads.func[tix]).to_string(),
                    started: self.threads.started[tix].unwrap_or(Time::ZERO),
                    ended: self.threads.ended[tix].unwrap_or(Time::MAX),
                    cpu_time: self.threads.cpu_time[tix],
                },
            );
        }
        sort_events(&mut events);
        let total_cpu_time = self.threads.cpu_time.iter().copied().sum();
        let n_threads = self.threads.len() as u32;
        RunResult {
            wall_time,
            trace: ExecutionTrace {
                program: self.app.name.clone(),
                cpus: self.cfg.cpus,
                wall_time,
                transitions,
                events,
                threads,
                source_map: self.app.source_map.clone(),
            },
            cpu_busy: self.cpus.iter().map(|c| c.busy).collect(),
            des_events: self.des_events,
            total_cpu_time,
            n_threads,
            audit,
        }
    }
}

// ---------------------------------------------------------------------------
// snapshots
// ---------------------------------------------------------------------------

/// A paused engine: every piece of mutable scheduler state — run queues,
/// the parked-LWP heap, sync-object wait sets, per-thread clocks and
/// in-flight calls, the pending DES event heap, the online CPU-occupancy
/// checker, and the accumulated trace — detached from the
/// app/config/options it ran under. Opaque by design: the only way to act
/// on one is to resume it with [`run_stream`].
pub struct EngineSnapshot {
    now: Time,
    seq: u64,
    cal: Calendar<Ev>,
    threads: Threads,
    by_id: IdMap,
    lwps: Lwps,
    cpus: Vec<CpuRt>,
    mutexes: Vec<MutexState>,
    sems: Vec<SemState>,
    conds: Vec<CondState>,
    rws: Vec<RwState>,
    barriers: Vec<BarrierState>,
    onces: Vec<OnceState>,
    vars: Vec<i64>,
    model: Box<dyn SchedModel>,
    kernel_rq: PrioQueue<Lix>,
    parked: BinaryHeap<Reverse<Lix>>,
    cpu_bound_lwps: u32,
    joiners: VecDeque<(Tix, Option<ThreadId>)>,
    zombies: PrioQueue<Tix>,
    next_id: u32,
    live: u32,
    des_events: u64,
    occupancy: OccupancyCheck,
    transitions: SegVec<Transition>,
    events: SegVec<PlacedEvent>,
}

impl EngineSnapshot {
    /// Number of DES events processed up to the pause point.
    pub fn des_events(&self) -> u64 {
        self.des_events
    }

    /// Virtual time at the pause point.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Thread ids known to the paused engine, in creation order.
    pub fn thread_ids(&self) -> Vec<ThreadId> {
        self.threads.id.clone()
    }

    /// Duplicate the snapshot, forking every coroutine. `None` if any
    /// thread's program does not support [`Program::fork`].
    pub fn try_clone(&self) -> Option<EngineSnapshot> {
        let threads = self.threads.try_clone()?;
        Some(EngineSnapshot {
            now: self.now,
            seq: self.seq,
            cal: self.cal.clone(),
            threads,
            by_id: self.by_id.clone(),
            lwps: self.lwps.clone(),
            cpus: self.cpus.clone(),
            mutexes: self.mutexes.clone(),
            sems: self.sems.clone(),
            conds: self.conds.clone(),
            rws: self.rws.clone(),
            barriers: self.barriers.clone(),
            onces: self.onces.clone(),
            vars: self.vars.clone(),
            model: self.model.clone_box(),
            kernel_rq: self.kernel_rq.clone(),
            parked: self.parked.clone(),
            cpu_bound_lwps: self.cpu_bound_lwps,
            joiners: self.joiners.clone(),
            zombies: self.zombies.clone(),
            next_id: self.next_id,
            live: self.live,
            des_events: self.des_events,
            occupancy: self.occupancy.clone(),
            transitions: self.transitions.clone(),
            events: self.events.clone(),
        })
    }

    /// Move every thread onto a new tape at its current position. The
    /// incremental analyzer uses this to re-bind snapshotted threads onto
    /// an *extended* replay plan: each thread takes the tape at its
    /// function's index in `tapes` (replay apps keep one function per
    /// thread) and resumes it at the op its old cursor stood on. Every
    /// thread is checked before any is replaced, so an error — a
    /// coroutine-bodied thread, or a function with no tape — leaves the
    /// snapshot as it was.
    pub fn rebind_tapes(&mut self, tapes: &[TapeCursor]) -> Result<(), VppbError> {
        let mut rebound = Vec::with_capacity(self.threads.len());
        for (tix, slot) in self.threads.program.iter().enumerate() {
            let id = self.threads.id[tix];
            let ProgSlot::Tape(old) = slot else {
                return Err(VppbError::InvalidConfig(format!("{id} does not run a tape")));
            };
            let func = self.threads.func[tix].0;
            let tape = tapes.get(func).ok_or_else(|| {
                VppbError::InvalidConfig(format!("{id} runs function {func}, which has no tape"))
            })?;
            rebound.push(ProgSlot::Tape(tape.clone().at(old.pos())));
        }
        self.threads.program = rebound;
        Ok(())
    }

    /// Remap function-table indices after the resume app's table changed
    /// shape (replay plans keep one function per thread; a log chunk can
    /// reveal a thread whose id sorts *between* existing ones, shifting
    /// every later index). Applied to thread bodies and to the in-flight
    /// `thr_create` a thread may be paused inside.
    pub fn remap_funcs(&mut self, mut f: impl FnMut(FuncId) -> FuncId) {
        for func in &mut self.threads.func {
            *func = f(*func);
        }
        for inflight in self.threads.call.iter_mut().flatten() {
            if let LibCall::Create { func, bound } = inflight.call {
                inflight.call = LibCall::Create { func: f(func), bound };
            }
        }
    }

    /// Overwrite semaphore seeds with a re-derived initial vector (the
    /// incremental analyzer's `sem_initial` can deepen as more of the log
    /// arrives). Only legal while no thread waits on any semaphore — the
    /// streaming replay guarantees that by capping every tape before its
    /// first semaphore op.
    pub fn reseed_sems(&mut self, initial: &[u32]) -> Result<(), VppbError> {
        if self.sems.iter().any(|s| !s.queue.is_empty()) {
            return Err(VppbError::InvalidConfig(
                "cannot reseed semaphores while threads wait on them".into(),
            ));
        }
        for (i, &v) in initial.iter().enumerate() {
            if i < self.sems.len() {
                self.sems[i] = SemState::new(v);
            } else {
                self.sems.push(SemState::new(v));
            }
        }
        Ok(())
    }
}
