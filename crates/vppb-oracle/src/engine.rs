//! The executable specification of the two-level scheduler.
//!
//! This is a deliberately naive re-implementation of
//! `vppb_machine::engine` — the same Solaris 2.5 scheduling rules
//! (DESIGN.md §3), written as a direct transcription with the dumbest
//! possible data structures: flat `Vec`s with linear scans where the
//! engine uses bitmap priority queues, binary heaps and intrusive links.
//! Its value is *obvious correctness*: every scheduling rule here reads
//! exactly like its prose specification, so when the optimized engine and
//! this oracle replay the same [`vppb_sim::ReplayPlan`] and disagree on a
//! single dispatch decision, the engine's clever structures are the prime
//! suspect.
//!
//! The oracle consumes the same [`RunOptions`] (hooks, interceptor, id
//! assigner, manipulations, faults, observer) and emits the same
//! [`RunResult`], so the differential driver in [`crate::diff`] can
//! compare full scheduling-decision streams bit for bit.
//!
//! What is *shared* with the engine, and why that is sound:
//!
//! * the program representation and resume protocol ([`vppb_threads`]);
//! * the machine description ([`vppb_model::MachineConfig`], dispatch
//!   table, cost model) — both implementations must read the same spec;
//! * the end-of-run conservation auditor ([`vppb_machine::audit`]) — it
//!   verifies bookkeeping (time conservation, lifecycle sanity), not
//!   scheduling decisions, so sharing it does not weaken the comparison.
//!
//! What is deliberately *not* shared: run queues, the pending-event
//! structure, the parked-LWP and zombie sets, and all synchronization
//! object state ([`crate::queues`], [`crate::nsync`]).

use crate::nsync::{NBarrier, NCond, NMutex, NOnce, NRw, NRwWaiter, NSem};
use crate::queues::{NaiveEvents, NaiveModel, NaiveRq};
use std::collections::BTreeMap;
use vppb_machine::audit::{
    run_audit, AuditInput, BarrierAudit, OccupancyCheck, SyncAudit, ThreadAudit,
};
use vppb_machine::{event_kind_of, Intercept, RunOptions, RunResult, SchedEvent};
use vppb_model::{
    Binding, BlockReason, CodeAddr, CpuId, Duration, EventResult, ExecutionTrace, LwpId, LwpPolicy,
    MachineConfig, PlacedEvent, SyncObjId, ThreadId, ThreadInfo, ThreadState, Time, Transition,
    VppbError, TS_DEFAULT_PRI,
};
use vppb_threads::{Action, App, FuncId, LibCall, Outcome, Program, ResumeCtx, VarOp};

/// Maximum consecutive zero-time actions before a thread is declared
/// livelocked (same limit as the engine).
const SPIN_LIMIT: u64 = 1_000_000;

/// Test-only scheduling mutations. The fuzzer's self-test flips one of
/// these to prove a wrong-but-self-consistent scheduler is caught by the
/// differential comparison (and shrunk to a small repro). All off in
/// normal oracle runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleTweaks {
    /// Dispatch LWPs LIFO within a priority level instead of FIFO — an
    /// inverted tie-break invisible to the conservation auditor.
    pub invert_dispatch_tiebreak: bool,
    /// Under the async model, visit steal victims in descending wrapping
    /// slot order instead of ascending — a planted work-stealing bug the
    /// two-model differential grid must catch. No effect under Solaris.
    pub reverse_steal_order: bool,
}

/// Execute `app` on the oracle scheduler. Same contract as
/// [`vppb_machine::run`].
pub fn run(app: &App, cfg: &MachineConfig, opts: RunOptions<'_>) -> Result<RunResult, VppbError> {
    run_with(app, cfg, opts, OracleTweaks::default())
}

/// [`run`] with deliberate scheduling mutations, for oracle self-tests.
pub fn run_with(
    app: &App,
    cfg: &MachineConfig,
    opts: RunOptions<'_>,
    tweaks: OracleTweaks,
) -> Result<RunResult, VppbError> {
    cfg.check()?;
    app.validate()?;
    Oracle::new(app, cfg, opts, tweaks).run()
}

type Tix = usize;
type Lix = usize;
type Cix = usize;

/// Pending discrete events — identical meaning to the engine's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// The CPU's current run (segment or quantum) ends.
    CpuStop { cpu: Cix, token: u64 },
    /// A wakeup becomes visible to the thread.
    Wake { thread: Tix, gen: u64 },
    /// A `cond_timedwait` timeout or `Sleep` expiry.
    Timer { thread: Tix, gen: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Ask the program for its next action.
    Resume,
    /// Computing on a CPU.
    Compute { left: Duration },
    /// Inside a library call's latency; semantics execute at completion.
    CallLatency { left: Duration },
    /// Call semantics complete; emit the AFTER probe when next on a CPU.
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

struct Inflight {
    call: LibCall,
    site: CodeAddr,
    before: Time,
    cpu: Cix,
}

struct ThreadRt {
    id: ThreadId,
    func: FuncId,
    program: Box<dyn Program>,
    state: TState,
    phase: Phase,
    binding: Binding,
    user_prio: i32,
    prio_locked: bool,
    lwp: Option<Lix>,
    last_cpu: Option<Cix>,
    /// The pool LWP this thread last ran on. Wakeups hand it back to the
    /// scheduling model as the `local` hint so per-worker-queue models
    /// give woken tasks affinity to their old worker; the Solaris model
    /// ignores it (one global queue).
    last_pool_lwp: Option<Lix>,
    outcome: Outcome,
    call: Option<Inflight>,
    /// (condvar index, mutex index) while waiting on a condition.
    cv_wait: Option<(u32, u32)>,
    started: Option<Time>,
    ended: Option<Time>,
    cpu_time: Duration,
    pre_charge: Duration,
    create_seq: u64,
    gen: u64,
    yield_pending: bool,
    suspend_self_pending: bool,
    suspended: bool,
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

struct LwpRt {
    id: LwpId,
    state: LState,
    prio: i32,
    quantum_left: Duration,
    fresh_quantum: bool,
    thread: Option<Tix>,
    /// Dedicated to one (bound) thread.
    dedicated: bool,
    cpu_binding: Option<Cix>,
    last_thread: Option<Tix>,
}

struct CpuRt {
    lwp: Option<Lix>,
    run_start: Time,
    token: u64,
    busy: Duration,
    last_lwp: Option<Lix>,
}

struct Oracle<'a, 'o> {
    app: &'a App,
    cfg: &'a MachineConfig,
    opts: RunOptions<'o>,
    tweaks: OracleTweaks,
    now: Time,
    pending: NaiveEvents<Ev>,
    threads: Vec<ThreadRt>,
    by_id: BTreeMap<ThreadId, Tix>,
    lwps: Vec<LwpRt>,
    cpus: Vec<CpuRt>,
    mutexes: Vec<NMutex>,
    sems: Vec<NSem>,
    conds: Vec<NCond>,
    rws: Vec<NRw>,
    barriers: Vec<NBarrier>,
    onces: Vec<NOnce>,
    vars: Vec<i64>,
    /// Runnable unbound threads without an LWP, ordered by the
    /// user-level scheduling model (`cfg.model`).
    model: NaiveModel,
    /// Ready LWPs awaiting a CPU, highest priority first.
    kernel_rq: NaiveRq,
    /// Parked pool LWPs; the lowest index is attached first.
    parked: Vec<Lix>,
    /// Threads blocked in `thr_join`, in blocking order.
    joiners: Vec<(Tix, Option<ThreadId>)>,
    /// Exited-but-unjoined threads, in exit order.
    zombies: Vec<Tix>,
    next_id: u32,
    live: u32,
    des_events: u64,
    /// The engine's online CPU-occupancy checker, fed the same way.
    occupancy: OccupancyCheck,
    transitions: Vec<Transition>,
    events: Vec<PlacedEvent>,
}

/// What happened to the calling thread after call semantics ran.
enum CallOutcome {
    /// Call complete; thread keeps the CPU (phase = CallFinish).
    Done,
    /// Thread blocked inside the call.
    Blocked(BlockReason),
    /// Thread entered a blocking I/O system call: the *LWP* sleeps in the
    /// kernel with the thread still attached, for this long.
    BlockedIo(Duration),
    /// The call runs for this much longer *on the CPU* and then re-enters
    /// its semantics (a `once` winner executing the initializer inside the
    /// call span).
    Extend(Duration),
    /// Thread exited.
    Exited,
}

impl<'a, 'o> Oracle<'a, 'o> {
    fn new(
        app: &'a App,
        cfg: &'a MachineConfig,
        opts: RunOptions<'o>,
        tweaks: OracleTweaks,
    ) -> Oracle<'a, 'o> {
        Oracle {
            app,
            cfg,
            opts,
            tweaks,
            now: Time::ZERO,
            pending: NaiveEvents::default(),
            threads: Vec::new(),
            by_id: BTreeMap::new(),
            lwps: Vec::new(),
            cpus: (0..cfg.cpus)
                .map(|_| CpuRt {
                    lwp: None,
                    run_start: Time::ZERO,
                    token: 0,
                    busy: Duration::ZERO,
                    last_lwp: None,
                })
                .collect(),
            mutexes: vec![NMutex::default(); app.n_mutexes as usize],
            sems: app.sem_initial.iter().map(|&v| NSem::new(v)).collect(),
            conds: vec![NCond::default(); app.n_condvars as usize],
            rws: vec![NRw::default(); app.n_rwlocks as usize],
            barriers: app.barrier_parties.iter().map(|&p| NBarrier::new(p)).collect(),
            onces: vec![NOnce::default(); app.once_init.len()],
            vars: app.var_initial.clone(),
            model: NaiveModel::new(cfg.model, tweaks.reverse_steal_order),
            kernel_rq: NaiveRq::new(),
            parked: Vec::new(),
            joiners: Vec::new(),
            zombies: Vec::new(),
            next_id: ThreadId::FIRST_USER.0,
            live: 0,
            des_events: 0,
            occupancy: OccupancyCheck::default(),
            transitions: Vec::new(),
            events: Vec::new(),
        }
    }

    // -- small helpers ------------------------------------------------------

    fn push_ev(&mut self, at: Time, ev: Ev) {
        self.pending.push(at, ev);
    }

    /// Report a scheduling decision to the attached observer, if any.
    fn observe(&mut self, ev: SchedEvent) {
        if let Some(o) = self.opts.observer.as_deref_mut() {
            o.on_sched(self.now, &ev);
        }
    }

    /// Whether an observer is attached (guard for emissions whose payload
    /// is not free to compute — queue depths).
    fn observing(&self) -> bool {
        self.opts.observer.is_some()
    }

    fn viz_state(&self, tix: Tix) -> ThreadState {
        let t = &self.threads[tix];
        match t.state {
            TState::Embryo => ThreadState::Blocked(BlockReason::NotStarted),
            TState::Runnable => ThreadState::Runnable,
            TState::Running(c) => ThreadState::Running {
                cpu: CpuId(c as u32),
                lwp: LwpId(self.lwps[t.lwp.expect("running thread has lwp")].id.0),
            },
            TState::Blocked(r) => ThreadState::Blocked(r),
            TState::Zombie | TState::Done => ThreadState::Exited,
        }
    }

    fn set_state(&mut self, tix: Tix, state: TState) {
        self.threads[tix].state = state;
        let cpu = match state {
            TState::Running(c) => Some(CpuId(c as u32)),
            _ => None,
        };
        self.occupancy.transition(self.now, self.threads[tix].id, cpu);
        if self.opts.record_trace {
            let s = self.viz_state(tix);
            self.transitions.push(Transition {
                time: self.now,
                thread: self.threads[tix].id,
                state: s,
            });
        }
    }

    fn is_bound(&self, tix: Tix) -> bool {
        self.threads[tix].binding.is_bound()
    }

    /// The cost model: creating a bound thread costs `create_factor` more
    /// than unbound; any synchronization call by a bound thread costs
    /// `sync_factor` more (the paper applies the semaphore factor to all
    /// synchronization primitives alike).
    fn call_cost(&self, call: &LibCall, bound: bool) -> Duration {
        let b = &self.cfg.base_costs;
        let f = &self.cfg.bound_costs;
        match call {
            LibCall::Create { bound: child_bound, .. } => {
                if *child_bound {
                    b.create.scale(f.create_factor)
                } else {
                    b.create
                }
            }
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
        let prio = self.threads[tix].user_prio;
        self.model.push(tix, prio, front, local);
        if self.observing() {
            let depth = self.model.len() as u32;
            let thread = self.threads[tix].id;
            self.observe(SchedEvent::UserEnqueue { thread, prio, depth });
        }
    }

    fn user_rq_pop(&mut self, lix: Lix) -> Option<Tix> {
        self.model.pop_for(lix)
    }

    fn user_rq_remove(&mut self, tix: Tix) -> bool {
        self.model.remove(tix)
    }

    // -- kernel run queue ---------------------------------------------------

    fn kernel_enqueue(&mut self, lix: Lix) {
        self.lwps[lix].state = LState::Ready;
        let prio = self.lwps[lix].prio;
        self.kernel_rq.push_back(lix, prio);
        if self.observing() {
            let depth = self.kernel_rq.len() as u32;
            let lwp = self.lwps[lix].id;
            self.observe(SchedEvent::KernelEnqueue { lwp, prio, depth });
        }
    }

    fn kernel_remove(&mut self, lix: Lix) -> bool {
        self.kernel_rq.remove(lix)
    }

    fn eligible(lwps: &[LwpRt], lix: Lix, cix: Cix) -> bool {
        match lwps[lix].cpu_binding {
            None => true,
            Some(c) => c == cix,
        }
    }

    /// Pick the best ready LWP that may run on `cix`: the front of the
    /// highest non-empty priority level among the eligible ones (or, with
    /// the self-test tie-break inversion armed, the *back* — wrong on
    /// purpose).
    fn pick_for_cpu(&mut self, cix: Cix) -> Option<Lix> {
        if self.tweaks.invert_dispatch_tiebreak {
            // Mutation path: LIFO within the level. Only correct-looking
            // enough to fool the auditor; the differential stream diff
            // catches it on the first two-way tie.
            let lwps = &self.lwps;
            if lwps.iter().all(|l| l.cpu_binding.is_none()) {
                return self.kernel_rq.pop_max_inverted();
            }
        }
        let lwps = &self.lwps;
        let lix = self.kernel_rq.find_max(|l| Self::eligible(lwps, l, cix))?;
        let removed = self.kernel_rq.remove(lix);
        debug_assert!(removed, "found LWP must be queued");
        Some(lix)
    }

    // -- dispatch ------------------------------------------------------------

    /// Attach runnable unbound threads to parked pool LWPs, lowest LWP
    /// index first.
    fn attach_parked(&mut self) {
        loop {
            // Linear scan for the lowest parked LWP index.
            let Some(pos) =
                self.parked.iter().enumerate().min_by_key(|(_, &lix)| lix).map(|(pos, _)| pos)
            else {
                return;
            };
            debug_assert!(
                self.lwps[self.parked[pos]].state == LState::Parked
                    && !self.lwps[self.parked[pos]].dedicated,
                "parked set holds only parked pool LWPs"
            );
            let Some(tix) = self.user_rq_pop(self.parked[pos]) else { return };
            let lix = self.parked.remove(pos);
            self.attach(lix, tix, true);
            self.kernel_enqueue(lix);
        }
    }

    /// Attach `tix` to LWP `lix`. `slept` boosts the LWP's priority as a
    /// sleep return. Freshly created threads do *not* get the boost — they
    /// enter at whatever priority the LWP already has.
    fn attach(&mut self, lix: Lix, tix: Tix, slept: bool) {
        let boost = slept && self.threads[tix].started.is_some();
        let l = &mut self.lwps[lix];
        l.thread = Some(tix);
        if boost {
            l.prio = self.cfg.dispatch.on_sleep_return(l.prio);
        }
        if slept {
            l.fresh_quantum = true;
        }
        let dedicated = self.lwps[lix].dedicated;
        self.threads[tix].lwp = Some(lix);
        if !dedicated {
            self.threads[tix].last_pool_lwp = Some(lix);
        }
    }

    /// The scheduling fixed point: attach parked LWPs, fill idle CPUs in
    /// index order, then perform at most one preemption per iteration
    /// (the best queued LWP versus the worst running one, strict), until
    /// nothing changes.
    fn dispatch(&mut self) -> Result<(), VppbError> {
        loop {
            self.attach_parked();
            let mut changed = false;
            // Fill idle CPUs.
            for c in 0..self.cpus.len() {
                if self.cpus[c].lwp.is_none() {
                    if let Some(l) = self.pick_for_cpu(c) {
                        self.grant(c, l)?;
                        changed = true;
                    }
                }
            }
            // One preemption: the best queued LWP vs the worst running one.
            if let Some((qprio, lix)) = self.kernel_rq.peek_max() {
                // Worst eligible running LWP: lowest priority, and the
                // lowest CPU index among equals (strict `<` keeps the
                // first-found CPU on ties).
                let mut worst: Option<(i32, Cix)> = None;
                for c in 0..self.cpus.len() {
                    if !Self::eligible(&self.lwps, lix, c) {
                        continue;
                    }
                    if let Some(rl) = self.cpus[c].lwp {
                        let p = self.lwps[rl].prio;
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
        let tix = self.lwps[l].thread.expect("ready LWP carries a thread");
        self.lwps[l].state = LState::Running(c);
        if self.lwps[l].fresh_quantum {
            self.lwps[l].quantum_left = self.cfg.dispatch.quantum(self.lwps[l].prio);
            self.lwps[l].fresh_quantum = false;
        }
        // Context-switch costs are charged to the incoming thread.
        let mut charge = Duration::ZERO;
        let uthread_switch =
            self.lwps[l].last_thread.is_some() && self.lwps[l].last_thread != Some(tix);
        if uthread_switch {
            charge += self.cfg.base_costs.uthread_switch;
        }
        let lwp_switch = self.cpus[c].last_lwp.is_some() && self.cpus[c].last_lwp != Some(l);
        if lwp_switch {
            charge += self.cfg.base_costs.lwp_switch;
        }
        // Cache-affinity: a thread migrating between CPUs refills caches.
        let migrated = self.threads[tix].last_cpu.is_some_and(|prev| prev != c);
        if migrated {
            charge += self.cfg.migration_penalty;
        }
        self.threads[tix].pre_charge += charge;
        self.observe(SchedEvent::Dispatch {
            cpu: CpuId(c as u32),
            lwp: self.lwps[l].id,
            thread: self.threads[tix].id,
            uthread_switch,
            lwp_switch,
            migrated,
        });
        self.lwps[l].last_thread = Some(tix);
        self.cpus[c].lwp = Some(l);
        self.cpus[c].last_lwp = Some(l);
        self.cpus[c].run_start = self.now;
        self.threads[tix].last_cpu = Some(c);
        if self.threads[tix].started.is_none() {
            self.threads[tix].started = Some(self.now);
            let entry = self.app.func_entry(self.threads[tix].func);
            let id = self.threads[tix].id;
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
            // Deliberate corruption (FaultInjection), mirrored so fault
            // runs stay comparable.
            self.cpus[c].busy += elapsed;
        }
        let l = self.cpus[c].lwp.expect("charging a busy cpu");
        self.lwps[l].quantum_left = self.lwps[l].quantum_left.saturating_sub(elapsed);
        let tix = self.lwps[l].thread.expect("running lwp has thread");
        self.threads[tix].cpu_time += elapsed;
        match &mut self.threads[tix].phase {
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
        let tix = self.lwps[l].thread.expect("running lwp has thread");
        self.observe(SchedEvent::Preempt {
            cpu: CpuId(c as u32),
            lwp: self.lwps[l].id,
            thread: self.threads[tix].id,
        });
        self.set_state(tix, TState::Runnable);
        self.kernel_enqueue(l);
    }

    /// The LWP on CPU `c` lost its thread (block/exit/yield): pick another
    /// runnable unbound thread or park/sleep.
    fn lwp_continue_or_park(&mut self, c: Cix) -> Result<(), VppbError> {
        let l = self.cpus[c].lwp.expect("cpu busy");
        if self.lwps[l].dedicated {
            // Bound LWP sleeps with its thread (or died with it).
            let dead = self.lwps[l].thread.is_none();
            self.lwps[l].state = if dead { LState::Dead } else { LState::Sleeping };
            self.cpus[c].lwp = None;
            self.cpus[c].last_lwp = Some(l);
            self.cpus[c].token += 1;
            return self.dispatch();
        }
        match self.user_rq_pop(l) {
            Some(next) => {
                self.attach(l, next, false);
                self.cpus[c].run_start = self.now;
                // Same CPU continues with the new thread: a user-level
                // switch (and possibly a migration), never an LWP switch.
                let mut charge = Duration::ZERO;
                let uthread_switch =
                    self.lwps[l].last_thread.is_some() && self.lwps[l].last_thread != Some(next);
                if uthread_switch {
                    charge = self.cfg.base_costs.uthread_switch;
                }
                let migrated = self.threads[next].last_cpu.is_some_and(|prev| prev != c);
                if migrated {
                    charge += self.cfg.migration_penalty;
                }
                self.threads[next].pre_charge += charge;
                self.observe(SchedEvent::Dispatch {
                    cpu: CpuId(c as u32),
                    lwp: self.lwps[l].id,
                    thread: self.threads[next].id,
                    uthread_switch,
                    lwp_switch: false,
                    migrated,
                });
                self.lwps[l].last_thread = Some(next);
                self.threads[next].last_cpu = Some(c);
                if self.threads[next].started.is_none() {
                    self.threads[next].started = Some(self.now);
                    let entry = self.app.func_entry(self.threads[next].func);
                    let id = self.threads[next].id;
                    self.opts.hooks.on_thread_start(self.now, id, entry);
                }
                self.set_state(next, TState::Running(c));
                self.run_thread(c)
            }
            None => {
                self.lwps[l].state = LState::Parked;
                self.lwps[l].thread = None;
                self.parked.push(l);
                self.cpus[c].lwp = None;
                self.cpus[c].last_lwp = Some(l);
                self.cpus[c].token += 1;
                self.dispatch()
            }
        }
    }

    // -- running a thread ----------------------------------------------------

    /// Drive the thread currently on CPU `c` until it schedules a stop,
    /// blocks, or exits.
    fn run_thread(&mut self, c: Cix) -> Result<(), VppbError> {
        loop {
            let Some(l) = self.cpus[c].lwp else { return Ok(()) };
            let Some(tix) = self.lwps[l].thread else { return Ok(()) };
            match self.threads[tix].phase {
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
                    let total = left + std::mem::take(&mut self.threads[tix].pre_charge);
                    match &mut self.threads[tix].phase {
                        Phase::Compute { left } | Phase::CallLatency { left } => *left = total,
                        _ => unreachable!(),
                    }
                    // Run until done, or until the quantum expires if the
                    // machine time-slices. Cooperative models (the async
                    // pool) never preempt a pool worker mid-task; only
                    // dedicated (bound-thread) LWPs keep the quantum.
                    let coop = self.model.cooperative() && !self.lwps[l].dedicated;
                    let stop = if self.cfg.time_slicing && !coop {
                        Duration::from_nanos(total.nanos().min(self.lwps[l].quantum_left.nanos()))
                    } else {
                        total
                    };
                    self.cpus[c].token += 1;
                    let token = self.cpus[c].token;
                    self.push_ev(self.now + stop, Ev::CpuStop { cpu: c, token });
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
            let outcome = std::mem::take(&mut self.threads[tix].outcome);
            let id = self.threads[tix].id;
            let ctx = ResumeCtx { outcome, self_id: id, now: self.now };
            let action = self.threads[tix].program.resume(ctx);
            match action {
                Action::Stall => {
                    // The oracle never replays streaming (stalling)
                    // programs; a stall here is a harness bug.
                    return Err(VppbError::ProgramError(format!(
                        "{id} returned Stall under the oracle scheduler"
                    )));
                }
                Action::Work(d) => {
                    let d = self.opts.jitter.apply(id, d);
                    self.threads[tix].phase = Phase::Compute { left: d };
                    return Ok(true);
                }
                Action::Sleep(d) => {
                    self.threads[tix].phase = Phase::Resume;
                    self.threads[tix].gen += 1;
                    let gen = self.threads[tix].gen;
                    self.push_ev(self.now + d, Ev::Timer { thread: tix, gen });
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
                    self.threads[tix].outcome = self.apply_var(op);
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
                            self.threads[tix].outcome = Outcome::None;
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
                            let cost = self.opts.hooks.probe_cost() + self.call_cost(&call, bound);
                            self.threads[tix].call =
                                Some(Inflight { call, site, before: self.now, cpu: c });
                            self.threads[tix].phase = Phase::CallLatency { left: cost };
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
        let inflight = self.threads[tix].call.take().expect("CallFinish without call");
        let id = self.threads[tix].id;
        let kind = event_kind_of(&inflight.call, self.app);
        let result = match self.threads[tix].outcome {
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
        self.threads[tix].pre_charge += self.opts.hooks.probe_cost();
        self.threads[tix].phase = Phase::Resume;
        if std::mem::take(&mut self.threads[tix].yield_pending) {
            // thr_yield: go to the back of the user run queue (unbound) or
            // of the kernel queue (bound).
            if self.is_bound(tix) {
                let l = self.threads[tix].lwp.expect("bound thread keeps lwp");
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
                // per-worker queues put it at the back of that queue).
                self.user_rq_push(tix, false, l);
                self.lwp_continue_or_park(c)?;
            }
            return Ok(false);
        }
        if std::mem::take(&mut self.threads[tix].suspend_self_pending) {
            self.charge_elapsed(c);
            self.threads[tix].suspended = true;
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
        if let Some(l) = self.threads[tix].lwp {
            if !self.lwps[l].dedicated {
                self.lwps[l].thread = None;
                self.threads[tix].lwp = None;
            }
        }
    }

    // -- wakeups --------------------------------------------------------------

    /// Make a blocked thread runnable after the communication delay (if
    /// the wake crosses CPUs).
    fn wake_thread(&mut self, tix: Tix, waker_cpu: Option<Cix>) {
        let delay = match (waker_cpu, self.threads[tix].last_cpu) {
            (Some(a), Some(b)) if a != b => self.cfg.comm_delay,
            _ => Duration::ZERO,
        };
        self.threads[tix].gen += 1;
        let gen = self.threads[tix].gen;
        self.push_ev(self.now + delay, Ev::Wake { thread: tix, gen });
    }

    fn deliver_wake(&mut self, tix: Tix, gen: u64) -> Result<(), VppbError> {
        if self.threads[tix].gen != gen {
            return Ok(()); // stale
        }
        if !matches!(self.threads[tix].state, TState::Blocked(_) | TState::Embryo) {
            return Ok(()); // already running/runnable
        }
        if self.threads[tix].suspended {
            self.set_state(tix, TState::Blocked(BlockReason::Suspended));
            return Ok(());
        }
        self.observe(SchedEvent::Wakeup { thread: self.threads[tix].id });
        self.make_runnable(tix)?;
        self.dispatch()
    }

    fn make_runnable(&mut self, tix: Tix) -> Result<(), VppbError> {
        self.set_state(tix, TState::Runnable);
        if let Some(l) = self.threads[tix].lwp {
            // The thread kept its LWP while blocked (bound thread, or any
            // thread sleeping in a kernel syscall): the LWP wakes with it
            // (no boost on first start).
            if self.threads[tix].started.is_some() {
                self.lwps[l].prio = self.cfg.dispatch.on_sleep_return(self.lwps[l].prio);
            }
            self.lwps[l].fresh_quantum = true;
            self.kernel_enqueue(l);
        } else {
            // Wake affinity: hand the thread back to the worker it last
            // ran on (ignored by the global-queue Solaris model).
            let local = self.threads[tix].last_pool_lwp;
            self.user_rq_push(tix, false, local);
        }
        Ok(())
    }

    // -- thread lifecycle -----------------------------------------------------

    fn spawn_thread(
        &mut self,
        func: FuncId,
        bound_flag: bool,
        creator: Option<Tix>,
    ) -> Result<Tix, VppbError> {
        let id = match (&mut self.opts.id_assigner, creator) {
            (Some(assign), Some(cix)) => {
                let seq = self.threads[cix].create_seq;
                self.threads[cix].create_seq += 1;
                let creator_id = self.threads[cix].id;
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
        if self.by_id.contains_key(&id) {
            return Err(VppbError::ProgramError(format!("duplicate thread id {id}")));
        }
        let manip = self.opts.manips.lookup(id);
        let binding =
            manip.binding.unwrap_or(if bound_flag { Binding::BoundLwp } else { Binding::Unbound });
        let tix = self.threads.len();
        self.threads.push(ThreadRt {
            id,
            func,
            program: self.app.instantiate(func),
            state: TState::Embryo,
            phase: Phase::Resume,
            binding,
            user_prio: manip.priority.unwrap_or(0),
            prio_locked: manip.priority.is_some(),
            lwp: None,
            last_cpu: None,
            last_pool_lwp: None,
            outcome: Outcome::None,
            call: None,
            cv_wait: None,
            started: None,
            ended: None,
            cpu_time: Duration::ZERO,
            pre_charge: Duration::ZERO,
            create_seq: 0,
            gen: 0,
            yield_pending: false,
            suspend_self_pending: false,
            suspended: false,
        });
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
                    Binding::BoundCpu(cpu) => {
                        let cpu = cpu.0 as usize;
                        if cpu >= self.cpus.len() {
                            return Err(VppbError::InvalidConfig(format!(
                                "thread {id} bound to non-existent CPU{cpu}"
                            )));
                        }
                        Some(cpu)
                    }
                    _ => None,
                };
                let lix = self.lwps.len();
                self.lwps.push(LwpRt {
                    id: LwpId(lix as u32),
                    state: LState::Sleeping,
                    prio: TS_DEFAULT_PRI,
                    quantum_left: Duration::ZERO,
                    fresh_quantum: true,
                    thread: Some(tix),
                    dedicated: true,
                    cpu_binding,
                    last_thread: None,
                });
                self.threads[tix].lwp = Some(lix);
            }
        }
        self.make_runnable(tix)?;
        Ok(tix)
    }

    fn new_pool_lwp(&mut self) -> Lix {
        let lix = self.lwps.len();
        self.lwps.push(LwpRt {
            id: LwpId(lix as u32),
            state: LState::Parked,
            prio: TS_DEFAULT_PRI,
            quantum_left: Duration::ZERO,
            fresh_quantum: true,
            thread: None,
            dedicated: false,
            cpu_binding: None,
            last_thread: None,
        });
        self.model.register_worker(lix);
        self.parked.push(lix);
        lix
    }

    fn pool_lwp_count(&self) -> u32 {
        self.lwps.iter().filter(|l| !l.dedicated).count() as u32
    }

    fn exit_thread(&mut self, tix: Tix, c: Cix) -> Result<(), VppbError> {
        let id = self.threads[tix].id;
        // The placed event for thr_exit spans BEFORE to the exit instant
        // (thr_exit never returns, so there is no AFTER probe).
        if let Some(inflight) = self.threads[tix].call.take() {
            if self.opts.record_trace {
                self.events.push(PlacedEvent {
                    start: inflight.before,
                    end: self.now,
                    thread: id,
                    kind: event_kind_of(&inflight.call, self.app),
                    cpu: CpuId(inflight.cpu as u32),
                    caller: inflight.site,
                });
            }
        }
        self.charge_elapsed(c);
        self.threads[tix].ended = Some(self.now);
        self.set_state(tix, TState::Zombie);
        self.live -= 1;
        // Release the LWP.
        if let Some(l) = self.threads[tix].lwp {
            if self.lwps[l].dedicated {
                self.lwps[l].thread = None;
            } else {
                self.detach_thread(tix);
            }
        }
        self.zombies.push(tix);
        // Wake the first matching joiner: the first *specific* match wins;
        // otherwise the earliest wildcard.
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
        if let Some(i) = chosen {
            let (jix, target) = self.joiners.remove(i);
            debug_assert!(target.is_none() || target == Some(id));
            self.reap(tix);
            self.threads[jix].outcome = Outcome::Joined(self.threads[tix].id);
            self.finish_blocking_wake(jix, c);
        }
        self.lwp_continue_or_park(c)
    }

    fn reap(&mut self, tix: Tix) {
        self.threads[tix].state = TState::Done;
        let pos = self.zombies.iter().position(|&z| z == tix);
        let pos = pos.expect("reaping a thread not on the zombie list");
        self.zombies.remove(pos);
    }

    // -- call semantics --------------------------------------------------------

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
        let call = self.threads[tix].call.as_ref().expect("in call").call;
        let id = self.threads[tix].id;
        let sem = self.call_semantics(tix, c, call)?;
        match sem {
            CallOutcome::Done => {
                self.threads[tix].phase = Phase::CallFinish;
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
                // The LWP sleeps in the kernel with the thread attached.
                self.charge_elapsed(c);
                self.observe(SchedEvent::Block {
                    thread: id,
                    reason: BlockReason::Io,
                    queue_depth: 0,
                });
                self.set_state(tix, TState::Blocked(BlockReason::Io));
                self.threads[tix].gen += 1;
                let gen = self.threads[tix].gen;
                self.push_ev(self.now + latency, Ev::Timer { thread: tix, gen });
                let l = self.cpus[c].lwp.take().expect("io on busy cpu");
                self.lwps[l].state = LState::Sleeping;
                self.cpus[c].last_lwp = Some(l);
                self.cpus[c].token += 1;
                self.dispatch()
            }
            CallOutcome::Extend(d) => {
                // The call keeps running on the CPU for `d` more (a once
                // initializer); its semantics re-enter when that elapses.
                self.threads[tix].phase = Phase::CallLatency { left: d };
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
        let id = self.threads[tix].id;
        use LibCall::*;
        Ok(match call {
            Create { func, bound } => {
                let child = self.spawn_thread(func, bound, Some(tix))?;
                self.threads[tix].outcome = Outcome::Created(self.threads[child].id);
                self.dispatch()?;
                CallOutcome::Done
            }
            Join(target) => {
                let found = match target {
                    Some(t) => match self.by_id.get(&t) {
                        None => {
                            return Err(VppbError::ProgramError(format!(
                                "{id} joins unknown thread {t}"
                            )))
                        }
                        Some(&zix) => match self.threads[zix].state {
                            TState::Zombie => Some(zix),
                            TState::Done => {
                                return Err(VppbError::ProgramError(format!(
                                    "{id} joins already-joined thread {t}"
                                )))
                            }
                            _ => None,
                        },
                    },
                    // A wildcard join reaps the earliest-exited zombie.
                    None => self.zombies.first().copied(),
                };
                match found {
                    Some(zix) => {
                        self.reap(zix);
                        self.threads[tix].outcome = Outcome::Joined(self.threads[zix].id);
                        CallOutcome::Done
                    }
                    None => {
                        self.joiners.push((tix, target));
                        CallOutcome::Blocked(BlockReason::Join(target))
                    }
                }
            }
            Exit => CallOutcome::Exited,
            Yield => {
                self.threads[tix].yield_pending = true;
                CallOutcome::Done
            }
            SetPrio { target, prio } => {
                if let Some(&xix) = self.by_id.get(&target) {
                    if !self.threads[xix].prio_locked {
                        // Only priority-ordered models re-queue; the async
                        // queues keep FIFO positions across setprio.
                        let was_queued = self.model.requeue_priority() && self.user_rq_remove(xix);
                        self.threads[xix].user_prio = prio;
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
                    self.threads[tix].suspend_self_pending = true;
                } else if let Some(&xix) = self.by_id.get(&target) {
                    self.suspend_thread(xix)?;
                }
                CallOutcome::Done
            }
            IoWait(latency) => CallOutcome::BlockedIo(latency),
            Continue(target) => {
                if let Some(&xix) = self.by_id.get(&target) {
                    if std::mem::take(&mut self.threads[xix].suspended)
                        && matches!(
                            self.threads[xix].state,
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
                if self.mutexes[m.0 as usize].try_lock(id) {
                    CallOutcome::Done
                } else {
                    self.mutexes[m.0 as usize].queue.push(id);
                    CallOutcome::Blocked(BlockReason::Sync(SyncObjId::mutex(m.0)))
                }
            }
            MutexTryLock(m) => {
                let got = self.mutexes[m.0 as usize].try_lock(id);
                self.threads[tix].outcome = Outcome::Acquired(got);
                CallOutcome::Done
            }
            MutexUnlock(m) => {
                if self.opts.faults.leak_mutex == Some(m.0) {
                    // Deliberate corruption (FaultInjection), mirrored.
                    return Ok(CallOutcome::Done);
                }
                let next =
                    self.mutexes[m.0 as usize].unlock(id).map_err(VppbError::ProgramError)?;
                if let Some(w) = next {
                    let wix = self.by_id[&w];
                    // The woken thread may be re-acquiring after a
                    // cond_wait; its outcome was staged then.
                    self.finish_blocking_wake(wix, c);
                }
                CallOutcome::Done
            }

            SemWait(s) => {
                if self.sems[s.0 as usize].try_wait() {
                    CallOutcome::Done
                } else {
                    self.sems[s.0 as usize].queue.push(id);
                    CallOutcome::Blocked(BlockReason::Sync(SyncObjId::semaphore(s.0)))
                }
            }
            SemTryWait(s) => {
                let got = self.sems[s.0 as usize].try_wait();
                self.threads[tix].outcome = Outcome::Acquired(got);
                CallOutcome::Done
            }
            SemPost(s) => {
                if let Some(w) = self.sems[s.0 as usize].post() {
                    let wix = self.by_id[&w];
                    self.finish_blocking_wake(wix, c);
                }
                CallOutcome::Done
            }

            CondWait { cond, mutex } => self.begin_cond_wait(tix, c, cond.0, mutex.0, None)?,
            CondTimedWait { cond, mutex, timeout } => {
                self.begin_cond_wait(tix, c, cond.0, mutex.0, Some(timeout))?
            }
            CondSignal(cv) => {
                if let Some(w) = self.conds[cv.0 as usize].signal() {
                    let wix = self.by_id[&w];
                    self.cond_wake(wix, c, false)?;
                }
                CallOutcome::Done
            }
            CondBroadcast(cv) => {
                for w in self.conds[cv.0 as usize].broadcast() {
                    let wix = self.by_id[&w];
                    self.cond_wake(wix, c, false)?;
                }
                CallOutcome::Done
            }

            RwRdLock(r) => {
                if self.rws[r.0 as usize].try_read(id) {
                    CallOutcome::Done
                } else {
                    self.rws[r.0 as usize].queue.push(NRwWaiter::Reader(id));
                    CallOutcome::Blocked(BlockReason::Sync(SyncObjId::rwlock(r.0)))
                }
            }
            RwWrLock(r) => {
                if self.rws[r.0 as usize].try_write(id) {
                    CallOutcome::Done
                } else {
                    self.rws[r.0 as usize].queue.push(NRwWaiter::Writer(id));
                    CallOutcome::Blocked(BlockReason::Sync(SyncObjId::rwlock(r.0)))
                }
            }
            RwTryRdLock(r) => {
                let got = self.rws[r.0 as usize].try_read(id);
                self.threads[tix].outcome = Outcome::Acquired(got);
                CallOutcome::Done
            }
            RwTryWrLock(r) => {
                let got = self.rws[r.0 as usize].try_write(id);
                self.threads[tix].outcome = Outcome::Acquired(got);
                CallOutcome::Done
            }
            RwUnlock(r) => {
                if self.opts.faults.leak_rw_reader == Some(r.0)
                    && self.rws[r.0 as usize].readers.contains(&id)
                {
                    // Deliberate corruption (FaultInjection), mirrored.
                    return Ok(CallOutcome::Done);
                }
                let granted = self.rws[r.0 as usize].unlock(id).map_err(VppbError::ProgramError)?;
                for w in granted {
                    let wix = self.by_id[&w];
                    self.finish_blocking_wake(wix, c);
                }
                CallOutcome::Done
            }

            BarrierWait(b) => {
                let bix = b.0 as usize;
                match self.barriers[bix].arrive(id) {
                    Some(waiters) => {
                        if self.opts.faults.skip_barrier_waker == Some(b.0) {
                            // Deliberate corruption (FaultInjection),
                            // mirrored: a stale queue entry survives the
                            // trip.
                            if let Some(&first) = waiters.first() {
                                self.barriers[bix].queue.push(first);
                            }
                        }
                        for w in waiters {
                            let wix = self.by_id[&w];
                            self.threads[wix].outcome = Outcome::Acquired(false);
                            self.finish_blocking_wake(wix, c);
                        }
                        // The tripping arrival is the "serial" caller.
                        self.threads[tix].outcome = Outcome::Acquired(true);
                        CallOutcome::Done
                    }
                    None => CallOutcome::Blocked(BlockReason::Sync(SyncObjId::barrier(b.0))),
                }
            }

            OnceCall(o) => {
                let oix = o.0 as usize;
                if self.onces[oix].done {
                    self.threads[tix].outcome = Outcome::Acquired(false);
                    CallOutcome::Done
                } else if self.onces[oix].running == Some(id) {
                    // Re-entered after the Extend latency: the initializer
                    // just finished on this thread's CPU.
                    self.onces[oix].running = None;
                    self.onces[oix].done = true;
                    let waiters = std::mem::take(&mut self.onces[oix].queue);
                    for w in waiters {
                        let wix = self.by_id[&w];
                        self.threads[wix].outcome = Outcome::Acquired(false);
                        self.finish_blocking_wake(wix, c);
                    }
                    self.threads[tix].outcome = Outcome::Acquired(true);
                    CallOutcome::Done
                } else if self.onces[oix].running.is_some() {
                    self.onces[oix].queue.push(id);
                    CallOutcome::Blocked(BlockReason::Sync(SyncObjId::once(o.0)))
                } else {
                    // Winner: run the initializer inside the call span.
                    self.onces[oix].running = Some(id);
                    CallOutcome::Extend(self.app.once_init[oix])
                }
            }
        })
    }

    /// Wake a thread whose blocking call just succeeded (mutex handoff,
    /// semaphore grant, rwlock grant).
    fn finish_blocking_wake(&mut self, wix: Tix, waker_cpu: Cix) {
        self.threads[wix].phase = Phase::CallFinish;
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
        let id = self.threads[tix].id;
        if self.mutexes[m as usize].owner != Some(id) {
            return Err(VppbError::ProgramError(format!(
                "{id} cond_waits without holding the mutex mtx{m}"
            )));
        }
        // Atomically release the mutex and sleep on the condvar.
        let next = self.mutexes[m as usize].unlock(id).map_err(VppbError::ProgramError)?;
        if let Some(w) = next {
            let wix = self.by_id[&w];
            self.finish_blocking_wake(wix, c);
        }
        self.conds[cv as usize].queue.push(id);
        self.threads[tix].cv_wait = Some((cv, m));
        if let Some(d) = timeout {
            self.threads[tix].gen += 1;
            let gen = self.threads[tix].gen;
            self.push_ev(self.now + d, Ev::Timer { thread: tix, gen });
        }
        Ok(CallOutcome::Blocked(BlockReason::Sync(SyncObjId::condvar(cv))))
    }

    /// A condvar waiter was signalled (or timed out): stage its outcome and
    /// re-acquire the mutex before the wait can return.
    fn cond_wake(&mut self, wix: Tix, waker_cpu: Cix, timed_out: bool) -> Result<(), VppbError> {
        let (_, m) =
            self.threads[wix].cv_wait.take().expect("cond_wake on thread not in cond_wait");
        let is_timed = matches!(
            self.threads[wix].call.as_ref().map(|i| i.call),
            Some(LibCall::CondTimedWait { .. })
        );
        self.threads[wix].outcome =
            if is_timed { Outcome::TimedOut(timed_out) } else { Outcome::None };
        let w_id = self.threads[wix].id;
        if self.mutexes[m as usize].try_lock(w_id) {
            self.finish_blocking_wake(wix, waker_cpu);
        } else {
            self.mutexes[m as usize].queue.push(w_id);
            self.threads[wix].phase = Phase::CallFinish;
            // Still blocked, now on the mutex; record the reason change.
            self.set_state(wix, TState::Blocked(BlockReason::Sync(SyncObjId::mutex(m))));
        }
        Ok(())
    }

    fn suspend_thread(&mut self, xix: Tix) -> Result<(), VppbError> {
        self.threads[xix].suspended = true;
        match self.threads[xix].state {
            TState::Running(c) => {
                self.cpus[c].token += 1;
                self.charge_elapsed(c);
                self.set_state(xix, TState::Blocked(BlockReason::Suspended));
                // Free the CPU; the LWP continues with other work.
                self.detach_thread(xix);
                self.lwp_continue_or_park(c)?;
            }
            TState::Runnable => {
                if let Some(l) = self.threads[xix].lwp {
                    let removed = self.kernel_remove(l);
                    assert!(removed, "suspending a Runnable thread whose LWP was not queued");
                    if self.lwps[l].dedicated {
                        self.lwps[l].state = LState::Sleeping;
                    } else {
                        // Attached to a pool LWP awaiting CPU: detach; the
                        // LWP parks (dispatch may re-attach it elsewhere).
                        self.lwps[l].state = LState::Parked;
                        self.lwps[l].thread = None;
                        self.parked.push(l);
                        self.threads[xix].lwp = None;
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

    // -- event handlers --------------------------------------------------------

    fn on_cpu_stop(&mut self, c: Cix, token: u64) -> Result<(), VppbError> {
        if self.cpus[c].token != token {
            return Ok(()); // stale
        }
        self.charge_elapsed(c);
        let l = self.cpus[c].lwp.expect("stop on busy cpu");
        let tix = self.lwps[l].thread.expect("running lwp has thread");
        let left = match self.threads[tix].phase {
            Phase::Compute { left } | Phase::CallLatency { left } => left,
            _ => Duration::ZERO,
        };
        if left.is_zero() {
            match self.threads[tix].phase {
                Phase::Compute { .. } => {
                    self.threads[tix].phase = Phase::Resume;
                    self.run_thread(c)
                }
                Phase::CallLatency { .. } => self.perform_call(tix, c),
                _ => unreachable!("CpuStop in non-running phase"),
            }
        } else {
            // Quantum expiry: age the LWP and requeue it.
            debug_assert!(self.lwps[l].quantum_left.is_zero());
            let from_prio = self.lwps[l].prio;
            self.lwps[l].prio = self.cfg.dispatch.on_quantum_expiry(from_prio);
            self.observe(SchedEvent::Age {
                lwp: self.lwps[l].id,
                from_prio,
                to_prio: self.lwps[l].prio,
            });
            self.lwps[l].fresh_quantum = true;
            self.cpus[c].token += 1;
            self.cpus[c].lwp = None;
            self.cpus[c].last_lwp = Some(l);
            self.set_state(tix, TState::Runnable);
            self.kernel_enqueue(l);
            self.dispatch()
        }
    }

    fn on_timer(&mut self, tix: Tix, gen: u64) -> Result<(), VppbError> {
        if self.threads[tix].gen != gen {
            return Ok(()); // cancelled (signalled first, or woken)
        }
        match self.threads[tix].cv_wait {
            Some((cv, _)) => {
                let id = self.threads[tix].id;
                if self.conds[cv as usize].remove(id) {
                    self.cond_wake(tix, usize::MAX, true)?;
                    self.dispatch()
                } else {
                    Ok(())
                }
            }
            None => match self.threads[tix].state {
                // A Sleep() expiry.
                TState::Blocked(BlockReason::Timer) => self.deliver_wake(tix, gen),
                // An I/O completion: the call finishes once back on a CPU.
                TState::Blocked(BlockReason::Io) => {
                    self.threads[tix].phase = Phase::CallFinish;
                    self.threads[tix].outcome = Outcome::None;
                    self.deliver_wake(tix, gen)
                }
                _ => Ok(()),
            },
        }
    }

    // -- main loop --------------------------------------------------------------

    fn run(mut self) -> Result<RunResult, VppbError> {
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
        self.dispatch()?;

        while let Some((time, ev)) = self.pending.pop() {
            debug_assert!(time >= self.now, "time must not run backwards");
            self.now = time;
            self.des_events += 1;
            if self.opts.faults.panic_after_events.is_some_and(|n| self.des_events >= n) {
                panic!(
                    "fault injection: engine panicked after {} events at t={}",
                    self.des_events, self.now
                );
            }
            if self.des_events > self.opts.limits.max_des_events {
                return Err(VppbError::ProgramError(format!(
                    "run exceeded {} engine events at t={} — livelock or runaway program",
                    self.opts.limits.max_des_events, self.now,
                )));
            }
            if self.now > self.opts.limits.max_time {
                return Err(VppbError::ProgramError(
                    "run exceeded the virtual-time limit".to_string(),
                ));
            }
            match ev {
                Ev::CpuStop { cpu, token } => self.on_cpu_stop(cpu, token)?,
                Ev::Wake { thread, gen } => self.deliver_wake(thread, gen)?,
                Ev::Timer { thread, gen } => self.on_timer(thread, gen)?,
            }
            if self.live == 0 {
                break;
            }
        }
        if self.live > 0 {
            return Err(VppbError::ProgramError("deadlock: no runnable threads".to_string()));
        }
        self.opts.hooks.on_collect(false, self.now);
        Ok(self.into_result())
    }

    /// Summarize the final state for the shared conservation auditor.
    fn audit_input_sync(&self) -> Vec<SyncAudit> {
        let mut sync = Vec::new();
        for (i, m) in self.mutexes.iter().enumerate() {
            sync.push(SyncAudit {
                obj: SyncObjId::mutex(i as u32),
                held_by: m.owner.into_iter().collect(),
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
            let mut held_by = rw.readers.clone();
            held_by.extend(rw.writer);
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
                held_by: o.running.into_iter().collect(),
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

    fn audit(&self) -> vppb_model::AuditReport {
        let cpu_busy: Vec<Duration> = self.cpus.iter().map(|c| c.busy).collect();
        let thread_audits: Vec<ThreadAudit> = self
            .threads
            .iter()
            .map(|t| ThreadAudit {
                id: t.id,
                cpu_time: t.cpu_time,
                started: t.started,
                ended: t.ended,
                exited: matches!(t.state, TState::Zombie | TState::Done),
            })
            .collect();
        let sync = self.audit_input_sync();
        let barriers = self.audit_input_barriers();
        let runnable_left = self.model.len() + self.kernel_rq.len();
        run_audit(&AuditInput {
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
        let audit = self.audit();
        let wall_time = self.now;
        let mut threads = BTreeMap::new();
        for t in &self.threads {
            threads.insert(
                t.id,
                ThreadInfo {
                    start_fn: self.app.func_name(t.func).to_string(),
                    started: t.started.unwrap_or(Time::ZERO),
                    ended: t.ended.unwrap_or(Time::MAX),
                    cpu_time: t.cpu_time,
                },
            );
        }
        self.events.sort_by_key(|e| (e.start, e.thread.0));
        let total_cpu_time = self.threads.iter().map(|t| t.cpu_time).sum();
        let n_threads = self.threads.len() as u32;
        RunResult {
            wall_time,
            trace: ExecutionTrace {
                program: self.app.name.clone(),
                cpus: self.cfg.cpus,
                wall_time,
                transitions: self.transitions,
                events: self.events,
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
