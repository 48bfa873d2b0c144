//! Ergonomic construction of [`App`]s.
//!
//! ```
//! use vppb_threads::builder::AppBuilder;
//! use vppb_model::Duration;
//!
//! let mut b = AppBuilder::new("toy", "toy.c");
//! let worker = b.func("thread", |f| {
//!     f.work(Duration::from_millis(300)); // work();
//! });
//! b.main(|f| {
//!     let a = f.create(worker); // thr_create(.., thread, .., &thr_a)
//!     let c = f.create(worker); // thr_create(.., thread, .., &thr_b)
//!     f.join(a);                // thr_join(thr_a, 0, 0)
//!     f.join(c);                // thr_join(thr_b, 0, 0)
//! });
//! let app = b.build().unwrap();
//! assert_eq!(app.functions.len(), 2);
//! ```
//!
//! Every emitted statement is assigned a fresh source line in the app's
//! pseudo source file, so the Visualizer can map each event back to "code".

use crate::action::{
    BarrierRef, Cmp, Cond, CondRef, FuncId, LibCall, LocalId, MutexRef, OnceRef, Operand, RwRef,
    SemRef, SlotId, VarId,
};
use crate::app::{App, Body, FuncDecl};
use crate::program::{Program, ProgramFactory};
use crate::script::{Block, JoinFrom, ScriptFn, SlotCallKind, Stmt};
use std::sync::Arc;
use vppb_model::{CodeAddr, Duration, SourceLoc, SourceMap, VppbError};

/// Convenience constructors for condition operands.
pub mod op {
    use super::*;
    /// Constant operand.
    pub fn c(v: i64) -> Operand {
        Operand::Const(v)
    }
    /// Local-register operand.
    pub fn l(id: LocalId) -> Operand {
        Operand::Local(id)
    }
    /// Shared-variable operand.
    pub fn s(id: VarId) -> Operand {
        Operand::Shared(id)
    }
}

/// Builds one [`App`].
pub struct AppBuilder {
    name: String,
    file: String,
    source_map: SourceMap,
    next_line: u32,
    n_mutexes: u32,
    n_condvars: u32,
    n_rwlocks: u32,
    sem_initial: Vec<u32>,
    barrier_parties: Vec<u32>,
    once_init: Vec<Duration>,
    var_initial: Vec<i64>,
    functions: Vec<FuncDecl>,
    main: Option<FuncId>,
}

impl AppBuilder {
    /// `name` is the program name; `file` the pseudo source file all line
    /// numbers refer to.
    pub fn new(name: impl Into<String>, file: impl Into<String>) -> AppBuilder {
        AppBuilder {
            name: name.into(),
            file: file.into(),
            source_map: SourceMap::new(),
            next_line: 1,
            n_mutexes: 0,
            n_condvars: 0,
            n_rwlocks: 0,
            sem_initial: Vec::new(),
            barrier_parties: Vec::new(),
            once_init: Vec::new(),
            var_initial: Vec::new(),
            functions: Vec::new(),
            main: None,
        }
    }

    /// Declare a mutex.
    pub fn mutex(&mut self) -> MutexRef {
        self.n_mutexes += 1;
        MutexRef(self.n_mutexes - 1)
    }

    /// Declare a semaphore with an initial count.
    pub fn semaphore(&mut self, initial: u32) -> SemRef {
        self.sem_initial.push(initial);
        SemRef(self.sem_initial.len() as u32 - 1)
    }

    /// Declare a condition variable.
    pub fn condvar(&mut self) -> CondRef {
        self.n_condvars += 1;
        CondRef(self.n_condvars - 1)
    }

    /// Declare a read/write lock.
    pub fn rwlock(&mut self) -> RwRef {
        self.n_rwlocks += 1;
        RwRef(self.n_rwlocks - 1)
    }

    /// Declare a native cyclic barrier for `parties` threads.
    pub fn barrier(&mut self, parties: u32) -> BarrierRef {
        self.barrier_parties.push(parties);
        BarrierRef(self.barrier_parties.len() as u32 - 1)
    }

    /// Declare a one-time initializer whose init body computes for `init`.
    pub fn once(&mut self, init: Duration) -> OnceRef {
        self.once_init.push(init);
        OnceRef(self.once_init.len() as u32 - 1)
    }

    /// Declare a shared integer variable with an initial value.
    pub fn shared_var(&mut self, initial: i64) -> VarId {
        self.var_initial.push(initial);
        VarId(self.var_initial.len() - 1)
    }

    fn intern(&mut self, function: &str) -> CodeAddr {
        let line = self.next_line;
        self.next_line += 1;
        self.source_map.intern(SourceLoc::new(self.file.clone(), line, function))
    }

    /// Define a script function; returns its id for `create` calls.
    pub fn func(&mut self, name: impl Into<String>, body: impl FnOnce(&mut FnBuilder)) -> FuncId {
        let name = name.into();
        let entry = self.intern(&name);
        let mut fb = FnBuilder {
            app: self,
            fn_name: name.clone(),
            blocks: vec![Vec::new()],
            n_locals: 0,
            n_slots: 0,
        };
        body(&mut fb);
        let FnBuilder { n_locals, n_slots, mut blocks, .. } = fb;
        assert_eq!(blocks.len(), 1, "unbalanced block nesting in `{name}`");
        let body_block: Block = blocks.pop().expect("root block").into();
        let exit_site = self.intern(&name);
        let script =
            ScriptFn { name: name.clone(), body: body_block, n_locals, n_slots, entry, exit_site };
        let factory: ProgramFactory = {
            let script = Arc::new(script);
            Arc::new(move || Box::new(script.runner()) as Box<dyn Program>)
        };
        self.functions.push(FuncDecl { name, entry, body: Body::Coroutine(factory) });
        FuncId(self.functions.len() - 1)
    }

    /// Register a custom (non-script) program as a function — used by the
    /// dynamic demo workloads (work stealing, spin loops).
    pub fn raw_func(&mut self, name: impl Into<String>, factory: ProgramFactory) -> FuncId {
        let name = name.into();
        let entry = self.intern(&name);
        self.functions.push(FuncDecl { name, entry, body: Body::Coroutine(factory) });
        FuncId(self.functions.len() - 1)
    }

    /// Intern an extra call site for custom programs to attribute their
    /// calls to.
    pub fn site(&mut self, function: &str) -> CodeAddr {
        self.intern(function)
    }

    /// Define the `main` function.
    pub fn main(&mut self, body: impl FnOnce(&mut FnBuilder)) -> FuncId {
        let id = self.func("main", body);
        self.main = Some(id);
        id
    }

    /// Finish the app.
    pub fn build(self) -> Result<App, VppbError> {
        let main = self.main.ok_or_else(|| VppbError::InvalidConfig("app has no main".into()))?;
        let app = App {
            name: self.name,
            functions: self.functions,
            main,
            source_map: self.source_map,
            sem_initial: self.sem_initial,
            n_mutexes: self.n_mutexes,
            n_condvars: self.n_condvars,
            n_rwlocks: self.n_rwlocks,
            barrier_parties: self.barrier_parties,
            once_init: self.once_init,
            var_initial: self.var_initial,
        };
        app.validate()?;
        Ok(app)
    }
}

/// Builds one function body. Obtained from [`AppBuilder::func`].
pub struct FnBuilder<'a> {
    app: &'a mut AppBuilder,
    fn_name: String,
    /// Stack of open blocks (innermost last).
    blocks: Vec<Vec<Stmt>>,
    n_locals: usize,
    n_slots: usize,
}

impl<'a> FnBuilder<'a> {
    fn push(&mut self, stmt: Stmt) {
        self.blocks.last_mut().expect("open block").push(stmt);
    }

    fn site(&mut self) -> CodeAddr {
        self.app.intern(&self.fn_name.clone())
    }

    fn nested(&mut self, body: impl FnOnce(&mut Self)) -> Block {
        self.blocks.push(Vec::new());
        body(self);
        self.blocks.pop().expect("nested block").into()
    }

    // ----- declarations ---------------------------------------------------

    /// Allocate a thread-local integer register (initially 0).
    pub fn local(&mut self) -> LocalId {
        self.n_locals += 1;
        LocalId(self.n_locals - 1)
    }

    /// Allocate a handle slot (a `thread_t` variable/array).
    pub fn slot(&mut self) -> SlotId {
        self.n_slots += 1;
        SlotId(self.n_slots - 1)
    }

    // ----- compute --------------------------------------------------------

    /// Compute for a duration.
    pub fn work(&mut self, d: Duration) {
        self.push(Stmt::Work(d));
    }

    /// Compute for `ns` nanoseconds.
    pub fn work_ns(&mut self, ns: u64) {
        self.work(Duration::from_nanos(ns));
    }

    /// Compute for `us` microseconds.
    pub fn work_us(&mut self, us: u64) {
        self.work(Duration::from_micros(us));
    }

    /// Compute for `ms` milliseconds.
    pub fn work_ms(&mut self, ms: u64) {
        self.work(Duration::from_millis(ms));
    }

    /// A blocking I/O system call of the given device latency (e.g. a
    /// `read()` from disk). Unlike [`FnBuilder::work`], the thread's LWP
    /// sleeps in the kernel for the duration.
    pub fn io(&mut self, latency: Duration) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::IoWait(latency), site));
    }

    /// Blocking I/O of `ms` milliseconds.
    pub fn io_ms(&mut self, ms: u64) {
        self.io(Duration::from_millis(ms));
    }

    /// Blocking I/O of `us` microseconds.
    pub fn io_us(&mut self, us: u64) {
        self.io(Duration::from_micros(us));
    }

    // ----- thread management ----------------------------------------------

    /// `thr_create`, remembering the handle in a fresh slot.
    pub fn create(&mut self, func: FuncId) -> SlotId {
        let slot = self.slot();
        self.create_into(func, slot);
        slot
    }

    /// `thr_create` with `THR_BOUND`.
    pub fn create_bound(&mut self, func: FuncId) -> SlotId {
        let slot = self.slot();
        let site = self.site();
        self.push(Stmt::Create { func, bound: true, into: Some(slot), site });
        slot
    }

    /// `thr_create` pushing the handle onto an existing slot (for arrays of
    /// threads created in a loop).
    pub fn create_into(&mut self, func: FuncId, slot: SlotId) {
        let site = self.site();
        self.push(Stmt::Create { func, bound: false, into: Some(slot), site });
    }

    /// `thr_create` discarding the handle (detached-style usage).
    pub fn create_anon(&mut self, func: FuncId) {
        let site = self.site();
        self.push(Stmt::Create { func, bound: false, into: None, site });
    }

    /// `thr_join` on the oldest handle in `slot`.
    pub fn join(&mut self, slot: SlotId) {
        let site = self.site();
        self.push(Stmt::Join { from: JoinFrom::Slot(slot), site });
    }

    /// Wildcard `thr_join(0, ...)` — joins *any* exited thread.
    pub fn join_any(&mut self) {
        let site = self.site();
        self.push(Stmt::Join { from: JoinFrom::Any, site });
    }

    /// Explicit `thr_exit` (implicit at end of body otherwise).
    pub fn exit(&mut self) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::Exit, site));
    }

    /// `thr_yield`.
    pub fn yield_now(&mut self) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::Yield, site));
    }

    /// `thr_setprio(thr_self(), prio)`.
    pub fn set_prio_self(&mut self, prio: i32) {
        let site = self.site();
        self.push(Stmt::SetPrioSelf { prio, site });
    }

    /// `thr_setprio` on the thread at the front of `slot`.
    pub fn set_prio_slot(&mut self, slot: SlotId, prio: i32) {
        let site = self.site();
        self.push(Stmt::SlotCall { slot, kind: SlotCallKind::SetPrio(prio), site });
    }

    /// `thr_suspend` on the front of `slot`.
    pub fn suspend_slot(&mut self, slot: SlotId) {
        let site = self.site();
        self.push(Stmt::SlotCall { slot, kind: SlotCallKind::Suspend, site });
    }

    /// `thr_continue` on the front of `slot`.
    pub fn continue_slot(&mut self, slot: SlotId) {
        let site = self.site();
        self.push(Stmt::SlotCall { slot, kind: SlotCallKind::Continue, site });
    }

    /// `thr_setconcurrency(n)`.
    pub fn set_concurrency(&mut self, n: u32) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::SetConcurrency(n), site));
    }

    // ----- synchronization --------------------------------------------------

    /// `mutex_lock(&m)`.
    pub fn lock(&mut self, m: MutexRef) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::MutexLock(m), site));
    }

    /// `mutex_unlock(&m)`.
    pub fn unlock(&mut self, m: MutexRef) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::MutexUnlock(m), site));
    }

    /// `mutex_trylock(&m)` (outcome replayed by the Simulator).
    pub fn trylock(&mut self, m: MutexRef) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::MutexTryLock(m), site));
    }

    /// `sema_wait(&s)`.
    pub fn sem_wait(&mut self, s: SemRef) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::SemWait(s), site));
    }

    /// `sema_trywait(&s)`.
    pub fn sem_trywait(&mut self, s: SemRef) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::SemTryWait(s), site));
    }

    /// `sema_post(&s)`.
    pub fn sem_post(&mut self, s: SemRef) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::SemPost(s), site));
    }

    /// `cond_wait(&cv, &m)`.
    pub fn cond_wait(&mut self, cv: CondRef, m: MutexRef) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::CondWait { cond: cv, mutex: m }, site));
    }

    /// `cond_timedwait(&cv, &m, timeout)`.
    pub fn cond_timedwait(&mut self, cv: CondRef, m: MutexRef, timeout: Duration) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::CondTimedWait { cond: cv, mutex: m, timeout }, site));
    }

    /// `cond_signal(&cv)`.
    pub fn cond_signal(&mut self, cv: CondRef) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::CondSignal(cv), site));
    }

    /// `cond_broadcast(&cv)`.
    pub fn cond_broadcast(&mut self, cv: CondRef) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::CondBroadcast(cv), site));
    }

    /// `rw_rdlock(&rw)`.
    pub fn rd_lock(&mut self, rw: RwRef) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::RwRdLock(rw), site));
    }

    /// `rw_wrlock(&rw)`.
    pub fn wr_lock(&mut self, rw: RwRef) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::RwWrLock(rw), site));
    }

    /// `rw_tryrdlock(&rw)`.
    pub fn try_rd_lock(&mut self, rw: RwRef) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::RwTryRdLock(rw), site));
    }

    /// `rw_trywrlock(&rw)`.
    pub fn try_wr_lock(&mut self, rw: RwRef) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::RwTryWrLock(rw), site));
    }

    /// `rw_unlock(&rw)`.
    pub fn rw_unlock(&mut self, rw: RwRef) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::RwUnlock(rw), site));
    }

    /// `barrier_wait(&bar)` on a native barrier.
    pub fn barrier_wait(&mut self, bar: BarrierRef) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::BarrierWait(bar), site));
    }

    /// `pthread_once(&once, init)`-style one-time initialization.
    pub fn once_call(&mut self, once: OnceRef) {
        let site = self.site();
        self.push(Stmt::Call(LibCall::OnceCall(once), site));
    }

    // ----- shared / local variables -----------------------------------------

    /// `local = operand`.
    pub fn assign(&mut self, local: LocalId, value: Operand) {
        self.push(Stmt::Assign(local, value));
    }

    /// `shared = value` (`value` must be `Const` or `Local`).
    pub fn set_shared(&mut self, var: VarId, value: Operand) {
        assert!(
            !matches!(value, Operand::Shared(_)),
            "set_shared value must be Const or Local; assign to a local first"
        );
        self.push(Stmt::SharedSet { var, value });
    }

    /// Atomic `shared += delta`, discarding the old value.
    pub fn fetch_add(&mut self, var: VarId, delta: i64) {
        self.push(Stmt::SharedFetchAdd { var, delta: Operand::Const(delta), old_into: None });
    }

    /// Atomic `local = fetch_add(shared, delta)` (old value stored).
    pub fn fetch_add_into(&mut self, var: VarId, delta: i64, old_into: LocalId) {
        self.push(Stmt::SharedFetchAdd {
            var,
            delta: Operand::Const(delta),
            old_into: Some(old_into),
        });
    }

    // ----- control flow -------------------------------------------------------

    /// Fixed-count loop.
    pub fn loop_n(&mut self, n: u64, body: impl FnOnce(&mut Self)) {
        let block = self.nested(body);
        self.push(Stmt::Loop(n, block));
    }

    /// Build-time-unrolled loop: `body` receives the iteration index, so
    /// per-iteration work sizes (e.g. LU's shrinking blocks) can differ.
    pub fn for_n(&mut self, n: u64, mut body: impl FnMut(&mut Self, u64)) {
        for i in 0..n {
            body(self, i);
        }
    }

    /// `if lhs cmp rhs { then } else { els }`.
    pub fn if_else(
        &mut self,
        lhs: Operand,
        cmp: Cmp,
        rhs: Operand,
        then: impl FnOnce(&mut Self),
        els: impl FnOnce(&mut Self),
    ) {
        let t = self.nested(then);
        let e = self.nested(els);
        self.push(Stmt::If(Cond::new(lhs, cmp, rhs), t, e));
    }

    /// `if lhs cmp rhs { then }`.
    pub fn if_(&mut self, lhs: Operand, cmp: Cmp, rhs: Operand, then: impl FnOnce(&mut Self)) {
        self.if_else(lhs, cmp, rhs, then, |_| {});
    }

    /// `while lhs cmp rhs { body }`.
    pub fn while_(&mut self, lhs: Operand, cmp: Cmp, rhs: Operand, body: impl FnOnce(&mut Self)) {
        let b = self.nested(body);
        self.push(Stmt::While(Cond::new(lhs, cmp, rhs), b));
    }
}

/// A reusable sense-reversing barrier over a mutex + condvar + two shared
/// variables — the canonical SPLASH-2 `BARRIER` macro, which §6 of the
/// paper singles out as the construct its broadcast modelling targets.
#[derive(Debug, Clone, Copy)]
pub struct BarrierDecl {
    mutex: MutexRef,
    cond: CondRef,
    count: VarId,
    generation: VarId,
    parties: u32,
}

impl BarrierDecl {
    /// Declare the barrier's objects on the app.
    pub fn declare(app: &mut AppBuilder, parties: u32) -> BarrierDecl {
        BarrierDecl {
            mutex: app.mutex(),
            cond: app.condvar(),
            count: app.shared_var(0),
            generation: app.shared_var(0),
            parties,
        }
    }

    /// Emit a barrier wait into `f`:
    ///
    /// ```c
    /// mutex_lock(&m);
    /// if (++count == parties) { count = 0; gen++; cond_broadcast(&cv); }
    /// else { g = gen; while (gen == g) cond_wait(&cv, &m); }
    /// mutex_unlock(&m);
    /// ```
    pub fn wait(&self, f: &mut FnBuilder) {
        let old = f.local();
        let my_gen = f.local();
        f.lock(self.mutex);
        f.fetch_add_into(self.count, 1, old);
        f.if_else(
            op::l(old),
            Cmp::Eq,
            op::c(self.parties as i64 - 1),
            |f| {
                f.set_shared(self.count, op::c(0));
                f.fetch_add(self.generation, 1);
                f.cond_broadcast(self.cond);
            },
            |f| {
                f.assign(my_gen, op::s(self.generation));
                f.while_(op::s(self.generation), Cmp::Eq, op::l(my_gen), |f| {
                    f.cond_wait(self.cond, self.mutex);
                });
            },
        );
        f.unlock(self.mutex);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, Outcome, VarOp};
    use crate::program::ResumeCtx;
    use vppb_model::{ThreadId, Time};

    fn drive(app: &App, func: FuncId, outcomes: Vec<Outcome>) -> Vec<Action> {
        let mut p = app.instantiate(func);
        let mut actions = Vec::new();
        let mut outcomes = outcomes.into_iter();
        loop {
            let o = outcomes.next().unwrap_or(Outcome::None);
            let ctx = ResumeCtx { outcome: o, self_id: ThreadId(1), now: Time::ZERO };
            let a = p.resume(ctx);
            let is_exit = matches!(a, Action::Call(LibCall::Exit, _));
            actions.push(a);
            if is_exit {
                return actions;
            }
        }
    }

    #[test]
    fn doc_example_builds() {
        let mut b = AppBuilder::new("toy", "toy.c");
        let worker = b.func("thread", |f| f.work_ms(300));
        b.main(|f| {
            let a = f.create(worker);
            let c = f.create(worker);
            f.join(a);
            f.join(c);
        });
        let app = b.build().unwrap();
        assert_eq!(app.functions.len(), 2);
        assert_eq!(app.func_name(app.main), "main");
        // worker: one work action then implicit exit.
        let acts = drive(&app, worker, vec![]);
        assert_eq!(acts.len(), 2);
        assert_eq!(acts[0], Action::Work(Duration::from_millis(300)));
    }

    #[test]
    fn main_join_sequence_uses_created_ids() {
        let mut b = AppBuilder::new("toy", "toy.c");
        let worker = b.func("thread", |f| f.work_us(1));
        let main = b.main(|f| {
            let a = f.create(worker);
            f.join(a);
        });
        let app = b.build().unwrap();
        let acts = drive(
            &app,
            main,
            vec![Outcome::None, Outcome::Created(ThreadId(4)), Outcome::Joined(ThreadId(4))],
        );
        assert!(matches!(acts[0], Action::Call(LibCall::Create { .. }, _)));
        assert_eq!(
            acts[1],
            match acts[1] {
                Action::Call(LibCall::Join(Some(ThreadId(4))), s) =>
                    Action::Call(LibCall::Join(Some(ThreadId(4))), s),
                other => panic!("expected join of T4, got {other:?}"),
            }
        );
    }

    #[test]
    fn source_lines_are_distinct_and_ordered() {
        let mut b = AppBuilder::new("toy", "toy.c");
        let _w = b.func("w", |f| {
            f.work_us(1); // no site (Work is not a call)
            f.yield_now();
            f.yield_now();
        });
        b.main(|f| f.exit());
        let app = b.build().unwrap();
        let lines: Vec<u32> = app.source_map.iter().map(|(_, l)| l.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "line numbers increase with address");
        let mut dedup = lines.clone();
        dedup.dedup();
        assert_eq!(lines, dedup, "each site gets its own line");
    }

    #[test]
    fn build_without_main_fails() {
        let mut b = AppBuilder::new("x", "x.c");
        b.func("f", |f| f.work_us(1));
        assert!(b.build().is_err());
    }

    #[test]
    fn barrier_broadcaster_path() {
        // Single-party barrier: the only arriver is the broadcaster.
        let mut b = AppBuilder::new("bar", "bar.c");
        let bar = BarrierDecl::declare(&mut b, 1);
        let main = b.main(move |f| bar.wait(f));
        let app = b.build().unwrap();
        let mut p = app.instantiate(main);
        let ctx = |o| ResumeCtx { outcome: o, self_id: ThreadId(1), now: Time::ZERO };
        // lock
        assert!(matches!(p.resume(ctx(Outcome::None)), Action::Call(LibCall::MutexLock(_), _)));
        // fetch_add(count)
        assert!(matches!(p.resume(ctx(Outcome::None)), Action::Var(VarOp::FetchAdd(_, 1))));
        // old == parties-1 == 0 -> broadcaster: set count 0
        assert!(matches!(p.resume(ctx(Outcome::Value(0))), Action::Var(VarOp::Set(_, 0))));
        // gen++
        assert!(matches!(p.resume(ctx(Outcome::None)), Action::Var(VarOp::FetchAdd(_, 1))));
        // broadcast
        assert!(matches!(
            p.resume(ctx(Outcome::Value(0))),
            Action::Call(LibCall::CondBroadcast(_), _)
        ));
        // unlock
        assert!(matches!(p.resume(ctx(Outcome::None)), Action::Call(LibCall::MutexUnlock(_), _)));
    }

    #[test]
    fn barrier_waiter_path() {
        let mut b = AppBuilder::new("bar", "bar.c");
        let bar = BarrierDecl::declare(&mut b, 2);
        let main = b.main(move |f| bar.wait(f));
        let app = b.build().unwrap();
        let mut p = app.instantiate(main);
        let ctx = |o| ResumeCtx { outcome: o, self_id: ThreadId(1), now: Time::ZERO };
        assert!(matches!(p.resume(ctx(Outcome::None)), Action::Call(LibCall::MutexLock(_), _)));
        assert!(matches!(p.resume(ctx(Outcome::None)), Action::Var(VarOp::FetchAdd(_, 1))));
        // old = 0, parties-1 = 1 -> waiter: read gen into local
        assert!(matches!(p.resume(ctx(Outcome::Value(0))), Action::Var(VarOp::Read(_))));
        // while(gen == my_gen): read gen
        assert!(matches!(p.resume(ctx(Outcome::Value(7))), Action::Var(VarOp::Read(_))));
        // gen still 7 -> cond_wait
        assert!(matches!(
            p.resume(ctx(Outcome::Value(7))),
            Action::Call(LibCall::CondWait { .. }, _)
        ));
        // woken; loop re-reads gen
        assert!(matches!(p.resume(ctx(Outcome::None)), Action::Var(VarOp::Read(_))));
        // gen advanced -> exit loop -> unlock
        assert!(matches!(
            p.resume(ctx(Outcome::Value(8))),
            Action::Call(LibCall::MutexUnlock(_), _)
        ));
    }

    #[test]
    fn for_n_unrolls_with_index() {
        let mut b = AppBuilder::new("x", "x.c");
        let main = b.main(|f| {
            f.for_n(3, |f, i| f.work_ns(100 * (i + 1)));
        });
        let app = b.build().unwrap();
        let acts = drive(&app, main, vec![]);
        assert_eq!(
            &acts[..3],
            &[
                Action::Work(Duration(100)),
                Action::Work(Duration(200)),
                Action::Work(Duration(300)),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "set_shared value must be Const or Local")]
    fn set_shared_rejects_shared_operand() {
        let mut b = AppBuilder::new("x", "x.c");
        let v1 = b.shared_var(0);
        let v2 = b.shared_var(0);
        b.main(move |f| f.set_shared(v1, op::s(v2)));
    }
}
