//! Actions: what a thread asks the machine to do next.
//!
//! A [`crate::Program`] is a coroutine that, each time it is resumed, hands
//! the machine one [`Action`]: compute for a while, touch a shared memory
//! word, or call into the thread library. Library calls are the only
//! actions the Recorder can observe — shared-variable operations are
//! ordinary memory traffic, invisible to interposition, which is precisely
//! why condition-variable protocols are hard for the Simulator (§6 of the
//! paper).

use vppb_model::{CodeAddr, Duration, ThreadId};

/// Index of a function in an [`crate::App`]'s function table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub usize);

/// Index of a process-global shared integer variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub usize);

/// Index of a thread-local integer register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocalId(pub usize);

/// Index of a thread-local queue of child-thread handles (what a C program
/// would keep in a `thread_t` variable or array).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(pub usize);

/// Handle references for mutexes/semaphores/condvars/rwlocks as declared
/// through the builder. The `u32` is the per-kind object index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MutexRef(pub u32);
/// Handle to a declared semaphore.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SemRef(pub u32);
/// Handle to a declared condition variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CondRef(pub u32);
/// Handle to a declared read/write lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RwRef(pub u32);
/// Handle to a declared cyclic barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BarrierRef(pub u32);
/// Handle to a declared one-time initializer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OnceRef(pub u32);

/// An atomic operation on a shared variable. Performed by the machine at a
/// single instant of virtual time, like a SPARC atomic or a plain aligned
/// load/store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarOp {
    /// Read the variable; the value arrives in [`Outcome::Value`].
    Read(VarId),
    /// Store a value.
    Set(VarId, i64),
    /// Add `delta` and return the *old* value in [`Outcome::Value`].
    FetchAdd(VarId, i64),
}

/// A call into the thread library — the recordable actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibCall {
    /// `thr_create(func)`; the new thread's id arrives in
    /// [`Outcome::Created`].
    Create {
        /// The function the new thread runs.
        func: FuncId,
        /// Whether to bind the thread to a dedicated LWP.
        bound: bool,
    },
    /// `thr_join(target)`; `None` is the wildcard. Joined id arrives in
    /// [`Outcome::Joined`].
    Join(Option<ThreadId>),
    /// `thr_exit` — must be the last action of a thread.
    Exit,
    /// `thr_yield`.
    Yield,
    /// `thr_setprio(target, prio)`.
    SetPrio {
        /// Whose priority to change.
        target: ThreadId,
        /// The new user-level priority.
        prio: i32,
    },
    /// `thr_setconcurrency(n)`.
    SetConcurrency(u32),
    /// `thr_suspend(target)`.
    Suspend(ThreadId),
    /// `thr_continue(target)`.
    Continue(ThreadId),
    /// A blocking I/O system call of known device latency (an interposed
    /// `read()`/`write()`). Blocks the calling thread's *LWP*, like a real
    /// Solaris syscall — the I/O-modelling extension the paper lists as
    /// future work (§6).
    IoWait(Duration),

    /// `mutex_lock`.
    MutexLock(MutexRef),
    /// Outcome: [`Outcome::Acquired`].
    MutexTryLock(MutexRef),
    /// `mutex_unlock`.
    MutexUnlock(MutexRef),

    /// `sema_wait`.
    SemWait(SemRef),
    /// Outcome: [`Outcome::Acquired`].
    SemTryWait(SemRef),
    /// `sema_post`.
    SemPost(SemRef),

    /// `cond_wait(cond, mutex)`.
    CondWait {
        /// The condition variable to wait on.
        cond: CondRef,
        /// The mutex released while waiting.
        mutex: MutexRef,
    },
    /// Outcome: [`Outcome::TimedOut`].
    CondTimedWait {
        /// The condition variable to wait on.
        cond: CondRef,
        /// The mutex released while waiting.
        mutex: MutexRef,
        /// How long to wait before giving up.
        timeout: Duration,
    },
    /// `cond_signal`.
    CondSignal(CondRef),
    /// `cond_broadcast`.
    CondBroadcast(CondRef),

    /// `rw_rdlock`.
    RwRdLock(RwRef),
    /// `rw_wrlock`.
    RwWrLock(RwRef),
    /// Outcome: [`Outcome::Acquired`].
    RwTryRdLock(RwRef),
    /// Outcome: [`Outcome::Acquired`].
    RwTryWrLock(RwRef),
    /// `rw_unlock`.
    RwUnlock(RwRef),

    /// `barrier_wait` on a declared cyclic barrier (native primitive; the
    /// composite mutex+condvar barrier in the builder predates it). Blocks
    /// until the barrier's declared party count has arrived.
    BarrierWait(BarrierRef),
    /// One-time initialization (`pthread_once` semantics): the first
    /// caller runs the declared initializer as extra call latency, later
    /// callers block until it finishes, then everyone proceeds. Outcome:
    /// [`Outcome::Acquired`]`(true)` for the thread that ran the
    /// initializer, `(false)` for everyone else.
    OnceCall(OnceRef),
}

impl LibCall {
    /// Whether this call can block the calling thread.
    pub fn may_block(&self) -> bool {
        use LibCall::*;
        matches!(
            self,
            Join(_)
                | MutexLock(_)
                | SemWait(_)
                | CondWait { .. }
                | CondTimedWait { .. }
                | RwRdLock(_)
                | RwWrLock(_)
                | IoWait(_)
                | BarrierWait(_)
                | OnceCall(_)
        )
    }
}

/// What a thread does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Compute (hold the CPU) for this long.
    Work(Duration),
    /// Sleep without holding a CPU for this long. Not a Solaris thread-
    /// library call and never recorded; the trace-driven Simulator uses it
    /// to replay a `cond_timedwait` that timed out in the log "as a delay"
    /// (§3.2 of the paper).
    Sleep(Duration),
    /// Touch a shared variable (instantaneous, unrecorded).
    Var(VarOp),
    /// Call the thread library from the given call site.
    Call(LibCall, CodeAddr),
    /// The program has no more *committed* actions to offer yet (streaming
    /// replay ran off the end of the stable plan prefix): what a capped
    /// [`crate::TapeCursor`] returns at its stop index. The streaming
    /// engine records the stall and the run is discarded. A stalled
    /// program must keep returning `Stall` without advancing, so a rerun
    /// stopped earlier never observes it.
    Stall,
}

/// The result of the previously requested action, delivered at the next
/// resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Outcome {
    /// First resume, or the previous action had no interesting result.
    #[default]
    None,
    /// `Create` returned this child.
    Created(ThreadId),
    /// `Join` joined this thread.
    Joined(ThreadId),
    /// Result of a `try` operation.
    Acquired(bool),
    /// Whether `CondTimedWait` timed out.
    TimedOut(bool),
    /// Value from a `Read` or `FetchAdd`.
    Value(i64),
}

impl Outcome {
    /// The integer payload of a `Value` outcome, if any.
    pub fn value(&self) -> Option<i64> {
        match self {
            Outcome::Value(v) => Some(*v),
            _ => None,
        }
    }
}

/// Comparison operators for DSL conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Cmp {
    /// Apply the comparison.
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            Cmp::Eq => lhs == rhs,
            Cmp::Ne => lhs != rhs,
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
        }
    }
}

/// An operand of a condition or assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A literal.
    Const(i64),
    /// A thread-local register (free to read).
    Local(LocalId),
    /// A shared variable (reading it is a [`VarOp::Read`] action).
    Shared(VarId),
}

/// A condition `lhs cmp rhs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cond {
    /// Left operand.
    pub lhs: Operand,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right operand.
    pub rhs: Operand,
}

impl Cond {
    /// `lhs cmp rhs`.
    pub fn new(lhs: Operand, cmp: Cmp, rhs: Operand) -> Cond {
        Cond { lhs, cmp, rhs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_eval_table() {
        assert!(Cmp::Eq.eval(3, 3));
        assert!(Cmp::Ne.eval(3, 4));
        assert!(Cmp::Lt.eval(3, 4));
        assert!(Cmp::Le.eval(4, 4));
        assert!(Cmp::Gt.eval(5, 4));
        assert!(Cmp::Ge.eval(4, 4));
        assert!(!Cmp::Lt.eval(4, 4));
    }

    #[test]
    fn blocking_calls() {
        assert!(LibCall::MutexLock(MutexRef(0)).may_block());
        assert!(LibCall::Join(None).may_block());
        assert!(!LibCall::MutexTryLock(MutexRef(0)).may_block());
        assert!(!LibCall::SemPost(SemRef(0)).may_block());
        assert!(!LibCall::Exit.may_block());
    }

    #[test]
    fn outcome_value_extraction() {
        assert_eq!(Outcome::Value(7).value(), Some(7));
        assert_eq!(Outcome::None.value(), None);
    }
}
