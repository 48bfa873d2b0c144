//! The [`Program`] trait: a thread body as a resumable coroutine.
//!
//! Most programs are written with the [`crate::builder`] DSL and executed
//! by the script interpreter, but anything implementing `Program` can be a
//! thread body — the work-stealing and spin-wait demo workloads implement
//! it directly because their control flow is data-dependent in ways a
//! static script cannot express.

use crate::action::{Action, Outcome};
use vppb_model::{ThreadId, Time};

/// Context passed at each resume.
#[derive(Debug, Clone, Copy)]
pub struct ResumeCtx {
    /// Result of the action that just completed.
    pub outcome: Outcome,
    /// The resuming thread's own id.
    pub self_id: ThreadId,
    /// Current virtual time.
    pub now: Time,
}

/// A thread body. The machine resumes the program each time its previous
/// action completes; the returned [`Action`] is executed next. A program
/// finishes by returning `Action::Call(LibCall::Exit, _)`; after that it is
/// never resumed again (returning `Exit` is also how `main` terminates —
/// Solaris `main` falling off the end implicitly calls `thr_exit`).
pub trait Program: Send {
    /// Produce the next action, given the outcome of the previous one.
    fn resume(&mut self, ctx: ResumeCtx) -> Action;

    /// Duplicate this coroutine mid-flight, preserving its position.
    /// Checkpointable programs (script runners) override this so
    /// an [`EngineSnapshot`](../vppb_machine) can be cloned; data-dependent
    /// demo programs keep the `None` default and simply cannot be forked.
    fn fork(&self) -> Option<Box<dyn Program>> {
        None
    }
}

/// Boxed program factory: instantiates a fresh coroutine for every thread
/// started with this function (and for every machine run, so an
/// [`crate::App`] can be executed many times).
pub type ProgramFactory = std::sync::Arc<dyn Fn() -> Box<dyn Program> + Send + Sync>;

impl<F> Program for F
where
    F: FnMut(ResumeCtx) -> Action + Send,
{
    fn resume(&mut self, ctx: ResumeCtx) -> Action {
        self(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::LibCall;
    use vppb_model::CodeAddr;

    #[test]
    fn closures_are_programs() {
        let mut p: Box<dyn Program> =
            Box::new(|_ctx: ResumeCtx| Action::Call(LibCall::Exit, CodeAddr::NULL));
        let ctx = ResumeCtx { outcome: Outcome::None, self_id: ThreadId(1), now: Time::ZERO };
        assert_eq!(p.resume(ctx), Action::Call(LibCall::Exit, CodeAddr::NULL));
    }
}
