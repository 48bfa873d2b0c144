//! Flat replay tapes: a thread body as a dense array of fixed-size
//! [`Action`] records walked by cursor.
//!
//! A tape is the one executable form of a replayed thread: a replay
//! plan's per-thread op list, compiled once. The machine's hot loop
//! advances a [`TapeCursor`] with a bounds check and an index increment —
//! no `Box<dyn Program>` virtual dispatch, no per-event allocation. Each
//! take yields the next op; a cursor that runs off the end keeps
//! returning a defensive `thr_exit` (a correct plan ends with an explicit
//! `Exit`, so the fallback only matters for malformed hand-built plans).
//!
//! A cursor may carry a *stop index*: from that op on it returns
//! [`Action::Stall`] forever instead of advancing. Streaming replay caps
//! each thread at its commit horizon this way, then moves the paused
//! cursors onto the full tapes at the same position.
//!
//! [`TapeProgram`] walks a tape as a boxed [`Program`]. It is written
//! apart from [`TapeCursor::take`] on purpose: the `vppb-oracle`
//! scheduler replays tapes through it, so the engine-vs-oracle grid also
//! checks the engine's cursor against an independent walk.

use crate::action::{Action, LibCall};
use crate::program::{Program, ResumeCtx};
use std::sync::Arc;
use vppb_model::CodeAddr;

/// A position in a flat replay tape, with an optional stop index.
/// Cloning is O(1) (the op array is shared), so snapshots fork
/// tape-driven threads for free.
#[derive(Debug, Clone)]
pub struct TapeCursor {
    ops: Arc<[Action]>,
    pos: usize,
    stop: usize,
}

impl TapeCursor {
    /// A cursor at the start of `ops` that never stops.
    pub fn new(ops: Arc<[Action]>) -> TapeCursor {
        TapeCursor::capped(ops, usize::MAX)
    }

    /// A cursor at the start of `ops` that stalls once `stop` ops have
    /// been taken.
    pub fn capped(ops: Arc<[Action]>, stop: usize) -> TapeCursor {
        TapeCursor { ops, pos: 0, stop }
    }

    /// The same tape and stop, resumed at `pos` (re-binding a
    /// snapshotted thread onto an extended tape).
    pub fn at(self, pos: usize) -> TapeCursor {
        TapeCursor { pos, ..self }
    }

    /// Take the next op, advancing the cursor. At the stop index:
    /// [`Action::Stall`], without advancing. Past the end: a defensive
    /// `thr_exit`. (Named `take`, not `next`, so it cannot be confused
    /// with `Iterator::next` — it never ends.)
    #[inline]
    pub fn take(&mut self) -> Action {
        // Uncapped cursors stop at `usize::MAX`: this compare never fires.
        if self.pos >= self.stop {
            return Action::Stall;
        }
        match self.ops.get(self.pos) {
            Some(&a) => {
                self.pos += 1;
                a
            }
            None => Action::Call(LibCall::Exit, CodeAddr::NULL),
        }
    }

    /// Resume position (ops consumed so far).
    pub fn pos(&self) -> usize {
        self.pos
    }
}

/// The reference walk over a tape, as a boxed coroutine: the plain
/// replayer loop plus the stop check, sharing no code with
/// [`TapeCursor::take`]. Outcomes of the replayed calls are ignored —
/// the log already fixed every decision the program made.
pub struct TapeProgram {
    ops: Arc<[Action]>,
    idx: usize,
    stop: usize,
}

impl TapeProgram {
    /// A walk starting where `tape` stands, with the same stop.
    pub fn new(tape: &TapeCursor) -> TapeProgram {
        TapeProgram { ops: tape.ops.clone(), idx: tape.pos, stop: tape.stop }
    }
}

impl Program for TapeProgram {
    fn resume(&mut self, _ctx: ResumeCtx) -> Action {
        if self.idx >= self.stop {
            return Action::Stall;
        }
        match self.ops.get(self.idx) {
            Some(op) => {
                self.idx += 1;
                *op
            }
            // Defensive: a plan always ends with Exit, but terminate
            // cleanly if not.
            None => Action::Call(LibCall::Exit, CodeAddr::NULL),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vppb_model::Duration;

    fn ops() -> Arc<[Action]> {
        vec![Action::Work(Duration::from_nanos(5)), Action::Call(LibCall::Exit, CodeAddr(0x40))]
            .into()
    }

    fn ctx() -> ResumeCtx {
        ResumeCtx {
            outcome: Default::default(),
            self_id: vppb_model::ThreadId(1),
            now: vppb_model::Time::ZERO,
        }
    }

    #[test]
    fn cursor_walks_and_falls_back_to_exit() {
        let mut c = TapeCursor::new(ops());
        assert!(matches!(c.take(), Action::Work(_)));
        assert!(matches!(c.take(), Action::Call(LibCall::Exit, CodeAddr(0x40))));
        // Off the end: defensive exit, forever.
        assert!(matches!(c.take(), Action::Call(LibCall::Exit, CodeAddr::NULL)));
        assert!(matches!(c.take(), Action::Call(LibCall::Exit, CodeAddr::NULL)));
    }

    #[test]
    fn capped_cursor_stalls_at_its_stop_and_past_it() {
        let mut c = TapeCursor::capped(ops(), 1);
        assert!(matches!(c.take(), Action::Work(_)));
        for _ in 0..3 {
            assert_eq!(c.take(), Action::Stall);
            assert_eq!(c.pos(), 1, "a stall does not advance");
        }
        // A stop of zero stalls before the first op.
        assert_eq!(TapeCursor::capped(ops(), 0).take(), Action::Stall);
    }

    #[test]
    fn clone_keeps_position_and_stop() {
        let mut c = TapeCursor::capped(ops(), 1);
        c.take();
        let mut fork = c.clone();
        assert_eq!(fork.pos(), 1);
        assert_eq!(fork.take(), Action::Stall);
    }

    #[test]
    fn cursor_moved_onto_a_longer_uncapped_tape_continues() {
        let mut c = TapeCursor::capped(ops()[..1].into(), 1);
        c.take();
        assert_eq!(c.take(), Action::Stall);
        let mut moved = TapeCursor::new(ops()).at(c.pos());
        assert_eq!(moved.take(), Action::Call(LibCall::Exit, CodeAddr(0x40)));
        assert_eq!(moved.take(), Action::Call(LibCall::Exit, CodeAddr::NULL));
    }

    #[test]
    fn reference_walk_matches_the_cursor() {
        for tape in
            [TapeCursor::new(ops()), TapeCursor::capped(ops(), 1), TapeCursor::capped(ops(), 5)]
        {
            let mut cursor = tape.clone();
            let mut walk = TapeProgram::new(&tape);
            // Two ops, then the exit (or stall) after the end, twice over.
            for step in 0..4 {
                assert_eq!(cursor.take(), walk.resume(ctx()), "step {step} of {tape:?}");
            }
        }
    }
}
