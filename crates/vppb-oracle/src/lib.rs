//! # vppb-oracle — the scheduler's executable specification
//!
//! The optimized engine in `vppb-machine` earns its speed with bitmap
//! priority queues, event batching and intrusive lists — exactly the kind
//! of cleverness that hides scheduling bugs. This crate keeps it honest
//! three ways:
//!
//! 1. **Oracle** ([`run`] / [`run_with`]): a deliberately naive,
//!    obviously-correct re-implementation of the Solaris 2.5 two-level
//!    scheduler — linear scans over flat `Vec`s, no bitmaps, no heaps, a
//!    direct transcription of the DESIGN.md §3 rules. It consumes the
//!    same replay plans and emits the same [`vppb_machine::RunResult`].
//! 2. **Generator** ([`gen`]): a seeded synthesizer of random-but-valid
//!    recorded programs — random thread trees, mutex/condvar/semaphore/
//!    rwlock topologies, bound/unbound mixes, priority spreads, trylock
//!    outcomes, timed waits — every one deadlock-free by construction.
//! 3. **Differential driver** ([`diff`], [`shrink`]): records each
//!    generated program, replays the plan through engine and oracle
//!    across a CPU/LWP-policy grid, and asserts *bit-identical* schedules
//!    (the full scheduling-decision streams, not just makespans). A
//!    divergence is delta-debugged down to a minimal reproducer and
//!    dumped as a replayable text log plus its seed.
//!
//! Surfaced as `vppb fuzz`, which CI's `fuzz-smoke` job runs.

pub mod diff;
pub mod engine;
pub mod gen;
pub mod nsync;
pub mod queues;
pub mod shrink;

pub use diff::{check_spec, fuzz_corpus, params_for, ConfigGrid, Divergence, FuzzReport, LwpMode};
pub use engine::{run, run_with, OracleTweaks};
pub use gen::{GenParams, ProgSpec, Seg, WorkerSpec};
pub use shrink::{shrink, ShrinkResult};
