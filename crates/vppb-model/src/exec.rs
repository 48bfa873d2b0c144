//! The "information describing the (simulated) execution" — box (g) of the
//! paper's fig. 1.
//!
//! Both the machine (a *real* execution in our reproduction) and the
//! trace-driven Simulator produce an [`ExecutionTrace`]: a timeline of
//! thread-state transitions plus the thread-library events with their
//! durations, CPU placements and source locations. The Visualizer renders
//! this structure; the validation harness compares `wall_time`s from the
//! two producers to compute real vs predicted speed-up.

use crate::event::EventKind;
use crate::ids::{CpuId, LwpId, SyncObjId, ThreadId};
use crate::source::{CodeAddr, SourceMap};
use crate::time::{Duration, Time};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Why a thread is not runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockReason {
    /// Waiting for a synchronization object (mutex/semaphore/condvar/rwlock).
    Sync(SyncObjId),
    /// Waiting in `thr_join` (`None` = wildcard).
    Join(Option<ThreadId>),
    /// Waiting for a `cond_timedwait` timeout to elapse.
    Timer,
    /// Blocked in an I/O system call (the LWP sleeps in the kernel).
    Io,
    /// Suspended via `thr_suspend`.
    Suspended,
    /// Not yet started (created but never scheduled).
    NotStarted,
}

/// Scheduling state of a thread at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThreadState {
    /// Executing on a CPU. In the execution-flow graph: a solid line.
    Running {
        /// The processor it is executing on.
        cpu: CpuId,
        /// The LWP carrying it.
        lwp: LwpId,
    },
    /// Ready to run but waiting for an LWP or CPU. Grey line / red band.
    Runnable,
    /// Blocked. No line.
    Blocked(BlockReason),
    /// Exited. No line, lane ends.
    Exited,
}

impl ThreadState {
    /// Whether the thread is executing on a CPU.
    pub fn is_running(&self) -> bool {
        matches!(self, ThreadState::Running { .. })
    }
    /// Whether the thread is ready but waiting for an LWP/CPU.
    pub fn is_runnable(&self) -> bool {
        matches!(self, ThreadState::Runnable)
    }
}

/// One thread-state transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// When the state changed.
    pub time: Time,
    /// Which thread changed state.
    pub thread: ThreadId,
    /// The state it changed *to*.
    pub state: ThreadState,
}

/// One thread-library event as placed in the (simulated) execution — the
/// Visualizer draws a symbol for it and the event popup shows its details.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacedEvent {
    /// When the call started.
    pub start: Time,
    /// When the call returned (≥ start; blocking calls span their wait).
    pub end: Time,
    /// The calling thread.
    pub thread: ThreadId,
    /// Which routine the event wraps.
    pub kind: EventKind,
    /// CPU the thread was on when the call started.
    pub cpu: CpuId,
    /// Call-site address for source mapping.
    pub caller: CodeAddr,
}

impl PlacedEvent {
    /// How long the call took ("how long it took to perform" — §3.3).
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Per-thread summary statistics — the numbers the event popup window shows
/// (§3.3: start/end time, time actually working, total execution time).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ThreadInfo {
    /// Start-routine name (from `thr_create`'s function pointer).
    pub start_fn: String,
    /// When the thread started executing.
    pub started: Time,
    /// When it exited (Time::MAX if it never did).
    pub ended: Time,
    /// Time actually spent running on a CPU.
    pub cpu_time: Duration,
}

impl ThreadInfo {
    /// Total execution time including blocked/runnable periods.
    pub fn total_time(&self) -> Duration {
        self.ended - self.started
    }
}

/// A complete (real or simulated) execution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionTrace {
    /// Program name.
    pub program: String,
    /// Number of CPUs of the (simulated) machine.
    pub cpus: u32,
    /// Total wall time of the execution.
    pub wall_time: Time,
    /// State transitions, sorted by time (ties in emission order).
    pub transitions: Vec<Transition>,
    /// Thread-library events, sorted by start time.
    pub events: Vec<PlacedEvent>,
    /// Per-thread summaries.
    pub threads: BTreeMap<ThreadId, ThreadInfo>,
    /// Source map for resolving `PlacedEvent::caller`.
    pub source_map: SourceMap,
}

impl ExecutionTrace {
    /// Reconstruct the state of every thread at time `t` (the Visualizer's
    /// parallelism graph integrates this over time).
    pub fn states_at(&self, t: Time) -> BTreeMap<ThreadId, ThreadState> {
        let mut states = BTreeMap::new();
        for tr in &self.transitions {
            if tr.time > t {
                break;
            }
            states.insert(tr.thread, tr.state);
        }
        states
    }

    /// (running, runnable) counts at time `t`.
    pub fn parallelism_at(&self, t: Time) -> (u32, u32) {
        let mut running = 0;
        let mut runnable = 0;
        for s in self.states_at(t).values() {
            match s {
                ThreadState::Running { .. } => running += 1,
                ThreadState::Runnable => runnable += 1,
                _ => {}
            }
        }
        (running, runnable)
    }

    /// Verify internal consistency: transitions and events sorted, event
    /// spans within the wall time, and never more running threads than
    /// CPUs. Used by property tests on both producers.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev = Time::ZERO;
        for tr in &self.transitions {
            if tr.time < prev {
                return Err(format!("transitions unsorted at {}", tr.time));
            }
            prev = tr.time;
        }
        let mut prev = Time::ZERO;
        for ev in &self.events {
            if ev.start < prev {
                return Err(format!("events unsorted at {}", ev.start));
            }
            prev = ev.start;
            if ev.end < ev.start {
                return Err("event ends before it starts".into());
            }
            if ev.end > self.wall_time {
                return Err(format!(
                    "event {} on {} ends at {} after wall time {}",
                    ev.kind.name(),
                    ev.thread,
                    ev.end,
                    self.wall_time
                ));
            }
        }
        // Running-thread count must never exceed the CPU count; track by
        // replaying transitions.
        let mut running: BTreeMap<ThreadId, bool> = BTreeMap::new();
        for tr in &self.transitions {
            running.insert(tr.thread, tr.state.is_running());
            let n = running.values().filter(|r| **r).count() as u32;
            if n > self.cpus {
                return Err(format!("{n} threads running on {} CPUs at {}", self.cpus, tr.time));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_2cpu() -> ExecutionTrace {
        let t = |us| Time::from_micros(us);
        ExecutionTrace {
            program: "toy".into(),
            cpus: 2,
            wall_time: t(100),
            transitions: vec![
                Transition {
                    time: t(0),
                    thread: ThreadId(1),
                    state: ThreadState::Running { cpu: CpuId(0), lwp: LwpId(0) },
                },
                Transition { time: t(10), thread: ThreadId(4), state: ThreadState::Runnable },
                Transition {
                    time: t(20),
                    thread: ThreadId(4),
                    state: ThreadState::Running { cpu: CpuId(1), lwp: LwpId(1) },
                },
                Transition { time: t(50), thread: ThreadId(4), state: ThreadState::Exited },
                Transition { time: t(100), thread: ThreadId(1), state: ThreadState::Exited },
            ],
            events: vec![],
            threads: BTreeMap::new(),
            source_map: SourceMap::new(),
        }
    }

    #[test]
    fn parallelism_counts() {
        let tr = trace_2cpu();
        assert_eq!(tr.parallelism_at(Time::from_micros(5)), (1, 0));
        assert_eq!(tr.parallelism_at(Time::from_micros(15)), (1, 1));
        assert_eq!(tr.parallelism_at(Time::from_micros(30)), (2, 0));
        assert_eq!(tr.parallelism_at(Time::from_micros(60)), (1, 0));
    }

    #[test]
    fn invariants_hold_for_wellformed() {
        assert_eq!(trace_2cpu().check_invariants(), Ok(()));
    }

    #[test]
    fn invariants_catch_oversubscription() {
        let mut tr = trace_2cpu();
        tr.cpus = 1;
        assert!(tr.check_invariants().is_err());
    }

    #[test]
    fn invariants_catch_unsorted_transitions() {
        let mut tr = trace_2cpu();
        tr.transitions.swap(0, 4);
        assert!(tr.check_invariants().is_err());
    }

    #[test]
    fn thread_info_total_time() {
        let info = ThreadInfo {
            start_fn: "f".into(),
            started: Time::from_micros(10),
            ended: Time::from_micros(35),
            cpu_time: Duration::from_micros(20),
        };
        assert_eq!(info.total_time(), Duration::from_micros(25));
    }
}
