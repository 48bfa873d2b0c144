//! Structured scheduling observability.
//!
//! The engine reports every scheduling decision — dispatches, preemptions,
//! migrations, sleep-queue traffic, priority aging — to an optional
//! [`SchedObserver`]. With no observer attached the engine pays nothing:
//! every emission site is guarded by an `Option` check and the event value
//! is never built.
//!
//! Two ready-made observers cover the common uses: [`MetricsObserver`]
//! aggregates a serializable [`SchedMetrics`], and [`StepRecorder`] keeps
//! the complete decision stream for differential testing.

use crate::result::RunResult;
use std::collections::BTreeMap;
use vppb_model::{
    BlockReason, CpuId, LwpId, ObjContention, SchedMetrics, SyncObjId, ThreadId, Time,
};

/// One scheduling decision, as reported to observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// A thread was granted a CPU. The flags say which context-switch
    /// costs the grant charged.
    Dispatch {
        /// The CPU granted.
        cpu: CpuId,
        /// The LWP carrying the thread.
        lwp: LwpId,
        /// The thread now running.
        thread: ThreadId,
        /// A user-level thread switch was charged.
        uthread_switch: bool,
        /// A kernel LWP switch was charged.
        lwp_switch: bool,
        /// The thread moved between CPUs (cache-refill penalty charged).
        migrated: bool,
    },
    /// A running LWP was kicked off its CPU by a higher-priority one.
    Preempt {
        /// The CPU being vacated.
        cpu: CpuId,
        /// The preempted LWP.
        lwp: LwpId,
        /// The thread it was running.
        thread: ThreadId,
    },
    /// An LWP joined the kernel run queue.
    KernelEnqueue {
        /// The queued LWP.
        lwp: LwpId,
        /// Its priority class.
        prio: i32,
        /// Total LWPs queued after the insert.
        depth: u32,
    },
    /// An unbound thread joined the user-level run queue.
    UserEnqueue {
        /// The queued thread.
        thread: ThreadId,
        /// Its user priority.
        prio: i32,
        /// Total threads queued after the insert.
        depth: u32,
    },
    /// A thread went to sleep.
    Block {
        /// The sleeping thread.
        thread: ThreadId,
        /// Why it sleeps.
        reason: BlockReason,
        /// Waiters on the object's sleep queue after the insert
        /// (0 for non-object reasons such as timers).
        queue_depth: u32,
    },
    /// A wakeup was delivered to a blocked thread.
    Wakeup {
        /// The thread made runnable.
        thread: ThreadId,
    },
    /// An LWP's priority aged at quantum expiry.
    Age {
        /// The aged LWP.
        lwp: LwpId,
        /// Priority before.
        from_prio: i32,
        /// Priority after.
        to_prio: i32,
    },
}

/// Receives every scheduling decision of a run, in virtual-time order.
pub trait SchedObserver {
    /// Called at each scheduling decision.
    fn on_sched(&mut self, now: Time, ev: &SchedEvent);
}

/// Aggregates [`SchedMetrics`] from the event stream.
#[derive(Debug, Default)]
pub struct MetricsObserver {
    m: SchedMetrics,
    contention: BTreeMap<SyncObjId, (u64, u32)>,
}

impl MetricsObserver {
    /// A fresh, zeroed observer.
    pub fn new() -> MetricsObserver {
        MetricsObserver::default()
    }

    /// Copy the run-level numbers (wall time, busy/idle, DES events) out
    /// of a finished run. Call once, after the run.
    pub fn finish(&mut self, result: &RunResult) {
        self.m.wall_ns = result.wall_time.nanos();
        self.m.total_cpu_ns = result.total_cpu_time.nanos();
        self.m.des_events = result.des_events;
        self.m.n_threads = result.n_threads;
        self.m.cpu_busy_ns = result.cpu_busy.iter().map(|d| d.nanos()).collect();
        self.m.cpu_idle_ns = result
            .cpu_busy
            .iter()
            .map(|d| result.wall_time.nanos().saturating_sub(d.nanos()))
            .collect();
    }

    /// The aggregated metrics.
    pub fn into_metrics(mut self) -> SchedMetrics {
        self.m.contention = self
            .contention
            .into_iter()
            .map(|(obj, (blocks, max_queue))| ObjContention { obj, blocks, max_queue })
            .collect();
        self.m
    }
}

impl SchedObserver for MetricsObserver {
    fn on_sched(&mut self, _now: Time, ev: &SchedEvent) {
        match *ev {
            SchedEvent::Dispatch { uthread_switch, lwp_switch, migrated, .. } => {
                self.m.dispatches += 1;
                self.m.uthread_switches += uthread_switch as u64;
                self.m.lwp_switches += lwp_switch as u64;
                self.m.migrations += migrated as u64;
            }
            SchedEvent::Preempt { .. } => self.m.preemptions += 1,
            SchedEvent::KernelEnqueue { depth, .. } => {
                self.m.max_kernel_rq_depth = self.m.max_kernel_rq_depth.max(depth);
            }
            SchedEvent::UserEnqueue { depth, .. } => {
                self.m.max_user_rq_depth = self.m.max_user_rq_depth.max(depth);
            }
            SchedEvent::Block { reason, queue_depth, .. } => {
                self.m.blocks += 1;
                if let BlockReason::Sync(obj) = reason {
                    let e = self.contention.entry(obj).or_insert((0, 0));
                    e.0 += 1;
                    e.1 = e.1.max(queue_depth);
                }
            }
            SchedEvent::Wakeup { .. } => self.m.wakeups += 1,
            SchedEvent::Age { .. } => self.m.agings += 1,
        }
    }
}

/// Records the *complete* scheduling-decision stream of a run, unabridged.
///
/// This is the capture side of differential testing: two runs whose
/// recorded streams compare equal made bit-identical scheduling decisions
/// at bit-identical virtual times. Nothing is ever dropped, so the
/// recorder is only appropriate for bounded test programs.
#[derive(Debug, Default)]
pub struct StepRecorder {
    steps: Vec<(Time, SchedEvent)>,
}

impl StepRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> StepRecorder {
        StepRecorder::default()
    }

    /// The recorded decisions, in virtual-time order.
    pub fn steps(&self) -> &[(Time, SchedEvent)] {
        &self.steps
    }

    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Consume the recorder, yielding the owned stream.
    pub fn into_steps(self) -> Vec<(Time, SchedEvent)> {
        self.steps
    }
}

impl SchedObserver for StepRecorder {
    fn on_sched(&mut self, now: Time, ev: &SchedEvent) {
        self.steps.push((now, *ev));
    }
}

/// The first point at which two scheduling-decision streams disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepDivergence {
    /// Index into both streams of the first disagreeing step.
    pub index: usize,
    /// The left stream's step at that index (`None` if it ended early).
    pub left: Option<(Time, SchedEvent)>,
    /// The right stream's step at that index (`None` if it ended early).
    pub right: Option<(Time, SchedEvent)>,
}

impl std::fmt::Display for StepDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "first divergent scheduling decision at step {}:", self.index)?;
        match &self.left {
            Some((t, ev)) => writeln!(f, "  left : [{t}] {ev:?}")?,
            None => writeln!(f, "  left : <stream ended>")?,
        }
        match &self.right {
            Some((t, ev)) => write!(f, "  right: [{t}] {ev:?}"),
            None => write!(f, "  right: <stream ended>"),
        }
    }
}

/// Compare two decision streams step by step and report the first
/// disagreement, or `None` if they are identical (same length, same
/// decisions, same times).
pub fn first_divergence(
    a: &[(Time, SchedEvent)],
    b: &[(Time, SchedEvent)],
) -> Option<StepDivergence> {
    let n = a.len().max(b.len());
    for i in 0..n {
        let (l, r) = (a.get(i).copied(), b.get(i).copied());
        if l != r {
            return Some(StepDivergence { index: i, left: l, right: r });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dispatch(th: u32) -> SchedEvent {
        SchedEvent::Dispatch {
            cpu: CpuId(0),
            lwp: LwpId(0),
            thread: ThreadId(th),
            uthread_switch: true,
            lwp_switch: false,
            migrated: th.is_multiple_of(2),
        }
    }

    #[test]
    fn metrics_observer_counts() {
        let mut o = MetricsObserver::new();
        o.on_sched(Time(1), &dispatch(1));
        o.on_sched(Time(2), &dispatch(2));
        o.on_sched(
            Time(3),
            &SchedEvent::Block {
                thread: ThreadId(1),
                reason: BlockReason::Sync(SyncObjId::mutex(0)),
                queue_depth: 3,
            },
        );
        o.on_sched(Time(4), &SchedEvent::Wakeup { thread: ThreadId(1) });
        let m = o.into_metrics();
        assert_eq!(m.dispatches, 2);
        assert_eq!(m.uthread_switches, 2);
        assert_eq!(m.migrations, 1);
        assert_eq!(m.blocks, 1);
        assert_eq!(m.wakeups, 1);
        assert_eq!(m.contention.len(), 1);
        assert_eq!(m.contention[0].max_queue, 3);
    }

    #[test]
    fn step_recorder_keeps_everything_and_diffs_pinpoint() {
        let mut a = StepRecorder::new();
        let mut b = StepRecorder::new();
        for i in 0..4 {
            a.on_sched(Time(i), &dispatch(i as u32));
            b.on_sched(Time(i), &dispatch(i as u32));
        }
        assert_eq!(a.len(), 4);
        assert!(first_divergence(a.steps(), b.steps()).is_none());

        // A differing step is found at its exact index...
        b.on_sched(Time(9), &SchedEvent::Wakeup { thread: ThreadId(7) });
        a.on_sched(Time(9), &SchedEvent::Wakeup { thread: ThreadId(8) });
        let d = first_divergence(a.steps(), b.steps()).expect("diverges");
        assert_eq!(d.index, 4);
        assert!(d.to_string().contains("step 4"));

        // ...and a truncated stream reports the missing side.
        let d = first_divergence(a.steps(), &a.steps()[..3]).expect("length mismatch");
        assert_eq!(d.index, 3);
        assert!(d.right.is_none());
        assert!(d.to_string().contains("<stream ended>"));
    }
}
