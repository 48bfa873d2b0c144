//! End-of-run conservation-law auditor (DESIGN.md §6).
//!
//! The engine summarizes its final state into an [`AuditInput`] and this
//! module checks the invariants every sound run must satisfy: all locks
//! released and sleep queues drained, CPU busy time exactly accounted to
//! threads, makespan bounds respected, no CPU ever double-booked, and
//! consistent per-thread lifecycles. The checks run on *every* engine run
//! — they are cheap relative to the simulation itself — so any accounting
//! bug in the engine or a replay rule surfaces as a structured
//! [`AuditReport`] violation rather than a silently wrong prediction.
//! The CPU-occupancy law needs the whole state timeline, so it is checked
//! online ([`OccupancyCheck`]) as the engine makes each transition; a run
//! that records no trace is audited as completely as one that does.

use vppb_model::{
    AuditReport, CpuId, Duration, SyncObjId, ThreadId, Time, Violation, ViolationKind,
};

/// Final state of one thread, as the engine saw it.
#[derive(Debug, Clone)]
pub struct ThreadAudit {
    /// The thread.
    pub id: ThreadId,
    /// Total CPU time charged to it.
    pub cpu_time: Duration,
    /// When it first ran, if ever.
    pub started: Option<Time>,
    /// When it exited, if ever.
    pub ended: Option<Time>,
    /// The thread reached its exit (zombie or reaped).
    pub exited: bool,
}

/// Final state of one synchronization object.
#[derive(Debug, Clone)]
pub struct SyncAudit {
    /// The object.
    pub obj: SyncObjId,
    /// Threads still holding it (mutex owner, rwlock writer/readers).
    pub held_by: Vec<ThreadId>,
    /// Threads still parked on its sleep queue.
    pub queued: usize,
}

/// Final arrival ledger of one barrier.
#[derive(Debug, Clone)]
pub struct BarrierAudit {
    /// The barrier.
    pub obj: SyncObjId,
    /// Arrivals per generation.
    pub parties: u32,
    /// Completed generations (trips).
    pub generation: u64,
    /// Total arrivals across all generations.
    pub arrivals: u64,
    /// Threads still parked waiting for the next trip.
    pub queued: usize,
}

/// Everything the auditor looks at.
///
/// Public so the executable-specification oracle in `vppb-oracle` audits
/// its runs through the very same checker — the auditor verifies
/// bookkeeping, not scheduling decisions, so sharing it does not weaken
/// the differential comparison.
pub struct AuditInput<'a> {
    /// Wall-clock time of the finished run.
    pub wall: Time,
    /// Busy time per CPU.
    pub cpu_busy: &'a [Duration],
    /// Final state of every thread.
    pub threads: &'a [ThreadAudit],
    /// Final state of every synchronization object.
    pub sync: &'a [SyncAudit],
    /// Arrival ledgers of every barrier (their wait queues also appear in
    /// `sync`; this adds the generation-count law).
    pub barriers: &'a [BarrierAudit],
    /// Threads/LWPs still sitting on a run queue after the last exit.
    pub runnable_left: usize,
    /// Threads still blocked in `thr_join`.
    pub joiners_left: usize,
    /// The online CPU-occupancy checker, fed every transition of the run.
    pub occupancy: &'a OccupancyCheck,
}

/// Evaluate every conservation law against the run's final state.
pub fn run_audit(input: &AuditInput<'_>) -> AuditReport {
    let mut report = AuditReport::default();

    check_sync_objects(input, &mut report);
    check_barrier_ledgers(input, &mut report);
    check_cpu_time_conservation(input, &mut report);
    check_makespan_bounds(input, &mut report);
    check_lifecycles(input, &mut report);
    check_cpu_occupancy(input.occupancy, &mut report);

    report
}

fn violation(report: &mut AuditReport, law: ViolationKind, detail: String) {
    report.violations.push(Violation { law, detail });
}

/// Law 1: every lock acquired during the run was released, and nobody is
/// left sleeping anywhere once the last thread has exited.
fn check_sync_objects(input: &AuditInput<'_>, report: &mut AuditReport) {
    for s in input.sync {
        report.checks += 2;
        if !s.held_by.is_empty() {
            let holders: Vec<String> = s.held_by.iter().map(|t| t.to_string()).collect();
            violation(
                report,
                ViolationKind::LockHeldAtExit,
                format!("{} still held by {} after the run", s.obj, holders.join(", ")),
            );
        }
        if s.queued > 0 {
            violation(
                report,
                ViolationKind::WaitQueueNotEmpty,
                format!("{} sleep queue still holds {} waiter(s)", s.obj, s.queued),
            );
        }
    }
    report.checks += 1;
    if input.joiners_left > 0 {
        violation(
            report,
            ViolationKind::WaitQueueNotEmpty,
            format!("{} thread(s) still blocked in thr_join", input.joiners_left),
        );
    }
}

/// Law 1b: every barrier's arrival ledger balances — each completed
/// generation consumed exactly `parties` arrivals and every other arrival
/// is still queued: `generation x parties + queued == arrivals`.
fn check_barrier_ledgers(input: &AuditInput<'_>, report: &mut AuditReport) {
    for b in input.barriers {
        report.checks += 1;
        let accounted = b.generation * u64::from(b.parties) + b.queued as u64;
        if accounted != b.arrivals {
            violation(
                report,
                ViolationKind::BarrierGenerationLaw,
                format!(
                    "{}: {} generation(s) x {} parties + {} queued accounts for {accounted} \
                     arrival(s) but {} arrived",
                    b.obj, b.generation, b.parties, b.queued, b.arrivals
                ),
            );
        }
    }
}

/// Law 2: CPU busy time and thread run time are two views of the same
/// quantity — every busy nanosecond was charged to exactly one thread.
fn check_cpu_time_conservation(input: &AuditInput<'_>, report: &mut AuditReport) {
    report.checks += 1;
    let busy: u64 = input.cpu_busy.iter().map(|d| d.nanos()).sum();
    let run: u64 = input.threads.iter().map(|t| t.cpu_time.nanos()).sum();
    if busy != run {
        violation(
            report,
            ViolationKind::CpuTimeImbalance,
            format!("sum of CPU busy time is {busy} ns but threads were charged {run} ns"),
        );
    }
}

/// Law 3: no CPU is busier than the wall clock, and total CPU time cannot
/// exceed `wall x n_cpus` (the paper's upper bound on useful parallelism).
fn check_makespan_bounds(input: &AuditInput<'_>, report: &mut AuditReport) {
    let wall = input.wall.nanos();
    for (c, busy) in input.cpu_busy.iter().enumerate() {
        report.checks += 1;
        if busy.nanos() > wall {
            violation(
                report,
                ViolationKind::MakespanBound,
                format!("CPU{c} busy {} ns exceeds wall time {wall} ns", busy.nanos()),
            );
        }
    }
    report.checks += 1;
    let total: u64 = input.cpu_busy.iter().map(|d| d.nanos()).sum();
    let bound = wall.saturating_mul(input.cpu_busy.len() as u64);
    if total > bound {
        violation(
            report,
            ViolationKind::MakespanBound,
            format!("total busy time {total} ns exceeds wall x n_cpus = {bound} ns",),
        );
    }
}

/// Law 4: every thread's lifecycle is closed and consistent — it started
/// before it ended, ended within the run, exited, and only charged CPU
/// time if it ever ran. No runnable work may be left behind.
fn check_lifecycles(input: &AuditInput<'_>, report: &mut AuditReport) {
    for t in input.threads {
        report.checks += 1;
        let problem = if !t.exited {
            Some("never exited".to_string())
        } else {
            match (t.started, t.ended) {
                (None, _) if !t.cpu_time.is_zero() => {
                    Some(format!("charged {} ns without ever starting", t.cpu_time.nanos()))
                }
                (None, Some(_)) => Some("ended without starting".to_string()),
                (Some(s), Some(e)) if e < s => Some(format!("ended at {e} before starting at {s}")),
                (Some(_), Some(e)) if e > input.wall => {
                    Some(format!("ended at {e}, after the run's wall time {}", input.wall))
                }
                (Some(_), None) => Some("started but never ended".to_string()),
                _ => None,
            }
        };
        if let Some(p) = problem {
            violation(report, ViolationKind::LifecycleIncomplete, format!("{}: {p}", t.id));
        }
    }
    report.checks += 1;
    if input.runnable_left > 0 {
        violation(
            report,
            ViolationKind::LifecycleIncomplete,
            format!(
                "{} runnable item(s) left on run queues after the last exit",
                input.runnable_left
            ),
        );
    }
}

/// Law 5: mutual exclusion of CPUs — at no instant do two threads run on
/// one CPU, or one thread on two CPUs. The verdict is whatever the online
/// checker saw over the run's whole timeline.
fn check_cpu_occupancy(occupancy: &OccupancyCheck, report: &mut AuditReport) {
    report.checks += 1;
    report.violations.extend(occupancy.violations.iter().cloned());
}

/// Law 5, checked online: fed each state transition as it is made, it
/// tracks which thread occupies which CPU and records a violation the
/// moment a thread is dispatched onto a CPU another thread still runs on.
/// Transitions at equal timestamps must arrive in causal order, so the
/// checker sees every intermediate occupancy state.
///
/// The engine and the oracle feed one on every run, traced or not, and a
/// paused engine carries its checker in the snapshot.
#[derive(Debug, Clone, Default)]
pub struct OccupancyCheck {
    // Flat tables indexed by cpu / thread id: this runs on every state
    // change, so it must stay a few ns per transition. Ids are small and
    // dense; grow on demand.
    on_cpu: Vec<Option<ThreadId>>,
    cpu_of: Vec<Option<u32>>,
    violations: Vec<Violation>,
}

impl OccupancyCheck {
    /// `thread` changed state at `time`: it now runs on `cpu`, or on no
    /// CPU at all. Whatever the new state is, the thread first leaves the
    /// CPU it ran on.
    #[inline]
    pub fn transition(&mut self, time: Time, thread: ThreadId, cpu: Option<CpuId>) {
        let tix = thread.0 as usize;
        if tix >= self.cpu_of.len() {
            self.cpu_of.resize(tix + 1, None);
        }
        if let Some(c) = self.cpu_of[tix].take() {
            self.on_cpu[c as usize] = None;
        }
        let Some(cpu) = cpu else { return };
        let cix = cpu.0 as usize;
        if cix >= self.on_cpu.len() {
            self.on_cpu.resize(cix + 1, None);
        }
        if let Some(other) = self.on_cpu[cix] {
            self.oversubscribed(time, thread, cpu, other);
        }
        self.on_cpu[cix] = Some(thread);
        self.cpu_of[tix] = Some(cpu.0);
    }

    #[cold]
    fn oversubscribed(&mut self, time: Time, thread: ThreadId, cpu: CpuId, other: ThreadId) {
        self.violations.push(Violation {
            law: ViolationKind::CpuOversubscribed,
            detail: format!(
                "at t={time}: {thread} dispatched onto {cpu} while {other} still runs there"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vppb_model::{LwpId, ThreadState, Transition};

    /// A checker that saw no transition.
    static NO_TRANSITIONS: OccupancyCheck =
        OccupancyCheck { on_cpu: Vec::new(), cpu_of: Vec::new(), violations: Vec::new() };

    /// Feed a recorded timeline to the checker, one transition at a time.
    fn feed(check: &mut OccupancyCheck, timeline: &[Transition]) {
        for tr in timeline {
            let cpu = match tr.state {
                ThreadState::Running { cpu, .. } => Some(cpu),
                _ => None,
            };
            check.transition(tr.time, tr.thread, cpu);
        }
    }

    fn running(t: u64, th: u32) -> Transition {
        Transition {
            time: Time(t),
            thread: ThreadId(th),
            state: ThreadState::Running { cpu: CpuId(0), lwp: LwpId(0) },
        }
    }

    fn clean_thread(id: u32, cpu_ns: u64, wall: u64) -> ThreadAudit {
        ThreadAudit {
            id: ThreadId(id),
            cpu_time: Duration(cpu_ns),
            started: Some(Time(0)),
            ended: Some(Time(wall)),
            exited: true,
        }
    }

    fn base_input<'a>(
        cpu_busy: &'a [Duration],
        threads: &'a [ThreadAudit],
        sync: &'a [SyncAudit],
    ) -> AuditInput<'a> {
        AuditInput {
            wall: Time(100),
            cpu_busy,
            threads,
            sync,
            barriers: &[],
            runnable_left: 0,
            joiners_left: 0,
            occupancy: &NO_TRANSITIONS,
        }
    }

    #[test]
    fn barrier_ledger_must_balance() {
        let busy = [Duration(10)];
        let threads = [clean_thread(1, 10, 100)];
        let bad = BarrierAudit {
            obj: SyncObjId::barrier(0),
            parties: 3,
            generation: 2,
            arrivals: 7, // 2x3 + 0 queued = 6 accounted, 7 arrived
            queued: 0,
        };
        let mut input = base_input(&busy, &threads, &[]);
        let barriers = [bad];
        input.barriers = &barriers;
        let report = run_audit(&input);
        assert!(report.violations.iter().any(|v| v.law == ViolationKind::BarrierGenerationLaw));

        let good = BarrierAudit { arrivals: 8, queued: 2, ..barriers[0].clone() };
        let barriers = [good];
        let mut input = base_input(&busy, &threads, &[]);
        input.barriers = &barriers;
        assert!(run_audit(&input).is_clean());
    }

    #[test]
    fn clean_run_audits_clean() {
        let busy = [Duration(60), Duration(40)];
        let threads = [clean_thread(1, 70, 100), clean_thread(4, 30, 100)];
        let report = run_audit(&base_input(&busy, &threads, &[]));
        assert!(report.is_clean(), "unexpected violations: {}", report.render());
        assert!(report.checks >= 4);
    }

    #[test]
    fn held_lock_and_queued_waiter_are_caught() {
        let busy = [Duration(10)];
        let threads = [clean_thread(1, 10, 100)];
        let sync = [SyncAudit { obj: SyncObjId::mutex(0), held_by: vec![ThreadId(1)], queued: 2 }];
        let report = run_audit(&base_input(&busy, &threads, &sync));
        let laws: Vec<ViolationKind> = report.violations.iter().map(|v| v.law).collect();
        assert!(laws.contains(&ViolationKind::LockHeldAtExit));
        assert!(laws.contains(&ViolationKind::WaitQueueNotEmpty));
    }

    #[test]
    fn busy_time_must_match_thread_time() {
        let busy = [Duration(50)];
        let threads = [clean_thread(1, 49, 100)];
        let report = run_audit(&base_input(&busy, &threads, &[]));
        assert!(report.violations.iter().any(|v| v.law == ViolationKind::CpuTimeImbalance));
    }

    #[test]
    fn cpu_busier_than_wall_breaks_makespan() {
        let busy = [Duration(150)];
        let threads = [clean_thread(1, 150, 100)];
        let report = run_audit(&base_input(&busy, &threads, &[]));
        assert!(report.violations.iter().any(|v| v.law == ViolationKind::MakespanBound));
    }

    #[test]
    fn incomplete_lifecycle_is_caught() {
        let busy = [Duration(10)];
        let mut t = clean_thread(1, 10, 100);
        t.exited = false;
        let report = run_audit(&base_input(&busy, &[t], &[]));
        assert!(report.violations.iter().any(|v| v.law == ViolationKind::LifecycleIncomplete));
    }

    #[test]
    fn oversubscribed_cpu_is_caught_online() {
        let busy = [Duration(20)];
        let threads = [clean_thread(1, 10, 100), clean_thread(4, 10, 100)];
        let mut check = OccupancyCheck::default();
        check.transition(Time(0), ThreadId(1), Some(CpuId(0)));
        assert!(check.violations.is_empty(), "one thread on CPU0 is fine");
        // T4 lands on CPU0 while T1 runs: caught as it happens.
        check.transition(Time(5), ThreadId(4), Some(CpuId(0)));
        assert_eq!(check.violations.len(), 1);
        let mut input = base_input(&busy, &threads, &[]);
        input.occupancy = &check;
        let report = run_audit(&input);
        let laws: Vec<ViolationKind> = report.violations.iter().map(|v| v.law).collect();
        assert_eq!(laws, [ViolationKind::CpuOversubscribed]);
        assert_eq!(
            report.violations[0].detail,
            "at t=0.000000: T4 dispatched onto CPU0 while T1 still runs there"
        );
    }

    #[test]
    fn checker_cloned_mid_timeline_reports_what_the_whole_feed_does() {
        let timeline = [
            running(0, 1),
            Transition { time: Time(3), thread: ThreadId(1), state: ThreadState::Runnable },
            running(3, 2),
            running(7, 4), // T4 lands on CPU0 while T2 runs
            running(9, 1), // and T1 while T4 runs
        ];
        let mut whole = OccupancyCheck::default();
        feed(&mut whole, &timeline);
        assert_eq!(whole.violations.len(), 2, "{:?}", whole.violations);
        for cut in 0..=timeline.len() {
            let mut head = OccupancyCheck::default();
            feed(&mut head, &timeline[..cut]);
            let mut resumed = head.clone();
            feed(&mut resumed, &timeline[cut..]);
            assert_eq!(resumed.violations, whole.violations, "cut at {cut}");
        }
    }

    #[test]
    fn clean_timeline_passes_occupancy() {
        let busy = [Duration(20)];
        let threads = [clean_thread(1, 10, 100), clean_thread(4, 10, 100)];
        let mut check = OccupancyCheck::default();
        feed(
            &mut check,
            &[
                running(0, 1),
                Transition { time: Time(5), thread: ThreadId(1), state: ThreadState::Runnable },
                running(5, 4),
            ],
        );
        let mut input = base_input(&busy, &threads, &[]);
        input.occupancy = &check;
        let report = run_audit(&input);
        assert!(report.is_clean(), "unexpected violations: {}", report.render());
    }
}
