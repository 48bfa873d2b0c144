//! The conservation-law auditor under test, from both sides:
//!
//! * **Property**: for randomly generated well-formed programs the audit
//!   on every run must come back clean (the engine keeps its books).
//! * **Mutation**: with a fault injected into the engine (a leaked mutex
//!   unlock, a double-charged CPU) the audit must *fail* — proving the
//!   checks can actually catch the corruption they claim to.

use proptest::prelude::*;
use vppb_machine::{run, FaultInjection, MetricsObserver, NullHooks, RunOptions};
use vppb_model::ViolationKind;
use vppb_threads::{App, AppBuilder};

use vppb_testkit::cfg;

/// Fork-join workers hammering one mutex and signalling a semaphore —
/// enough traffic to exercise every audit check.
fn contended_app(workers: u64, iters: u64) -> App {
    let mut b = AppBuilder::new("audit", "audit.c");
    let m = b.mutex();
    let items = b.semaphore(0);
    let w = b.func("worker", move |f| {
        f.loop_n(iters, |f| {
            f.work_us(120);
            f.lock(m);
            f.work_us(15);
            f.unlock(m);
            f.sem_post(items);
        });
    });
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(workers, |f| f.create_into(w, s));
        f.loop_n(workers * iters, |f| f.sem_wait(items));
        f.loop_n(workers, |f| f.join(s));
    });
    b.build().unwrap()
}

/// Main takes one uncontended lock — the leak target. No second thread
/// ever waits on it, so leaking the unlock cannot deadlock the run.
fn uncontended_lock_app() -> App {
    let mut b = AppBuilder::new("leak", "leak.c");
    let m = b.mutex();
    b.main(move |f| {
        f.lock(m);
        f.work_us(50);
        f.unlock(m);
        f.work_us(50);
    });
    b.build().unwrap()
}

#[test]
fn clean_run_audits_clean_with_faults_off() {
    let mut hooks = NullHooks;
    let opts = RunOptions { faults: FaultInjection::none(), ..RunOptions::new(&mut hooks) };
    let r = run(&contended_app(4, 10), &cfg(2), opts).unwrap();
    assert!(r.audit.is_clean(), "{}", r.audit.render());
    assert!(r.audit.checks > 0);
}

#[test]
fn leaked_mutex_unlock_is_caught_as_lock_held_at_exit() {
    let mut hooks = NullHooks;
    let opts = RunOptions {
        faults: FaultInjection { leak_mutex: Some(0), ..FaultInjection::none() },
        ..RunOptions::new(&mut hooks)
    };
    let r = run(&uncontended_lock_app(), &cfg(1), opts).unwrap();
    assert!(!r.audit.is_clean(), "audit missed the leaked unlock");
    assert!(
        r.audit.violations.iter().any(|v| v.law == ViolationKind::LockHeldAtExit),
        "wrong law: {}",
        r.audit.render()
    );
}

/// Main takes one uncontended read lock — the leak target for the
/// rwlock-lifecycle law. Nobody else touches the lock, so leaking the
/// reader's unlock cannot deadlock the run.
fn uncontended_read_app() -> App {
    let mut b = AppBuilder::new("rw-leak", "rw_leak.c");
    let rw = b.rwlock();
    b.main(move |f| {
        f.rd_lock(rw);
        f.work_us(50);
        f.rw_unlock(rw);
        f.work_us(50);
    });
    b.build().unwrap()
}

/// Three workers meeting at a barrier once, then finishing. The barrier
/// trip is where the skipped-waker fault strikes.
fn barrier_app(parties: u64) -> App {
    let mut b = AppBuilder::new("barrier", "barrier.c");
    let bar = b.barrier(parties as u32);
    let w = b.func("worker", move |f| {
        f.work_us(80);
        f.barrier_wait(bar);
        f.work_us(40);
    });
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(parties, |f| f.create_into(w, s));
        f.loop_n(parties, |f| f.join(s));
    });
    b.build().unwrap()
}

#[test]
fn leaked_read_guard_is_caught_as_lock_held_at_exit() {
    let mut hooks = NullHooks;
    let opts = RunOptions {
        faults: FaultInjection { leak_rw_reader: Some(0), ..FaultInjection::none() },
        ..RunOptions::new(&mut hooks)
    };
    let r = run(&uncontended_read_app(), &cfg(1), opts).unwrap();
    assert!(!r.audit.is_clean(), "audit missed the leaked read guard");
    assert!(
        r.audit.violations.iter().any(|v| v.law == ViolationKind::LockHeldAtExit),
        "wrong law: {}",
        r.audit.render()
    );
}

#[test]
fn skipped_barrier_waker_is_caught_by_queue_and_generation_laws() {
    let mut hooks = NullHooks;
    let opts = RunOptions {
        faults: FaultInjection { skip_barrier_waker: Some(0), ..FaultInjection::none() },
        ..RunOptions::new(&mut hooks)
    };
    let r = run(&barrier_app(3), &cfg(2), opts).unwrap();
    assert!(!r.audit.is_clean(), "audit missed the skipped barrier waker");
    let laws: Vec<_> = r.audit.violations.iter().map(|v| v.law).collect();
    assert!(
        laws.contains(&ViolationKind::WaitQueueNotEmpty),
        "stale queue entry not flagged: {}",
        r.audit.render()
    );
    assert!(
        laws.contains(&ViolationKind::BarrierGenerationLaw),
        "generation ledger not flagged: {}",
        r.audit.render()
    );
}

#[test]
fn double_charged_cpu_is_caught_as_time_imbalance() {
    let mut hooks = NullHooks;
    let opts = RunOptions {
        faults: FaultInjection { double_charge_cpu: Some(0), ..FaultInjection::none() },
        ..RunOptions::new(&mut hooks)
    };
    let r = run(&contended_app(3, 5), &cfg(2), opts).unwrap();
    assert!(!r.audit.is_clean(), "audit missed the double charge");
    assert!(
        r.audit.violations.iter().any(|v| v.law == ViolationKind::CpuTimeImbalance),
        "wrong law: {}",
        r.audit.render()
    );
}

#[test]
fn observer_metrics_and_trace_agree_with_the_run() {
    let mut metrics = MetricsObserver::new();
    let mut hooks = NullHooks;
    let opts = RunOptions { observer: Some(&mut metrics), ..RunOptions::new(&mut hooks) };
    let r = run(&contended_app(4, 10), &cfg(2), opts).unwrap();
    metrics.finish(&r);
    let m = metrics.into_metrics();
    assert!(m.dispatches > 0);
    assert_eq!(m.blocks, m.wakeups, "every block must be woken in a completed run");
    assert_eq!(m.wall_ns, r.wall_time.nanos());
    assert_eq!(m.n_threads, r.n_threads);
    let hot = m.hottest_object().expect("mutex traffic was recorded");
    assert!(hot.blocks > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DESIGN.md §6: every well-formed program, on any CPU count, must
    /// produce a clean audit — locks released, CPU time conserved, no
    /// oversubscription, lifecycles closed.
    #[test]
    fn random_programs_always_audit_clean(
        workers in 1u64..6,
        iters in 1u64..8,
        cpus in 1u32..5,
    ) {
        let mut hooks = NullHooks;
        let opts = RunOptions::new(&mut hooks);
        let r = run(&contended_app(workers, iters), &cfg(cpus), opts).unwrap();
        prop_assert!(r.audit.is_clean(), "{}", r.audit.render());
        prop_assert!(r.audit.checks > 0);
    }
}
