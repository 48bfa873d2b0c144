//! End-to-end tests of the machine engine: program semantics, two-level
//! scheduling, timing, and failure detection.

use vppb_machine::{run, JitterModel, NullHooks, RunLimits, RunOptions};
use vppb_model::{
    Binding, CpuId, Duration, LwpPolicy, MachineConfig, ThreadId, ThreadManip, Time, VppbError,
};
use vppb_threads::{op, Action, AppBuilder, BarrierDecl, Cmp, LibCall, ResumeCtx};

use vppb_testkit::fixtures::two_worker_app;
use vppb_testkit::{cfg, exact, go};

#[test]
fn single_thread_work_sets_wall_time() {
    let mut b = AppBuilder::new("seq", "seq.c");
    b.main(|f| f.work_ms(100));
    let app = b.build().unwrap();
    let r = go(&app, &exact(cfg(1)));
    assert_eq!(r.wall_time, Time::from_millis(100));
    assert_eq!(r.n_threads, 1);
    assert_eq!(r.total_cpu_time, Duration::from_millis(100));
}

#[test]
fn independent_workers_run_in_parallel_on_two_cpus() {
    let app = two_worker_app(300);
    let uni = go(&app, &exact(cfg(1)));
    let dual = go(&app, &exact(cfg(2)));
    // 600 ms of thread work on one CPU vs overlapped on two.
    assert_eq!(uni.wall_time, Time::from_millis(600));
    assert_eq!(dual.wall_time, Time::from_millis(300));
    let speedup = uni.wall_time.nanos() as f64 / dual.wall_time.nanos() as f64;
    assert!((speedup - 2.0).abs() < 1e-9);
}

#[test]
fn a_machine_past_the_bounds_is_an_invalid_config() {
    // 1025 CPUs would size per-CPU state, and a fixed pool of 1025 LWPs
    // would create them all, before a single event; both are refused
    // first, by `run` and `run_stream` alike.
    let app = two_worker_app(1);
    let too_many_cpus = cfg(MachineConfig::MAX_CPUS + 1);
    let too_many_lwps = cfg(2).with_lwps(LwpPolicy::Fixed(MachineConfig::MAX_LWPS + 1));
    for c in [too_many_cpus, too_many_lwps, cfg(0)] {
        let mut hooks = NullHooks;
        let err = run(&app, &c, RunOptions::new(&mut hooks)).unwrap_err();
        assert!(matches!(err, VppbError::InvalidConfig(_)), "{err}");
        let control = vppb_machine::StreamControl::default();
        let err = vppb_machine::run_stream(&app, &c, RunOptions::new(&mut hooks), control)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, VppbError::InvalidConfig(_)), "{err}");
    }
    go(&app, &cfg(MachineConfig::MAX_CPUS));
}

#[test]
fn three_cpus_do_not_help_two_threads() {
    let app = two_worker_app(100);
    let r2 = go(&app, &exact(cfg(2)));
    let r3 = go(&app, &exact(cfg(3)));
    assert_eq!(r2.wall_time, r3.wall_time);
}

#[test]
fn mutex_serializes_critical_sections() {
    let mut b = AppBuilder::new("mtx", "mtx.c");
    let m = b.mutex();
    let w = b.func("worker", move |f| {
        f.lock(m);
        f.work_ms(100);
        f.unlock(m);
    });
    b.main(move |f| {
        let a = f.create(w);
        let c2 = f.create(w);
        f.join(a);
        f.join(c2);
    });
    let app = b.build().unwrap();
    let r = go(&app, &exact(cfg(2)));
    // Both critical sections serialize even with two CPUs.
    assert_eq!(r.wall_time, Time::from_millis(200));
}

#[test]
fn unlock_hands_off_fifo() {
    // Three contenders; completion order must follow arrival order. We
    // detect it through per-thread end times.
    let mut b = AppBuilder::new("fifo", "fifo.c");
    let m = b.mutex();
    let w = b.func("worker", move |f| {
        f.lock(m);
        f.work_ms(10);
        f.unlock(m);
    });
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(3, |f| f.create_into(w, s));
        f.loop_n(3, |f| f.join(s));
    });
    let app = b.build().unwrap();
    let r = go(&app, &exact(cfg(4)));
    let e4 = r.trace.threads[&ThreadId(4)].ended;
    let e5 = r.trace.threads[&ThreadId(5)].ended;
    let e6 = r.trace.threads[&ThreadId(6)].ended;
    assert!(e4 < e5 && e5 < e6, "FIFO handoff: {e4} {e5} {e6}");
}

#[test]
fn semaphore_producer_consumer_completes() {
    let mut b = AppBuilder::new("pc", "pc.c");
    let items = b.semaphore(0);
    let producer = b.func("producer", move |f| {
        f.loop_n(5, |f| {
            f.work_us(10);
            f.sem_post(items);
        });
    });
    let consumer = b.func("consumer", move |f| {
        f.loop_n(5, |f| {
            f.sem_wait(items);
            f.work_us(10);
        });
    });
    b.main(move |f| {
        let p = f.create(producer);
        let c2 = f.create(consumer);
        f.join(p);
        f.join(c2);
    });
    let app = b.build().unwrap();
    let r = go(&app, &exact(cfg(2)));
    assert!(r.wall_time > Time::ZERO);
    assert_eq!(r.n_threads, 3);
}

#[test]
fn condvar_barrier_synchronizes_all_parties() {
    let mut b = AppBuilder::new("bar", "bar.c");
    let bar = BarrierDecl::declare(&mut b, 4);
    let w = b.func("worker", move |f| {
        f.work_ms(10);
        bar.wait(f);
        f.work_ms(10);
    });
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(3, |f| f.create_into(w, s));
        f.work_ms(50); // main arrives at the barrier last
        bar.wait(f);
        f.loop_n(3, |f| f.join(s));
    });
    let app = b.build().unwrap();
    let r = go(&app, &exact(cfg(4)));
    // Workers cannot pass the barrier before main arrives at 50ms; the
    // trailing 10ms puts their exits at >= 60ms.
    for t in [4u32, 5, 6] {
        let ended = r.trace.threads[&ThreadId(t)].ended;
        assert!(ended >= Time::from_millis(60), "T{t} passed the barrier early: ended at {ended}");
    }
}

#[test]
fn wildcard_join_reaps_any_exited_thread() {
    let mut b = AppBuilder::new("wild", "wild.c");
    let fast = b.func("fast", |f| f.work_ms(1));
    let slow = b.func("slow", |f| f.work_ms(50));
    b.main(move |f| {
        f.create_anon(slow);
        f.create_anon(fast);
        f.join_any();
        f.join_any();
    });
    let app = b.build().unwrap();
    let r = go(&app, &exact(cfg(3)));
    // Completes; the first wildcard join must have taken the fast thread
    // (wall time dominated by the slow one, not doubled).
    assert_eq!(r.wall_time, Time::from_millis(50));
}

#[test]
fn trylock_outcomes_follow_lock_state() {
    // A custom program records trylock outcomes through shared vars.
    let mut b = AppBuilder::new("try", "try.c");
    let m = b.mutex();
    let got1 = b.shared_var(-1);
    let got2 = b.shared_var(-1);
    let holder = b.func("holder", move |f| {
        f.lock(m);
        f.work_ms(20);
        f.unlock(m);
    });
    b.main(move |f| {
        let h = f.create(holder);
        f.work_ms(5); // holder owns the lock now
        let r1 = f.local();
        f.trylock(m); // fails
                      // Outcome of trylock is not directly observable in scripts; use
                      // a second trylock after the holder exits instead.
        f.join(h);
        f.trylock(m); // succeeds
        f.unlock(m);
        f.assign(r1, op::c(1));
        f.set_shared(got1, op::l(r1));
        f.set_shared(got2, op::c(1));
    });
    let app = b.build().unwrap();
    let r = go(&app, &exact(cfg(2)));
    assert!(r.wall_time >= Time::from_millis(20));
}

#[test]
fn cond_timedwait_times_out_without_signal() {
    let mut b = AppBuilder::new("tw", "tw.c");
    let m = b.mutex();
    let cv = b.condvar();
    b.main(move |f| {
        f.lock(m);
        f.cond_timedwait(cv, m, Duration::from_millis(25));
        f.unlock(m);
    });
    let app = b.build().unwrap();
    let r = go(&app, &exact(cfg(1)));
    assert_eq!(r.wall_time, Time::from_millis(25));
}

#[test]
fn cond_timedwait_wakes_early_on_signal() {
    let mut b = AppBuilder::new("tw2", "tw2.c");
    let m = b.mutex();
    let cv = b.condvar();
    let signaler = b.func("signaler", move |f| {
        f.work_ms(5);
        f.cond_signal(cv);
    });
    b.main(move |f| {
        let s = f.create(signaler);
        f.lock(m);
        f.cond_timedwait(cv, m, Duration::from_millis(100));
        f.unlock(m);
        f.join(s);
    });
    let app = b.build().unwrap();
    let r = go(&app, &exact(cfg(2)));
    assert!(r.wall_time < Time::from_millis(50), "woke at {}", r.wall_time);
}

#[test]
fn rwlock_readers_share_writer_excludes() {
    let mut b = AppBuilder::new("rw", "rw.c");
    let rw = b.rwlock();
    let reader = b.func("reader", move |f| {
        f.rd_lock(rw);
        f.work_ms(30);
        f.rw_unlock(rw);
    });
    let writer = b.func("writer", move |f| {
        f.wr_lock(rw);
        f.work_ms(30);
        f.rw_unlock(rw);
    });
    b.main(move |f| {
        let r1 = f.create(reader);
        let r2 = f.create(reader);
        f.join(r1);
        f.join(r2);
        let w1 = f.create(writer);
        let w2 = f.create(writer);
        f.join(w1);
        f.join(w2);
    });
    let app = b.build().unwrap();
    let r = go(&app, &exact(cfg(4)));
    // Readers overlap (30ms), writers serialize (60ms).
    assert_eq!(r.wall_time, Time::from_millis(90));
}

#[test]
fn deadlock_is_detected_and_reported() {
    let mut b = AppBuilder::new("dead", "dead.c");
    let m1 = b.mutex();
    let m2 = b.mutex();
    let w = b.func("w", move |f| {
        f.lock(m2);
        f.work_ms(10);
        f.lock(m1); // main holds m1 and waits for us -> deadlock
        f.unlock(m1);
        f.unlock(m2);
    });
    b.main(move |f| {
        f.lock(m1);
        let h = f.create(w);
        f.work_ms(10);
        f.lock(m2);
        f.unlock(m2);
        f.unlock(m1);
        f.join(h);
    });
    let app = b.build().unwrap();
    let mut hooks = NullHooks;
    let err = run(&app, &exact(cfg(2)), RunOptions::new(&mut hooks)).unwrap_err();
    match err {
        VppbError::ProgramError(msg) => assert!(msg.contains("deadlock"), "{msg}"),
        other => panic!("expected deadlock, got {other}"),
    }
}

#[test]
fn unlock_by_non_owner_is_a_program_error() {
    let mut b = AppBuilder::new("bad", "bad.c");
    let m = b.mutex();
    b.main(move |f| f.unlock(m));
    let app = b.build().unwrap();
    let mut hooks = NullHooks;
    let err = run(&app, &exact(cfg(1)), RunOptions::new(&mut hooks)).unwrap_err();
    assert!(matches!(err, VppbError::ProgramError(_)));
}

#[test]
fn pure_spin_loop_is_diagnosed_as_livelock() {
    let mut b = AppBuilder::new("spin", "spin.c");
    let flag = b.shared_var(0);
    b.main(move |f| {
        // while (flag == 0) {} — no work in the body.
        f.while_(op::s(flag), Cmp::Eq, op::c(0), |_| {});
    });
    let app = b.build().unwrap();
    let mut hooks = NullHooks;
    let err = run(&app, &exact(cfg(1)), RunOptions::new(&mut hooks)).unwrap_err();
    match err {
        VppbError::ProgramError(msg) => assert!(msg.contains("livelock"), "{msg}"),
        other => panic!("expected livelock, got {other}"),
    }
}

#[test]
fn spin_with_work_on_one_lwp_hits_time_limit() {
    // The Barnes/Raytrace failure mode from §4: a thread spins on a
    // variable that only another thread can set, but on one LWP the setter
    // never runs (no preemption before the limit on a run-to-block config).
    let mut b = AppBuilder::new("barnes", "barnes.c");
    let flag = b.shared_var(0);
    let setter = b.func("setter", move |f| {
        f.work_ms(1);
        f.set_shared(flag, op::c(1));
    });
    b.main(move |f| {
        f.create_anon(setter);
        f.while_(op::s(flag), Cmp::Eq, op::c(0), |f| f.work_us(1));
        f.join_any();
    });
    let app = b.build().unwrap();
    let mut c = exact(MachineConfig::uniprocessor_one_lwp());
    c.time_slicing = false; // a tight loop never yields its LWP
    let mut hooks = NullHooks;
    let opts = RunOptions {
        limits: RunLimits { max_des_events: 500_000, max_time: Time::from_secs_f64(3600.0) },
        ..RunOptions::new(&mut hooks)
    };
    let err = run(&app, &c, opts).unwrap_err();
    assert!(matches!(err, VppbError::ProgramError(_)));
}

#[test]
fn time_slicing_lets_spinner_and_setter_share_one_cpu() {
    // Same program as above, but with time slicing the setter eventually
    // runs and the spinner exits. Requires >= 2 LWPs on the single CPU.
    let mut b = AppBuilder::new("barnes2", "barnes2.c");
    let flag = b.shared_var(0);
    let setter = b.func("setter", move |f| {
        f.work_ms(1);
        f.set_shared(flag, op::c(1));
    });
    b.main(move |f| {
        f.create_anon(setter);
        f.while_(op::s(flag), Cmp::Eq, op::c(0), |f| f.work_us(100));
        f.join_any();
    });
    let app = b.build().unwrap();
    let c = exact(MachineConfig::default().with_cpus(1).with_lwps(LwpPolicy::PerThread));
    let r = go(&app, &c);
    // The spinner burns a whole quantum (>= 120ms at default priority)
    // before the setter gets on the CPU.
    assert!(r.wall_time >= Time::from_millis(100));
    assert!(r.wall_time < Time::from_secs_f64(2.0));
}

#[test]
fn single_lwp_serializes_even_on_many_cpus() {
    let app = two_worker_app(100);
    let c = exact(MachineConfig::default().with_cpus(8).with_lwps(LwpPolicy::Fixed(1)));
    let r = go(&app, &c);
    // One LWP: everything serializes despite 8 CPUs.
    assert_eq!(r.wall_time, Time::from_millis(200));
}

#[test]
fn setconcurrency_grows_the_lwp_pool() {
    let mut b = AppBuilder::new("conc", "conc.c");
    let w = b.func("w", |f| f.work_ms(100));
    b.main(move |f| {
        f.set_concurrency(3);
        let a = f.create(w);
        let c2 = f.create(w);
        f.join(a);
        f.join(c2);
    });
    let app = b.build().unwrap();
    let c = exact(MachineConfig::default().with_cpus(2).with_lwps(LwpPolicy::FollowProgram));
    let r = go(&app, &c);
    assert_eq!(r.wall_time, Time::from_millis(100), "3 LWPs let both workers overlap");
    // With the pool fixed at 1 the same program serializes.
    let c1 = exact(MachineConfig::default().with_cpus(2).with_lwps(LwpPolicy::Fixed(1)));
    let r1 = go(&app, &c1);
    assert_eq!(r1.wall_time, Time::from_millis(200));
}

#[test]
fn bound_threads_pay_higher_create_and_sync_costs() {
    let mk = |bound: bool| {
        let mut b = AppBuilder::new("cost", "cost.c");
        let m = b.mutex();
        let w = b.func("w", move |f| {
            f.loop_n(100, |f| {
                f.lock(m);
                f.unlock(m);
            });
        });
        b.main(move |f| {
            let s = f.slot();
            let site_slot = s;
            if bound {
                let h = f.create_bound(w);
                f.join(h);
            } else {
                f.create_into(w, site_slot);
                f.join(site_slot);
            }
        });
        b.build().unwrap()
    };
    let c = cfg(1); // default costs, sync_op = 2us
    let unbound = go(&mk(false), &c);
    let bound = go(&mk(true), &c);
    assert!(
        bound.wall_time > unbound.wall_time,
        "bound {} should exceed unbound {}",
        bound.wall_time,
        unbound.wall_time
    );
    // 200 sync ops * 2us * (5.9 - 1) = 1.96ms extra, plus 6.7x create.
    let extra = bound.wall_time - unbound.wall_time;
    assert!(extra >= Duration::from_micros(1900), "extra = {extra}");
}

#[test]
fn comm_delay_slows_cross_cpu_wakeups() {
    let mk = |delay_us: u64| {
        let mut b = AppBuilder::new("comm", "comm.c");
        let items = b.semaphore(0);
        let pinger = b.func("pinger", move |f| {
            f.loop_n(100, |f| {
                f.work_us(10); // ensures the waiter blocks before each post
                f.sem_post(items);
            });
        });
        b.main(move |f| {
            let p = f.create(pinger);
            f.loop_n(100, |f| f.sem_wait(items));
            f.join(p);
        });
        let app = b.build().unwrap();
        let c = exact(cfg(2)).with_comm_delay(Duration::from_micros(delay_us));
        go(&app, &c).wall_time
    };
    let no_delay = mk(0);
    let with_delay = mk(100);
    assert!(with_delay > no_delay, "{with_delay} vs {no_delay}");
}

#[test]
fn priority_manipulation_orders_threads_on_one_lwp() {
    // Two workers on one LWP: the higher-priority one runs first.
    let mut b = AppBuilder::new("prio", "prio.c");
    let w = b.func("w", |f| f.work_ms(10));
    b.main(move |f| {
        let s = f.slot();
        f.create_into(w, s);
        f.create_into(w, s);
        f.join(s);
        f.join(s);
    });
    let app = b.build().unwrap();
    let c = exact(MachineConfig::default().with_cpus(1).with_lwps(LwpPolicy::Fixed(1)));
    let mut hooks = NullHooks;
    let mut opts = RunOptions::new(&mut hooks);
    opts.manips.insert(ThreadId(5), ThreadManip { binding: None, priority: Some(10) });
    let r = run(&app, &c, opts).unwrap();
    let e4 = r.trace.threads[&ThreadId(4)].ended;
    let e5 = r.trace.threads[&ThreadId(5)].ended;
    assert!(e5 < e4, "boosted T5 ({e5}) should finish before T4 ({e4})");
}

#[test]
fn binding_to_one_cpu_serializes_bound_threads() {
    let app = two_worker_app(100);
    let mut hooks = NullHooks;
    let mut opts = RunOptions::new(&mut hooks);
    for t in [4u32, 5] {
        opts.manips.insert(
            ThreadId(t),
            ThreadManip { binding: Some(Binding::BoundCpu(CpuId(0))), priority: None },
        );
    }
    let r = run(&app, &exact(cfg(4)), opts).unwrap();
    // Both workers pinned to CPU0: serialized.
    assert_eq!(r.wall_time, Time::from_millis(200));
}

#[test]
fn runs_are_deterministic() {
    let app = two_worker_app(50);
    let a = go(&app, &cfg(2));
    let b = go(&app, &cfg(2));
    assert_eq!(a.wall_time, b.wall_time);
    assert_eq!(a.trace.transitions, b.trace.transitions);
    assert_eq!(a.trace.events, b.trace.events);
}

#[test]
fn jitter_varies_wall_time_but_same_seed_reproduces() {
    let app = two_worker_app(50);
    let run_seed = |seed| {
        let mut hooks = NullHooks;
        let opts =
            RunOptions { jitter: JitterModel::uniform(0.05, seed), ..RunOptions::new(&mut hooks) };
        run(&app, &cfg(2), opts).unwrap().wall_time
    };
    assert_eq!(run_seed(1), run_seed(1));
    let times: Vec<Time> = (0..5).map(run_seed).collect();
    assert!(times.iter().any(|t| *t != times[0]), "5 seeds should differ: {times:?}");
}

#[test]
fn trace_invariants_hold() {
    let app = two_worker_app(20);
    for cpus in [1, 2, 4] {
        let r = go(&app, &cfg(cpus));
        r.trace.check_invariants().unwrap_or_else(|e| panic!("{cpus} cpus: {e}"));
    }
}

#[test]
fn yield_allows_peer_to_run_on_one_lwp() {
    let mut b = AppBuilder::new("yield", "yield.c");
    let done = b.shared_var(0);
    let setter = b.func("setter", move |f| {
        f.set_shared(done, op::c(1));
    });
    b.main(move |f| {
        f.create_anon(setter);
        // Yield until the setter has run (the paper's spin programs fail
        // because they *don't* yield).
        f.while_(op::s(done), Cmp::Eq, op::c(0), |f| f.yield_now());
        f.join_any();
    });
    let app = b.build().unwrap();
    let mut c = exact(MachineConfig::uniprocessor_one_lwp());
    c.time_slicing = false;
    let r = go(&app, &c);
    assert_eq!(r.n_threads, 2);
}

#[test]
fn suspend_and_continue_gate_execution() {
    let mut b = AppBuilder::new("susp", "susp.c");
    let w = b.func("w", |f| f.work_ms(10));
    b.main(move |f| {
        let s = f.create(w);
        f.suspend_slot(s);
        f.work_ms(100);
        f.continue_slot(s);
        f.join(s);
    });
    let app = b.build().unwrap();
    let r = go(&app, &exact(cfg(2)));
    // The worker cannot finish before main's 100ms of work plus its own.
    assert!(r.wall_time >= Time::from_millis(100));
    let ended = r.trace.threads[&ThreadId(4)].ended;
    assert!(ended >= Time::from_millis(100), "suspended worker ended early at {ended}");
}

#[test]
fn sleep_action_blocks_without_consuming_cpu() {
    use std::sync::Arc;
    let mut b = AppBuilder::new("sleep", "sleep.c");
    let site = b.site("main");
    b.raw_func(
        "sleeper",
        Arc::new(move || {
            let mut step = 0;
            Box::new(move |_ctx: ResumeCtx| {
                step += 1;
                match step {
                    1 => Action::Sleep(Duration::from_millis(40)),
                    _ => Action::Call(LibCall::Exit, site),
                }
            })
        }),
    );
    // raw_func registered first; make main the sleeper by registering main
    // as a script that sleeps via a worker.
    let sleeper = vppb_threads::FuncId(0);
    b.main(move |f| {
        let s = f.slot();
        let _ = sleeper;
        f.create_into(sleeper, s);
        f.join(s);
    });
    let app = b.build().unwrap();
    let r = go(&app, &exact(cfg(1)));
    assert_eq!(r.wall_time, Time::from_millis(40));
    // The sleeping thread used (almost) no CPU.
    let cpu = r.trace.threads[&ThreadId(4)].cpu_time;
    assert!(cpu < Duration::from_millis(1), "sleeper burned {cpu}");
}

#[test]
fn events_are_placed_with_source_info() {
    let app = two_worker_app(10);
    let r = go(&app, &exact(cfg(2)));
    assert!(!r.trace.events.is_empty());
    // Every event's caller resolves in the source map.
    for ev in &r.trace.events {
        assert!(
            r.trace.source_map.resolve(ev.caller).is_some(),
            "unresolvable caller for {:?}",
            ev.kind.name()
        );
    }
    // There must be creates, joins and exits.
    let names: Vec<&str> = r.trace.events.iter().map(|e| e.kind.name()).collect();
    assert!(names.contains(&"thr_create"));
    assert!(names.contains(&"thr_join"));
    assert!(names.contains(&"thr_exit"));
}
