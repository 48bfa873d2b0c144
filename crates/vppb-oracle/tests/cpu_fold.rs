//! The premise of the sweep's CPU fold: a replay that can never hold
//! more than `L` LWPs ([`vppb_sim::lwp_bound`]) is the same run on any
//! machine with at least `L` CPUs, because the engine fills idle CPUs
//! lowest index first. For every workload, LWP policy and scheduling
//! model, the run at each CPU count from `L` to `2L + 1` must equal the
//! run at `L`: wall time, DES count, the full trace, the rendered audit,
//! and per-CPU busy time (the extra CPUs never run).

use vppb_machine::{run, RunResult};
use vppb_model::corrupt::ChaosRng;
use vppb_model::{
    Binding, EventKind, LwpPolicy, ModelKind, Phase, SimParams, ThreadManip, TraceLog,
};
use vppb_oracle::{GenParams, ProgSpec};
use vppb_recorder::{record, RecordOptions};
use vppb_sim::{analyze, build_replay_app, lwp_bound, replay_with_engine};
use vppb_threads::{App, AppBuilder};
use vppb_workloads::{prodcons, splash, KernelParams};

fn record_app(app: &App) -> TraceLog {
    record(app, &RecordOptions::default()).expect("record").log
}

/// The sweep tests' fork/join program.
fn fork_join_app(workers: u64, work_ms: u64) -> App {
    let mut b = AppBuilder::new("forkjoin", "forkjoin.c");
    let w = b.func("worker", move |f| f.work_ms(work_ms));
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(workers, |f| f.create_into(w, s));
        f.loop_n(workers, |f| f.join(s));
    });
    b.build().unwrap()
}

/// A seeded program where `main` suspends and continues workers — some
/// bound, some holding a shared lock, some in I/O or yielding — while
/// they run.
fn suspend_continue_app(seed: u64) -> App {
    let mut rng = ChaosRng::new(seed ^ 0x5C0F_F01D);
    let mut b = AppBuilder::new("suspend", "suspend.c");
    let lock = b.mutex();
    let n = 2 + rng.below(4);
    let mut funcs = Vec::new();
    for i in 0..n {
        let segs: Vec<(usize, u64)> =
            (0..2 + rng.below(4)).map(|_| (rng.below(4), 20 + rng.below(400) as u64)).collect();
        let func = b.func(format!("w{i}"), move |f| {
            for (kind, us) in segs {
                match kind {
                    0 => f.work_us(us),
                    1 => {
                        f.lock(lock);
                        f.work_us(us);
                        f.unlock(lock);
                    }
                    2 => f.io_us(us),
                    _ => {
                        f.yield_now();
                        f.work_us(us);
                    }
                }
            }
        });
        funcs.push((func, rng.below(3) == 0, rng.below(2) == 0, 10 + rng.below(300) as u64));
    }
    b.main(move |f| {
        let slots: Vec<_> = funcs
            .iter()
            .map(|&(func, bound, _, _)| if bound { f.create_bound(func) } else { f.create(func) })
            .collect();
        for (&slot, &(_, _, suspend, us)) in slots.iter().zip(&funcs) {
            f.work_us(us);
            if suspend {
                f.suspend_slot(slot);
                f.work_us(us);
                f.continue_slot(slot);
            }
        }
        for &slot in &slots {
            f.join(slot);
        }
    });
    b.build().unwrap()
}

/// The LWP policies the fold is checked under. The last is a fixed pool
/// with every other thread bound to an LWP by manipulation.
fn policies(log_threads: &[vppb_model::ThreadId]) -> Vec<(String, SimParams)> {
    let mut out: Vec<(String, SimParams)> =
        [LwpPolicy::PerThread, LwpPolicy::Fixed(1), LwpPolicy::Fixed(2), LwpPolicy::Fixed(4)]
            .into_iter()
            .map(|lwps| {
                let mut p = SimParams::cpus(1);
                p.machine.lwps = lwps;
                (format!("lwps={lwps}"), p)
            })
            .collect();
    let mut mixed = SimParams::cpus(1);
    mixed.machine.lwps = LwpPolicy::Fixed(2);
    for &id in log_threads.iter().skip(1).step_by(2) {
        mixed = mixed.manip(id, ThreadManip { binding: Some(Binding::BoundLwp), priority: None });
    }
    out.push(("lwps=2 bound-mix".into(), mixed));
    out
}

/// Replay `log` at every CPU count from its bound `L` to `2L + 1` under
/// every policy and model, and check each run against the run at `L`.
fn check_fold(name: &str, log: &TraceLog) {
    let plan = analyze(log).expect("analyze");
    let app = build_replay_app(&plan, log.header.source_map.clone()).expect("app");
    let ids: Vec<_> = plan.threads.iter().map(|t| t.id).collect();
    for model in [ModelKind::SolarisTs, ModelKind::AsyncPool] {
        for (policy, mut params) in policies(&ids) {
            params.machine.model = model;
            let l = lwp_bound(&plan, &params).expect("a fixed or per-thread pool is bounded");
            let replay = |cpus: u32| -> RunResult {
                let mut p = params.clone();
                p.machine.cpus = cpus;
                replay_with_engine(&app, &plan, &p, None, run).expect("replay")
            };
            let at_l = replay(l);
            for cpus in l + 1..=2 * l + 1 {
                let what = format!("{name} {policy} model={model}: {cpus} CPUs vs L={l}");
                same_run(&at_l, &replay(cpus), l as usize, &what);
            }
        }
    }
}

fn same_run(at_l: &RunResult, r: &RunResult, l: usize, what: &str) {
    assert_eq!(r.wall_time, at_l.wall_time, "{what}: wall time");
    assert_eq!(r.des_events, at_l.des_events, "{what}: DES events");
    assert!(r.trace.transitions == at_l.trace.transitions, "{what}: transitions");
    assert!(r.trace.events == at_l.trace.events, "{what}: events");
    assert_eq!(r.audit.render(), at_l.audit.render(), "{what}: audit");
    assert_eq!(r.cpu_busy[..l], at_l.cpu_busy[..], "{what}: busy time of the first L CPUs");
    assert!(r.cpu_busy[l..].iter().all(|d| d.is_zero()), "{what}: a CPU above the bound ran");
}

#[test]
fn sweep_workloads_run_the_same_above_their_lwp_bound() {
    let workloads = [
        ("ocean", record_app(&splash::ocean(KernelParams::scaled(8, 0.05)))),
        ("prodcons", record_app(&prodcons::naive(0.05))),
        ("forkjoin", record_app(&fork_join_app(4, 20))),
    ];
    for (name, log) in &workloads {
        check_fold(name, log);
    }
}

#[test]
fn suspend_continue_programs_run_the_same_above_their_lwp_bound() {
    for seed in 0..24 {
        check_fold(&format!("suspend seed {seed}"), &record_app(&suspend_continue_app(seed)));
    }
}

#[test]
fn generated_programs_run_the_same_above_their_lwp_bound() {
    let gen = GenParams::default();
    let mut bound_programs = 0;
    for seed in 0..200 {
        let spec = ProgSpec::generate(seed, &gen);
        bound_programs += usize::from(spec.workers.iter().any(|w| w.bound));
        check_fold(&format!("generated seed {seed}"), &record_app(&spec.build_app()));
    }
    assert!(bound_programs > 20, "only {bound_programs} programs create a bound thread");
}

#[test]
fn lwp_bound_follows_the_pool_policy() {
    let log = record_app(&fork_join_app(3, 5));
    let plan = analyze(&log).expect("analyze");
    let mut params = SimParams::cpus(4);
    assert_eq!(lwp_bound(&plan, &params), Some(4), "one LWP per thread: main + 3 workers");
    params.machine.lwps = LwpPolicy::Fixed(0);
    assert_eq!(lwp_bound(&plan, &params), Some(1), "a fixed pool holds at least one LWP");
    let lwp_bound_thread = ThreadManip { binding: Some(Binding::BoundLwp), priority: None };
    let one_bound = params.clone().manip(plan.threads[1].id, lwp_bound_thread);
    assert_eq!(lwp_bound(&plan, &one_bound), Some(2), "a thread bound to an LWP brings its own");
    params.machine.lwps = LwpPolicy::FollowProgram;
    assert_eq!(lwp_bound(&plan, &params), None, "thr_setconcurrency can grow the pool");
    let pinned = SimParams::cpus(4).bind_to_cpu(plan.threads[1].id, vppb_model::CpuId(0));
    assert_eq!(lwp_bound(&plan, &pinned), None, "a CPU binding is part of the schedule");
}

#[test]
fn the_bound_counts_the_create_ops_flag_not_the_after_record() {
    // A damaged log whose `thr_create` AFTER record says unbound while
    // its BEFORE record says bound: the replay binds by the BEFORE flag
    // (the create op), so the bound must count that thread's LWP.
    let mut b = AppBuilder::new("bound", "bound.c");
    let w = b.func("w", |f| f.work_us(200));
    b.main(move |f| {
        let s = f.create_bound(w);
        f.work_us(100);
        f.join(s);
    });
    let mut log = record_app(&b.build().unwrap());
    for r in log.records.iter_mut().filter(|r| r.phase == Phase::After) {
        if let EventKind::ThrCreate { bound, .. } = &mut r.kind {
            *bound = false;
        }
    }
    let plan = analyze(&log).expect("analyze");
    let mut params = SimParams::cpus(1);
    params.machine.lwps = LwpPolicy::Fixed(1);
    assert_eq!(lwp_bound(&plan, &params), Some(2), "the pool LWP and the bound thread's own");
    check_fold("bound on BEFORE only", &log);
}
