//! End-to-end prediction tests: record a uni-processor run, simulate N
//! processors, and compare against a real N-processor execution of the
//! same program on the machine — the paper's §4 validation in miniature.

use vppb_machine::{run, NullHooks, RunOptions};
use vppb_model::{
    Duration, LwpPolicy, MachineConfig, ModelKind, SimParams, ThreadId, Time, TraceLog, VppbError,
};
use vppb_recorder::{record, RecordOptions};
use vppb_sim::{analyze, predict, reference_params, simulate, simulate_plan, speedup};
use vppb_threads::{AppBuilder, BarrierDecl};

fn machine(cpus: u32) -> MachineConfig {
    MachineConfig::sun_enterprise(cpus).with_lwps(LwpPolicy::PerThread)
}

/// Ground truth: run the program itself on an N-CPU machine.
fn real_wall(app: &vppb_threads::App, cpus: u32) -> Time {
    let mut hooks = NullHooks;
    let opts = RunOptions { record_trace: false, ..RunOptions::new(&mut hooks) };
    run(app, &machine(cpus), opts).expect("real run").wall_time
}

/// Prediction: record on 1 CPU / 1 LWP, then simulate N CPUs.
fn predicted_wall(app: &vppb_threads::App, cpus: u32) -> Time {
    let rec = record(app, &RecordOptions::default()).expect("record");
    simulate(&rec.log, &SimParams::cpus(cpus)).expect("simulate").wall_time
}

/// Table-1 speed-up of a recorded log on `cpus` processors.
fn predicted_speedup(log: &TraceLog, cpus: u32) -> f64 {
    predict(&analyze(log).unwrap(), log, &SimParams::cpus(cpus)).unwrap().speedup()
}

fn rel_err(pred: Time, real: Time) -> f64 {
    (pred.nanos() as f64 - real.nanos() as f64).abs() / real.nanos() as f64
}

fn fork_join_app(workers: u64, work_ms: u64) -> vppb_threads::App {
    let mut b = AppBuilder::new("forkjoin", "forkjoin.c");
    let w = b.func("worker", move |f| f.work_ms(work_ms));
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(workers, |f| f.create_into(w, s));
        f.loop_n(workers, |f| f.join(s));
    });
    b.build().unwrap()
}

#[test]
fn fork_join_prediction_matches_real_execution() {
    let app = fork_join_app(4, 200);
    for cpus in [1, 2, 4, 8] {
        let real = real_wall(&app, cpus);
        let pred = predicted_wall(&app, cpus);
        let err = rel_err(pred, real);
        assert!(
            err < 0.02,
            "{cpus} cpus: predicted {pred} vs real {real} (err {:.2}%)",
            err * 100.0
        );
    }
}

#[test]
fn predicted_speedup_shape_is_sane() {
    let app = fork_join_app(8, 100);
    let rec = record(&app, &RecordOptions::default()).unwrap();
    let s2 = predicted_speedup(&rec.log, 2);
    let s4 = predicted_speedup(&rec.log, 4);
    let s8 = predicted_speedup(&rec.log, 8);
    assert!(s2 > 1.8 && s2 <= 2.05, "s2 = {s2}");
    assert!(s4 > 3.5 && s4 <= 4.05, "s4 = {s4}");
    assert!(s8 > 6.0 && s8 <= 8.1, "s8 = {s8}");
    assert!(s2 < s4 && s4 < s8);
}

#[test]
fn speedup_divides_by_the_same_models_one_cpu_run_and_guards_zero() {
    assert_eq!(speedup(Time::from_micros(200), Time::ZERO), 0.0);
    assert_eq!(speedup(Time::from_micros(200), Time::from_micros(100)), 2.0);
    let rec = record(&fork_join_app(4, 20), &RecordOptions::default()).unwrap();
    let plan = analyze(&rec.log).unwrap();
    // The reference keeps the model and the broadcast replay rule, so with
    // the rule off the ratio is the naive 1-CPU wall over the naive N-CPU
    // wall.
    for (model, rule) in [ModelKind::SolarisTs, ModelKind::AsyncPool]
        .into_iter()
        .flat_map(|m| [(m, true), (m, false)])
    {
        let mut params = SimParams::cpus(4);
        params.machine.model = model;
        params.machine.lwps = LwpPolicy::Fixed(2);
        params.barrier_aware_broadcast = rule;
        let mut uni = SimParams::cpus(1);
        uni.machine.model = model;
        uni.barrier_aware_broadcast = rule;
        assert_eq!(reference_params(&params).fingerprint(), uni.fingerprint());
        let p = predict(&plan, &rec.log, &params).unwrap();
        let uni_wall = simulate_plan(&plan, &rec.log, &uni).unwrap().wall_time;
        let multi = simulate_plan(&plan, &rec.log, &params).unwrap();
        assert_eq!((p.uni_wall, p.run.wall_time), (uni_wall, multi.wall_time));
        assert_eq!(p.metrics.wall_ns, multi.wall_time.nanos());
        assert_eq!(p.speedup(), uni_wall.nanos() as f64 / multi.wall_time.nanos() as f64);
    }
}

#[test]
fn mutex_bottleneck_is_predicted() {
    // Workers spend most time in one critical section: no speed-up.
    let mut b = AppBuilder::new("serial", "serial.c");
    let m = b.mutex();
    let w = b.func("worker", move |f| {
        f.lock(m);
        f.work_ms(50);
        f.unlock(m);
    });
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(4, |f| f.create_into(w, s));
        f.loop_n(4, |f| f.join(s));
    });
    let app = b.build().unwrap();
    let rec = record(&app, &RecordOptions::default()).unwrap();
    let s4 = predicted_speedup(&rec.log, 4);
    assert!(s4 < 1.1, "a fully serialized program must not speed up: {s4}");
    let real1 = real_wall(&app, 1);
    let real4 = real_wall(&app, 4);
    let real_speedup = real1.nanos() as f64 / real4.nanos() as f64;
    assert!((s4 - real_speedup).abs() / real_speedup < 0.06, "{s4} vs {real_speedup}");
}

#[test]
fn barrier_program_replays_and_predicts() {
    let mut b = AppBuilder::new("barrier", "barrier.c");
    let bar = BarrierDecl::declare(&mut b, 4);
    // Imbalanced phases: T4 computes longest before the barrier, so in
    // the recorded (sequential) run the broadcaster differs from the
    // parallel run — exercising the §6 barrier model.
    let w = b.func("worker", move |f| {
        f.work_ms(40);
        bar.wait(f);
        f.work_ms(40);
    });
    let w_long = b.func("worker_long", move |f| {
        f.work_ms(120);
        bar.wait(f);
        f.work_ms(40);
    });
    b.main(move |f| {
        let s = f.slot();
        f.create_into(w_long, s);
        f.loop_n(2, |f| f.create_into(w, s));
        bar.wait(f);
        f.loop_n(3, |f| f.join(s));
    });
    let app = b.build().unwrap();
    for cpus in [2, 4] {
        let real = real_wall(&app, cpus);
        let pred = predicted_wall(&app, cpus);
        let err = rel_err(pred, real);
        assert!(
            err < 0.06,
            "{cpus} cpus: predicted {pred} vs real {real} ({:.1}% off)",
            err * 100.0
        );
    }
}

#[test]
fn naive_broadcast_replay_diverges_on_barriers() {
    // The same barrier program *without* the barrier-aware broadcast model
    // either deadlocks in replay or badly mispredicts — demonstrating why
    // §6's rule exists.
    let mut b = AppBuilder::new("barrier2", "barrier2.c");
    let bar = BarrierDecl::declare(&mut b, 3);
    let w = b.func("worker", move |f| {
        f.work_ms(30);
        bar.wait(f);
        f.work_ms(30);
    });
    let w_long = b.func("worker_long", move |f| {
        f.work_ms(90);
        bar.wait(f);
        f.work_ms(30);
    });
    b.main(move |f| {
        let s = f.slot();
        f.create_into(w_long, s);
        f.create_into(w, s);
        bar.wait(f);
        f.loop_n(2, |f| f.join(s));
    });
    let app = b.build().unwrap();
    let rec = record(&app, &RecordOptions::default()).unwrap();
    let mut params = SimParams::cpus(4);
    params.barrier_aware_broadcast = false;
    match simulate(&rec.log, &params) {
        Err(VppbError::ReplayDiverged(_)) => {} // expected: replay hangs
        Ok(sim) => {
            // If it completed, the barrier-aware model must be at least as
            // accurate.
            let real = real_wall(&app, 4);
            let aware = simulate(&rec.log, &SimParams::cpus(4)).unwrap();
            assert!(
                rel_err(aware.wall_time, real) <= rel_err(sim.wall_time, real) + 1e-9,
                "barrier model should not hurt accuracy"
            );
        }
        Err(other) => panic!("unexpected error {other}"),
    }
}

#[test]
fn trylock_outcomes_replay_from_log() {
    let mut b = AppBuilder::new("try", "try.c");
    let m = b.mutex();
    let gate = b.semaphore(0);
    // On one LWP threads switch only at blocking calls, so the holder must
    // block *while holding* the mutex for main's trylock to fail.
    let holder = b.func("holder", move |f| {
        f.lock(m);
        f.sem_wait(gate); // blocks holding m; main runs next
        f.work_ms(10);
        f.unlock(m);
    });
    b.main(move |f| {
        let h = f.create(holder);
        f.yield_now(); // let the holder take the lock
        f.trylock(m); // fails in the recorded run (holder owns it)
        f.work_ms(5);
        f.sem_post(gate);
        f.join(h);
        f.trylock(m); // succeeds
        f.unlock(m);
    });
    let app = b.build().unwrap();
    let rec = record(&app, &RecordOptions::default()).unwrap();
    let plan = analyze(&rec.log).unwrap();
    // Main's plan: failed trylock vanished, successful one became a lock.
    let main_plan = plan.thread(ThreadId::MAIN).unwrap();
    let locks = main_plan
        .ops
        .iter()
        .filter(|o| matches!(o, vppb_threads::Action::Call(vppb_threads::LibCall::MutexLock(_), _)))
        .count();
    assert_eq!(locks, 1, "one acquired trylock -> one lock op");
    let sim = simulate_plan(&plan, &rec.log, &SimParams::cpus(2)).unwrap();
    assert!(sim.wall_time > Time::ZERO);
}

#[test]
fn timed_out_wait_replays_as_delay() {
    let mut b = AppBuilder::new("tw", "tw.c");
    let m = b.mutex();
    let cv = b.condvar();
    b.main(move |f| {
        f.lock(m);
        f.cond_timedwait(cv, m, Duration::from_millis(30)); // nobody signals
        f.unlock(m);
        f.work_ms(10);
    });
    let app = b.build().unwrap();
    let rec = record(&app, &RecordOptions::default()).unwrap();
    let sim = simulate(&rec.log, &SimParams::cpus(1)).unwrap();
    let real = real_wall(&app, 1);
    assert!(rel_err(sim.wall_time, real) < 0.02, "{} vs {real}", sim.wall_time);
    // The delay must not burn CPU in the simulation.
    let cpu = sim.trace.threads[&ThreadId::MAIN].cpu_time;
    assert!(cpu < Duration::from_millis(15), "main burned {cpu}");
}

#[test]
fn producer_consumer_semaphores_predict_well() {
    let mut b = AppBuilder::new("pc", "pc.c");
    let items = b.semaphore(0);
    let m = b.mutex();
    let producer = b.func("producer", move |f| {
        f.loop_n(10, |f| {
            f.work_us(300);
            f.lock(m);
            f.work_us(20);
            f.unlock(m);
            f.sem_post(items);
        });
    });
    let consumer = b.func("consumer", move |f| {
        f.loop_n(10, |f| {
            f.sem_wait(items);
            f.lock(m);
            f.work_us(20);
            f.unlock(m);
            f.work_us(300);
        });
    });
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(3, |f| f.create_into(producer, s));
        f.loop_n(3, |f| f.create_into(consumer, s));
        f.loop_n(6, |f| f.join(s));
    });
    let app = b.build().unwrap();
    let real1 = real_wall(&app, 1);
    let real4 = real_wall(&app, 4);
    let pred4 = predicted_wall(&app, 4);
    let real_speedup = real1.nanos() as f64 / real4.nanos() as f64;
    let rec = record(&app, &RecordOptions::default()).unwrap();
    let pred_speedup = predicted_speedup(&rec.log, 4);
    assert!(
        (pred_speedup - real_speedup).abs() / real_speedup < 0.10,
        "speedup: predicted {pred_speedup:.2} vs real {real_speedup:.2}"
    );
    let _ = pred4;
}

#[test]
fn wildcard_join_replays() {
    let mut b = AppBuilder::new("wild", "wild.c");
    let fast = b.func("fast", |f| f.work_ms(5));
    let slow = b.func("slow", |f| f.work_ms(60));
    b.main(move |f| {
        f.create_anon(slow);
        f.create_anon(fast);
        f.join_any();
        f.join_any();
    });
    let app = b.build().unwrap();
    let real = real_wall(&app, 3);
    let pred = predicted_wall(&app, 3);
    assert!(rel_err(pred, real) < 0.03, "{pred} vs {real}");
}

#[test]
fn semaphore_initial_count_is_inferred() {
    // A semaphore that starts at 2 (buffer slots): consumers wait before
    // any post happens in the log.
    let mut b = AppBuilder::new("seminit", "seminit.c");
    let slots = b.semaphore(2);
    b.main(move |f| {
        f.sem_wait(slots);
        f.sem_wait(slots); // both succeed only because initial = 2
        f.sem_post(slots);
        f.sem_wait(slots);
    });
    let app = b.build().unwrap();
    let rec = record(&app, &RecordOptions::default()).unwrap();
    let plan = analyze(&rec.log).unwrap();
    assert_eq!(plan.sem_initial, vec![2]);
    // And the replay completes rather than deadlocking.
    let sim = simulate(&rec.log, &SimParams::cpus(1)).unwrap();
    assert!(sim.wall_time > Time::ZERO);
}

#[test]
fn what_if_fewer_lwps_than_threads() {
    // §3.2: the number of LWPs is a simulation parameter. 4 compute
    // threads on 4 CPUs but only 2 LWPs -> speed-up capped at 2.
    let app = fork_join_app(4, 100);
    let rec = record(&app, &RecordOptions::default()).unwrap();
    let full = simulate(&rec.log, &SimParams::cpus(4)).unwrap();
    let mut p2 = SimParams::cpus(4);
    p2.machine.lwps = LwpPolicy::Fixed(2);
    let two = simulate(&rec.log, &p2).unwrap();
    assert!(
        two.wall_time.nanos() as f64 >= full.wall_time.nanos() as f64 * 1.8,
        "2 LWPs {} vs unlimited {}",
        two.wall_time,
        full.wall_time
    );
}

#[test]
fn what_if_binding_all_threads_to_one_cpu() {
    let app = fork_join_app(3, 50);
    let rec = record(&app, &RecordOptions::default()).unwrap();
    let mut params = SimParams::cpus(4);
    for t in [4u32, 5, 6] {
        params = params.bind_to_cpu(ThreadId(t), vppb_model::CpuId(0));
    }
    let pinned = simulate(&rec.log, &params).unwrap();
    let free = simulate(&rec.log, &SimParams::cpus(4)).unwrap();
    assert!(
        pinned.wall_time.nanos() as f64 > free.wall_time.nanos() as f64 * 2.0,
        "pinned {} vs free {}",
        pinned.wall_time,
        free.wall_time
    );
}

#[test]
fn simulated_trace_passes_invariants_and_keeps_source_info() {
    let app = fork_join_app(3, 20);
    let rec = record(&app, &RecordOptions::default()).unwrap();
    let sim = simulate(&rec.log, &SimParams::cpus(2)).unwrap();
    sim.trace.check_invariants().unwrap();
    assert!(!sim.trace.events.is_empty());
    // Replayed events point back at the original source lines.
    let resolvable = sim
        .trace
        .events
        .iter()
        .filter(|e| sim.trace.source_map.resolve(e.caller).is_some())
        .count();
    assert!(resolvable * 2 > sim.trace.events.len(), "most events resolvable");
    // Thread names survive the round trip.
    assert_eq!(sim.trace.threads[&ThreadId(4)].start_fn, "worker");
}

#[test]
fn simulation_is_deterministic() {
    let app = fork_join_app(4, 30);
    let rec = record(&app, &RecordOptions::default()).unwrap();
    let a = simulate(&rec.log, &SimParams::cpus(4)).unwrap();
    let b = simulate(&rec.log, &SimParams::cpus(4)).unwrap();
    assert_eq!(a.wall_time, b.wall_time);
    assert_eq!(a.trace.transitions, b.trace.transitions);
}
