//! Replay-fidelity tests: specific §3.2 behaviours of the Simulator.

use vppb_machine::{run, NullHooks, RunOptions};
use vppb_model::{LwpPolicy, MachineConfig, SimParams, ThreadId, ThreadManip, Time, VppbError};
use vppb_recorder::{record, RecordOptions};
use vppb_sim::{analyze, simulate};
use vppb_threads::AppBuilder;

fn real_wall(app: &vppb_threads::App, cpus: u32) -> Time {
    let mut hooks = NullHooks;
    let cfg = MachineConfig::sun_enterprise(cpus).with_lwps(LwpPolicy::PerThread);
    let opts = RunOptions { record_trace: false, ..RunOptions::new(&mut hooks) };
    run(app, &cfg, opts).unwrap().wall_time
}

#[test]
fn self_replay_on_recording_config_reproduces_the_monitored_run() {
    // Replaying a log on the *same* configuration it was recorded on
    // (1 CPU, 1 LWP) must reproduce the monitored timing almost exactly —
    // the strongest internal consistency check of the replay pipeline.
    let mut b = AppBuilder::new("self", "self.c");
    let m = b.mutex();
    let items = b.semaphore(0);
    let w = b.func("w", move |f| {
        f.loop_n(20, |f| {
            f.work_us(700);
            f.lock(m);
            f.work_us(30);
            f.unlock(m);
            f.sem_post(items);
        });
    });
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(3, |f| f.create_into(w, s));
        f.loop_n(60, |f| f.sem_wait(items));
        f.loop_n(3, |f| f.join(s));
    });
    let app = b.build().unwrap();
    // Zero probe cost isolates replay fidelity from recording intrusion
    // (intrusion inside call spans is legitimately *not* replayed — the
    // probes don't exist in the simulated machine — and cancels out of
    // speed-up ratios; the OVH experiment covers intrusion itself).
    let opts = RecordOptions { probe_cost: vppb_model::Duration::ZERO, ..Default::default() };
    let rec = record(&app, &opts).unwrap();
    let mut params = SimParams::new(MachineConfig::uniprocessor_one_lwp());
    params.machine.lwps = LwpPolicy::Fixed(1);
    let sim = simulate(&rec.log, &params).unwrap();
    let err = (sim.wall_time.nanos() as f64 - rec.log.header.wall_time.nanos() as f64).abs()
        / rec.log.header.wall_time.nanos() as f64;
    assert!(
        err < 0.02,
        "self-replay drifted: monitored {} vs replayed {} ({:.2}%)",
        rec.log.header.wall_time,
        sim.wall_time,
        err * 100.0
    );
}

#[test]
fn rwlock_programs_replay_and_predict() {
    let mut b = AppBuilder::new("rwpred", "rwpred.c");
    let rw = b.rwlock();
    let reader = b.func("reader", move |f| {
        f.loop_n(4, |f| {
            f.rd_lock(rw);
            f.work_ms(5);
            f.rw_unlock(rw);
            f.work_ms(2);
        });
    });
    let writer = b.func("writer", move |f| {
        f.loop_n(4, |f| {
            f.work_ms(6);
            f.wr_lock(rw);
            f.work_ms(3);
            f.rw_unlock(rw);
        });
    });
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(3, |f| f.create_into(reader, s));
        f.create_into(writer, s);
        f.loop_n(4, |f| f.join(s));
    });
    let app = b.build().unwrap();
    let rec = record(&app, &RecordOptions::default()).unwrap();
    let sim = simulate(&rec.log, &SimParams::cpus(4)).unwrap();
    let real = real_wall(&app, 4);
    let err = (sim.wall_time.nanos() as f64 - real.nanos() as f64).abs() / real.nanos() as f64;
    assert!(err < 0.08, "rwlock prediction: {} vs {real} ({:.1}%)", sim.wall_time, err * 100.0);
}

#[test]
fn recorded_setprio_is_replayed_unless_overridden() {
    // A program that boosts one worker via thr_setprio; on a 1-LWP
    // simulated machine the boosted worker should finish first. With a
    // priority *manipulation* for that thread, §3.2 says the recorded
    // thr_setprio must be ignored.
    let mut b = AppBuilder::new("prio", "prio.c");
    let w = b.func("w", |f| {
        f.loop_n(4, |f| {
            f.work_ms(5);
            f.yield_now(); // gives the user-level scheduler choice points
        });
    });
    b.main(move |f| {
        let s = f.slot();
        f.create_into(w, s);
        f.create_into(w, s);
        f.set_prio_slot(s, 10); // boosts the FIRST created worker (T4)
        f.loop_n(2, |f| f.join(s));
    });
    let app = b.build().unwrap();
    let rec = record(&app, &RecordOptions::default()).unwrap();

    // Replay on 1 CPU with 1 LWP: T4's recorded boost applies.
    let mut params = SimParams::new(MachineConfig::uniprocessor_one_lwp());
    params.machine.lwps = LwpPolicy::Fixed(1);
    let sim = simulate(&rec.log, &params).unwrap();
    let e4 = sim.trace.threads[&ThreadId(4)].ended;
    let e5 = sim.trace.threads[&ThreadId(5)].ended;
    assert!(e4 < e5, "boosted T4 ({e4}) finishes before T5 ({e5})");

    // Now override T4's priority to 0: the recorded thr_setprio is
    // ignored, and the yield-round-robin makes them finish interleaved
    // (T4 no longer strictly first by a full run).
    let mut params2 = SimParams::new(MachineConfig::uniprocessor_one_lwp());
    params2.machine.lwps = LwpPolicy::Fixed(1);
    params2.manips.insert(ThreadId(4), ThreadManip { binding: None, priority: Some(0) });
    let sim2 = simulate(&rec.log, &params2).unwrap();
    let g4 = sim2.trace.threads[&ThreadId(4)].ended;
    let g5 = sim2.trace.threads[&ThreadId(5)].ended;
    assert!(
        g5 < g4 || (g4 - g5) < (e5 - e4),
        "override must remove T4's advantage: with boost {e4}/{e5}, with override {g4}/{g5}"
    );
}

#[test]
fn suspend_continue_replays() {
    let mut b = AppBuilder::new("susp", "susp.c");
    let w = b.func("w", |f| f.work_ms(10));
    b.main(move |f| {
        let s = f.create(w);
        f.suspend_slot(s);
        f.work_ms(30);
        f.continue_slot(s);
        f.join(s);
    });
    let app = b.build().unwrap();
    let rec = record(&app, &RecordOptions::default()).unwrap();
    let sim = simulate(&rec.log, &SimParams::cpus(2)).unwrap();
    let real = real_wall(&app, 2);
    let err = (sim.wall_time.nanos() as f64 - real.nanos() as f64).abs() / real.nanos() as f64;
    assert!(err < 0.05, "{} vs {real}", sim.wall_time);
    // The worker's exit must come after the 30ms suspension window.
    assert!(sim.trace.threads[&ThreadId(4)].ended >= Time::from_millis(30));
}

#[test]
fn analysis_rejects_malformed_logs() {
    let mut b = AppBuilder::new("ok", "ok.c");
    b.main(|f| f.work_ms(1));
    let app = b.build().unwrap();
    let rec = record(&app, &RecordOptions::default()).unwrap();
    let mut log = rec.log.clone();
    // Damage it: drop the end_collect mark.
    log.records.pop();
    assert!(matches!(analyze(&log), Err(VppbError::MalformedLog(_))));
    // Break sequence numbering.
    let mut log2 = rec.log.clone();
    if log2.records.len() > 1 {
        log2.records[1].seq = 99;
    }
    assert!(matches!(analyze(&log2), Err(VppbError::MalformedLog(_))));
}

#[test]
fn concurrency_requests_in_the_log_are_honoured_by_follow_program() {
    let mut b = AppBuilder::new("conc", "conc.c");
    let w = b.func("w", |f| f.work_ms(20));
    b.main(move |f| {
        f.set_concurrency(4);
        let s = f.slot();
        f.loop_n(4, |f| f.create_into(w, s));
        f.loop_n(4, |f| f.join(s));
    });
    let app = b.build().unwrap();
    let rec = record(&app, &RecordOptions::default()).unwrap();
    // FollowProgram honours the recorded thr_setconcurrency(4).
    let mut follow = SimParams::cpus(4);
    follow.machine.lwps = LwpPolicy::FollowProgram;
    let sim_follow = simulate(&rec.log, &follow).unwrap();
    // Fixed(1) ignores it, as §3.2 specifies for user-pinned LWP counts.
    let mut fixed = SimParams::cpus(4);
    fixed.machine.lwps = LwpPolicy::Fixed(1);
    let sim_fixed = simulate(&rec.log, &fixed).unwrap();
    assert!(
        sim_fixed.wall_time.nanos() as f64 > sim_follow.wall_time.nanos() as f64 * 3.0,
        "follow {} vs fixed-1 {}",
        sim_follow.wall_time,
        sim_fixed.wall_time
    );
}

#[test]
fn identical_configs_produce_bit_identical_replays() {
    // Determinism regression: the same log simulated twice under the same
    // parameters must place every event at the same nanosecond. The strict
    // divergence report proves it (or pinpoints the first drift).
    let mut b = AppBuilder::new("det", "det.c");
    let m = b.mutex();
    let items = b.semaphore(0);
    let w = b.func("w", move |f| {
        f.loop_n(12, |f| {
            f.work_us(300);
            f.lock(m);
            f.work_us(40);
            f.unlock(m);
            f.sem_post(items);
        });
    });
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(4, |f| f.create_into(w, s));
        f.loop_n(48, |f| f.sem_wait(items));
        f.loop_n(4, |f| f.join(s));
    });
    let app = b.build().unwrap();
    let rec = record(&app, &RecordOptions::default()).unwrap();
    let a = simulate(&rec.log, &SimParams::cpus(4)).unwrap();
    let b2 = simulate(&rec.log, &SimParams::cpus(4)).unwrap();
    let rep = vppb_sim::DivergenceReport::between(&a.trace, &b2.trace);
    assert!(rep.identical, "replay is nondeterministic: {:?}", rep.first);
    assert!(rep.compared_events > 0);

    // Against the recorded ground truth, a condvar-free program must
    // replay every thread's call sequence in exactly the logged order.
    let vs = vppb_sim::DivergenceReport::vs_log(&rec.log, &a.trace);
    assert!(vs.identical, "replay departed from the log: {:?}", vs.first);

    // And both replays keep clean books.
    assert!(a.audit.is_clean(), "{}", a.audit.render());
}
