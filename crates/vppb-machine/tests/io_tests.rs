//! Tests of the I/O-modelling extension (the paper's §6 future work):
//! blocking syscalls sleep the *LWP*, with everything that implies for
//! single-LWP executions.

use vppb_model::{Duration, LwpPolicy, MachineConfig, ThreadId, Time};
use vppb_threads::AppBuilder;

use vppb_testkit::fixtures::io_and_compute_app;
use vppb_testkit::{exact, go};

#[test]
fn io_does_not_consume_cpu() {
    let app = io_and_compute_app();
    let r = go(&app, &exact(MachineConfig::sun_enterprise(2).with_lwps(LwpPolicy::PerThread)));
    let reader = &r.trace.threads[&ThreadId(4)];
    assert!(
        reader.cpu_time < Duration::from_millis(11),
        "reader burned {} on a 50ms io + 10ms work",
        reader.cpu_time
    );
}

#[test]
fn io_blocks_the_whole_process_on_one_lwp() {
    // On one LWP the kernel sleep takes the only execution vehicle with
    // it: the cruncher cannot run during the read. Serial total:
    // 50 (io) + 10 + 50 = 110ms.
    let app = io_and_compute_app();
    let uni = go(&app, &exact(MachineConfig::uniprocessor_one_lwp()));
    assert_eq!(uni.wall_time, Time::from_millis(110));
}

#[test]
fn io_overlaps_compute_with_multiple_lwps() {
    // Even on ONE CPU, two LWPs overlap the sleep with compute:
    // max(50+10, 50) + scheduling = 60ms.
    let app = io_and_compute_app();
    let c = exact(MachineConfig::default().with_cpus(1).with_lwps(LwpPolicy::PerThread));
    let r = go(&app, &c);
    assert_eq!(r.wall_time, Time::from_millis(60));
}

#[test]
fn io_prediction_round_trips_through_the_simulator() {
    use vppb_model::SimParams;
    use vppb_recorder::{record, RecordOptions};
    use vppb_sim::simulate;

    let app = io_and_compute_app();
    let rec = record(&app, &RecordOptions::default()).unwrap();
    // The io_wait shows up in the log with its latency.
    let text = vppb_model::textlog::write_log(&rec.log);
    assert!(text.contains("io_wait latency=50000000"), "io recorded: {text}");

    // Prediction on 2 CPUs matches the real 2-CPU run.
    let sim = simulate(&rec.log, &SimParams::cpus(2)).unwrap();
    let real = go(&app, &MachineConfig::sun_enterprise(2).with_lwps(LwpPolicy::PerThread));
    let err = (sim.wall_time.nanos() as f64 - real.wall_time.nanos() as f64).abs()
        / real.wall_time.nanos() as f64;
    assert!(err < 0.02, "predicted {} vs real {}", sim.wall_time, real.wall_time);
}

#[test]
fn io_bound_program_speedup_is_predictable() {
    use vppb_recorder::{record, RecordOptions};
    use vppb_sim::{analyze, predict};

    // Four I/O-bound workers: on one LWP their sleeps serialize (the
    // recorded profile), but the simulator knows io_wait releases the CPU,
    // so the predicted multiprocessor overlap is correct.
    let mut b = AppBuilder::new("iobound", "iobound.c");
    let w = b.func("w", |f| {
        f.loop_n(5, |f| {
            f.io_ms(10);
            f.work_ms(2);
        });
    });
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(4, |f| f.create_into(w, s));
        f.loop_n(4, |f| f.join(s));
    });
    let app = b.build().unwrap();
    let rec = record(&app, &RecordOptions::default()).unwrap();
    let params = vppb_model::SimParams::cpus(4);
    let pred = predict(&analyze(&rec.log).unwrap(), &rec.log, &params).unwrap().speedup();
    let real1 = go(&app, &MachineConfig::sun_enterprise(1).with_lwps(LwpPolicy::PerThread));
    let real4 = go(&app, &MachineConfig::sun_enterprise(4).with_lwps(LwpPolicy::PerThread));
    let real = real1.wall_time.nanos() as f64 / real4.wall_time.nanos() as f64;
    assert!(
        (pred - real).abs() / real < 0.06,
        "io-bound speedup: predicted {pred:.2} vs real {real:.2}"
    );
}
