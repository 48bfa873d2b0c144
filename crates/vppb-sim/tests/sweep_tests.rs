//! Sweep-engine regression tests: every point of a parallel sweep must
//! equal what serial [`vppb_sim::simulate`] reports for its configuration
//! — same wall clock, same DES cost, same utilization, same audit verdict
//! — and its speed-up surface must match what serial `predict`
//! invocations compute. Sweep cells record no trace, so a run without a
//! trace must also equal the same run with one.

use vppb_machine::{run, RunOptions, RunResult};
use vppb_model::{FaultInjection, LwpPolicy, ModelKind, SimParams, Time, TraceLog};
use vppb_recorder::{record, RecordOptions};
use vppb_sim::{
    analyze, build_replay_app, replay_with_engine, simulate, sweep, SweepConfig, SweepGrid,
    SweepPoint,
};
use vppb_threads::AppBuilder;
use vppb_workloads::{prodcons, splash, KernelParams};

fn record_app(app: &vppb_threads::App) -> TraceLog {
    record(app, &RecordOptions::default()).expect("record").log
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

/// The workloads the identity tests run over: a compute-bound kernel, a
/// lock-heavy producer/consumer, and a plain fork/join.
fn workloads() -> Vec<(&'static str, TraceLog)> {
    vec![
        ("ocean", record_app(&splash::ocean(KernelParams::scaled(8, 0.05)))),
        ("prodcons", record_app(&prodcons::naive(0.05))),
        ("forkjoin", record_app(&fork_join_app(4, 20))),
    ]
}

/// Both scheduler models × {1, 2, 4, 8} CPUs × {per-thread, fixed 2} LWPs.
fn identity_grid() -> Vec<SweepConfig> {
    let configs = SweepGrid::over_cpus([1, 2, 4, 8])
        .with_lwps([LwpPolicy::PerThread, LwpPolicy::Fixed(2)])
        .with_models([ModelKind::SolarisTs, ModelKind::AsyncPool])
        .configs();
    assert_eq!(configs.len(), 16, "16-config grid");
    configs
}

/// What a sweep point reports about its run, in comparable form.
#[derive(Debug, PartialEq)]
struct Cell {
    wall_ns: u64,
    des_events: u64,
    audit_clean: bool,
    utilization: f64,
}

fn cell(p: &SweepPoint) -> Cell {
    assert!(p.error.is_none(), "{}: {:?}", p.label, p.error);
    Cell {
        wall_ns: p.wall_ns,
        des_events: p.des_events,
        audit_clean: p.audit_clean,
        utilization: p.utilization,
    }
}

/// The same numbers from a serial, traced `simulate` of `params`.
fn serial_cell(log: &TraceLog, params: &SimParams) -> Cell {
    let x = simulate(log, params).expect("serial simulate");
    let busy: u64 = x.cpu_busy.iter().map(|d| d.nanos()).sum();
    let capacity = x.wall_time.nanos() * x.cpu_busy.len() as u64;
    Cell {
        wall_ns: x.wall_time.nanos(),
        des_events: x.des_events,
        audit_clean: x.audit.is_clean(),
        utilization: busy as f64 / capacity as f64,
    }
}

#[test]
fn parallel_sweep_points_equal_serial_simulate() {
    for (name, log) in workloads() {
        let configs = identity_grid();
        let outcome = sweep(&log, &configs, 4).expect("sweep");
        for (config, point) in configs.iter().zip(&outcome.points) {
            assert_eq!(cell(point), serial_cell(&log, &config.params), "{name}/{}", config.label);
            assert!(point.audit_clean, "{name}/{}: audit violated", config.label);
        }
    }
}

/// Replay `params` once with a trace and once without.
fn traced_and_untraced(log: &TraceLog, params: &SimParams) -> (RunResult, RunResult) {
    let plan = analyze(log).expect("analyze");
    let app = build_replay_app(&plan, log.header.source_map.clone()).expect("app");
    let with_trace = |record_trace: bool| {
        replay_with_engine(&app, &plan, params, None, |app, cfg, opts| {
            run(app, cfg, RunOptions { record_trace, ..opts })
        })
        .expect("replay")
    };
    (with_trace(true), with_trace(false))
}

fn assert_same_run(traced: &RunResult, untraced: &RunResult, what: &str) {
    assert_eq!(traced.wall_time, untraced.wall_time, "{what}: wall time");
    assert_eq!(traced.des_events, untraced.des_events, "{what}: DES events");
    assert_eq!(traced.cpu_busy, untraced.cpu_busy, "{what}: CPU busy");
    assert_eq!(traced.audit.checks, untraced.audit.checks, "{what}: audit checks");
    assert_eq!(traced.audit.render(), untraced.audit.render(), "{what}: audit violations");
    assert!(untraced.trace.transitions.is_empty() && untraced.trace.events.is_empty());
}

#[test]
fn a_run_without_a_trace_equals_a_run_with_one() {
    for (name, log) in workloads() {
        for config in identity_grid() {
            let (traced, untraced) = traced_and_untraced(&log, &config.params);
            assert!(!traced.trace.transitions.is_empty(), "{name}/{}", config.label);
            assert!(traced.audit.is_clean(), "{name}/{}: {}", config.label, traced.audit.render());
            assert_same_run(&traced, &untraced, &format!("{name}/{}", config.label));
        }
        // A dirty audit renders the same violations, in the same order.
        let mut params = SimParams::cpus(4);
        params.faults = FaultInjection { double_charge_cpu: Some(0), ..FaultInjection::none() };
        let (traced, untraced) = traced_and_untraced(&log, &params);
        assert!(!traced.audit.is_clean(), "{name}: the planted fault went unseen");
        assert_same_run(&traced, &untraced, &format!("{name}/4p double-charged"));
    }
}

#[test]
fn sweep_speedups_match_serial_predict_invocations() {
    let log = record_app(&splash::radix(KernelParams::scaled(8, 0.1)));
    let configs = SweepGrid::over_cpus([1, 2, 4, 8]).configs();
    let outcome = sweep(&log, &configs, 3).expect("sweep");
    let uni = simulate(&log, &SimParams::cpus(1)).expect("uni");
    assert_eq!(outcome.uni_wall, uni.wall_time);
    for (cell, point) in configs.iter().zip(&outcome.points) {
        let serial = simulate(&log, &cell.params).expect("serial");
        let expected = uni.wall_time.nanos() as f64 / serial.wall_time.nanos() as f64;
        assert!(
            (point.speedup - expected).abs() < 1e-12,
            "{}: sweep says {} but serial predict says {expected}",
            cell.label,
            point.speedup
        );
        assert_eq!(point.wall_ns, serial.wall_time.nanos());
        assert_eq!(point.cpus, cell.params.machine.cpus);
    }
}

#[test]
fn identical_configs_are_deduplicated_but_still_reported() {
    let log = record_app(&fork_join_app(3, 10));
    // 4p appears twice; 1p duplicates the implicit uni-processor reference.
    let configs: Vec<SweepConfig> = SweepGrid::over_cpus([1, 4, 4]).configs();
    let outcome = sweep(&log, &configs, 2).expect("sweep");
    assert_eq!(outcome.points.len(), 3, "every cell gets a row");
    // Unique jobs: {1p (shared with the reference), 4p} -> 2.
    assert_eq!(outcome.unique_runs, 2);
    assert!(outcome.points[0].deduplicated, "1p cell shares the reference run");
    assert!(!outcome.points[1].deduplicated, "first 4p cell is fresh");
    assert!(outcome.points[2].deduplicated, "second 4p cell reuses it");
    // A deduplicated cell carries its job's numbers, DES count included.
    assert_eq!(cell(&outcome.points[1]), cell(&outcome.points[2]));
    assert_eq!(outcome.points[0].wall_ns, outcome.uni_wall.nanos());
}

#[test]
fn cpu_counts_above_the_lwp_bound_share_the_run_at_the_bound() {
    // Main and four workers, none bound: at most five LWPs with one per
    // thread, two with a fixed pool of two.
    let log = record_app(&fork_join_app(4, 10));
    let configs = SweepGrid::over_cpus([2, 5, 8, 16])
        .with_lwps([LwpPolicy::PerThread, LwpPolicy::Fixed(2)])
        .configs();
    let outcome = sweep(&log, &configs, 2).expect("sweep");
    // Per-thread: 8p and 16p fold onto 5p. lwps=2: 5p, 8p and 16p fold
    // onto 2p.
    let dedup: Vec<bool> = outcome.points.iter().map(|p| p.deduplicated).collect();
    assert_eq!(dedup, [false, false, true, true, false, true, true, true]);
    assert_eq!(outcome.unique_runs, 4, "the reference, 2p and 5p per-thread, 2p lwps=2");
    // A folded cell still reports its own CPU count, and its utilization
    // over that many CPUs, as a serial run at that count does.
    for (config, point) in configs.iter().zip(&outcome.points) {
        assert_eq!(point.cpus, config.params.machine.cpus);
        assert_eq!(cell(point), serial_cell(&log, &config.params), "{}", config.label);
    }
}

#[test]
fn sweep_results_are_independent_of_worker_count() {
    let log = record_app(&splash::fft(KernelParams::scaled(4, 0.1)));
    let configs = SweepGrid::over_cpus([1, 2, 4, 8]).configs();
    let serial = sweep(&log, &configs, 1).expect("1 worker");
    assert_eq!(serial.workers, 1);
    for workers in [2, 4, 8] {
        let parallel = sweep(&log, &configs, workers).expect("sweep");
        assert!(parallel.workers >= 1 && parallel.workers <= workers);
        assert_eq!(parallel.uni_wall, serial.uni_wall);
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(cell(a), cell(b), "{} on {workers} workers", a.label);
            assert!((a.speedup - b.speedup).abs() < 1e-12);
        }
    }
}

#[test]
fn empty_grid_still_runs_the_reference() {
    let log = record_app(&fork_join_app(2, 5));
    let outcome = sweep(&log, &[], 2).expect("sweep");
    assert!(outcome.points.is_empty());
    assert_eq!(outcome.unique_runs, 1, "the 1-CPU reference still runs");
    assert!(outcome.uni_wall > Time::ZERO);
}

#[test]
fn panicking_cell_is_contained_and_siblings_match_serial() {
    let log = record_app(&fork_join_app(4, 10));
    // A panic hook that swallows the injected panic's default stderr spew
    // (the unwind itself is what we're testing, not the report).
    let hook = vppb_testkit::SilencedPanicHook::install();
    let mut configs = SweepGrid::over_cpus([2, 4, 8]).configs();
    // Poison the middle cell: its engine run panics after 5 events.
    configs[1].params.faults =
        FaultInjection { panic_after_events: Some(5), ..FaultInjection::none() };
    configs[1].label = "4p (poisoned)".into();
    let outcome = sweep(&log, &configs, 3).expect("sweep survives a panicking worker");
    drop(hook);

    // The poisoned cell reports its crash instead of a prediction...
    let poisoned = &outcome.points[1];
    assert!(poisoned.error.as_deref().unwrap_or("").contains("panicked"), "{poisoned:?}");
    assert_eq!((poisoned.wall_ns, poisoned.des_events), (0, 0));

    // ...while its siblings complete and equal serial simulate.
    for i in [0usize, 2] {
        assert_eq!(
            cell(&outcome.points[i]),
            serial_cell(&log, &configs[i].params),
            "{}",
            configs[i].label
        );
    }
}

/// Regression (fingerprint aliasing): two grid cells that differ *only*
/// in one `f64` cost factor used to be at the mercy of `Debug`
/// formatting for their dedup identity. Field-wise hashing must keep
/// them distinct — each gets its own simulation — while `-0.0` vs `0.0`
/// (equal values with different bit patterns and different renderings)
/// must still collapse into one job.
#[test]
fn fingerprint_never_aliases_cost_factors_and_folds_signed_zero() {
    let log = record_app(&fork_join_app(3, 10));

    // Differ only in the bound-sync cost factor: two unique jobs.
    let mut configs = SweepGrid::over_cpus([4, 4]).configs();
    configs[1].params.machine.bound_costs.sync_factor = 11.8;
    configs[1].label = "4p sync=11.8".into();
    let outcome = sweep(&log, &configs, 2).expect("sweep");
    assert_eq!(outcome.unique_runs, 3, "reference + two distinct 4p cells");
    assert!(
        !outcome.points[1].deduplicated,
        "a config differing in one cost factor must not alias its sibling"
    );

    // Differ only in the sign of a zero cost factor: equal configs, one job.
    let mut configs = SweepGrid::over_cpus([4, 4]).configs();
    configs[0].params.machine.migration_penalty = vppb_model::Duration::ZERO;
    configs[0].params.machine.bound_costs.create_factor = 0.0;
    configs[1].params.machine.bound_costs.create_factor = -0.0;
    assert_eq!(configs[0].params, configs[1].params, "-0.0 == 0.0");
    let outcome = sweep(&log, &configs, 2).expect("sweep");
    assert_eq!(outcome.unique_runs, 2, "reference + one shared 4p cell");
    assert!(outcome.points[1].deduplicated, "0.0 and -0.0 must share one job");

    // And the fingerprint itself is a stable pure function of the fields.
    let a = SimParams::cpus(4);
    let mut b = SimParams::cpus(4);
    assert_eq!(a.fingerprint(), b.fingerprint());
    b.machine.bound_costs.sync_factor += 1e-9;
    assert_ne!(a.fingerprint(), b.fingerprint());
}

#[test]
fn failing_cell_is_error_valued_without_a_panic() {
    let log = record_app(&fork_join_app(2, 5));
    let mut configs = SweepGrid::over_cpus([2, 4]).configs();
    // An invalid machine (0 CPUs) makes the run itself fail.
    configs[0].params.machine.cpus = 0;
    let outcome = sweep(&log, &configs, 2).expect("sweep survives a failing cell");
    assert!(outcome.points[0].error.is_some());
    assert_eq!(outcome.points[0].wall_ns, 0);
    assert_eq!(cell(&outcome.points[1]), serial_cell(&log, &configs[1].params));
}
