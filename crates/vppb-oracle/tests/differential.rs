//! The oracle's reason to exist: engine-vs-oracle differential checks.
//!
//! `corpus_agrees_bit_for_bit` is the real assertion — a fixed seed
//! corpus of generated programs replayed across the scheduler-model ×
//! CPU × LWP grid with zero divergences (full decision streams, not
//! makespans). The `inverted_tiebreak_*` and `reversed_steal_order_*`
//! tests prove the harness has teeth: a deliberate scheduling mutation
//! (LIFO dispatch within a priority level in the Solaris world; a
//! backwards steal order in the async work-stealing world) is caught and
//! shrunk to a tiny reproducer.

use vppb_machine::{first_divergence, NullHooks, RunOptions, StepRecorder};
use vppb_model::ModelKind;
use vppb_oracle::{check_spec, fuzz_corpus, shrink, ConfigGrid, GenParams, OracleTweaks, ProgSpec};
use vppb_workloads::{lu, splash, KernelParams};

const MUTATED: OracleTweaks =
    OracleTweaks { invert_dispatch_tiebreak: true, reverse_steal_order: false };
const STEAL_MUTATED: OracleTweaks =
    OracleTweaks { invert_dispatch_tiebreak: false, reverse_steal_order: true };

/// Direct (non-replay) agreement: both schedulers run the same app from
/// scratch and must produce identical decision streams and results.
fn assert_direct_agreement(app: &vppb_threads::App, cfg: &vppb_model::MachineConfig, what: &str) {
    let mut hooks_e = NullHooks;
    let mut steps_e = StepRecorder::new();
    let mut opts = RunOptions::new(&mut hooks_e);
    opts.observer = Some(&mut steps_e);
    let engine = vppb_machine::run(app, cfg, opts).expect("engine run");

    let mut hooks_o = NullHooks;
    let mut steps_o = StepRecorder::new();
    let mut opts = RunOptions::new(&mut hooks_o);
    opts.observer = Some(&mut steps_o);
    let oracle = vppb_oracle::run(app, cfg, opts).expect("oracle run");

    if let Some(d) = first_divergence(steps_e.steps(), steps_o.steps()) {
        panic!("{what}: decision streams diverge:\n{d}");
    }
    assert_eq!(engine.wall_time, oracle.wall_time, "{what}: wall time");
    assert_eq!(engine.cpu_busy, oracle.cpu_busy, "{what}: per-cpu busy time");
    assert_eq!(engine.des_events, oracle.des_events, "{what}: DES event count");
    assert_eq!(engine.total_cpu_time, oracle.total_cpu_time, "{what}: total cpu time");
    assert_eq!(engine.trace.transitions, oracle.trace.transitions, "{what}: transition timelines");
    assert_eq!(engine.trace.events, oracle.trace.events, "{what}: placed events");
    assert!(oracle.audit.is_clean(), "{what}: oracle audit:\n{}", oracle.audit.render());
}

#[test]
fn setconcurrency_past_the_lwp_bound_agrees_directly() {
    // Both schedulers stop the pool at `MAX_LWPS`, however many LWPs a
    // `thr_setconcurrency` asks for; a bound thread's LWP, numbered after
    // the pool's, lands on the same id in both.
    let mut b = vppb_threads::AppBuilder::new("conc", "conc.c");
    let w = b.func("w", |f| f.work_ms(1));
    b.main(move |f| {
        f.set_concurrency(u32::MAX);
        let s = f.slot();
        f.loop_n(3, |f| f.create_into(w, s));
        let t = f.create_bound(w);
        f.join(t);
        f.loop_n(3, |f| f.join(s));
    });
    let app = b.build().unwrap();
    for cpus in [1, 2, 4] {
        let cfg = vppb_model::MachineConfig::sun_enterprise(cpus)
            .with_lwps(vppb_model::LwpPolicy::FollowProgram);
        assert_direct_agreement(&app, &cfg, &format!("setconcurrency on {cpus} cpus"));
    }
}

#[test]
fn real_workloads_agree_directly() {
    // Real SPLASH kernels straight through both schedulers (no record/
    // replay in between) on a few machine shapes.
    for cpus in [1, 2, 4] {
        let cfg = vppb_model::MachineConfig::sun_enterprise(cpus)
            .with_lwps(vppb_model::LwpPolicy::PerThread);
        let fft = splash::fft(KernelParams::scaled(4, 0.01));
        assert_direct_agreement(&fft, &cfg, &format!("fft on {cpus} cpus"));
    }
    let cfg =
        vppb_model::MachineConfig::sun_enterprise(2).with_lwps(vppb_model::LwpPolicy::Fixed(2));
    let lu_app = lu::lu(KernelParams::scaled(3, 0.01));
    assert_direct_agreement(&lu_app, &cfg, "lu on 2 cpus / 2 lwps");
}

#[test]
fn corpus_agrees_bit_for_bit() {
    // A fixed corpus across the full grid. CI's `vppb fuzz` runs and
    // `vppb fuzz --seeds 500` cover much larger corpora; this in-tree slice
    // keeps `cargo test` fast while still covering every generator
    // feature (the seeds span workers/bindings/barriers/every seg kind).
    let report =
        fuzz_corpus(0..48, &GenParams::default(), &ConfigGrid::default(), OracleTweaks::default());
    assert_eq!(report.seeds, 48);
    assert!(
        report.is_clean(),
        "{} divergence(s); first:\n{}",
        report.divergences.len(),
        report.divergences[0]
    );
}

#[test]
fn inverted_tiebreak_is_caught() {
    // The mutated oracle dispatches LIFO within a priority level. Any
    // program that ever has two same-priority LWPs queued must diverge;
    // scan a few seeds and insist the harness notices quickly.
    let grid = ConfigGrid::default();
    let caught = (0..24u64).find(|&seed| {
        let spec = ProgSpec::generate(seed, &GenParams::default());
        matches!(check_spec(&spec, &grid, MUTATED), Ok(Some(_)))
    });
    assert!(caught.is_some(), "no seed in 0..24 tripped the inverted tie-break");
}

#[test]
fn inverted_tiebreak_shrinks_to_a_tiny_repro() {
    let grid = ConfigGrid::default();
    let params = GenParams::default();
    let seed = (0..24u64)
        .find(|&s| {
            let spec = ProgSpec::generate(s, &params);
            matches!(check_spec(&spec, &grid, MUTATED), Ok(Some(_)))
        })
        .expect("a diverging seed exists in 0..24");
    let spec = ProgSpec::generate(seed, &params);
    let result = shrink(&spec, &grid, MUTATED, 200).expect("spec diverges, so shrink succeeds");
    assert!(
        result.divergence.plan_ops <= 20,
        "shrunk repro still has {} plan ops (spec: {:#?})",
        result.divergence.plan_ops,
        result.spec
    );
    // The minimal repro must still build, record, and diverge — i.e. be a
    // genuine standalone reproducer.
    let again = check_spec(&result.spec, &grid, MUTATED).expect("repro records");
    assert!(again.is_some(), "shrunk spec no longer diverges");
}

#[test]
fn reversed_steal_order_is_caught() {
    // The mutated oracle's async pool steals from victims in descending
    // order instead of the engine's ascending wrap. Only the async model
    // exercises stealing, so the grid pins that axis; multi-LWP pools
    // (the `2-lwp` mode) are where victims exist at all.
    let grid = ConfigGrid::for_model(ModelKind::AsyncPool);
    let caught = (0..48u64).find(|&seed| {
        let spec = ProgSpec::generate(seed, &GenParams::default());
        matches!(check_spec(&spec, &grid, STEAL_MUTATED), Ok(Some(_)))
    });
    assert!(caught.is_some(), "no seed in 0..48 tripped the reversed steal order");
}

#[test]
fn reversed_steal_order_shrinks_to_a_valid_repro() {
    let grid = ConfigGrid::for_model(ModelKind::AsyncPool);
    let params = GenParams::default();
    let seed = (0..48u64)
        .find(|&s| {
            let spec = ProgSpec::generate(s, &params);
            matches!(check_spec(&spec, &grid, STEAL_MUTATED), Ok(Some(_)))
        })
        .expect("a diverging seed exists in 0..48");
    let spec = ProgSpec::generate(seed, &params);
    let result =
        shrink(&spec, &grid, STEAL_MUTATED, 200).expect("spec diverges, so shrink succeeds");
    assert!(
        result.divergence.plan_ops <= 30,
        "shrunk repro still has {} plan ops (spec: {:#?})",
        result.divergence.plan_ops,
        result.spec
    );
    let again = check_spec(&result.spec, &grid, STEAL_MUTATED).expect("repro records");
    assert!(again.is_some(), "shrunk spec no longer diverges");
}
