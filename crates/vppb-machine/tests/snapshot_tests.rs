//! Checkpoint/restore property tests: pausing the engine at any DES event
//! boundary, snapshotting, and resuming — even from a forked copy of the
//! snapshot — must be invisible in the final result.

use proptest::prelude::*;
use vppb_machine::{
    run, run_stream, EngineSnapshot, NullHooks, RunOptions, RunResult, StreamControl, StreamOutcome,
};
use vppb_model::{CodeAddr, Duration, Time};
use vppb_sim::result_fingerprint;
use vppb_testkit::fixtures::{compute_bound_pair, io_and_compute_app, two_worker_app};
use vppb_testkit::{cfg, exact};
use vppb_threads::{Action, App, Body, LibCall, TapeCursor};

fn fixture(ix: usize) -> App {
    match ix {
        0 => two_worker_app(3),
        1 => compute_bound_pair(2),
        _ => io_and_compute_app(),
    }
}

fn run_plain(app: &App, cpus: u32) -> RunResult {
    let mut hooks = NullHooks;
    run(app, &exact(cfg(cpus)), RunOptions::new(&mut hooks)).expect("uninterrupted run")
}

/// Run `app` pausing at every `step`-th DES event, restoring each pause
/// into a fresh engine from a *forked* snapshot. Returns the final result
/// and the number of pauses taken.
fn run_paused_every(app: &App, cpus: u32, step: u64) -> (RunResult, u64) {
    let c = exact(cfg(cpus));
    let mut resume: Option<Box<EngineSnapshot>> = None;
    let mut stop = step;
    let mut pauses = 0;
    loop {
        let mut hooks = NullHooks;
        let control = StreamControl { resume_from: resume.take(), stop_before: Some(stop) };
        match run_stream(app, &c, RunOptions::new(&mut hooks), control).expect("segment runs") {
            StreamOutcome::Done(r) => return (*r, pauses),
            StreamOutcome::Paused(s) => {
                // Resume the clone, not the original: restore must work
                // from a duplicated checkpoint too.
                let clone = s.try_clone().expect("fixture programs fork");
                resume = Some(Box::new(clone));
                stop += step;
                pauses += 1;
            }
            StreamOutcome::Stalled { event } => panic!("unexpected stall at event {event}"),
        }
    }
}

#[test]
fn pause_at_every_single_event_is_invisible() {
    let app = two_worker_app(2);
    for cpus in [1, 2] {
        let base = run_plain(&app, cpus);
        let (paused, pauses) = run_paused_every(&app, cpus, 1);
        assert!(pauses > 0, "run too short to pause");
        assert_eq!(
            result_fingerprint(&base),
            result_fingerprint(&paused),
            "{cpus} cpus: pausing at every event changed the result"
        );
        assert!(paused.audit.is_clean(), "audit:\n{}", paused.audit.render());
    }
}

#[test]
fn snapshot_exposes_progress() {
    let app = compute_bound_pair(2);
    let mut hooks = NullHooks;
    let control = StreamControl { resume_from: None, stop_before: Some(5) };
    match run_stream(&app, &exact(cfg(2)), RunOptions::new(&mut hooks), control).unwrap() {
        StreamOutcome::Paused(s) => {
            assert!(s.des_events() <= 5);
            assert!(!s.thread_ids().is_empty());
        }
        other => panic!("expected a pause, got {other:?}"),
    }
}

/// A tape of `work` compute segments of 1 ms each, then `thr_exit`,
/// optionally preceded by a `thr_create` of `child`.
fn tape(child: Option<usize>, work: usize) -> TapeCursor {
    let create = child.map(|f| {
        Action::Call(
            LibCall::Create { func: vppb_threads::FuncId(f), bound: false },
            CodeAddr::NULL,
        )
    });
    let work = std::iter::repeat_n(Action::Work(Duration::from_millis(1)), work);
    let exit = Action::Call(LibCall::Exit, CodeAddr::NULL);
    TapeCursor::new(create.into_iter().chain(work).chain([exit]).collect())
}

fn resume_to_end(app: &App, snap: EngineSnapshot) -> RunResult {
    let mut hooks = NullHooks;
    let control = StreamControl { resume_from: Some(Box::new(snap)), stop_before: None };
    match run_stream(app, &exact(cfg(2)), RunOptions::new(&mut hooks), control).unwrap() {
        StreamOutcome::Done(r) => *r,
        _ => panic!("resumed run did not finish"),
    }
}

#[test]
fn failed_tape_rebind_leaves_the_snapshot_untouched() {
    // Main walks a tape and starts a script-bodied worker.
    let mut app = two_worker_app(3);
    let worker = app.functions.iter().position(|f| f.name == "thread").expect("worker");
    app.functions[app.main.0].body = Body::Tape(tape(Some(worker), 10));

    // Pause once both threads exist, while main is still computing.
    let mut hooks = NullHooks;
    let control = StreamControl { resume_from: None, stop_before: Some(6) };
    let StreamOutcome::Paused(mut snap) =
        run_stream(&app, &exact(cfg(2)), RunOptions::new(&mut hooks), control).unwrap()
    else {
        panic!("expected a pause");
    };
    assert_eq!(snap.thread_ids().len(), 2, "worker not started by the pause");
    assert!(snap.now() < Time::ZERO + Duration::from_millis(10), "main already done");
    let untouched = snap.try_clone().expect("scripts and tapes fork");

    // Main's replacement tape would add 50 ms of work; the worker has no
    // tape to move, so the rebind must fail before touching main.
    let mut tapes = vec![tape(None, 0); app.functions.len()];
    tapes[app.main.0] = tape(Some(worker), 60);
    assert!(snap.rebind_tapes(&tapes).is_err());
    assert_eq!(
        result_fingerprint(&resume_to_end(&app, *snap)),
        result_fingerprint(&resume_to_end(&app, untouched)),
        "a failed rebind changed the snapshot"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn checkpointed_runs_are_bit_identical(
        app_ix in 0usize..3,
        cpus in 1u32..5,
        step in 1u64..23,
    ) {
        let app = fixture(app_ix);
        let base = run_plain(&app, cpus);
        let (paused, _) = run_paused_every(&app, cpus, step);
        prop_assert_eq!(
            result_fingerprint(&base),
            result_fingerprint(&paused),
            "fixture {} on {} cpus, pause every {} events", app_ix, cpus, step
        );
        prop_assert!(paused.audit.is_clean());
    }
}
