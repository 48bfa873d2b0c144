//! Cross-crate integration: the complete fig. 1 workflow through the
//! public API — program → Recorder → log file on disk → Simulator →
//! Visualizer → source line.

use vppb::pipeline;
use vppb::prelude::*;
use vppb_recorder::{load, save_text};
use vppb_sim::simulate;
use vppb_threads::AppBuilder;
use vppb_viz::{ansi, svg, AnsiOptions, Inspector, ThreadFilter, Timeline, View, ZoomStep};
use vppb_workloads::{prodcons, splash, KernelParams};

#[test]
fn workflow_via_log_file_on_disk() {
    let app = splash::fft(KernelParams::scaled(4, 0.1));
    let rec = pipeline::record_app(&app).unwrap();

    // Store and re-load the recorded information, like the real tool.
    let dir = std::env::temp_dir().join("vppb-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fft.vppb");
    save_text(&rec.log, &path).unwrap();
    let log = load(&path).unwrap();
    assert_eq!(log, rec.log);

    // Simulate from the loaded log.
    let sim = simulate(&log, &SimParams::cpus(4)).unwrap();
    sim.trace.check_invariants().unwrap();
    assert!(sim.wall_time > Time::ZERO);

    // Both renderers produce output containing the worker lanes.
    let svg_out = svg::render_trace(&sim.trace);
    assert!(svg_out.contains("worker_1"));
    let ansi_out =
        ansi::render_trace(&sim.trace, &AnsiOptions { color: false, ..Default::default() });
    assert!(ansi_out.contains("T4"));
}

#[test]
fn inspector_reaches_source_lines_through_the_whole_stack() {
    let mut b = AppBuilder::new("srcline", "srcline.c");
    let m = b.mutex();
    let w = b.func("worker", move |f| {
        f.work_ms(5);
        f.lock(m); // this line must be recoverable from the simulation
        f.work_ms(1);
        f.unlock(m);
    });
    b.main(move |f| {
        let a = f.create(w);
        let c = f.create(w);
        f.join(a);
        f.join(c);
    });
    let app = b.build().unwrap();
    let sim = pipeline::record_and_predict(&app, 2).unwrap().run;

    let mut ins = Inspector::new(&sim.trace);
    let mut d = ins.select_near(ThreadId(4), Time::ZERO).unwrap();
    while d.routine != "mutex_lock" {
        d = ins.next_event().expect("worker locks the mutex");
    }
    let src = d.source.expect("lock site resolves");
    assert_eq!(src.file, "srcline.c");
    assert_eq!(src.function, "worker");

    // Similar-event stepping follows the mutex to the other worker.
    let next = ins.next_similar().expect("unlock or other lock");
    assert_eq!(next.object, d.object);
}

#[test]
fn zoom_and_compression_on_a_226_thread_trace() {
    let rec = pipeline::record_app(&prodcons::naive(0.03)).unwrap();
    let sim = simulate(&rec.log, &SimParams::cpus(8)).unwrap();
    let tl = Timeline::from_trace(&sim.trace);
    assert_eq!(tl.lanes.len(), 226, "main + 150 producers + 75 consumers");

    let mut view = View::full(&tl);
    view.zoom_in(ZoomStep::X3);
    view.zoom_in(ZoomStep::X1_5);
    assert_eq!(view.from, Time::ZERO, "zoom keeps the left edge");
    // Late in the run most producers have exited; compression should drop
    // them from the display.
    view.select(Time(sim.wall_time.nanos() * 95 / 100), sim.wall_time);
    view.filter = ThreadFilter::ActiveInView;
    let visible = view.visible_threads(&tl);
    assert!(visible.len() < 226, "compression removed inactive threads");
    assert!(!visible.is_empty());

    // Rendering the compressed view stays well-formed.
    let s = svg::render(&tl, &sim.trace, &view, &svg::SvgOptions::default());
    assert!(s.starts_with("<svg") && s.trim_end().ends_with("</svg>"));
}

#[test]
fn prediction_is_reusable_across_machine_configs_from_one_log() {
    let app = splash::radix(KernelParams::scaled(8, 0.1));
    let rec = pipeline::record_app(&app).unwrap();
    let mut walls = Vec::new();
    for cpus in [1u32, 2, 4, 8] {
        let sim = simulate(&rec.log, &SimParams::cpus(cpus)).unwrap();
        walls.push(sim.wall_time);
    }
    for w in walls.windows(2) {
        assert!(w[1] < w[0], "more CPUs, shorter predicted run: {walls:?}");
    }
}

#[test]
fn parallelism_graph_shows_the_case_study_contrast() {
    // Fig. 6 vs fig. 7: the naive run has ~1 thread running; the improved
    // run keeps 8 running with a tall runnable band.
    let naive =
        simulate(&pipeline::record_app(&prodcons::naive(0.5)).unwrap().log, &SimParams::cpus(8))
            .unwrap();
    let improved =
        simulate(&pipeline::record_app(&prodcons::improved(0.5)).unwrap().log, &SimParams::cpus(8))
            .unwrap();
    let tl_naive = Timeline::from_trace(&naive.trace);
    let tl_improved = Timeline::from_trace(&improved.trace);
    assert!(tl_naive.avg_running() < 2.0, "naive: {:.2} avg running", tl_naive.avg_running());
    assert!(
        tl_improved.avg_running() > 6.0,
        "improved: {:.2} avg running",
        tl_improved.avg_running()
    );
    assert!(
        tl_improved.peak_parallelism() > 100,
        "improved: tall red band of runnable threads ({})",
        tl_improved.peak_parallelism()
    );
}

#[test]
fn comparison_view_aligns_prediction_with_reality() {
    // The §4 validation as a library call: per-thread deltas between the
    // predicted and the real execution of an FFT run.
    let app = splash::fft(KernelParams::scaled(4, 0.2));
    let sim = pipeline::record_and_predict(&app, 4).unwrap().run;
    let real = pipeline::real_run(&app, 4).unwrap();
    let cmp = vppb_viz::compare("predicted", &sim.trace, "real", &real.trace);
    assert!(cmp.wall_error.abs() < 0.03, "wall error {:.2}%", cmp.wall_error * 100.0);
    assert!(cmp.max_thread_error() < 0.05, "worst thread {:?}", cmp.worst_thread());
    // All four threads aligned (nothing "only in" one trace).
    assert!(cmp.threads.iter().all(|t| t.only_in.is_none()));
    let rendered = vppb_viz::compare::render(&cmp);
    assert!(rendered.contains("predicted"));
    assert!(rendered.contains("worker_1"));
}
