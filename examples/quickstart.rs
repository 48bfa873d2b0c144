//! Quickstart: the paper's fig. 2 example, end to end.
//!
//! Builds the two-worker program from the paper, records it on a
//! (simulated) uni-processor, predicts its execution on two processors,
//! prints both Visualizer graphs to the terminal, and opens the event
//! "popup window" for the join event fig. 5 circles.
//!
//! Run with: `cargo run --example quickstart`

use vppb::pipeline;
use vppb::prelude::*;
use vppb_model::textlog;
use vppb_threads::AppBuilder;
use vppb_viz::{ansi, AnsiOptions, Inspector};

fn main() -> Result<(), VppbError> {
    // --- the example program of fig. 2 ---------------------------------
    //
    //   void* thread(void*) { work(); }
    //   int main() {
    //       thread_t thr_a, thr_b;
    //       thr_create(0, 0, thread, 0, 0, &thr_a);
    //       thr_create(0, 0, thread, 0, 0, &thr_b);
    //       thr_join(thr_a, 0, 0);
    //       thr_join(thr_b, 0, 0);
    //   }
    let mut b = AppBuilder::new("example", "main.c");
    let thread = b.func("thread", |f| f.work_ms(300));
    b.main(move |f| {
        let thr_a = f.create(thread);
        let thr_b = f.create(thread);
        f.join(thr_a);
        f.join(thr_b);
    });
    let app = b.build()?;

    // --- record a monitored uni-processor execution ----------------------
    let rec = pipeline::record_app(&app)?;
    println!("=== Recorder output (the paper's fig. 2 event list) ===");
    for line in textlog::write_log(&rec.log).lines().take(18) {
        println!("  {line}");
    }
    println!("  ... {} records, monitored run took {}\n", rec.log.len(), rec.wall_time());

    // --- simulate two processors -----------------------------------------
    let prediction = pipeline::predict(&rec.log, 2)?;
    let sim = &prediction.run;
    println!(
        "predicted: {} on 1 CPU, {} on 2 CPUs -> speed-up {:.2}\n",
        prediction.uni_wall,
        sim.wall_time,
        prediction.speedup()
    );

    // --- the two graphs (fig. 5) -------------------------------------------
    println!("=== Parallelism graph (green=running, red=runnable) and execution flow graph ===");
    print!("{}", ansi::render_trace(&sim.trace, &AnsiOptions::default()));

    // --- the event popup (fig. 5's circled join) ----------------------------
    let mut inspector = Inspector::new(&sim.trace);
    let mut details =
        inspector.select_near(ThreadId::MAIN, sim.wall_time).expect("main has events");
    // Walk back to the join of T4.
    while details.routine != "thr_join" {
        details = inspector.prev_event().expect("join exists");
    }
    println!("\n=== Event popup ===");
    println!("  thread:        {} (start fn: {})", details.thread, details.start_fn);
    println!(
        "  thread times:  started {}, ended {}, working {}, total {}",
        details.thread_started,
        details.thread_ended,
        details.thread_cpu_time,
        details.thread_total_time
    );
    println!(
        "  event:         {} on CPU{}, {} -> {} (took {})",
        details.routine, details.cpu.0, details.started, details.ended, details.duration
    );
    if let Some(src) = &details.source {
        println!("  source:        {src}   <- the line the editor would open");
    }
    Ok(())
}
