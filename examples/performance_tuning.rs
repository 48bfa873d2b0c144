//! The §5 performance-tuning walkthrough: find a serialization bottleneck
//! with the Visualizer, fix it, and verify the fix — without ever running
//! on a multiprocessor.
//!
//! Run with: `cargo run --release --example performance_tuning`

use std::collections::BTreeMap;
use vppb::pipeline;
use vppb::prelude::*;
use vppb_viz::Inspector;
use vppb_workloads::prodcons;

const SCALE: f64 = 1.0;

fn main() -> Result<(), VppbError> {
    // Step 1: the initial program — 150 producers, 75 consumers, one
    // buffer mutex. Record on a uni-processor and predict 8 CPUs.
    let naive = prodcons::naive(SCALE);
    let prediction = pipeline::record_and_predict(&naive, 8)?;
    let sim = &prediction.run;
    println!("naive program:    predicted speed-up on 8 CPUs = {:.3}", prediction.speedup());
    println!("                  (the paper found 1.022 — \"only 2.2% faster\")\n");

    // Step 2: diagnose. In the execution flow graph "no threads are
    // actually running in parallel [...] all threads are being blocked by
    // a wait on a mutex". Clicking the arrows shows it is the same mutex
    // every time; here we count blocking per object instead of clicking.
    let mut blocked_on: BTreeMap<SyncObjId, usize> = BTreeMap::new();
    for tr in &sim.trace.transitions {
        if let vppb_model::ThreadState::Blocked(vppb_model::BlockReason::Sync(obj)) = tr.state {
            *blocked_on.entry(obj).or_default() += 1;
        }
    }
    let (hot, count) = blocked_on
        .iter()
        .max_by_key(|(_, c)| **c)
        .map(|(o, c)| (*o, *c))
        .expect("something blocks");
    println!("diagnosis:        {count} blocking waits, all on the same object: {hot}");

    // The inspector can step through every operation on that mutex and map
    // one back to its source line — the line the tool would highlight.
    let inspector = Inspector::new(&sim.trace);
    let ops = inspector.operations_on(hot);
    if let Some(op) = ops.iter().find(|o| o.routine == "mutex_lock") {
        if let Some(src) = &op.source {
            println!("                  first lock at {src}");
        }
    }
    println!("                  -> the single buffer mutex serializes everything\n");

    // Step 3: the fix — 100 sub-buffers with their own locks, split
    // insert/fetch check mutexes. Predict again.
    let improved = prodcons::improved(SCALE);
    let speedup2 = pipeline::record_and_predict(&improved, 8)?.speedup();
    println!("improved program: predicted speed-up on 8 CPUs = {speedup2:.2}");
    println!("                  (the paper predicted 7.75)\n");

    // Step 4: validate against a real multiprocessor execution, as §5
    // does ("a validation gives the speed-up of 7.90").
    let real1 = pipeline::real_run(&prodcons::improved(SCALE), 1)?.wall_time;
    let real8 = pipeline::real_run(&improved, 8)?.wall_time;
    let real_speedup = real1.nanos() as f64 / real8.nanos() as f64;
    let err = (real_speedup - speedup2) / real_speedup;
    println!(
        "validation:       real speed-up = {real_speedup:.2}, prediction error = {:.1}%",
        err * 100.0
    );
    println!("                  (the paper's error was 1.9%)");
    Ok(())
}
