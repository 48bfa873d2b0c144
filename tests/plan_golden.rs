//! Golden output of the analyzer: the replay plan and stability map of
//! the Table-1 programs at 2, 4 and 8 threads and the §5 pair, each taken
//! whole and cut at seeded record boundaries, in text and in v2 binary.
//! A cut log goes through the lenient load (salvage included), so the
//! plan of every salvaged tail is pinned too. Each golden line carries a
//! content hash of the rendered plan — every `ReplayPlan` field but the
//! compiled tapes — and the full stability map, so a refactor of the
//! analyzer that moves one op, seed or count fails here.
//! Regenerate deliberately with `UPDATE_GOLDEN=1 cargo test --test plan_golden`.

use std::fmt::Write as _;
use vppb_model::corrupt::ChaosRng;
use vppb_model::{binlog, chunk, textlog, ContentId, TraceLog};
use vppb_recorder::{load_lenient_traced, record, RecordOptions};
use vppb_sim::{analyze_with_stability, ReplayPlan};
use vppb_testkit::assert_golden;
use vppb_workloads::{prodcons, splash2_suite, KernelParams};

/// Seeded cuts per log and format, besides the whole log.
const CUTS: usize = 6;

fn table1_and_case_study() -> Vec<(String, TraceLog)> {
    let rec = |app| record(&app, &RecordOptions::default()).expect("record").log;
    let mut out = Vec::new();
    for spec in splash2_suite() {
        for p in [2, 4, 8] {
            out.push((format!("{}-{p}", spec.name), rec((spec.build)(KernelParams::new(p)))));
        }
    }
    out.push(("prodcons-naive".into(), rec(prodcons::naive(1.0))));
    out.push(("prodcons-improved".into(), rec(prodcons::improved(1.0))));
    out
}

/// Every plan field but the compiled tape cache, rendered in full, and
/// the analyzed log's wall time, which the plan once carried (the line
/// keeps the pinned hashes).
fn render(plan: &ReplayPlan, log: &TraceLog) -> String {
    let mut s = String::new();
    writeln!(s, "program {}", plan.program).unwrap();
    for t in &plan.threads {
        writeln!(s, "thread {} {} {:?} {:?}", t.id, t.start_fn, t.entry, t.ops).unwrap();
    }
    writeln!(s, "create_map {:?}", plan.create_map).unwrap();
    for (i, cv) in plan.cvs.iter().enumerate() {
        writeln!(s, "cv {i} {:?} {:?}", cv.episodes, cv.signal_released).unwrap();
    }
    writeln!(s, "sem_initial {:?}", plan.sem_initial).unwrap();
    writeln!(
        s,
        "objects {} {} {} {:?} {:?}",
        plan.n_mutexes, plan.n_condvars, plan.n_rwlocks, plan.barrier_parties, plan.once_init
    )
    .unwrap();
    writeln!(s, "recorded_wall {:?}", log.header.wall_time).unwrap();
    s
}

fn line(bytes: &[u8]) -> String {
    let (loaded, synthetic) = match load_lenient_traced(bytes) {
        Ok(l) => l,
        Err(e) => return format!("load error: {e}"),
    };
    match analyze_with_stability(&loaded.log, &synthetic) {
        Ok((plan, stable)) => {
            let stable: Vec<String> = stable.iter().map(|(t, n)| format!("{t}:{n}")).collect();
            format!(
                "edits {} threads {} plan {} stable {}",
                loaded.salvage.edits.len(),
                plan.threads.len(),
                ContentId::of_bytes(render(&plan, &loaded.log).as_bytes()),
                stable.join(",")
            )
        }
        Err(e) => format!("analyze error: {e}"),
    }
}

#[test]
fn plans_and_stability_of_whole_and_cut_logs_are_pinned() {
    let mut out = String::new();
    for (name, log) in table1_and_case_study() {
        let text = textlog::write_log(&log).into_bytes();
        let bin = binlog::encode(&log).expect("encode");
        for (format, bytes) in [("text", text), ("bin", bin)] {
            out.push_str(&format!("{name} {format} whole: {}\n", line(&bytes)));
            let bounds = chunk::record_boundaries(&bytes);
            let mut rng = ChaosRng::new(bounds.len() as u64);
            for _ in 0..CUTS {
                let cut = bounds[rng.below(bounds.len())];
                out.push_str(&format!("{name} {format} @{cut}: {}\n", line(&bytes[..cut])));
            }
        }
    }
    assert_golden(format!("{}/tests/golden/plan/plans.golden", env!("CARGO_MANIFEST_DIR")), &out);
}
