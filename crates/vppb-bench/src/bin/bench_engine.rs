//! Measure the engine-throughput report the repo tracks across PRs
//! (checked in as `BENCH_engine.json`): median wall time and ns per
//! discrete-event step for (a) a raw 8-CPU engine run of a SPLASH-style
//! kernel, (b) one 8-CPU trace-driven prediction, and (c) an
//! 8-configuration what-if sweep.
//!
//! Usage: `cargo run --release -p vppb-bench --bin bench_engine
//! [--fast] [--out FILE] [--check] [--baseline FILE]`. `--fast` shrinks
//! the workloads and iteration count for CI smoke runs; the checked-in
//! baseline comes from the full mode. The report is written only to the
//! `--out` file; without `--out` the timings go to stderr alone, so no
//! run overwrites the baseline by default. Any other argument prints the
//! usage and exits 2 before measuring. Timings use `std::time::Instant`
//! medians so the binary works without any bench framework.
//!
//! `--check` is the CI perf-regression gate: after measuring, compare
//! each bench's ns-per-event against the checked-in baseline (default
//! `BENCH_engine.json`, override with `--baseline FILE`) and exit
//! non-zero if any row regressed by more than 15 %. `predict_cached` is
//! exempt — it is sub-microsecond and pure timer noise at that scale;
//! the ≥5x cold/cached ratio assertion below guards it instead.

use serde::Serialize;
use std::time::Instant;
use vppb_machine::{run, NullHooks, RunOptions};
use vppb_model::{binlog, LwpPolicy, MachineConfig, SimParams};
use vppb_recorder::{record, RecordOptions};
use vppb_serve::{PredictRequest, PredictionService};
use vppb_sim::{analyze, simulate_plan, sweep_plan, SweepGrid};
use vppb_workloads::{splash, KernelParams};

#[derive(Serialize)]
struct Bench {
    /// Benchmark id, stable across PRs.
    name: String,
    /// Median wall time of one iteration, host nanoseconds.
    median_ns: u64,
    /// Fastest iteration, host nanoseconds. The minimum is the
    /// noise-robust estimator (a transient load spike inflates the
    /// median of a whole run by double digits; it almost never inflates
    /// every sample), so the `--check` regression gate compares minima.
    min_ns: u64,
    /// Discrete-event steps one iteration processes (deterministic).
    des_events: u64,
    /// Engine cost: median_ns / des_events.
    ns_per_event: f64,
    /// Noise-floor engine cost: min_ns / des_events.
    min_ns_per_event: f64,
    /// Timed iterations (after one warm-up).
    iters: u32,
}

#[derive(Serialize)]
struct Report {
    schema: &'static str,
    mode: &'static str,
    benches: Vec<Bench>,
}

/// Timing over `iters` samples after one warm-up: `(median, min)`.
fn time_samples(iters: u32, mut f: impl FnMut()) -> (u64, u64) {
    f();
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    (samples[samples.len() / 2], samples[0])
}

fn bench(name: &str, iters: u32, des_events: u64, f: impl FnMut()) -> Bench {
    let (median_ns, min_ns) = time_samples(iters, f);
    let per = |ns: u64| if des_events == 0 { 0.0 } else { ns as f64 / des_events as f64 };
    let b = Bench {
        name: name.to_string(),
        median_ns,
        min_ns,
        des_events,
        ns_per_event: per(median_ns),
        min_ns_per_event: per(min_ns),
        iters,
    };
    eprintln!(
        "  {:<24} {:>12} ns/iter  {:>8.1} ns/event  (min {:>7.1}, {} DES events)",
        b.name, b.median_ns, b.ns_per_event, b.min_ns_per_event, b.des_events
    );
    b
}

/// Maximum tolerated ns-per-event growth vs the baseline (the CI gate).
const REGRESSION_SLACK: f64 = 1.15;

/// Compare `report` against the checked-in baseline file. Returns the
/// names of benches that regressed more than [`REGRESSION_SLACK`].
/// Benches absent from the baseline are skipped (new rows land before
/// the baseline refresh); `predict_cached` is always skipped (noise).
fn check_against_baseline(report: &Report, baseline_path: &str) -> Vec<String> {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("--check: cannot read baseline {baseline_path}: {e}"));
    let base: serde::Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("--check: bad baseline JSON: {e}"));
    let base_benches = match base.get("benches") {
        Some(serde::Value::Array(b)) => b,
        _ => panic!("--check: baseline has no benches array"),
    };
    let num = |v: &serde::Value| -> Option<f64> {
        match v {
            serde::Value::Float(f) => Some(*f),
            serde::Value::UInt(u) => Some(*u as f64),
            serde::Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    };
    // Compare minima: `min_ns_per_event`, falling back to the median row
    // for baselines written before the field existed.
    let baseline_of = |name: &str| -> Option<f64> {
        base_benches.iter().find_map(|b| match b.get("name") {
            Some(serde::Value::Str(n)) if n == name => b
                .get("min_ns_per_event")
                .and_then(num)
                .or_else(|| b.get("ns_per_event").and_then(num)),
            _ => None,
        })
    };
    let mut regressed = Vec::new();
    for b in &report.benches {
        if b.name == "predict_cached" {
            continue;
        }
        let Some(base_ns) = baseline_of(&b.name) else {
            eprintln!("  check {:<24} (no baseline row — skipped)", b.name);
            continue;
        };
        let ratio = if base_ns > 0.0 { b.min_ns_per_event / base_ns } else { 1.0 };
        let verdict = if ratio > REGRESSION_SLACK { "REGRESSED" } else { "ok" };
        eprintln!(
            "  check {:<24} min {:>8.1} vs baseline min {:>8.1} ns/event ({:+.1}%) {}",
            b.name,
            b.min_ns_per_event,
            base_ns,
            (ratio - 1.0) * 100.0,
            verdict
        );
        if ratio > REGRESSION_SLACK {
            regressed.push(b.name.clone());
        }
    }
    regressed
}

const USAGE: &str = "usage: bench_engine [--fast] [--out FILE] [--check] [--baseline FILE]";

fn main() {
    let flags = vppb_bench::parse_flags(
        std::env::args().skip(1),
        USAGE,
        &["--fast", "--check"],
        &["--out", "--baseline"],
    );
    let fast = flags.contains_key("--fast");
    let check = flags.contains_key("--check");
    let baseline =
        flags.get("--baseline").cloned().flatten().unwrap_or_else(|| "BENCH_engine.json".into());
    let out = flags.get("--out").cloned().flatten();
    let (mode, scale, iters) = if fast { ("fast", 0.05, 5) } else { ("full", 0.2, 21) };
    eprintln!("bench_engine: {mode} mode (workload scale {scale}, {iters} iters)");

    let machine = MachineConfig::sun_enterprise(8).with_lwps(LwpPolicy::PerThread);
    let engine_app = splash::radix(KernelParams::scaled(8, scale));
    let engine_run = || {
        let mut hooks = NullHooks;
        let opts = RunOptions { record_trace: false, ..RunOptions::new(&mut hooks) };
        run(&engine_app, &machine, opts).expect("engine run")
    };
    let engine_des = engine_run().des_events;

    let rec = record(&splash::ocean(KernelParams::scaled(8, scale)), &RecordOptions::default())
        .expect("record ocean");
    let plan = analyze(&rec.log).expect("analyze");
    let sim_des = simulate_plan(&plan, &rec.log, &SimParams::cpus(8)).expect("simulate").des_events;

    // Plan→tape compile cost. `tapes()` memoizes per plan, so each
    // iteration clones a pristine (never-compiled) plan to get a cold
    // compile; the clone is Copy-element memcpys and small next to the
    // per-op patching work being measured. The "events" denominator is
    // replay ops, so the row reads as ns per compiled op.
    let pristine = analyze(&rec.log).expect("analyze pristine");
    let tape_ops = pristine.total_ops() as u64;

    let grid =
        SweepGrid::over_cpus([1, 2, 4, 8]).with_lwps([LwpPolicy::PerThread, LwpPolicy::Fixed(4)]);
    let configs = grid.configs();
    assert_eq!(configs.len(), 8, "the tracked sweep is 8 configurations");
    let sweep_des: u64 = sweep_plan(&plan, &rec.log, &configs, 0)
        .expect("sweep")
        .points
        .iter()
        .map(|p| p.des_events)
        .sum();

    // Service-path pair: a cold prediction pays upload + salvage + analyze
    // + both simulations; a cached one is a memo lookup. The ratio is the
    // headline number `vppb serve` exists for, so the full run pins it.
    let ocean_bytes = binlog::encode(&rec.log).expect("encode ocean");
    let warm_svc = PredictionService::new(64 * 1024 * 1024);
    let warm_id = warm_svc.upload(&ocean_bytes).expect("upload").id;
    let warm_req = PredictRequest::new(&warm_id, 8);
    warm_svc.predict(&warm_req).expect("warm predict");

    let report = Report {
        schema: "vppb-bench-engine/v1",
        mode,
        benches: vec![
            bench("engine_radix_8cpu", iters, engine_des, || {
                engine_run();
            }),
            bench("simulate_ocean_8cpu", iters, sim_des, || {
                simulate_plan(&plan, &rec.log, &SimParams::cpus(8)).expect("simulate");
            }),
            bench("tape_compile_ocean", iters, tape_ops, || {
                pristine.clone().tapes().expect("tape compile");
            }),
            bench("sweep_ocean_8_configs", iters, sweep_des, || {
                sweep_plan(&plan, &rec.log, &configs, 0).expect("sweep");
            }),
            bench("predict_cold", iters, sim_des, || {
                let svc = PredictionService::new(64 * 1024 * 1024);
                let id = svc.upload(&ocean_bytes).expect("upload").id;
                svc.predict(&PredictRequest::new(&id, 8)).expect("cold predict");
            }),
            bench("predict_cached", iters, sim_des, || {
                warm_svc.predict(&warm_req).expect("cached predict");
            }),
        ],
    };
    let cold = report.benches.iter().find(|b| b.name == "predict_cold").unwrap().median_ns;
    let cached = report.benches.iter().find(|b| b.name == "predict_cached").unwrap().median_ns;
    let ratio = cold as f64 / cached.max(1) as f64;
    eprintln!("  cached speed-up: {ratio:.0}x (cold {cold} ns vs cached {cached} ns)");
    assert!(
        ratio >= 5.0,
        "cached predictions must be at least 5x faster than cold (got {ratio:.1}x)"
    );
    if let Some(out) = &out {
        std::fs::write(out, serde_json::to_string_pretty(&report).expect("serializable") + "\n")
            .expect("write report");
        eprintln!("wrote {out}");
    }

    if check {
        let regressed = check_against_baseline(&report, &baseline);
        if !regressed.is_empty() {
            eprintln!(
                "perf gate: {} bench(es) regressed >{:.0}% vs {baseline}: {}",
                regressed.len(),
                (REGRESSION_SLACK - 1.0) * 100.0,
                regressed.join(", ")
            );
            std::process::exit(1);
        }
        eprintln!(
            "perf gate: all benches within {:.0}% of {baseline}",
            (REGRESSION_SLACK - 1.0) * 100.0
        );
    }
}
