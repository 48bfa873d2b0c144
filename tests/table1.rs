//! The headline claim, as an integration test: predictions within ±6 % of
//! real executions for all five validation programs at 2, 4 and 8
//! processors (paper §4, Table 1).
//!
//! Runs at reduced scale to stay fast; the `table1` bin regenerates the
//! full-scale table.

use vppb_bench_is_not_a_dependency::*;

// The bench crate isn't a dependency of the facade; re-implement the tiny
// harness here against the public API only.
mod vppb_bench_is_not_a_dependency {
    pub use vppb::pipeline;
    pub use vppb_workloads::{splash2_suite, KernelParams};
}

const SCALE: f64 = 0.25;

#[test]
fn all_predictions_within_six_percent_of_real() {
    let mut worst: (f64, String) = (0.0, String::new());
    for spec in splash2_suite() {
        let app_1 = (spec.build)(KernelParams::scaled(1, SCALE));
        let real_1 = pipeline::real_run(&app_1, 1).unwrap().wall_time;
        for cpus in [2u32, 4, 8] {
            let app_p = (spec.build)(KernelParams::scaled(cpus, SCALE));
            let real_p = pipeline::real_run(&app_p, cpus).unwrap().wall_time;
            let real_speedup = real_1.nanos() as f64 / real_p.nanos() as f64;
            let pred_speedup = pipeline::record_and_predict(&app_p, cpus).unwrap().speedup();
            let err = (real_speedup - pred_speedup).abs() / real_speedup;
            if err > worst.0 {
                worst = (err, format!("{} @{}p", spec.name, cpus));
            }
            assert!(
                err <= 0.06,
                "{} @{}p: real {real_speedup:.3} vs predicted {pred_speedup:.3} ({:.1}% error)",
                spec.name,
                cpus,
                err * 100.0
            );
        }
    }
    eprintln!("worst case: {} at {:.2}%", worst.1, worst.0 * 100.0);
}

#[test]
fn speedup_ordering_matches_the_paper() {
    // At 8 CPUs the paper's ordering is Radix > Water > Ocean > LU > FFT.
    let mut speedups = std::collections::BTreeMap::new();
    for spec in splash2_suite() {
        let app = (spec.build)(KernelParams::scaled(8, SCALE));
        speedups.insert(spec.name, pipeline::record_and_predict(&app, 8).unwrap().speedup());
    }
    assert!(speedups["Radix"] > speedups["Ocean"]);
    assert!(speedups["Water-Spatial"] > speedups["Ocean"]);
    assert!(speedups["Ocean"] > speedups["LU"]);
    assert!(speedups["LU"] > speedups["FFT"]);
}
