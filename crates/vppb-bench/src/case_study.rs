//! Experiments CS-A / CS-B (§5): the producer/consumer tuning walkthrough.
//!
//! Naive program: predicted ≈ +2.2 % on 8 CPUs. After the fix (100
//! sub-buffers, split check mutexes): predicted 7.75×, real 7.90×,
//! prediction error 1.9 %.

use crate::harness::{real_speedup, RealStats};
use std::fmt::Write as _;
use vppb_model::{SimParams, VppbError};
use vppb_recorder::{record, RecordOptions};
use vppb_sim::{analyze, predict, Prediction};
use vppb_workloads::prodcons;

#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// Predicted speed-up of the naive program on 8 CPUs (paper: 1.022).
    pub naive_predicted: f64,
    /// Predicted speed-up of the improved program (paper: 7.75).
    pub improved_predicted: f64,
    /// Real speed-up of the improved program (paper: 7.90).
    pub improved_real: RealStats,
    /// Number of threads blocked on the hot mutex at least once in the
    /// naive simulation (the Visualizer diagnosis: "it is the same mutex
    /// causing the blocking for all threads").
    pub threads_blocked_on_hot_mutex: usize,
}

impl CaseStudy {
    pub fn improved_error(&self) -> f64 {
        (self.improved_real.median - self.improved_predicted) / self.improved_real.median
    }
}

/// Record `app` on the uni-processor and predict it on 8 CPUs.
fn predict_8(app: &vppb_threads::App) -> Result<Prediction, VppbError> {
    let log = record(app, &RecordOptions::default())?.log;
    predict(&analyze(&log)?, &log, &SimParams::cpus(8))
}

pub fn compute(scale: f64) -> Result<CaseStudy, VppbError> {
    // --- naive program -----------------------------------------------------
    let naive = predict_8(&prodcons::naive(scale))?;

    // Diagnose through the simulated trace, as the Visualizer user does:
    // the contention report names the object all the blocking happens on.
    let stats = vppb_viz::compute_stats(&naive.run.trace);
    let hot = stats.hottest_object().expect("the naive program has a bottleneck");
    debug_assert_eq!(hot.object, vppb_model::SyncObjId::mutex(0));
    let blocked_count = hot.threads_blocked as usize;

    // --- improved program ---------------------------------------------------
    let improved = prodcons::improved(scale);
    let improved_predicted = predict_8(&improved)?.speedup();
    let improved_1 = prodcons::improved(scale); // same program; 1-CPU baseline
    let improved_real = real_speedup(&improved_1, &improved, 8)?;

    Ok(CaseStudy {
        naive_predicted: naive.speedup(),
        improved_predicted,
        improved_real,
        threads_blocked_on_hot_mutex: blocked_count,
    })
}

pub fn render(cs: &CaseStudy) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Case study (§5): producer/consumer on 8 CPUs");
    let _ = writeln!(
        s,
        "  naive:    predicted speed-up {:.3}  (paper: 1.022, \"only 2.2% faster\")",
        cs.naive_predicted
    );
    let _ = writeln!(
        s,
        "  diagnosis: {} threads blocked on the single buffer mutex (mtx0)",
        cs.threads_blocked_on_hot_mutex
    );
    let _ = writeln!(
        s,
        "  improved: predicted {:.2}  real {:.2} ({:.2}-{:.2})  error {:.1}%",
        cs.improved_predicted,
        cs.improved_real.median,
        cs.improved_real.min,
        cs.improved_real.max,
        cs.improved_error() * 100.0
    );
    let _ = writeln!(s, "  (paper:   predicted 7.75  real 7.90  error 1.9%)");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_study_matches_paper_shape() {
        let cs = compute(1.0).unwrap();
        assert!(
            cs.naive_predicted < 1.10 && cs.naive_predicted > 0.98,
            "naive: {}",
            cs.naive_predicted
        );
        assert!(cs.improved_predicted > 7.2, "improved pred: {}", cs.improved_predicted);
        assert!(cs.improved_real.median > 7.2, "improved real: {:?}", cs.improved_real);
        assert!(cs.improved_error().abs() < 0.05, "error: {}", cs.improved_error());
        // The diagnosis must implicate (essentially) every worker thread.
        assert!(
            cs.threads_blocked_on_hot_mutex > 200,
            "blocked: {}",
            cs.threads_blocked_on_hot_mutex
        );
    }
}
