//! Experiment TAB1: regenerate Table 1 — measured and predicted speed-ups
//! for the five validation programs on 2, 4 and 8 processors.

use crate::harness::{prediction_error, real_speedup, RealStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use vppb_model::{AuditReport, SchedMetrics, SimParams, VppbError};
use vppb_recorder::{record, RecordOptions};
use vppb_sim::{analyze, predict};
use vppb_workloads::{splash2_suite, KernelParams};

pub const CPU_COUNTS: [u32; 3] = [2, 4, 8];

/// One cell of the table.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct Cell {
    pub cpus: u32,
    pub real: RealStats,
    pub predicted: f64,
    /// The paper's real / predicted values for the same cell.
    pub paper_real: f64,
    pub paper_predicted: f64,
}

impl Cell {
    /// `((real) - (predicted)) / (real)` — the paper's error definition.
    pub fn error(&self) -> f64 {
        prediction_error(self.real.median, self.predicted)
    }
}

/// One application row group.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Row {
    pub name: &'static str,
    pub cells: Vec<Cell>,
    /// Scheduling metrics of the largest (8-CPU) predicted run.
    pub metrics: SchedMetrics,
    /// Conservation-law audit of that run (expected clean).
    pub audit: AuditReport,
}

/// The whole table.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Table1 {
    pub rows: Vec<Row>,
}

/// Compute the table. `scale` shrinks the kernels for quick runs
/// (1.0 = calibrated defaults).
///
/// The 15 cells (5 programs × 3 CPU counts) are independent — each is a
/// recording plus a handful of deterministic machine runs — so they are
/// computed on scoped threads, one per program row, collecting into a
/// mutex-guarded map. Determinism is unaffected: every run is seeded,
/// and rows are re-assembled in suite order.
pub fn compute(scale: f64) -> Result<Table1, VppbError> {
    let suite = splash2_suite();
    let results: Mutex<BTreeMap<usize, Result<Row, VppbError>>> = Mutex::new(BTreeMap::new());
    std::thread::scope(|s| {
        for (idx, spec) in suite.iter().enumerate() {
            let results = &results;
            s.spawn(move || {
                let row = compute_row(spec, scale);
                results.lock().expect("no poisoned workers").insert(idx, row);
            });
        }
    });
    let mut rows = Vec::new();
    for (_, row) in results.into_inner().expect("no poisoned workers") {
        rows.push(row?);
    }
    Ok(Table1 { rows })
}

fn compute_row(spec: &vppb_workloads::WorkloadSpec, scale: f64) -> Result<Row, VppbError> {
    let app_1 = (spec.build)(KernelParams::scaled(1, scale));
    let mut cells = Vec::new();
    let mut metrics = SchedMetrics::default();
    let mut audit = AuditReport::default();
    let last = CPU_COUNTS.len() - 1;
    for (i, &cpus) in CPU_COUNTS.iter().enumerate() {
        // SPLASH-2 creates one thread per processor: one log per setup.
        let app_p = (spec.build)(KernelParams::scaled(cpus, scale));
        let real = real_speedup(&app_1, &app_p, cpus)?;
        let rec = record(&app_p, &RecordOptions::default())?;
        let prediction = predict(&analyze(&rec.log)?, &rec.log, &SimParams::cpus(cpus))?;
        // The largest configuration also reports its scheduling metrics
        // and audit; the smaller cells only need the speed-up.
        if i == last {
            metrics = prediction.metrics.clone();
            audit = prediction.run.audit.clone();
        }
        cells.push(Cell {
            cpus,
            real,
            predicted: prediction.speedup(),
            paper_real: spec.paper_real[i].1,
            paper_predicted: spec.paper_predicted[i].1,
        });
    }
    Ok(Row { name: spec.name, cells, metrics, audit })
}

/// Largest absolute prediction error in the table (the paper's headline:
/// ≤ 6 %).
pub fn max_abs_error(t: &Table1) -> f64 {
    t.rows.iter().flat_map(|r| &r.cells).map(|c| c.error().abs()).fold(0.0, f64::max)
}

/// Render the table in the paper's layout.
pub fn render(t: &Table1) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 1: Measured and predicted speed-ups.");
    let _ = writeln!(
        s,
        "{:<14} {:<10} {:>22} {:>22} {:>22}",
        "Application", "Speed-up", "2 processors", "4 processors", "8 processors"
    );
    for row in &t.rows {
        let fmt_real =
            |c: &Cell| format!("{:.2} ({:.2}-{:.2})", c.real.median, c.real.min, c.real.max);
        let _ = writeln!(
            s,
            "{:<14} {:<10} {:>22} {:>22} {:>22}",
            row.name,
            "Real",
            fmt_real(&row.cells[0]),
            fmt_real(&row.cells[1]),
            fmt_real(&row.cells[2]),
        );
        let _ = writeln!(
            s,
            "{:<14} {:<10} {:>22.2} {:>22.2} {:>22.2}",
            "", "Pred.", row.cells[0].predicted, row.cells[1].predicted, row.cells[2].predicted,
        );
        let _ = writeln!(
            s,
            "{:<14} {:<10} {:>21.1}% {:>21.1}% {:>21.1}%",
            "",
            "Error",
            row.cells[0].error() * 100.0,
            row.cells[1].error() * 100.0,
            row.cells[2].error() * 100.0,
        );
        let _ = writeln!(
            s,
            "{:<14} {:<10} {:>22} {:>22} {:>22}",
            "",
            "(paper)",
            format!("{:.2}/{:.2}", row.cells[0].paper_real, row.cells[0].paper_predicted),
            format!("{:.2}/{:.2}", row.cells[1].paper_real, row.cells[1].paper_predicted),
            format!("{:.2}/{:.2}", row.cells[2].paper_real, row.cells[2].paper_predicted),
        );
    }
    let _ = writeln!(s, "\nMax |error| = {:.1}% (paper: 6.2%)", max_abs_error(t) * 100.0);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_table_is_structurally_complete() {
        let t = compute(0.1).unwrap();
        assert_eq!(t.rows.len(), 5);
        for row in &t.rows {
            assert_eq!(row.cells.len(), 3);
            for c in &row.cells {
                assert!(c.real.median > 0.9, "{} @{}p: {:?}", row.name, c.cpus, c.real);
                assert!(c.predicted > 0.9);
            }
            assert!(row.audit.is_clean(), "{}: {}", row.name, row.audit.render());
            assert!(row.metrics.dispatches > 0, "{}: empty metrics", row.name);
        }
        let rendered = render(&t);
        assert!(rendered.contains("Ocean"));
        assert!(rendered.contains("LU"));
        assert!(rendered.contains("Error"));
    }
}
