//! What a run prints: the end-to-end or per-layer metrics as one JSON
//! line, and the traced run's per-layer table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Every per-layer metric, its unit, and the end-to-end metric it should
/// move (on the workload where its layer does most of the work). The
/// traced run prints all of them on every workload; a layer that does no
/// work on a workload reads 0 there.
pub const LAYERS: &[(&str, &str, &str)] = &[
    ("model.binlog_decode_ms", "ms", "cold/ops_per_s, cold/latency_tail_ms"),
    ("model.callsites", "count", "cold/ops_per_s, cold/latency_tail_ms"),
    ("model.textlog_parse_ms", "ms", "cold/latency_p50_ms; setup_s on sweep and serve"),
    ("model.validate_ms", "ms", "cold/latency_p50_ms"),
    ("model.salvage_ms", "ms", "cold/latency_p50_ms"),
    ("model.salvage_edits", "count", "cold/latency_p50_ms"),
    ("model.records", "count", "cold/latency_p50_ms"),
    ("model.encode_ms", "ms", "stream/latency_p50_ms, stream/latency_tail_ms"),
    ("model.hash_ms", "ms", "stream/latency_p50_ms, stream/latency_tail_ms"),
    ("sim.analyze_ms", "ms", "cold/latency_p50_ms"),
    ("sim.plan_ops", "count", "cold/latency_p50_ms"),
    ("sim.tapes_ms", "ms", "cold/latency_p50_ms"),
    ("sim.build_app_ms", "ms", "cold/latency_p50_ms"),
    ("sim.replay_ms", "ms", "cold/latency_p50_ms, sweep/ops_per_s"),
    ("machine.run_ms", "ms", "sweep/ops_per_s, sweep/latency_p50_ms, serve/latency_tail_ms"),
    ("machine.runs", "count", "sweep/ops_per_s"),
    ("machine.des_events", "count", "sweep/ops_per_s"),
    ("machine.ns_per_event", "ns", "sweep/ops_per_s, sweep/latency_p50_ms"),
    ("sim.sweep_unique_ratio", "ratio", "sweep/ops_per_s"),
    ("sim.sweep_rest_ms", "ms", "sweep/ops_per_s"),
    ("sim.stream_append_ms", "ms", "stream/latency_p50_ms, stream/latency_tail_ms"),
    ("sim.stream_predict_ms", "ms", "stream/latency_p50_ms, stream/latency_tail_ms"),
    ("sim.stream_resumed_ratio", "ratio", "stream/latency_p50_ms"),
    ("sim.stream_saved_event_ratio", "ratio", "stream/latency_p50_ms"),
    ("serve.upload_ms", "ms", "cold/ops_per_s"),
    ("serve.predict_miss_ms", "ms", "serve/latency_tail_ms, cold/latency_p50_ms"),
    ("serve.predict_hit_us", "us", "serve/latency_p50_ms"),
    ("serve.append_ms", "ms", "stream/latency_p50_ms"),
    ("serve.memo_hit_ratio", "ratio", "serve/latency_p50_ms"),
    ("serve.plan_hit_ratio", "ratio", "serve/latency_tail_ms, sweep/ops_per_s"),
    ("serve.memo_cleared", "count", "serve/latency_p50_ms"),
    ("serve.http_parse_us", "us", "serve/latency_p50_ms, serve/ops_per_s"),
    ("serve.http_encode_us", "us", "serve/latency_p50_ms, serve/ops_per_s"),
    ("serve.wire_ms", "ms", "serve/latency_p50_ms, serve/hot_tail_ms"),
    ("serve.queue_peak", "count", "serve/hot_tail_ms"),
    ("serve.shed", "count", "serve/ops_per_s"),
    ("recorder.record_ms", "ms", "setup_s"),
    ("trace.coverage_pct", "%", "-"),
    ("trace.overhead_pct", "%", "-"),
];

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that errored, got a non-200 answer, or answered wrongly.
    pub failed: u64,
    /// Why the run is not correct, one line each (empty when it is).
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer values by name (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines for stderr (tail percentiles, sample counts).
    pub notes: Vec<String>,
    /// The traced run's spans, dumped when the run ends.
    pub spans: Vec<crate::trace::Span>,
}

impl Outcome {
    /// Note one wrong answer; only the first few are kept.
    pub fn wrong(&mut self, what: String) {
        if self.notes.len() < 10 {
            self.notes.push(what);
        }
    }

    /// Count `bad` ops as failed, keeping the first reason.
    pub fn fail(&mut self, bad: u64, why: impl FnOnce() -> String) {
        if bad > 0 {
            self.failed += bad;
            self.problems.push(why());
        }
    }
}

/// The per-layer metrics in [`LAYERS`] order, 0 where not measured.
pub fn layer_metrics(values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    LAYERS
        .iter()
        .map(|&(name, unit, _)| Metric {
            name,
            unit,
            value: values.get(name).copied().unwrap_or(0.0),
        })
        .collect()
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The traced run's table: every per-layer metric, the share of the
/// workload's summed self time for metrics that are span names (`self_ns`
/// from [`crate::trace::self_times`]), and the end-to-end metric it
/// should move.
pub fn layer_table(
    workload: &str,
    seed: u64,
    values: &BTreeMap<&'static str, f64>,
    self_ns: &BTreeMap<&'static str, (u64, u64)>,
) -> String {
    let total: u64 = self_ns.values().map(|(ns, _)| ns).sum();
    let mut out = format!(
        "# per-layer metrics: workload `{workload}`, seed {seed}\n\n\
         Stage times are mean self time per op, except `serve.predict_*`, which are per call.\n\
         Share = share of the summed self time of all spans.\n\n\
         | metric | unit | value | share | should move |\n|---|---|---|---|---|\n"
    );
    for &(name, unit, moves) in LAYERS {
        let v = values.get(name).copied().unwrap_or(0.0);
        let share = match self_ns.get(name) {
            Some((ns, _)) if total > 0 => format!("{:.1}%", *ns as f64 * 100.0 / total as f64),
            _ => "-".into(),
        };
        let _ = writeln!(out, "| `{name}` | {unit} | {v:.4} | {share} | {moves} |");
    }
    out
}
