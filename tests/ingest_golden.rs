//! Golden outputs of the ingestion framing code: the record boundaries
//! streaming cuts come from, the chaos mutators' damage, and what strict
//! and lenient binary decoding make of that damage. Each golden line
//! carries a content hash of one output or a rendered diagnostic, so a
//! refactor of format sniffing or frame reading that moves a single byte
//! or diagnostic fails here.
//! Regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test --test ingest_golden`.

use vppb_model::corrupt::{self, ChaosRng};
use vppb_model::{binlog, chunk, textlog, ContentId, TraceLog, VppbError};
use vppb_recorder::{record, RecordOptions};
use vppb_testkit::assert_golden;
use vppb_testkit::fixtures::recorded_fft_log;
use vppb_workloads::{prodcons, splash2_suite, KernelParams};

fn golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/ingest/{name}.golden", env!("CARGO_MANIFEST_DIR"));
    assert_golden(path, actual);
}

fn hash(bytes: &[u8]) -> String {
    ContentId::of_bytes(bytes).to_string()
}

/// The Table-1 programs at 2, 4 and 8 threads and the §5 pair, recorded.
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

/// `count first last hash` of a boundary list.
fn boundary_line(bounds: &[usize]) -> String {
    let raw: Vec<u8> = bounds.iter().flat_map(|b| (*b as u64).to_le_bytes()).collect();
    format!("{} {:?} {:?} {}", bounds.len(), bounds.first(), bounds.last(), hash(&raw))
}

#[test]
fn record_boundaries_of_recorded_logs_are_pinned() {
    let mut out = String::new();
    for (name, log) in table1_and_case_study() {
        let text = textlog::write_log(&log).into_bytes();
        let bin = binlog::encode(&log).expect("encode");
        for (format, bytes) in [("text", text), ("bin", bin)] {
            let bounds = chunk::record_boundaries(&bytes);
            out.push_str(&format!("{name} {format}: {}\n", boundary_line(&bounds)));
        }
    }
    golden("boundaries", &out);
}

/// The chaos fixture in its three encodings, each damaged by `1 + seed %
/// 3` stacked mutations for 300 seeds.
fn mutants() -> Vec<(&'static str, u64, Vec<String>, Vec<u8>)> {
    let log = recorded_fft_log();
    let encodings = [
        ("text", textlog::write_log(&log).into_bytes()),
        ("json", serde_json::to_string(&log).expect("json").into_bytes()),
        ("bin", binlog::encode(&log).expect("bin")),
    ];
    let mut out = Vec::new();
    for (format, pristine) in encodings {
        for seed in 0..300u64 {
            let mut bytes = pristine.clone();
            let mut rng = ChaosRng::new(seed);
            let applied = (0..1 + seed % 3)
                .map(|_| corrupt::mutate(&mut bytes, &mut rng).to_string())
                .collect();
            out.push((format, seed, applied, bytes));
        }
    }
    out
}

#[test]
fn mutator_output_is_pinned() {
    let mut out = String::new();
    for (format, seed, applied, bytes) in mutants() {
        out.push_str(&format!(
            "{format} {seed}: {} -> {} bytes {}\n",
            applied.join(" + "),
            bytes.len(),
            hash(&bytes)
        ));
    }
    golden("mutants", &out);
}

fn log_line(log: &TraceLog) -> String {
    let json = serde_json::to_string(log).expect("json");
    format!("{} records {}", log.records.len(), hash(json.as_bytes()))
}

fn error_line(e: &VppbError) -> String {
    match e {
        VppbError::Diag(d) => d.render(),
        other => other.to_string(),
    }
}

#[test]
fn binary_decode_of_mutants_is_pinned() {
    let mut out = String::new();
    for (format, seed, _, bytes) in mutants() {
        if format != "bin" {
            continue;
        }
        let strict = match binlog::decode(&bytes) {
            Ok(log) => log_line(&log),
            Err(e) => error_line(&e),
        };
        out.push_str(&format!("{seed} strict: {strict}\n"));
        match binlog::decode_lenient(&bytes) {
            Ok((log, diags)) => {
                out.push_str(&format!("{seed} lenient: {}\n", log_line(&log)));
                for d in diags {
                    out.push_str(&format!("{seed}   {}\n", d.render()));
                }
            }
            Err(e) => out.push_str(&format!("{seed} lenient: {}\n", error_line(&e))),
        }
    }
    golden("bin_mutants", &out);
}
