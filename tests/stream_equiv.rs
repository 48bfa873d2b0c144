//! Chunk-equivalence battery: streaming ingestion + incremental replay
//! must be **bit-identical** to a cold full-prefix analysis at every chunk
//! boundary — over the workload fixtures and a 200-seed corpus of fuzzer
//! programs, split at random record boundaries (every boundary for small
//! logs), and the fixtures also at every record boundary.

use vppb_model::{binlog, textlog, SimParams};
use vppb_oracle::{GenParams, ProgSpec};
use vppb_recorder::{record, RecordOptions};
use vppb_sim::{
    check_chunked_equivalence, check_chunks_equivalence, cold_run, result_fingerprint,
    StreamSession,
};
use vppb_testkit::{chunked, every_boundary, fixtures, quiet, SilencedPanicHook};

fn recorded(app: &vppb_threads::App) -> Vec<u8> {
    binlog::encode(&record(app, &RecordOptions::default()).unwrap().log).unwrap()
}

#[test]
fn fixture_logs_round_all_boundaries() {
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("two_worker", recorded(&fixtures::two_worker_app(2))),
        ("compute_pair", recorded(&fixtures::compute_bound_pair(2))),
        ("io_and_compute", recorded(&fixtures::io_and_compute_app())),
        ("fft", binlog::encode(&fixtures::recorded_fft_log()).unwrap()),
    ];
    for (name, bytes) in &cases {
        for seed in 0..3u64 {
            for cpus in [1, 4] {
                check_chunked_equivalence(bytes, &SimParams::cpus(cpus), seed)
                    .unwrap_or_else(|e| panic!("{name} seed {seed} cpus {cpus}: {e}"));
            }
        }
        for cpus in [1, 4] {
            check_chunks_equivalence(&every_boundary(bytes), &SimParams::cpus(cpus))
                .unwrap_or_else(|e| panic!("{name} every boundary cpus {cpus}: {e}"));
        }
    }
}

#[test]
fn fixture_text_logs_round_all_boundaries() {
    let logs = [
        (
            "two_worker",
            record(&fixtures::two_worker_app(2), &RecordOptions::default()).unwrap().log,
        ),
        (
            "io_and_compute",
            record(&fixtures::io_and_compute_app(), &RecordOptions::default()).unwrap().log,
        ),
        ("fft", fixtures::recorded_fft_log()),
    ];
    for (name, log) in &logs {
        let bytes = textlog::write_log(log).into_bytes();
        for seed in 0..3u64 {
            check_chunked_equivalence(&bytes, &SimParams::cpus(4), seed)
                .unwrap_or_else(|e| panic!("{name} text seed {seed}: {e}"));
        }
        check_chunks_equivalence(&every_boundary(&bytes), &SimParams::cpus(4))
            .unwrap_or_else(|e| panic!("{name} text every boundary: {e}"));
    }
}

/// The explicit splitter form of the battery: drive a session through
/// `testkit::chunked` pieces by hand and compare each rolling prediction
/// to the cold run of the concatenated prefix.
#[test]
fn manual_session_over_chunked_prefixes() {
    let bytes = binlog::encode(&fixtures::recorded_fft_log()).unwrap();
    let params = SimParams::cpus(4);
    let chunks = chunked(&bytes, 11);
    assert!(chunks.len() > 1, "splitter produced a single chunk");
    let mut session = StreamSession::new();
    let mut prefix = Vec::new();
    let mut compared = 0usize;
    for (i, part) in chunks.iter().enumerate() {
        prefix.extend_from_slice(part);
        let append_err = session.append(part).err();
        let inc = match append_err {
            Some(e) => Err(e),
            None => session.simulate(&params),
        };
        match (inc, cold_run(&prefix, &params)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    result_fingerprint(&a),
                    result_fingerprint(&b),
                    "chunk {i}/{} diverged",
                    chunks.len()
                );
                compared += 1;
            }
            // A prefix that is not yet a parseable log (e.g. header-only)
            // must fail identically on both paths.
            (Err(_), Err(_)) => {}
            (a, b) => panic!("chunk {i}: inc ok={} cold ok={}", a.is_ok(), b.is_ok()),
        }
    }
    assert!(compared > 1, "too few parseable prefixes to be meaningful");
    assert_eq!(prefix, bytes, "chunks must reassemble the log");
}

/// 200 fuzzer-generated programs, each recorded and streamed at seeded
/// record boundaries. Seeds whose programs cannot be recorded on one LWP
/// (spin/greedy classes the Recorder rejects) are skipped but counted —
/// most of the corpus must stream.
#[test]
fn fuzz_corpus_streams_bit_identically() {
    let _quiet_hook = SilencedPanicHook::install();
    let gen = GenParams::default();
    let params = SimParams::cpus(4);
    let mut streamed = 0usize;
    let mut skipped = 0usize;
    for seed in 0..200u64 {
        let spec = ProgSpec::generate(seed, &gen);
        let rec = match quiet(|| record(&spec.build_app(), &RecordOptions::default())) {
            Ok(Ok(r)) => r,
            _ => {
                skipped += 1;
                continue;
            }
        };
        let bytes = binlog::encode(&rec.log).unwrap();
        check_chunked_equivalence(&bytes, &params, seed)
            .unwrap_or_else(|e| panic!("fuzz seed {seed}: {e}"));
        streamed += 1;
    }
    assert!(
        streamed >= 150,
        "only {streamed}/200 seeds streamed ({skipped} skipped) — corpus degenerated"
    );
}
