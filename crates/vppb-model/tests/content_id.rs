//! Content ids computed without the canonical encoding are the ids of
//! that encoding, bit for bit: `binlog::content_id` over whole logs, and
//! `binlog::CanonicalHasher` resuming over a growing one.

use vppb_model::binlog::{self, CanonicalHasher};
use vppb_model::corrupt::{self, ChaosRng};
use vppb_model::{textlog, ContentId, EventKind, ThreadId, Time, TraceLog};
use vppb_recorder::{load_lenient_bytes, record, RecordOptions};
use vppb_workloads::{prodcons, splash2_suite, KernelParams};

/// The definition: the hash of the canonical encoding.
fn encoded_id(log: &TraceLog) -> ContentId {
    ContentId::of_bytes(&binlog::encode(log).expect("encode"))
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
    out.push(("prodcons-naive".into(), prodcons_naive()));
    out.push(("prodcons-improved".into(), rec(prodcons::improved(1.0))));
    out
}

fn prodcons_naive() -> TraceLog {
    record(&prodcons::naive(1.0), &RecordOptions::default()).expect("record").log
}

#[test]
fn buffer_free_ids_equal_the_hash_of_the_encoding() {
    let logs = table1_and_case_study();
    for (name, log) in &logs {
        assert_eq!(binlog::content_id(log).unwrap(), encoded_id(log), "{name}");
    }
    // Seeded chaos damage in all three encodings, after lenient load.
    let (_, log) = logs.iter().find(|(name, _)| name == "FFT-4").expect("FFT-4 is recorded");
    let encodings = [
        textlog::write_log(log).into_bytes(),
        serde_json::to_string(log).unwrap().into_bytes(),
        binlog::encode(log).unwrap(),
    ];
    let mut loaded = 0;
    for pristine in &encodings {
        for seed in 0..120u64 {
            let mut bytes = pristine.clone();
            let mut rng = ChaosRng::new(seed);
            for _ in 0..1 + seed % 3 {
                corrupt::mutate(&mut bytes, &mut rng);
            }
            let Ok(salvaged) = load_lenient_bytes(&bytes) else { continue };
            let log = &salvaged.log;
            assert_eq!(binlog::content_id(log).unwrap(), encoded_id(log), "seed {seed}");
            loaded += 1;
        }
    }
    assert!(loaded > 200, "only {loaded} of 360 mutants loaded");
    // A log the encoder refuses has no id either.
    let mut bad = logs[0].1.clone();
    bad.records[1].kind = EventKind::ThrSetPrio { target: ThreadId(1), prio: -1 };
    assert!(binlog::encode(&bad).is_err());
    assert!(binlog::content_id(&bad).is_err());
    assert!(CanonicalHasher::default().id(&bad, 0).is_err());
}

#[test]
fn a_resumed_id_equals_a_fresh_one_at_every_prefix_and_stable_count() {
    let mut log = prodcons_naive();
    log.records.truncate(90);
    let prefix =
        |n: usize| TraceLog { header: log.header.clone(), records: log.records[..n].to_vec() };
    let mut hasher = CanonicalHasher::default();
    let mut checkpoint = 0;
    for n in 0..=log.records.len() {
        let grown = prefix(n);
        let want = encoded_id(&grown);
        // Every stable count up to `n` is legal: all prefixes share their
        // records. Ascending counts resume; the drop to 0 at each new
        // length restarts from the header.
        for stable in 0..=n {
            assert_eq!(hasher.id(&grown, stable).unwrap(), want, "prefix {n}, stable {stable}");
            let from = if stable < checkpoint { 0 } else { checkpoint };
            assert_eq!(hasher.hashed(), n - from, "prefix {n}, stable {stable}");
            checkpoint = stable;
        }
    }
}

#[test]
fn a_header_change_restarts_the_hash() {
    let log = prodcons_naive();
    let n = log.records.len();
    let stable = n - 10;
    let mut hasher = CanonicalHasher::default();
    assert_eq!(hasher.id(&log, stable).unwrap(), encoded_id(&log));
    assert_eq!(hasher.id(&log, stable).unwrap(), encoded_id(&log));
    assert_eq!(hasher.hashed(), 10, "an unchanged header resumes");

    let mut clamped = log.clone();
    clamped.header.wall_time = Time(log.header.wall_time.nanos() + 1_000);
    let id = hasher.id(&clamped, stable).unwrap();
    assert_eq!(id, encoded_id(&clamped));
    assert_ne!(id, encoded_id(&log));
    assert_eq!(hasher.hashed(), n, "a new header restarts from the preamble");
    assert_eq!(hasher.id(&clamped, n).unwrap(), encoded_id(&clamped));
    assert_eq!(hasher.hashed(), n - stable);

    assert_eq!(hasher.id(&log, n).unwrap(), encoded_id(&log));
    assert_eq!(hasher.hashed(), n, "the old header back restarts again");
}
