//! Golden bytes for the canonical log encodings.
//!
//! Every upload's `ContentId` — and so every durable store manifest — is
//! a hash of `binlog::encode` output. These hashes pin the v2 encoding,
//! the legacy v1 encoding and the whole-log JSON of two recorded
//! workloads, so a codec change that alters a single byte fails here
//! instead of silently re-keying every stored log.

use vppb_model::{binlog, ContentId, TraceLog};
use vppb_recorder::{record, RecordOptions};
use vppb_threads::App;
use vppb_workloads::{prodcons, splash2_suite, KernelParams};

fn recorded(app: &App) -> TraceLog {
    record(app, &RecordOptions::default()).unwrap().log
}

fn lu8() -> TraceLog {
    let lu = splash2_suite().into_iter().find(|s| s.name == "LU").unwrap();
    recorded(&(lu.build)(KernelParams::new(8)))
}

fn hash(bytes: &[u8]) -> String {
    ContentId::of_bytes(bytes).to_string()
}

/// `(canonical v2 id, v1 hash, JSON hash)` of `log`.
fn fingerprints(log: &TraceLog) -> [String; 3] {
    let v2 = binlog::encode(log).unwrap();
    let v1 = binlog::encode_version(log, 1).unwrap();
    let json = serde_json::to_string(log).unwrap();
    assert_eq!(&binlog::decode(&v2).unwrap(), log, "v2 round trip");
    assert_eq!(&binlog::decode(&v1).unwrap(), log, "v1 round trip");
    [hash(&v2), hash(&v1), hash(json.as_bytes())]
}

#[test]
fn lu8_encodings_are_pinned() {
    assert_eq!(
        fingerprints(&lu8()),
        [
            "fb5e3c550ee91e3bbd08603a063e08ef",
            "1b05b99079f02345be48382406cff2f1",
            "2030b0c2ae500bdaba9c153e0161c71e",
        ]
    );
}

#[test]
fn prodcons_naive_encodings_are_pinned() {
    assert_eq!(
        fingerprints(&recorded(&prodcons::naive(1.0))),
        [
            "96b6a21c2231a5bc9001e30d55969528",
            "34312daa088f48adf83de9e6ed89b929",
            "baa99c120f8857e226b18dccbccc62fe",
        ]
    );
}
