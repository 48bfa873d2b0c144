//! Kill-point chaos harness for `vppb serve --store`, run by CI's
//! `crash-smoke` job: drive a scripted upload/append/predict workload
//! against a real child server and SIGKILL it at every seeded point —
//! after each operation, and mid-write via the fault-injection VFS
//! (`VPPB_FAULT_VFS=torn-write=N` leaves half-written bytes on the final
//! path, exactly what a power cut mid-`write(2)` leaves). Then restart
//! over the same store and hold the line on three invariants:
//!
//! 1. **zero lost acknowledged writes** — every content id a 200 ever
//!    acknowledged still answers `POST /predict` after the restart, and
//!    startup recovery reports `recovered_missing == 0`;
//! 2. **zero corruption escapes** — damaged objects are quarantined by
//!    fsck, never served (a served torn object would fail invariant 3
//!    loudly, or the CRC check turns it into an error, never bad data);
//! 3. **bit-identical predictions** — every post-restart prediction body
//!    equals, byte for byte, the one produced by a control server that
//!    never crashed.
//!
//! Usage: `crash_smoke [--points N] [--scratch DIR]` (default 48 points,
//! floor 40; stores under the system temp dir). A flag it does not read
//! exits 2 with the usage before any server starts. Offline,
//! deterministic, no flaky sleeps: kills happen between synchronous
//! client calls or at exact write ordinals.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use vppb_recorder::{record, RecordOptions};
use vppb_testkit::httpc::{HttpClient, ServerProc};
use vppb_threads::AppBuilder;

/// One scripted client operation.
enum Op {
    /// `POST /logs`; acks a content id.
    Upload(Vec<u8>),
    /// `POST /logs/{sid}/append` on the stream opened by upload `usize`;
    /// acks the grown content id.
    Append(usize, Vec<u8>),
    /// `POST /predict` for the most recently acked content id.
    Predict,
    /// `GET /predict?follow=1` on the stream opened by upload `usize`.
    Follow(usize),
}

fn recorded_bytes(name: &str, workers: u64, work_us: u64) -> Vec<u8> {
    let mut b = AppBuilder::new(name, "crash.c");
    let w = b.func("w", move |f| f.work_us(work_us));
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(workers, |f| f.create_into(w, s));
        f.loop_n(workers, |f| f.join(s));
    });
    let log = record(&b.build().unwrap(), &RecordOptions::default()).unwrap().log;
    vppb_model::binlog::encode(&log).unwrap()
}

/// The deterministic op script every run (control, crashed, restarted)
/// replays a prefix of.
fn script() -> Vec<Op> {
    let a = recorded_bytes("crash-a", 4, 300);
    let b = recorded_bytes("crash-b", 3, 250);
    let c = recorded_bytes("crash-c", 2, 400);
    let bounds = vppb_model::chunk::record_boundaries(&b);
    assert!(bounds.len() > 8, "stream fixture too small: {} boundaries", bounds.len());
    // Four cuts; the second lands 3 bytes into a record frame, so that
    // chunk's ack covers a *salvaged* parse.
    let cuts = [
        bounds[bounds.len() / 5],
        bounds[2 * bounds.len() / 5] + 3,
        bounds[3 * bounds.len() / 5],
        bounds[4 * bounds.len() / 5],
    ];
    // NB: `Append`/`Follow` name the *op index* of the upload that opened
    // the stream — `b`'s prefix upload is op 2.
    vec![
        Op::Upload(a),
        Op::Predict,
        Op::Upload(b[..cuts[0]].to_vec()),
        Op::Append(2, b[cuts[0]..cuts[1]].to_vec()),
        Op::Predict,
        Op::Follow(2),
        Op::Append(2, b[cuts[1]..cuts[2]].to_vec()),
        Op::Predict,
        Op::Upload(c),
        Op::Predict,
        Op::Append(2, b[cuts[2]..cuts[3]].to_vec()),
        Op::Follow(2),
        Op::Append(2, b[cuts[3]..].to_vec()),
        Op::Predict,
    ]
}

/// Content ids acknowledged while driving a script prefix.
#[derive(Default)]
struct Acked {
    /// Every content id a 200 acknowledged, in ack order.
    ids: Vec<String>,
    /// Stream handles by upload index (for Append/Follow ops).
    streams: HashMap<usize, String>,
}

fn json_str(v: &serde::Value, key: &str) -> String {
    match v.get(key) {
        Some(serde::Value::Str(s)) => s.clone(),
        other => panic!("field `{key}`: {other:?}"),
    }
}

/// Drive `ops[..upto]`; record acks. Failures (503s from an armed fault)
/// are tolerated — an errored op acked nothing and that is the point.
fn drive(http: &HttpClient, ops: &[Op], upto: usize, acked: &mut Acked) {
    for (i, op) in ops.iter().take(upto).enumerate() {
        match op {
            Op::Upload(bytes) => {
                if let Ok((200, body)) = http.request("POST", "/logs", bytes) {
                    let up: serde::Value = serde_json::from_slice(&body).expect("upload json");
                    let id = json_str(&up, "id");
                    acked.streams.insert(i, id.clone());
                    acked.ids.push(id);
                }
            }
            Op::Append(stream_op, chunk) => {
                let Some(sid) = acked.streams.get(stream_op) else { continue };
                let path = format!("/logs/{sid}/append");
                if let Ok((200, body)) = http.request("POST", &path, chunk) {
                    let ap: serde::Value = serde_json::from_slice(&body).expect("append json");
                    acked.ids.push(json_str(&ap, "content_id"));
                }
            }
            Op::Predict => {
                if let Some(id) = acked.ids.last() {
                    let req = format!("{{\"id\":\"{id}\",\"cpus\":4}}");
                    let _ = http.request("POST", "/predict", req.as_bytes());
                }
            }
            Op::Follow(stream_op) => {
                if let Some(sid) = acked.streams.get(stream_op) {
                    let _ = http.request("GET", &format!("/predict?follow=1&id={sid}&cpus=4"), b"");
                }
            }
        }
    }
}

/// `POST /predict` for `id`, asserting 200; returns the body bytes.
fn predict(http: &HttpClient, id: &str, context: &str) -> Vec<u8> {
    let req = format!("{{\"id\":\"{id}\",\"cpus\":4}}");
    let (status, body) = http.request("POST", "/predict", req.as_bytes()).expect("predict io");
    assert_eq!(
        status,
        200,
        "{context}: acked content {id} must answer after restart: {}",
        String::from_utf8_lossy(&body)
    );
    body
}

fn metric_u64(v: &serde::Value, path: &[&str]) -> u64 {
    let mut cur = v;
    for key in path {
        cur = cur.get(key).unwrap_or_else(|| panic!("metrics missing `{}`", path.join(".")));
    }
    match cur {
        serde::Value::UInt(n) => *n,
        serde::Value::Int(n) => *n as u64,
        other => panic!("metrics `{}`: {other:?}", path.join(".")),
    }
}

/// A fresh store dir under `root`. Stores are deleted on success, kept
/// on failure.
fn scratch(root: &Path, tag: &str) -> PathBuf {
    let dir = root.join(format!("vppb-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch root");
    dir
}

/// The `vppb` binary next to this harness (or `$VPPB_BIN`).
fn vppb_bin() -> String {
    if let Ok(bin) = std::env::var("VPPB_BIN") {
        return bin;
    }
    let me = std::env::current_exe().expect("current_exe");
    let bin = me.parent().expect("bin dir").join("vppb");
    assert!(
        bin.exists(),
        "{} not found — build the vppb binary first or set VPPB_BIN",
        bin.display()
    );
    bin.to_string_lossy().into_owned()
}

/// One seeded kill point: drive, SIGKILL, restart, verify.
struct KillPoint {
    /// Ops completed before the kill.
    upto: usize,
    /// `torn-write=N` armed in the child for this run (mid-write kill).
    torn_write: Option<u64>,
}

fn run_kill_point(
    bin: &str,
    root: &Path,
    point: &KillPoint,
    ops: &[Op],
    control: &HashMap<String, Vec<u8>>,
    tag: &str,
) {
    let store = scratch(root, &format!("p{}-{}", point.upto, point.torn_write.unwrap_or(0)));
    let store_arg = store.to_str().unwrap().to_string();
    let fault = point.torn_write.map(|n| format!("torn-write={n}"));
    let env: Vec<(&str, &str)> = match &fault {
        Some(spec) => vec![("VPPB_FAULT_VFS", spec.as_str())],
        None => vec![],
    };
    let mut server = ServerProc::spawn_with_env(bin, &["--store", &store_arg], &env);
    let mut acked = Acked::default();
    drive(&server.client(), ops, point.upto, &mut acked);
    server.child.kill().expect("SIGKILL server");
    let _ = server.child.wait();
    verify_restart(bin, &store_arg, &acked, control, tag);
    let _ = std::fs::remove_dir_all(&store);
}

/// Restart over the same store (no faults) and check the invariants.
fn verify_restart(
    bin: &str,
    store_arg: &str,
    acked: &Acked,
    control: &HashMap<String, Vec<u8>>,
    tag: &str,
) {
    let server = ServerProc::spawn(bin, &["--store", store_arg]);
    assert!(
        server.banner.iter().any(|l| l.contains("store recovery")),
        "{tag}: restart must report recovery: {:?}",
        server.banner
    );
    let http = server.client();

    // Invariant 1+2: recovery saw no lost acked writes, and the store
    // still holds every acked object.
    let (status, body) = http.request("GET", "/metrics", b"").expect("metrics");
    assert_eq!(status, 200);
    let metrics: serde::Value = serde_json::from_slice(&body).expect("metrics json");
    let missing = metric_u64(&metrics, &["service", "durability", "recovered_missing"]);
    assert_eq!(missing, 0, "{tag}: fsck reported {missing} lost acknowledged write(s)");
    let objects = metric_u64(&metrics, &["service", "durability", "objects"]);
    let distinct: std::collections::HashSet<&String> = acked.ids.iter().collect();
    assert!(
        objects as usize >= distinct.len(),
        "{tag}: store holds {objects} objects but {} were acked",
        distinct.len()
    );

    // Invariant 3: every acked content id answers bit-identically to the
    // never-crashed control.
    for id in &distinct {
        let body = predict(&http, id, tag);
        let expected = control
            .get(*id)
            .unwrap_or_else(|| panic!("{tag}: acked id {id} unknown to the control run"));
        assert_eq!(&body, expected, "{tag}: prediction for {id} diverged from the control run");
    }

    let (status, body) = http.request("GET", "/healthz", b"").expect("healthz");
    assert_eq!(status, 200);
    assert!(
        String::from_utf8_lossy(&body).contains("\"degraded\":false"),
        "{tag}: restarted server must not be degraded: {}",
        String::from_utf8_lossy(&body)
    );
    let _ = http.request("POST", "/shutdown", b"");
}

const USAGE: &str = "usage: crash_smoke [--points N] [--scratch DIR]";

fn main() -> ExitCode {
    let flags =
        vppb_bench::parse_flags(std::env::args().skip(1), USAGE, &[], &["--points", "--scratch"]);
    let flag = |name: &str| flags.get(name).cloned().flatten();
    let points: usize =
        flag("--points").map(|v| v.parse().expect("bad --points value")).unwrap_or(48).max(40);
    // CI points `--scratch` into the workspace so failures upload the
    // surviving stores as artifacts.
    let root = flag("--scratch").map(PathBuf::from).unwrap_or_else(std::env::temp_dir);
    let bin = vppb_bin();
    let ops = script();

    // Control run: a server that never crashes sees the whole script;
    // its prediction for every acked content id is the reference.
    let control_store = scratch(&root, "control");
    let control_server = ServerProc::spawn(&bin, &["--store", control_store.to_str().unwrap()]);
    let http = control_server.client();
    let mut control_acked = Acked::default();
    drive(&http, &ops, ops.len(), &mut control_acked);
    let mut control: HashMap<String, Vec<u8>> = HashMap::new();
    for id in &control_acked.ids {
        if !control.contains_key(id) {
            let body = predict(&http, id, "control");
            control.insert(id.clone(), body);
        }
    }
    let _ = http.request("POST", "/shutdown", b"");
    drop(control_server);
    let _ = std::fs::remove_dir_all(&control_store);
    eprintln!("crash_smoke: control acked {} content id(s) over {} ops", control.len(), ops.len());

    // Seeded kill points: one after every op boundary (0 = before any op),
    // then mid-write kills at increasing torn-write ordinals.
    let mut kill_points = Vec::new();
    for upto in 0..=ops.len() {
        kill_points.push(KillPoint { upto, torn_write: None });
    }
    let mut torn = 1u64;
    while kill_points.len() < points {
        kill_points.push(KillPoint { upto: ops.len(), torn_write: Some(torn) });
        torn += 1;
    }

    for (i, point) in kill_points.iter().enumerate() {
        let tag = match point.torn_write {
            Some(n) => format!("point {i} (torn-write={n})"),
            None => format!("point {i} (after op {})", point.upto),
        };
        run_kill_point(&bin, &root, point, &ops, &control, &tag);
        eprintln!("crash_smoke: {tag} — recovered clean");
    }
    eprintln!(
        "crash_smoke: {} kill points, zero lost acked writes, zero corruption escapes, \
         all predictions bit-identical — PASS",
        kill_points.len()
    );
    ExitCode::SUCCESS
}
