//! End-to-end tests for `vppb serve`: a real child process, real sockets,
//! and the blocking client from `vppb_testkit::httpc`.
//!
//! Each test spawns its own server on an OS-assigned port (`--addr
//! 127.0.0.1:0`) and learns the port by scraping the CLI's `listening on`
//! line, which is part of the CLI contract for exactly this reason.

use std::net::SocketAddr;
use std::process::Command;
use std::time::Duration;
use vppb_recorder::{record, save_bin, save_text, RecordOptions};
use vppb_testkit::httpc::{header, HttpClient, ServerProc};
use vppb_threads::AppBuilder;

/// Spawn this workspace's `vppb serve` on an OS-assigned port.
fn spawn(extra: &[&str]) -> ServerProc {
    ServerProc::spawn(env!("CARGO_BIN_EXE_vppb"), extra)
}

/// Record a small parallel app and return its log.
fn recorded_log(workers: u64) -> vppb_model::TraceLog {
    let mut b = AppBuilder::new("e2e", "e2e.c");
    let w = b.func("w", |f| f.work_us(300));
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(workers, |f| f.create_into(w, s));
        f.loop_n(workers, |f| f.join(s));
    });
    record(&b.build().unwrap(), &RecordOptions::default()).unwrap().log
}

/// A unique scratch path for this test process.
fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("vppb-serve-e2e-{}-{name}", std::process::id()))
}

fn upload(addr: SocketAddr, bytes: &[u8]) -> serde::Value {
    let (status, body) = HttpClient::new(addr).request("POST", "/logs", bytes).expect("upload");
    assert_eq!(status, 200, "upload failed: {}", String::from_utf8_lossy(&body));
    serde_json::from_slice(&body).expect("upload response json")
}

fn str_field(v: &serde::Value, key: &str) -> String {
    match v.get(key) {
        Some(serde::Value::Str(s)) => s.clone(),
        other => panic!("field `{key}`: expected string, got {other:?}"),
    }
}

fn f64_field(v: &serde::Value, key: &str) -> f64 {
    match v.get(key) {
        Some(serde::Value::Float(f)) => *f,
        Some(serde::Value::UInt(n)) => *n as f64,
        other => panic!("field `{key}`: expected number, got {other:?}"),
    }
}

#[test]
fn corrupted_upload_is_salvaged_and_reported() {
    let server = spawn(&[]);
    let log = recorded_log(3);
    let path = scratch("corrupt.vppb");
    save_text(&log, path.to_str().unwrap()).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    // Chop off the final 40% — joins and exits vanish mid-record, which
    // the lenient loader must repair and *report*.
    bytes.truncate(bytes.len() * 6 / 10);

    let up = upload(server.addr, &bytes);
    assert_eq!(up.get("clean"), Some(&serde::Value::Bool(false)), "truncated log is not clean");
    let diagnostics = match up.get("diagnostics") {
        Some(serde::Value::Array(a)) => a.len(),
        other => panic!("diagnostics: {other:?}"),
    };
    let repairs = match up.get("salvage").and_then(|s| s.get("edits")) {
        Some(serde::Value::Array(a)) => a.len(),
        other => panic!("salvage.edits: {other:?}"),
    };
    assert!(
        diagnostics + repairs > 0,
        "a truncated upload must carry a salvage report (got neither diagnostics nor edits)"
    );
    // The salvaged log is usable: a prediction against it succeeds.
    let id = str_field(&up, "id");
    let (status, body) = HttpClient::new(server.addr)
        .request("POST", "/predict", format!("{{\"id\":\"{id}\"}}").as_bytes())
        .unwrap();
    assert_eq!(status, 200, "predict on salvaged log: {}", String::from_utf8_lossy(&body));
}

#[test]
fn concurrent_predictions_are_bit_identical_to_the_cli() {
    let server = spawn(&[]);
    let log = recorded_log(4);
    let path = scratch("clean.vppb");
    save_bin(&log, path.to_str().unwrap()).unwrap();
    let bytes = std::fs::read(&path).unwrap();

    let up = upload(server.addr, &bytes);
    let id = str_field(&up, "id");
    let req = format!("{{\"id\":\"{id}\",\"cpus\":4}}");

    // Hammer the same query from N concurrent clients.
    let addr = server.addr;
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let req = req.clone();
            std::thread::spawn(move || {
                HttpClient::new(addr).request("POST", "/predict", req.as_bytes()).expect("predict")
            })
        })
        .collect();
    let responses: Vec<(u16, Vec<u8>)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (status, _) in &responses {
        assert_eq!(*status, 200);
    }
    let first = &responses[0].1;
    for (_, body) in &responses {
        assert_eq!(body, first, "concurrent responses must be byte-identical");
    }

    // After the dust settles the memo must answer, flagged via the header.
    let (status, headers, warm) =
        HttpClient::new(addr).request_full("POST", "/predict", req.as_bytes()).unwrap();
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-vppb-cache"), Some("hit"));
    assert_eq!(&warm, first, "memoized response must be byte-identical to the cold one");

    // And the served speed-up agrees with `vppb predict` digit for digit.
    let parsed: serde::Value = serde_json::from_slice(first).unwrap();
    let served = format!("{:.2}", f64_field(&parsed, "speedup"));
    let out = Command::new(env!("CARGO_BIN_EXE_vppb"))
        .args(["predict", path.to_str().unwrap(), "--cpus", "4"])
        .output()
        .expect("run vppb predict");
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let cli = stdout.trim().rsplit(' ').next().unwrap().to_string();
    assert_eq!(served, cli, "service and CLI disagree on the speed-up (cli line: {stdout:?})");

    // A fleet of 100 predictions over 10 clients: every one a
    // byte-identical memo hit, with no 5xx anywhere.
    let fleet: Vec<_> = (0..10)
        .map(|_| {
            let req = req.clone();
            std::thread::spawn(move || {
                let http = HttpClient::new(addr);
                (0..10)
                    .map(|_| http.request("POST", "/predict", req.as_bytes()).expect("predict"))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for (status, body) in fleet.into_iter().flat_map(|h| h.join().unwrap()) {
        assert_eq!(status, 200, "predict: {}", String::from_utf8_lossy(&body));
        assert_eq!(&body, first, "fleet responses must be byte-identical");
    }
    let (status, body) = HttpClient::new(addr).request("GET", "/metrics", b"").unwrap();
    assert_eq!(status, 200);
    let metrics: serde::Value = serde_json::from_slice(&body).unwrap();
    let cache = metrics.get("service").and_then(|s| s.get("result_cache")).expect("result_cache");
    let hit_rate = f64_field(cache, "hit_rate");
    assert!(hit_rate > 0.9, "result-cache hit rate {hit_rate} must clear 0.9");
    let http = metrics.get("http").expect("http counters");
    assert_eq!(f64_field(http, "server_5xx"), 0.0, "no request may answer 5xx");
}

/// `vppb predict` on `bytes`, returning the formatted speed-up digits.
/// Lenient, because streamed prefixes may end mid-record.
fn cli_predict_speedup(bytes: &[u8], cpus: u32, name: &str) -> String {
    let path = scratch(name);
    std::fs::write(&path, bytes).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_vppb"))
        .args(["predict", path.to_str().unwrap(), "--cpus", &cpus.to_string(), "--lenient"])
        .output()
        .expect("run vppb predict");
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.code().is_some_and(|c| c <= 1),
        "vppb predict failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    stdout.trim().rsplit(' ').next().unwrap().to_string()
}

#[test]
fn follow_predictions_across_appends_match_the_cli_digit_for_digit() {
    let server = spawn(&[]);
    let log = recorded_log(4);
    let bytes = vppb_model::binlog::encode(&log).unwrap();
    let b = vppb_model::chunk::record_boundaries(&bytes);
    assert!(b.len() > 12, "fixture too small: {} boundaries", b.len());
    // Four cuts: three at record boundaries, one torn mid-record (+3
    // bytes into a length-prefixed frame) that the salvage pipeline must
    // repair — and the repair must dissolve on the next append.
    let cuts = [b[b.len() / 5], b[2 * b.len() / 5], b[3 * b.len() / 5] + 3, b[4 * b.len() / 5]];
    assert!(cuts.windows(2).all(|w| w[0] < w[1]) && cuts[3] < bytes.len());

    let up = upload(server.addr, &bytes[..cuts[0]]);
    let id = str_field(&up, "id");

    let mut torn_seen = false;
    for (i, pair) in
        cuts.iter().chain([bytes.len()].iter()).collect::<Vec<_>>().windows(2).enumerate()
    {
        let (from, to) = (*pair[0], *pair[1]);
        let (status, body) = HttpClient::new(server.addr)
            .request("POST", &format!("/logs/{id}/append"), &bytes[from..to])
            .expect("append");
        assert_eq!(status, 200, "append {i}: {}", String::from_utf8_lossy(&body));
        let ap: serde::Value = serde_json::from_slice(&body).unwrap();
        if to == cuts[2] {
            // The buffer now ends 3 bytes into a record frame: the parse
            // must have salvaged it and said so with a W04xx edit.
            assert_eq!(ap.get("clean"), Some(&serde::Value::Bool(false)));
            let rendered = String::from_utf8_lossy(&body);
            assert!(
                rendered.contains("W04"),
                "torn append must report a W04xx salvage edit: {rendered}"
            );
            torn_seen = true;
        }

        // The follow prediction must agree with the CLI on the same
        // prefix, digit for digit — the CLI runs cold in its own process,
        // so this cannot be satisfied vacuously by the server's memo.
        let (status, _, resp) = HttpClient::new(server.addr)
            .request_full("GET", &format!("/predict?follow=1&id={id}&cpus=4"), b"")
            .expect("follow predict");
        assert_eq!(status, 200, "follow {i}: {}", String::from_utf8_lossy(&resp));
        let parsed: serde::Value = serde_json::from_slice(&resp).unwrap();
        let served = format!("{:.2}", f64_field(&parsed, "speedup"));
        let cli = cli_predict_speedup(&bytes[..to], 4, &format!("follow-{i}.vppb"));
        assert_eq!(served, cli, "prefix {i} (..{to}): follow and CLI disagree");
    }
    assert!(torn_seen, "the torn cut never happened — test wiring broke");

    // Re-asking without an append hits the memo, flagged via the header.
    let (status, headers, _) = HttpClient::new(server.addr)
        .request_full("GET", &format!("/predict?follow=1&id={id}&cpus=4"), b"")
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-vppb-cache"), Some("hit"));
}

#[test]
fn full_queue_rejects_with_503_while_in_flight_requests_complete() {
    let server = spawn(&["--workers", "1", "--queue-depth", "1"]);
    let up = upload(server.addr, &vppb_model::binlog::encode(&recorded_log(2)).unwrap());
    let id = str_field(&up, "id");
    let slow = format!("{{\"id\":\"{id}\",\"cpus\":2,\"delay_ms\":1200}}");

    // Occupy the only worker...
    let addr = server.addr;
    let in_flight = {
        let slow = slow.clone();
        std::thread::spawn(move || {
            HttpClient::new(addr).request("POST", "/predict", slow.as_bytes())
        })
    };
    std::thread::sleep(Duration::from_millis(400));

    // ...then flood: one connection fits the queue, the rest must bounce.
    let flood: Vec<_> = (0..5)
        .map(|_| {
            let slow = slow.clone();
            std::thread::spawn(move || {
                HttpClient::new(addr)
                    .request("POST", "/predict", slow.as_bytes())
                    .expect("flood request")
            })
        })
        .collect();
    let statuses: Vec<u16> = flood.into_iter().map(|h| h.join().unwrap().0).collect();

    let (status, _) = in_flight.join().unwrap().expect("in-flight request");
    assert_eq!(status, 200, "the in-flight request must complete");
    assert!(
        statuses.contains(&503),
        "an overloaded queue must shed load with 503s (got {statuses:?})"
    );
    assert!(
        statuses.iter().all(|s| *s == 200 || *s == 503),
        "overload must not corrupt accepted requests (got {statuses:?})"
    );
}

#[test]
fn panicking_job_gets_a_500_and_the_server_keeps_serving() {
    let server = spawn(&[]);
    let up = upload(server.addr, &vppb_model::binlog::encode(&recorded_log(2)).unwrap());
    let id = str_field(&up, "id");

    // Arm the engine's panic fault: this request must die alone.
    let poison = format!("{{\"id\":\"{id}\",\"cpus\":2,\"panic_after_events\":1}}");
    let (status, body) =
        HttpClient::new(server.addr).request("POST", "/predict", poison.as_bytes()).unwrap();
    assert_eq!(status, 500, "armed panic must surface as a 500");
    assert!(
        String::from_utf8_lossy(&body).contains("panic"),
        "500 body should say the handler panicked: {}",
        String::from_utf8_lossy(&body)
    );

    // The worker survived the unwind: the next request is served normally.
    let ok = format!("{{\"id\":\"{id}\",\"cpus\":2}}");
    let (status, _) =
        HttpClient::new(server.addr).request("POST", "/predict", ok.as_bytes()).unwrap();
    assert_eq!(status, 200, "server must keep serving after a panicking job");
    let (status, body) = HttpClient::new(server.addr).request("GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("\"ok\":true"));
}

#[test]
fn out_of_bounds_configurations_get_a_400_and_the_server_keeps_serving() {
    let server = spawn(&[]);
    let up = upload(server.addr, &vppb_model::binlog::encode(&recorded_log(2)).unwrap());
    let id = str_field(&up, "id");
    let http = HttpClient::new(server.addr);
    // Unchecked, each of these would size an allocation or wrap a delay;
    // all must be refused before any replay.
    for (method, path, body, field) in [
        ("POST", "/predict", format!("{{\"id\":\"{id}\",\"cpus\":4294967295}}"), "cpus"),
        ("POST", "/predict", format!("{{\"id\":\"{id}\",\"cpus\":0}}"), "cpus"),
        ("POST", "/predict", format!("{{\"id\":\"{id}\",\"cpus\":2,\"lwps\":4294967295}}"), "lwps"),
        (
            "POST",
            "/predict",
            format!("{{\"id\":\"{id}\",\"comm_delay_us\":18446744073709552}}"),
            "comm_delay_us",
        ),
        (
            "POST",
            "/sweep",
            format!("{{\"id\":\"{id}\",\"cpus\":[4294967295],\"lwps\":[\"follow\"]}}"),
            "cpus",
        ),
        ("GET", &format!("/predict?follow=1&id={id}&cpus=4294967295"), String::new(), "cpus"),
    ] {
        let (status, body) = http.request(method, path, body.as_bytes()).unwrap();
        let body = String::from_utf8_lossy(&body);
        assert_eq!(status, 400, "{method} {path}: {body}");
        assert!(body.contains(field), "{method} {path} must name `{field}`: {body}");
    }
    let (status, body) = http.request("GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("\"ok\":true"));
    let ok = format!("{{\"id\":\"{id}\",\"cpus\":2}}");
    let (status, _) = http.request("POST", "/predict", ok.as_bytes()).unwrap();
    assert_eq!(status, 200, "a valid predict still answers");
}

#[test]
fn shutdown_drains_and_the_process_exits_cleanly() {
    let mut server = spawn(&[]);
    let up = upload(server.addr, &vppb_model::binlog::encode(&recorded_log(2)).unwrap());
    let id = str_field(&up, "id");
    let (status, _) = HttpClient::new(server.addr)
        .request("POST", "/predict", format!("{{\"id\":\"{id}\",\"cpus\":2}}").as_bytes())
        .unwrap();
    assert_eq!(status, 200);

    let (status, body) = HttpClient::new(server.addr).request("POST", "/shutdown", b"").unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("\"draining\":true"));

    let exit = server.wait_exit(30).expect("server must exit after drain");
    assert_eq!(exit.code(), Some(0), "graceful drain exits 0");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut server.stdout, &mut rest).unwrap();
    assert!(rest.contains("drained"), "drain message missing from stdout: {rest:?}");
}
