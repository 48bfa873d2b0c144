//! The CI-gate bench binaries refuse arguments they do not read: each
//! exits 2 with its usage before measuring or starting a server, and
//! writes no report (a report is only ever written to the `--out` file).

use std::path::PathBuf;
use std::process::Command;

/// A fresh empty directory to run a binary in.
fn empty_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vppb-bench-flags-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn assert_refused(bin: &str, name: &str, args: &[&str]) {
    let dir = empty_dir(name);
    // A server binary that cannot start: a bin that got past its flags
    // would fail to spawn it and exit 101, not 2.
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .env("VPPB_BIN", dir.join("no-such-vppb"))
        .output()
        .expect("run bench binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{name} {args:?} prints its usage: {stderr}");
    let left: Vec<_> = std::fs::read_dir(&dir).expect("read temp dir").collect();
    assert!(left.is_empty(), "{name} {args:?} wrote {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_engine_refuses_flags_it_does_not_read() {
    let bin = env!("CARGO_BIN_EXE_bench_engine");
    assert_refused(bin, "bench_engine-help", &["--help"]);
    assert_refused(bin, "bench_engine-unknown", &["--fast", "--bogus"]);
    assert_refused(bin, "bench_engine-no-value", &["--fast", "--out"]);
}

#[test]
fn stream_smoke_refuses_flags_it_does_not_read() {
    let bin = env!("CARGO_BIN_EXE_stream_smoke");
    assert_refused(bin, "stream_smoke-help", &["--help"]);
    assert_refused(bin, "stream_smoke-unknown", &["--fast", "--check"]);
    assert_refused(bin, "stream_smoke-no-value", &["--out"]);
}

#[test]
fn serve_bench_refuses_flags_it_does_not_read() {
    let bin = env!("CARGO_BIN_EXE_serve_bench");
    assert_refused(bin, "serve_bench-misspelt", &["--fsat"]);
    assert_refused(bin, "serve_bench-no-value", &["--fast", "--clients"]);
}

#[test]
fn crash_smoke_refuses_flags_it_does_not_read() {
    let bin = env!("CARGO_BIN_EXE_crash_smoke");
    assert_refused(bin, "crash_smoke-unknown", &["--points", "40", "--fast"]);
    assert_refused(bin, "crash_smoke-no-value", &["--scratch"]);
}
