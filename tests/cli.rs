//! Integration tests for the `vppb` command-line tool: the full
//! file-based workflow, driven exactly as a user would.

use std::process::Command;

fn vppb(args: &[&str]) -> (bool, String, String) {
    let (code, stdout, stderr) = vppb_code(args);
    (code == 0, stdout, stderr)
}

/// Like [`vppb`], exposing the exact exit code — the CLI contract is
/// 0 clean, 1 completed after reported recovery, 2 unrecoverable.
fn vppb_code(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_vppb")).args(args).output().expect("binary runs");
    (
        out.status.code().expect("no signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vppb-cli-{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn workloads_lists_the_suite() {
    let (ok, stdout, _) = vppb(&["workloads"]);
    assert!(ok);
    for name in ["ocean", "fft", "radix", "lu", "prodcons-naive"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn record_predict_report_round_trip() {
    let dir = tmpdir("roundtrip");
    let log = dir.join("fft.vppb");
    let log_s = log.to_str().unwrap();

    let (ok, stdout, stderr) =
        vppb(&["record", "fft", "--threads", "4", "--scale", "0.1", "-o", log_s]);
    assert!(ok, "record failed: {stderr}");
    assert!(stdout.contains("recorded"));

    let (ok, stdout, _) = vppb(&["report", log_s]);
    assert!(ok);
    assert!(stdout.contains("program:   fft"));
    assert!(stdout.contains("threads:   4"));

    let (ok, stdout, _) = vppb(&["predict", log_s, "--cpus", "4"]);
    assert!(ok);
    // FFT on 4 CPUs predicts ~2.14 (Table 1).
    let speedup: f64 =
        stdout.split(':').next_back().unwrap().trim().parse().expect("speed-up prints");
    assert!((speedup - 2.14).abs() < 0.1, "fft@4p: {speedup}");
}

#[test]
fn simulate_writes_svg_and_html() {
    let dir = tmpdir("render");
    let log = dir.join("radix.bin");
    let log_s = log.to_str().unwrap();
    let (ok, _, stderr) = vppb(&[
        "record",
        "radix",
        "--threads",
        "2",
        "--scale",
        "0.05",
        "-o",
        log_s,
        "--format",
        "bin",
    ]);
    assert!(ok, "{stderr}");

    let svg = dir.join("out.svg");
    let html = dir.join("out.html");
    let (ok, stdout, stderr) = vppb(&[
        "simulate",
        log_s,
        "--cpus",
        "2",
        "--svg",
        svg.to_str().unwrap(),
        "--html",
        html.to_str().unwrap(),
        "--stats",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("simulated"));
    assert!(stdout.contains("Contention by object"));
    assert!(std::fs::read_to_string(&svg).unwrap().starts_with("<svg"));
    assert!(std::fs::read_to_string(&html).unwrap().starts_with("<!DOCTYPE html>"));
}

#[test]
fn binary_and_text_formats_sniff_correctly() {
    let dir = tmpdir("formats");
    for fmt in ["text", "json", "bin"] {
        let log = dir.join(format!("l.{fmt}"));
        let log_s = log.to_str().unwrap();
        let (ok, _, e) = vppb(&[
            "record",
            "lu",
            "--threads",
            "2",
            "--scale",
            "0.02",
            "-o",
            log_s,
            "--format",
            fmt,
        ]);
        assert!(ok, "record {fmt}: {e}");
        let (ok, stdout, e) = vppb(&["report", log_s]);
        assert!(ok, "report {fmt}: {e}");
        assert!(stdout.contains("program:   lu"));
    }

    // A leading newline keeps a JSON log JSON for every verb, strict or
    // lenient: they share one sniff.
    let json = dir.join("l.json");
    let padded = dir.join("padded.json");
    std::fs::write(&padded, [b"\n".as_slice(), &std::fs::read(&json).unwrap()].concat()).unwrap();
    let padded_s = padded.to_str().unwrap();
    for args in [&["check", padded_s][..], &["check", "--strict", padded_s]] {
        let (code, stdout, e) = vppb_code(args);
        assert_eq!(code, 0, "{args:?}: {e}");
        assert!(stdout.contains(": clean"), "{args:?}: {stdout}");
    }
    let (ok, stdout, e) = vppb(&["report", padded_s]);
    assert!(ok && stdout.contains("program:   lu"), "report padded json: {e}");
    let predict = |path: &str| vppb_code(&["predict", path, "--cpus", "2"]);
    let (code, padded_out, e) = predict(padded_s);
    assert_eq!(code, 0, "predict padded json: {e}");
    assert_eq!(padded_out, predict(json.to_str().unwrap()).1);
}

#[test]
fn watch_ends_on_the_line_predict_prints() {
    let dir = tmpdir("watch");
    for fmt in ["text", "bin"] {
        let log = dir.join(format!("fft.{fmt}"));
        let log_s = log.to_str().unwrap();
        let (ok, _, e) = vppb(&[
            "record",
            "fft",
            "--threads",
            "4",
            "--scale",
            "0.1",
            "-o",
            log_s,
            "--format",
            fmt,
        ]);
        assert!(ok, "record {fmt}: {e}");
        let (ok, predicted, e) = vppb(&["predict", log_s, "--cpus", "4"]);
        assert!(ok, "predict {fmt}: {e}");
        let (ok, watched, e) = vppb(&["watch", log_s, "--cpus", "4", "--chunks", "6"]);
        assert!(ok, "watch {fmt}: {e}");
        assert!(e.contains("vppb watch: "), "rolling updates go to stderr: {e}");
        let last = watched.lines().last().expect("watch prints its final prediction");
        assert!(last.starts_with("predicted speed-up of `fft` on 4 CPUs: "), "{watched}");
        assert_eq!(Some(last), predicted.lines().last(), "{fmt}: watch and predict disagree");
    }
}

#[test]
fn sweep_prints_the_surface_and_matches_predict() {
    let dir = tmpdir("sweep");
    let log = dir.join("fft.vppb");
    let log_s = log.to_str().unwrap();
    let (ok, _, stderr) = vppb(&["record", "fft", "--threads", "4", "--scale", "0.1", "-o", log_s]);
    assert!(ok, "record failed: {stderr}");

    let json = dir.join("sweep.json");
    let (ok, stdout, stderr) = vppb(&[
        "sweep",
        log_s,
        "--cpus",
        "1,2,4,8",
        "--lwps",
        "per-thread,2",
        "--jobs",
        "3",
        "--no-color",
        "--metrics-json",
        json.to_str().unwrap(),
    ]);
    assert!(ok, "sweep failed: {stderr}");
    assert!(stdout.contains("swept `fft` over 8 configurations"), "{stdout}");
    assert!(stdout.contains("speed-up"), "{stdout}");
    assert!(stdout.contains("8p"), "{stdout}");
    assert!(!stdout.contains('\x1b'), "--no-color must strip ANSI:\n{stdout}");

    // The JSON surface agrees with a serial predict of the same cell.
    #[derive(serde::Deserialize)]
    struct Dump {
        points: Vec<Point>,
    }
    #[derive(serde::Deserialize)]
    struct Point {
        label: String,
        speedup: f64,
        audit_clean: bool,
    }
    let dump: Dump = serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(dump.points.len(), 8);
    let cell_4p = dump
        .points
        .iter()
        .find(|p| p.label == "4p lwps=per-thread")
        .expect("4p per-thread cell present");
    let (ok, stdout, _) = vppb(&["predict", log_s, "--cpus", "4"]);
    assert!(ok);
    let predicted: f64 =
        stdout.split(':').next_back().unwrap().trim().parse().expect("speed-up prints");
    assert!(
        (cell_4p.speedup - predicted).abs() < 0.01,
        "sweep {} vs serial predict {predicted}",
        cell_4p.speedup
    );
    for p in &dump.points {
        assert!(p.audit_clean, "audit violated in cell {}", p.label);
    }
}

#[test]
fn out_of_bounds_machine_flags_exit_two_and_name_the_flag() {
    let dir = tmpdir("bounds");
    let log = dir.join("fft.vppb");
    let log_s = log.to_str().unwrap();
    let (ok, _, stderr) =
        vppb(&["record", "fft", "--threads", "2", "--scale", "0.05", "-o", log_s]);
    assert!(ok, "record failed: {stderr}");
    // 18446744073709552 µs is 2^64 + 384 ns: unchecked, it wraps to 384 ns.
    for (args, flag) in [
        (&["simulate", log_s, "--cpus", "4294967295"][..], "--cpus"),
        (&["simulate", log_s, "--comm-delay-us", "18446744073709552"], "--comm-delay-us"),
        (&["simulate", log_s, "--lwps", "4294967295"], "--lwps"),
        (&["predict", log_s, "--cpus", "0"], "--cpus"),
        (&["sweep", log_s, "--comm-delay-us", "1,18446744073709552"], "--comm-delay-us"),
        (&["watch", log_s, "--cpus", "1025", "--chunks", "2"], "--cpus"),
        (&["fuzz", "--seeds", "1", "--cpus", "2,1025"], "--cpus"),
    ] {
        let (code, stdout, stderr) = vppb_code(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} refused before any replay: {stdout}");
    }
}

#[test]
fn unknown_commands_and_workloads_fail_cleanly() {
    let (code, _, stderr) = vppb_code(&["frobnicate"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("usage"));
    let (code, _, stderr) = vppb_code(&["record", "not-a-workload"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown workload"));
}

#[test]
fn flags_a_verb_does_not_read_are_usage_errors() {
    // A retired switch must fail loudly rather than run a plain fuzz, and
    // must not take the next flag as its value.
    for args in [
        &["fuzz", "--self-test-steal"][..],
        &["fuzz", "--seeds", "8", "--self-test-steal", "--shrink", "--repro-dir", "repros"],
        &["predict", "x.vppb", "--json"],
    ] {
        let (code, _, stderr) = vppb_code(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains("unknown flag") && stderr.contains("usage"), "{stderr}");
    }
    // The self-test plants a steal-order bug, which needs the async model.
    let (code, _, stderr) =
        vppb_code(&["fuzz", "--seeds", "4", "--self-test", "--model", "solaris"]);
    assert_eq!(code, 2, "{stderr}");
}

#[test]
fn fuzz_agrees_with_the_oracle_and_its_self_test_catches_both_planted_bugs() {
    let (ok, stdout, stderr) = vppb(&["fuzz", "--seeds", "4", "--chunked"]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("128 comparison(s)") && stdout.contains(", 0 divergence(s)"),
        "{stdout}"
    );

    let (code, stdout, stderr) =
        vppb_code(&["fuzz", "--seeds", "24", "--seed-start", "6552", "--self-test"]);
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    // Each planted bug's first divergence, shrunk, within its bound.
    for (bug, bound) in [("tie-break inversion", 20), ("async steal-order reversal", 30)] {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(&format!("self-test: caught the {bug} ")))
            .unwrap_or_else(|| panic!("no verdict for the {bug}:\n{stdout}"));
        let ops: usize = line
            .split("shrunk to ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no shrunk size in {line:?}"));
        assert!(ops <= bound, "{bug}: first divergence shrank only to {ops} ops: {line}");
    }
    assert!(stdout.contains("self-test passed"), "{stdout}");
}

/// Record one binary log and return (pristine bytes, its path, dir).
fn recorded_bin(name: &str) -> (Vec<u8>, std::path::PathBuf, std::path::PathBuf) {
    let dir = tmpdir(name);
    let log = dir.join("ocean.vppbb");
    let log_s = log.to_str().unwrap();
    let (ok, _, stderr) = vppb(&[
        "record",
        "ocean",
        "--threads",
        "4",
        "--scale",
        "0.05",
        "-o",
        log_s,
        "--format",
        "bin",
    ]);
    assert!(ok, "record failed: {stderr}");
    let bytes = std::fs::read(&log).unwrap();
    (bytes, log, dir)
}

#[test]
fn check_exit_codes_cover_clean_salvaged_unrecoverable() {
    let (bytes, log, dir) = recorded_bin("check-codes");
    let log_s = log.to_str().unwrap();

    // Clean log: exit 0, verdict on stdout, silent stderr.
    let (code, stdout, stderr) = vppb_code(&["check", log_s]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("clean"), "{stdout}");
    assert!(stderr.is_empty(), "clean check must not warn: {stderr}");

    // Byte-truncated log: exit 1, diagnostics on stderr, salvage summary
    // (synthesized exits among it) on stdout.
    let cut = dir.join("cut.vppbb");
    std::fs::write(&cut, &bytes[..bytes.len() * 4 / 5]).unwrap();
    let (code, stdout, stderr) = vppb_code(&["check", cut.to_str().unwrap()]);
    assert_eq!(code, 1, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("salvaged"), "{stdout}");
    assert!(stdout.contains("W0404"), "synthesized exits missing from report: {stdout}");
    assert!(stderr.contains("warning["), "rustc-style diagnostics go to stderr: {stderr}");

    // Unsalvageable garbage: exit 2.
    let junk = dir.join("junk.log");
    std::fs::write(&junk, "not a log at all").unwrap();
    let (code, stdout, _) = vppb_code(&["check", junk.to_str().unwrap()]);
    assert_eq!(code, 2);
    assert!(stdout.contains("unrecoverable"), "{stdout}");

    // Strict mode refuses what lenient salvages.
    let (code, _, stderr) = vppb_code(&["check", cut.to_str().unwrap(), "--strict"]);
    assert_eq!(code, 2, "strict must refuse a truncated log");
    assert!(stderr.contains("error["), "{stderr}");
}

#[test]
fn check_json_output_is_clean_on_stdout() {
    let (bytes, _, dir) = recorded_bin("check-json");
    let cut = dir.join("cut.vppbb");
    std::fs::write(&cut, &bytes[..bytes.len() * 4 / 5]).unwrap();

    let (code, stdout, stderr) = vppb_code(&["check", cut.to_str().unwrap(), "--json"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("warning["), "diagnostics stay on stderr: {stderr}");

    #[derive(serde::Deserialize)]
    struct Edit {
        code: String,
    }
    #[derive(serde::Deserialize)]
    struct Salvage {
        edits: Vec<Edit>,
    }
    #[derive(serde::Deserialize)]
    struct Dump {
        usable: bool,
        clean: bool,
        records: usize,
        salvage: Salvage,
    }
    // The whole of stdout must be one parseable JSON document.
    let dump: Dump = serde_json::from_str(stdout.trim()).expect("stdout is pure JSON");
    assert!(dump.usable && !dump.clean);
    assert!(dump.records > 0);
    assert!(dump.salvage.edits.iter().any(|e| e.code == "SynthesizedExit"), "exit edits");
}

#[test]
fn invalid_utf8_in_a_text_log_is_reported_at_its_line() {
    let dir = tmpdir("bad-utf8");
    let log = dir.join("lu.vppb");
    let log_s = log.to_str().unwrap();
    let (ok, _, stderr) = vppb(&["record", "lu", "--threads", "2", "--scale", "0.05", "-o", log_s]);
    assert!(ok, "{stderr}");
    // A comment line that is not UTF-8, as line 2.
    let text = std::fs::read(&log).unwrap();
    let line2 = text.iter().position(|&b| b == b'\n').unwrap() + 1;
    let at = line2 + "# note ".len();
    let bad = [&text[..line2], b"# note \xff\xfe\n", &text[line2..]].concat();
    std::fs::write(&log, bad).unwrap();

    // Lenient: the bytes are replaced, with a warning naming the line.
    let (code, stdout, stderr) = vppb_code(&["check", log_s]);
    assert_eq!(code, 1, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stderr.contains("warning[E0108]") && stderr.contains("(line 2)"), "{stderr}");

    // Strict: a positioned diagnostic naming the line and the byte.
    let (code, stdout, _) = vppb_code(&["check", log_s, "--strict", "--json"]);
    assert_eq!(code, 2);
    #[derive(serde::Deserialize)]
    struct Diag {
        code: String,
        pos: std::collections::BTreeMap<String, u32>,
        message: String,
    }
    #[derive(serde::Deserialize)]
    struct Dump {
        diagnostics: Vec<Diag>,
    }
    let dump: Dump = serde_json::from_str(stdout.trim()).expect("stdout is pure JSON");
    let [d] = &dump.diagnostics[..] else { panic!("one diagnostic: {stdout}") };
    assert_eq!((d.code.as_str(), d.pos.get("Line")), ("InvalidUtf8", Some(&2)), "{stdout}");
    assert!(d.message.ends_with(&format!("at byte {at}")), "{stdout}");

    let (code, _, stderr) = vppb_code(&["predict", log_s, "--cpus", "2"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("error[E0108]") && stderr.contains("(line 2)"), "{stderr}");
}

#[test]
fn lenient_predict_salvages_with_exit_one_and_clean_audit() {
    let (bytes, _, dir) = recorded_bin("lenient-predict");
    let cut = dir.join("cut.vppbb");
    std::fs::write(&cut, &bytes[..bytes.len() * 4 / 5]).unwrap();
    let cut_s = cut.to_str().unwrap();

    // Strict predict refuses the damaged log outright.
    let (code, _, _) = vppb_code(&["predict", cut_s, "--cpus", "8"]);
    assert_eq!(code, 2);

    // Lenient predict salvages, predicts, and reports via exit code 1.
    let json = dir.join("m.json");
    let (code, stdout, stderr) = vppb_code(&[
        "predict",
        cut_s,
        "--cpus",
        "8",
        "--lenient",
        "--metrics-json",
        json.to_str().unwrap(),
    ]);
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(stdout.contains("predicted speed-up"), "{stdout}");
    assert!(stderr.contains("salvaged"), "{stderr}");

    #[derive(serde::Deserialize)]
    struct Audit {
        violations: Vec<String>,
    }
    #[derive(serde::Deserialize)]
    struct Edit {
        code: String,
    }
    #[derive(serde::Deserialize)]
    struct Salvage {
        edits: Vec<Edit>,
    }
    #[derive(serde::Deserialize)]
    struct Dump {
        speedup: f64,
        audit: Audit,
        salvage: Salvage,
    }
    let dump: Dump = serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert!(dump.speedup > 1.0, "8-CPU prediction from the salvaged log: {}", dump.speedup);
    assert!(dump.audit.violations.is_empty(), "conservation audit: {:?}", dump.audit.violations);
    assert!(
        dump.salvage.edits.iter().any(|e| e.code.starts_with("Synthesized")),
        "salvage report must ride in the metrics dump"
    );
}

/// A `thread_start` mark between a call's BEFORE and AFTER records: the
/// checker, the predictor and the streaming watcher pair the call the same
/// way, so a log `check --strict` passes also predicts, to the speed-up of
/// the log without the mark.
#[test]
fn a_mark_inside_an_open_call_checks_and_predicts_alike() {
    let dir = tmpdir("mark-in-call");
    let log = dir.join("fft.vppb");
    let log_s = log.to_str().unwrap();
    let (ok, _, stderr) =
        vppb(&["record", "fft", "--threads", "2", "--scale", "0.02", "-o", log_s]);
    assert!(ok, "record failed: {stderr}");
    let text = std::fs::read_to_string(&log).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    let at = lines.iter().position(|l| l.contains(" T4 B mutex_lock ")).expect("T4 locks");
    let time = lines[at].split(' ').next().unwrap().to_string();
    let mark = format!("{time} T4 M thread_start func=0x1000 @0x0");
    lines.insert(at + 1, &mark);
    let bad = dir.join("mark.vppb");
    std::fs::write(&bad, lines.join("\n") + "\n").unwrap();
    let bad_s = bad.to_str().unwrap();

    let (code, stdout, stderr) = vppb_code(&["check", "--strict", bad_s]);
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("clean"), "{stdout}");
    let (code, with_mark, stderr) = vppb_code(&["predict", bad_s, "--cpus", "2"]);
    assert_eq!(code, 0, "predict must accept what check accepts: {stderr}");
    let (_, without, _) = vppb_code(&["predict", log_s, "--cpus", "2"]);
    assert_eq!(with_mark, without);
    let (code, watched, stderr) = vppb_code(&["watch", bad_s, "--cpus", "2", "--chunks", "5"]);
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(watched, with_mark, "watch ends on the line predict prints");
}
