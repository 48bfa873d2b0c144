//! Chaos harness over the full ingestion pipeline — the only one: CI runs
//! it in the `test` job, in debug, where integer overflow panics too.
//!
//! Every test here records a real workload, serializes it, damages the
//! bytes with the seeded mutators from `vppb_model::corrupt`, and drives
//! the result through `load_lenient_bytes` → `validate` → `simulate`.
//! The contract under test is the robustness story of ingestion: **any**
//! input either loads (possibly after reported salvage) or is rejected
//! with a diagnostic — the pipeline never panics, and whatever it
//! salvages is structurally valid and simulable without crashing.

use vppb_model::corrupt::{self, ChaosRng};
use vppb_model::{binlog, textlog, SimParams, TraceLog};
use vppb_recorder::load_lenient_bytes;
use vppb_recorder::LoadedLog;
use vppb_sim::simulate;
use vppb_testkit::fixtures::recorded_fft_log as recorded_log;
use vppb_testkit::{quiet, SilencedPanicHook};

/// The three on-disk encodings of one log.
fn encodings(log: &TraceLog) -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("text", textlog::write_log(log).into_bytes()),
        ("json", serde_json::to_string(log).expect("json").into_bytes()),
        ("bin", binlog::encode(log).expect("bin")),
    ]
}

/// What the pipeline made of one input that kept the contract.
enum Outcome {
    /// Loaded with no recovery at all.
    Pristine,
    /// Loaded after reported recovery.
    Salvaged,
    /// Refused with an error.
    Rejected,
}

/// Feed one (possibly damaged) byte buffer through load → validate →
/// simulate, panicking the test with a reproducible message on any
/// contract violation.
fn exercise(bytes: &[u8], what: &str) -> Outcome {
    let loaded = match quiet(|| load_lenient_bytes(bytes)) {
        Err(panic) => panic!("{what}: load panicked: {panic}"),
        Ok(Err(_diagnostic)) => return Outcome::Rejected, // allowed
        Ok(Ok(loaded)) => loaded,
    };
    // Whatever the salvager let through must be structurally sound.
    if let Err(e) = loaded.log.validate() {
        panic!("{what}: salvaged log fails validate: {e}");
    }
    // And the simulator must never panic on it (an error verdict is a
    // legitimate outcome for semantically damaged logs).
    if let Err(panic) = quiet(|| simulate(&loaded.log, &SimParams::cpus(4))) {
        panic!("{what}: simulate panicked on salvaged log: {panic}");
    }
    if loaded.is_pristine() {
        Outcome::Pristine
    } else {
        Outcome::Salvaged
    }
}

#[test]
fn truncated_binary_log_salvages_and_predicts() {
    let log = recorded_log();
    let bytes = binlog::encode(&log).expect("encode");
    // Cut mid-record, well into the stream — the acceptance scenario.
    let cut = bytes.len() * 4 / 5;
    let loaded: LoadedLog = load_lenient_bytes(&bytes[..cut]).expect("salvageable");
    assert!(!loaded.is_pristine(), "an 80% cut must be reported");
    loaded.log.validate().expect("salvaged log validates");
    let exec = simulate(&loaded.log, &SimParams::cpus(8)).expect("salvaged log simulates");
    assert!(exec.audit.is_clean(), "audit after salvage: {:?}", exec.audit);
}

#[test]
fn truncated_text_log_salvages_and_predicts() {
    let log = recorded_log();
    let text = textlog::write_log(&log);
    // Keep the header and the first two thirds of the record lines.
    let keep = text.lines().count() * 2 / 3;
    let cut: String = text.lines().take(keep).map(|l| format!("{l}\n")).collect();
    let loaded = load_lenient_bytes(cut.as_bytes()).expect("salvageable");
    assert!(!loaded.is_pristine(), "a truncated text log must be reported");
    loaded.log.validate().expect("salvaged log validates");
    let exec = simulate(&loaded.log, &SimParams::cpus(8)).expect("salvaged log simulates");
    assert!(exec.audit.is_clean(), "audit after salvage: {:?}", exec.audit);
}

#[test]
fn single_mutation_chaos_sweep_never_panics() {
    let log = recorded_log();
    let _hook = SilencedPanicHook::install(); // the sweep catches on purpose
    let result = quiet(|| {
        for (format, pristine) in encodings(&log) {
            for seed in 0..100u64 {
                let mut bytes = pristine.clone();
                let mutation = corrupt::mutate(&mut bytes, &mut ChaosRng::new(seed));
                exercise(&bytes, &format!("{format} seed {seed} ({mutation})"));
            }
        }
    });
    drop(_hook);
    if let Err(msg) = result {
        panic!("{msg}");
    }
}

#[test]
fn compound_mutation_chaos_sweep_never_panics() {
    let log = recorded_log();
    let _hook = SilencedPanicHook::install();
    let result = quiet(|| {
        for (format, pristine) in encodings(&log) {
            for seed in 0..40u64 {
                let mut bytes = pristine.clone();
                let mut rng = ChaosRng::new(0x5EED_0000 + seed);
                let mut applied = Vec::new();
                for _ in 0..3 {
                    applied.push(corrupt::mutate(&mut bytes, &mut rng).to_string());
                }
                exercise(&bytes, &format!("{format} seed {seed} ({})", applied.join(" + ")));
            }
        }
    });
    drop(_hook);
    if let Err(msg) = result {
        panic!("{msg}");
    }
}

/// 1,200 cases at a fixed seed, escalating: case `c` damages encoding
/// `c % 3` with `1 + c % 3` stacked mutations. The outcome tally is
/// pinned, so a change in what ingestion accepts shows up here. (Twenty
/// of the salvaged mutants report nothing but bytes that are not UTF-8,
/// which a lenient load replaces with one warning per line. In 142 a
/// thread exits holding a lock; salvage adds no release after a
/// `thr_exit`, so they load as the complete log would.)
#[test]
fn escalating_chaos_sweep_tally_is_pinned() {
    const SEED: u64 = 427_819_824;
    let encodings = encodings(&recorded_log());
    let _hook = SilencedPanicHook::install();
    let result = quiet(|| {
        let mut tally = [0u32; 3];
        for case in 0..1200u64 {
            let (format, pristine) = &encodings[(case % 3) as usize];
            let mut bytes = pristine.clone();
            let mut rng = ChaosRng::new(SEED + case);
            let applied: Vec<String> = (0..1 + case % 3)
                .map(|_| corrupt::mutate(&mut bytes, &mut rng).to_string())
                .collect();
            let what =
                format!("case {case} [{format}] seed {} ({})", SEED + case, applied.join(" + "));
            tally[exercise(&bytes, &what) as usize] += 1;
        }
        tally
    });
    drop(_hook);
    let [pristine, salvaged, rejected] = result.unwrap_or_else(|msg| panic!("{msg}"));
    assert_eq!((pristine, salvaged, rejected), (92, 600, 508), "pristine, salvaged, rejected");
}

#[test]
fn pristine_logs_pass_through_untouched() {
    let log = recorded_log();
    for (format, bytes) in encodings(&log) {
        let loaded = load_lenient_bytes(&bytes).expect("pristine loads");
        assert!(loaded.is_pristine(), "{format}: {:?}", loaded.diagnostics);
        assert_eq!(loaded.log, log, "{format} round trip");
    }
}
