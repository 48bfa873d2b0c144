//! Chunk-equivalence and session-behavior tests for streaming replay.

use vppb_model::{
    binlog, textlog, ContentId, EventKind, Phase, SimParams, TraceRecord, ViolationKind,
};
use vppb_recorder::{load_lenient_traced, record, RecordOptions};
use vppb_sim::{
    check_chunked_equivalence, check_chunks_equivalence, cold_run, result_fingerprint,
    StreamSession,
};
use vppb_testkit::{every_boundary, fixtures};

fn recorded_bytes_bin(app: &vppb_threads::App) -> Vec<u8> {
    let log = record(app, &RecordOptions::default()).unwrap().log;
    binlog::encode(&log).unwrap()
}

fn recorded_bytes_text(app: &vppb_threads::App) -> Vec<u8> {
    let log = record(app, &RecordOptions::default()).unwrap().log;
    textlog::write_log(&log).into_bytes()
}

#[test]
fn two_worker_binlog_chunks_are_equivalent() {
    let bytes = recorded_bytes_bin(&fixtures::two_worker_app(2));
    for seed in 0..4u64 {
        let n = check_chunked_equivalence(&bytes, &SimParams::cpus(4), seed)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(n >= 1);
    }
}

#[test]
fn two_worker_textlog_chunks_are_equivalent() {
    let bytes = recorded_bytes_text(&fixtures::two_worker_app(2));
    for seed in 0..4u64 {
        check_chunked_equivalence(&bytes, &SimParams::cpus(4), seed)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn io_and_compute_chunks_are_equivalent() {
    let bytes = recorded_bytes_bin(&fixtures::io_and_compute_app());
    for seed in 0..4u64 {
        check_chunked_equivalence(&bytes, &SimParams::cpus(2), seed)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn fft_log_chunks_are_equivalent_across_cpu_counts() {
    let log = fixtures::recorded_fft_log();
    let bytes = binlog::encode(&log).unwrap();
    for cpus in [1, 4] {
        check_chunked_equivalence(&bytes, &SimParams::cpus(cpus), 7)
            .unwrap_or_else(|e| panic!("{cpus} cpus: {e}"));
    }
}

#[test]
fn byte_at_a_time_appends_match_cold() {
    // Degenerate chunking: every append is a single byte. Most appends
    // tear a record; every prediction must still equal the cold run.
    let bytes = recorded_bytes_text(&fixtures::two_worker_app(1));
    let params = SimParams::cpus(2);
    let mut session = StreamSession::new();
    let step = (bytes.len() / 40).max(1);
    let mut upto = 0usize;
    while upto < bytes.len() {
        let next = (upto + step).min(bytes.len());
        let appended = session.append(&bytes[upto..next]).is_ok();
        let inc = if appended {
            session.predict(&params)
        } else {
            Err(vppb_model::VppbError::MalformedLog("append failed".into()))
        };
        let cold = cold_run(&bytes[..next], &params);
        match (inc, cold) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    result_fingerprint(&a),
                    result_fingerprint(&b),
                    "divergence at byte {next}/{}",
                    bytes.len()
                );
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("at byte {next}: inc {:?} vs cold {:?}", a.is_ok(), b.is_ok()),
        }
        upto = next;
    }
}

#[test]
fn checkpoint_chain_engages_and_advances() {
    // The incremental path must actually be taken (a silent cold fallback
    // on every chunk would pass the equivalence tests vacuously) and the
    // checkpoint must move forward as the log grows.
    let bytes = binlog::encode(&fixtures::recorded_fft_log()).unwrap();
    let params = SimParams::cpus(4);
    let chunks = vppb_model::chunk::split_random(&bytes, 3, 10);
    assert!(chunks.len() >= 4, "fixture too small to chunk: {}", chunks.len());
    let mut session = StreamSession::new();
    let mut checkpoints = Vec::new();
    for part in &chunks {
        session.append(part).unwrap();
        session.predict(&params).unwrap();
        checkpoints.push(session.checkpoint_events(&params));
    }
    let engaged: Vec<u64> = checkpoints.iter().copied().flatten().collect();
    assert!(
        engaged.len() >= 2,
        "chain never engaged across {} chunks: {checkpoints:?}",
        chunks.len()
    );
    assert!(
        engaged.windows(2).all(|w| w[0] <= w[1]),
        "checkpoint moved backwards: {checkpoints:?}"
    );
    assert!(*engaged.last().unwrap() > 0, "final checkpoint never advanced: {checkpoints:?}");
}

#[test]
fn rebuilt_session_predicts_bit_identically_to_the_live_one() {
    // The crash-recovery contract: a session rebuilt from its journaled
    // chunk sequence predicts bit-identically to the uninterrupted one,
    // at every restart point — including restarts after a mid-record cut.
    let bytes = binlog::encode(&fixtures::recorded_fft_log()).unwrap();
    let params = SimParams::cpus(4);
    let chunks = vppb_model::chunk::split_random(&bytes, 11, 10);
    assert!(chunks.len() >= 4, "fixture too small to chunk: {}", chunks.len());
    let mut live = StreamSession::new();
    for (i, part) in chunks.iter().enumerate() {
        let live_ok = live.append(part).is_ok();
        let mut rebuilt = StreamSession::rebuild(&chunks[..=i]);
        assert_eq!(rebuilt.bytes(), live.bytes(), "restart after chunk {i}");
        if live_ok {
            let a = live.predict(&params).unwrap();
            let b = rebuilt.predict(&params).unwrap();
            assert_eq!(
                result_fingerprint(&a),
                result_fingerprint(&b),
                "restart after chunk {i}: rebuilt prediction diverged"
            );
        } else {
            assert!(rebuilt.predict(&params).is_err(), "restart after chunk {i}");
        }
    }
}

#[test]
fn session_reports_parse_state() {
    let mut s = StreamSession::new();
    assert!(s.predict(&SimParams::cpus(2)).is_err(), "no data yet");
    let bytes = recorded_bytes_text(&fixtures::two_worker_app(1));
    s.append(&bytes).unwrap();
    assert!(s.log().is_some());
    assert_eq!(s.bytes().len(), bytes.len());
    s.predict(&SimParams::cpus(2)).unwrap();
}

/// A lock-step mill like the streaming benchmarks': every thread takes
/// one shared mutex around a compute slice each round.
fn mill(workers: u64, rounds: u64) -> vppb_threads::App {
    let mut b = vppb_threads::AppBuilder::new("mill", "mill.c");
    let red = b.mutex();
    let round = move |f: &mut vppb_threads::FnBuilder| {
        f.loop_n(rounds, |f| {
            f.work_us(120);
            f.lock(red);
            f.work_us(8);
            f.unlock(red);
            f.yield_now();
        });
    };
    let w = b.func("miller", round);
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(workers, |f| f.create_into(w, s));
        round(f);
        f.loop_n(workers, |f| f.join(s));
    });
    b.build().unwrap()
}

/// Whether a session fed `chunks` is on the incremental fast path after
/// each append.
fn fast_after_each(chunks: &[Vec<u8>]) -> Vec<bool> {
    let mut session = StreamSession::new();
    chunks
        .iter()
        .map(|part| {
            let _ = session.append(part);
            session.incremental()
        })
        .collect()
}

#[test]
fn only_clean_binary_streams_take_the_fast_path() {
    let cases = [
        ("two_worker", recorded_bytes_bin(&fixtures::two_worker_app(2))),
        ("io_and_compute", recorded_bytes_bin(&fixtures::io_and_compute_app())),
        ("fft", binlog::encode(&fixtures::recorded_fft_log()).unwrap()),
        ("mill", recorded_bytes_bin(&mill(3, 40))),
    ];
    for (name, bytes) in &cases {
        for seed in 0..3u64 {
            let chunks = vppb_model::chunk::split_random(bytes, seed, 8);
            let fast = fast_after_each(&chunks);
            assert!(fast.iter().all(|&f| f), "{name} seed {seed}: {fast:?}");
        }
    }

    let text = recorded_bytes_text(&mill(3, 40));
    let fast = fast_after_each(&vppb_model::chunk::split_random(&text, 0, 8));
    assert!(fast.iter().all(|&f| !f), "text: {fast:?}");

    // A zero frame length mid-log is damage the fast path does not model:
    // from that append on, the session re-derives from the full buffer.
    let mut damaged = recorded_bytes_bin(&mill(3, 40));
    let bounds = vppb_model::chunk::record_boundaries(&damaged);
    let at = bounds[bounds.len() / 2];
    damaged[at..at + 4].copy_from_slice(&[0; 4]);
    let chunks = vppb_model::chunk::split_even(&damaged, 8);
    let fast = fast_after_each(&chunks);
    let ends = chunks.iter().scan(0, |end, c| {
        *end += c.len();
        Some(*end)
    });
    for (end, fast) in ends.zip(&fast) {
        assert_eq!(*fast, end <= at + 4, "damaged frame at byte {at}, chunk ending at {end}");
    }
}

#[test]
fn a_thread_exiting_with_a_lock_held_streams_like_the_cold_path() {
    // The holder exits with its lock held. Salvage synthesizes no release
    // after a thr_exit: the complete log holds the lock at exit the same
    // way, and its prediction reports it. So every prefix loads, and the
    // fast path takes the exit like any other record.
    let mut b = vppb_threads::AppBuilder::new("holder", "holder.c");
    let m = b.mutex();
    let w = b.func("holder", move |f| {
        f.work_us(50);
        f.lock(m);
        f.work_us(20);
    });
    b.main(move |f| {
        let t = f.create(w);
        f.work_us(400);
        f.join(t);
    });
    let bytes = recorded_bytes_bin(&b.build().unwrap());
    let first_record = vppb_model::chunk::record_boundaries(&bytes)[1];
    for cut in first_record..=bytes.len() {
        load_lenient_traced(&bytes[..cut]).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
    }
    let whole = cold_run(&bytes, &SimParams::cpus(2)).unwrap();
    assert!(
        whole.audit.violations.iter().any(|v| v.law == ViolationKind::LockHeldAtExit),
        "{:?}",
        whole.audit.violations
    );
    for seed in 0..4u64 {
        check_chunked_equivalence(&bytes, &SimParams::cpus(2), seed)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
    let chunks = every_boundary(&bytes);
    check_chunks_equivalence(&chunks, &SimParams::cpus(2)).unwrap();
    let fast = fast_after_each(&chunks);
    assert!(fast.iter().all(|&f| f), "{fast:?}");
}

#[test]
fn an_append_hashes_only_what_follows_the_stable_prefix() {
    // The content id must really resume: a silent full rehash per append
    // would pass every equality check. On a clean v2 mill stream each id
    // hashes just the records past the previous state's stable prefix —
    // the new records and the salvaged tail.
    let bytes = recorded_bytes_bin(&mill(3, 120));
    let chunks = vppb_model::chunk::split_random(&bytes, 5, 40);
    assert!(chunks.len() >= 20, "too few chunks: {}", chunks.len());
    let mut session = StreamSession::new();
    let (mut stable, mut hashed, mut total) = (0, 0, 0);
    for (i, part) in chunks.iter().enumerate() {
        session.append(part).unwrap();
        assert!(session.incremental(), "chunk {i} left the fast path");
        let id = session.content_id().unwrap();
        let state = session.state().unwrap();
        let log = &state.loaded.log;
        assert_eq!(id, ContentId::of_bytes(&binlog::encode(log).unwrap()), "chunk {i}");
        assert_eq!(session.hashed_records(), log.len() - stable, "chunk {i}");
        (stable, hashed, total) =
            (state.stable, hashed + session.hashed_records(), total + log.len());
    }
    assert!(stable > 0, "the stable prefix never grew");
    assert!(hashed * 5 < total, "hashed {hashed} records over the session, {total} in its logs");
}

#[test]
fn a_mark_inside_an_open_call_streams_like_the_cold_path() {
    // The analyzer pairs a call across a mark, as validation and salvage
    // do. If the call then dangles, salvage drops its BEFORE before the
    // mark folds; the fast path does not model that and falls back from
    // the frame that carries the mark.
    let mut log = fixtures::recorded_fft_log();
    let at = log
        .records
        .iter()
        .position(|r| r.thread.0 == 4 && r.phase == Phase::Before)
        .expect("T4 calls");
    let start = *log
        .records
        .iter()
        .find(|r| r.thread.0 == 4 && matches!(r.kind, EventKind::ThreadStart { .. }))
        .expect("T4 starts");
    log.records.insert(at + 1, TraceRecord { time: log.records[at].time, ..start });
    for (i, r) in log.records.iter_mut().enumerate() {
        r.seq = i as u64;
    }
    log.validate().expect("the mark sits inside a well-paired call");
    let bytes = binlog::encode(&log).unwrap();
    let chunks = every_boundary(&bytes);
    check_chunks_equivalence(&chunks, &SimParams::cpus(2)).unwrap();
    // Chunk 0 is the header; chunk k carries record k - 1.
    let fast = fast_after_each(&chunks);
    let mark = at + 2;
    assert!(fast[..mark].iter().all(|&f| f) && !fast[mark..].iter().any(|&f| f), "{fast:?}");
}
