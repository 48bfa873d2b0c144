//! Corruption-tolerant log repair.
//!
//! The Recorder rides inside the monitored program (§3), so a crashing,
//! killed or disk-full target leaves a truncated or half-written log —
//! the artifact a prediction tool is most often handed. Production
//! record/replay systems treat imperfect traces as the common case (rr
//! salvages interrupted recordings; iReplayer re-executes from partial
//! in-situ state); this module does the same for VPPB logs: it repairs
//! recoverable damage with **explicit, reported edits** so the log passes
//! [`TraceLog::validate`] and replays to a prediction whose conservation
//! audit is still meaningful.
//!
//! The repairs, in order:
//!
//! 1. out-of-order timestamps are clamped to their predecessor;
//! 2. BEFORE/AFTER pairing is restored: stray AFTERs, dangling BEFOREs
//!    and records following a `thr_exit` are dropped, and `thr_create`
//!    pairs whose AFTER lost the created-child id are removed (the replay
//!    cannot spawn a child it cannot name);
//! 3. locks held past the end of a thread's records get synthesized
//!    releases at the thread's last-seen time — a truncated log must not
//!    deadlock the replay — unless the thread's last record is its
//!    `thr_exit`, which nothing may follow;
//! 4. threads with no `thr_exit` get a synthesized exit at last-seen time;
//! 5. missing `start_collect` / `end_collect` brackets are synthesized;
//! 6. the header wall time is clamped to cover the last record, and
//!    sequence numbers are renumbered densely.
//!
//! Every edit lands in the [`SalvageReport`], which flows into
//! `--metrics-json` dumps and `vppb check` output.
//!
//! The repairs a torn tail needs — the dangling-BEFORE drop
//! ([`drop_dangling`]), the per-thread [`HoldLedger`] and its releases and
//! exit ([`HoldLedger::close`], [`close_threads`]), the record splice
//! ([`splice`]), the end bracket ([`end_bracket`]), the wall-time clamp
//! ([`clamp_wall_time`]) and the renumber ([`renumber`]) — are public:
//! the streaming feed repairs the tail of a growing log by calling the
//! same functions `salvage_traced` calls, so both paths repair a torn
//! tail by one set of rules.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::diag::{DiagCode, Diagnostic, Pos};
use crate::event::{EventKind, EventResult, Phase};
use crate::ids::{ObjKind, SyncObjId, ThreadId};
use crate::source::CodeAddr;
use crate::time::Time;
use crate::trace::{TraceLog, TraceRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One explicit repair applied to a damaged log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SalvageEdit {
    /// Which repair (a `W04xx` diagnostic code).
    pub code: DiagCode,
    /// Where in the (pre-repair) record sequence it was applied.
    pub pos: Pos,
    /// Human-readable description of the specific edit.
    pub message: String,
}

impl SalvageEdit {
    /// Render the edit as a warning [`Diagnostic`].
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic::warning(self.code, self.pos, self.message.clone())
    }
}

/// Everything the salvager did to a log, for reporting and auditing.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SalvageReport {
    /// The per-edit log, in application order.
    pub edits: Vec<SalvageEdit>,
}

impl SalvageReport {
    /// Whether the log needed no repairs at all.
    pub fn is_clean(&self) -> bool {
        self.edits.is_empty()
    }

    /// Edits per diagnostic code (the "counts" half of the report).
    pub fn counts(&self) -> BTreeMap<&'static str, u32> {
        let mut out = BTreeMap::new();
        for e in &self.edits {
            *out.entry(e.code.code()).or_insert(0) += 1;
        }
        out
    }

    /// Number of edits with the given code.
    pub fn count(&self, code: DiagCode) -> usize {
        self.edits.iter().filter(|e| e.code == code).count()
    }

    fn push(&mut self, code: DiagCode, pos: Pos, message: String) {
        self.edits.push(SalvageEdit { code, pos, message });
    }
}

/// Sequence-number sentinel carried by synthesized records until the final
/// renumber pass. A crafted input record using this value is merely
/// *over*-reported as synthetic, which is the safe direction for every
/// consumer (the incremental analyzer treats synthetic-derived ops as
/// unstable).
const SYNTH_SEQ: u64 = u64::MAX;

/// Repair `log` in place; every change is reported. After a successful
/// salvage of a non-empty log, [`TraceLog::validate`] passes.
pub fn salvage(log: &mut TraceLog) -> SalvageReport {
    salvage_traced(log).0
}

/// [`salvage`], additionally returning the indices (== final sequence
/// numbers) of the event records this run *synthesized* — the released
/// locks and exits invented at each thread's last-seen time. Streaming
/// ingestion uses them to tell the stable prefix of a growing log from
/// the tail that will be re-derived when more records arrive.
pub fn salvage_traced(log: &mut TraceLog) -> (SalvageReport, Vec<usize>) {
    let mut report = SalvageReport::default();
    if log.records.is_empty() {
        return (report, Vec::new()); // nothing to repair; validation will say EmptyLog
    }

    clamp_times(log, &mut report);
    let dropped = repair_pairing(log, &mut report);
    if dropped.len() == log.records.len() {
        log.records.clear();
        return (report, Vec::new()); // everything was damage
    }
    let inserts = synthesize_releases_and_exits(log, &dropped, &mut report);
    if !dropped.is_empty() || !inserts.is_empty() {
        let mut out = Vec::new();
        splice(&mut out, &log.records, &dropped, &inserts);
        log.records = out;
    }
    synthesize_brackets(log, &mut report);
    clamp_wall_time(log, &mut report);
    let synthetic = log
        .records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.seq == SYNTH_SEQ && r.phase != Phase::Mark)
        .map(|(i, _)| i)
        .collect();
    renumber(log, 0, &mut report);
    (report, synthetic)
}

/// Pass 1: make timestamps non-decreasing.
fn clamp_times(log: &mut TraceLog, report: &mut SalvageReport) {
    let mut prev = Time::ZERO;
    for (i, r) in log.records.iter_mut().enumerate() {
        if r.time < prev {
            report.push(
                DiagCode::ClampedTime,
                Pos::Record(i as u64),
                format!("timestamp {} went backwards; clamped to {}", r.time, prev),
            );
            r.time = prev;
        }
        prev = r.time;
    }
}

/// Pass 2: restore BEFORE/AFTER pairing by dropping unmatched records.
/// Returns the indices of the dropped records, ascending.
fn repair_pairing(log: &TraceLog, report: &mut SalvageReport) -> Vec<usize> {
    let n = log.records.len();
    let mut keep = vec![true; n];
    // Open BEFORE per thread: (record index, kind).
    let mut pending: BTreeMap<ThreadId, (usize, EventKind)> = BTreeMap::new();
    for i in 0..n {
        let r = log.records[i];
        if let Some(&(_, pkind)) = pending.get(&r.thread) {
            // Collection marks are recorder-level, not thread-library
            // calls: `end_collect` legitimately follows main's `thr_exit`.
            if pkind == EventKind::ThrExit && r.phase != Phase::Mark {
                // `thr_exit` never returns; anything after it on the same
                // thread is corruption.
                keep[i] = false;
                report.push(
                    DiagCode::DroppedStrayAfter,
                    Pos::Record(i as u64),
                    format!("{} record after thr_exit on {}; dropped", r.kind.name(), r.thread),
                );
                continue;
            }
        }
        match r.phase {
            Phase::Mark => {}
            Phase::Before => {
                if let Some((pi, pkind)) = pending.insert(r.thread, (i, r.kind)) {
                    // The earlier call never completed: its AFTER is gone.
                    keep[pi] = false;
                    report.push(
                        DiagCode::DroppedDanglingBefore,
                        Pos::Record(pi as u64),
                        format!("{} on {} has no AFTER; dropped", pkind.name(), r.thread),
                    );
                }
            }
            Phase::After => match pending.get(&r.thread) {
                Some(&(pi, pkind)) if pkind.name() == r.kind.name() => {
                    pending.remove(&r.thread);
                    // A create whose AFTER lost the child id cannot be
                    // replayed: the simulator cannot spawn a nameless
                    // thread. Drop the whole pair.
                    if matches!(r.kind, EventKind::ThrCreate { .. })
                        && !matches!(r.result, EventResult::Created(_))
                    {
                        keep[pi] = false;
                        keep[i] = false;
                        report.push(
                            DiagCode::DroppedStrayAfter,
                            Pos::Record(i as u64),
                            format!(
                                "thr_create on {} lost its created-child id; pair dropped",
                                r.thread
                            ),
                        );
                    }
                }
                _ => {
                    keep[i] = false;
                    report.push(
                        DiagCode::DroppedStrayAfter,
                        Pos::Record(i as u64),
                        format!(
                            "AFTER {} on {} has no matching BEFORE; dropped",
                            r.kind.name(),
                            r.thread
                        ),
                    );
                }
            },
        }
    }
    for (t, (pi, pkind)) in pending {
        if drop_dangling(t, pi, pkind, report) {
            keep[pi] = false;
        }
    }
    keep.iter().enumerate().filter(|(_, k)| !**k).map(|(i, _)| i).collect()
}

/// The tail of pass 2 for one thread: a BEFORE still open at the end of
/// the log is truncation damage and is dropped — unless it is a
/// `thr_exit`, which legitimately never returns. Returns whether the
/// record at index `at` is dropped.
pub fn drop_dangling(
    thread: ThreadId,
    at: usize,
    kind: EventKind,
    report: &mut SalvageReport,
) -> bool {
    if kind == EventKind::ThrExit {
        return false;
    }
    report.push(
        DiagCode::DroppedDanglingBefore,
        Pos::Record(at as u64),
        format!("{} on {thread} truncated before its AFTER; dropped", kind.name()),
    );
    true
}

/// Pass 3's per-thread ledger over the records a repair keeps: the net
/// hold count per lock and the thread's last record.
#[derive(Debug, Clone, Default)]
pub struct HoldLedger {
    /// Net hold count per object (mutexes and rwlocks), clamped at zero.
    held: BTreeMap<SyncObjId, i64>,
    /// Index and time of the thread's last record, and whether that
    /// record is a `thr_exit`.
    last: Option<(usize, Time, bool)>,
}

impl HoldLedger {
    /// Account the thread's record at index `at`. Records of one thread
    /// are accounted in log order.
    pub fn record(&mut self, at: usize, r: &TraceRecord) {
        self.last = Some((at, r.time, r.kind == EventKind::ThrExit));
        let (obj, delta) = match (r.phase, r.kind, r.result) {
            (Phase::After, EventKind::MutexLock { obj }, _)
            | (Phase::After, EventKind::MutexTryLock { obj }, EventResult::Acquired(true))
            | (Phase::After, EventKind::RwRdLock { obj }, _)
            | (Phase::After, EventKind::RwWrLock { obj }, _)
            | (Phase::After, EventKind::RwTryRdLock { obj }, EventResult::Acquired(true))
            | (Phase::After, EventKind::RwTryWrLock { obj }, EventResult::Acquired(true)) => {
                (obj, 1)
            }
            (Phase::Before, EventKind::MutexUnlock { obj }, _)
            | (Phase::Before, EventKind::RwUnlock { obj }, _) => (obj, -1),
            // A cond wait atomically releases and re-acquires its mutex;
            // a *paired* wait is hold-neutral, and a dangling one was
            // already dropped by the pairing repair.
            _ => return,
        };
        let e = self.held.entry(obj).or_insert(0);
        *e = (*e + delta).max(0);
    }

    /// Index of the thread's last accounted record.
    pub fn last(&self) -> Option<usize> {
        self.last.map(|(at, _, _)| at)
    }

    /// Every lock still held, with its hold count and release kind.
    fn releases(&self) -> impl Iterator<Item = (SyncObjId, i64, EventKind)> + '_ {
        self.held.iter().filter(|(_, &count)| count > 0).filter_map(|(&obj, &count)| {
            let kind = match obj.kind {
                ObjKind::Mutex => EventKind::MutexUnlock { obj },
                ObjKind::RwLock => EventKind::RwUnlock { obj },
                _ => return None,
            };
            Some((obj, count, kind))
        })
    }

    /// Passes 3+4 for one thread that did not exit (whose last record is
    /// not its `thr_exit`): a release for every lock still held and an
    /// exit, all at the thread's last-seen time, to be inserted right
    /// after its last record (which the edits report at index `pos`).
    /// Timestamps stay monotonic and the replay releases locks exactly
    /// where the thread stopped. A thread that exited gets nothing: no
    /// record may follow its `thr_exit`, and the complete log holds any
    /// lock it kept the same way (the replay's audit reports it).
    pub fn close(
        &self,
        thread: ThreadId,
        pos: u64,
        report: &mut SalvageReport,
    ) -> Vec<TraceRecord> {
        let Some((_, time, false)) = self.last else {
            return Vec::new();
        };
        let synth = |kind: EventKind, phase: Phase| TraceRecord {
            seq: SYNTH_SEQ, // marks the record synthetic; renumbered later
            time,
            thread,
            phase,
            kind,
            result: EventResult::None,
            caller: CodeAddr::NULL,
        };
        let mut out = Vec::new();
        for (obj, count, kind) in self.releases() {
            for _ in 0..count {
                out.push(synth(kind, Phase::Before));
                out.push(synth(kind, Phase::After));
            }
            report.push(
                DiagCode::SynthesizedRelease,
                Pos::Record(pos),
                format!("{thread} still held {obj} at its last record; released at {time}"),
            );
        }
        out.push(synth(EventKind::ThrExit, Phase::Before));
        report.push(
            DiagCode::SynthesizedExit,
            Pos::Record(pos),
            format!("{thread} has no thr_exit; synthesized at last-seen time {time}"),
        );
        out
    }
}

/// Passes 3+4 over every thread's ledger, in thread order: the records
/// each thread needs after its last record, keyed by that record's
/// index. Ledger indices count every record, `dropped` ones (ascending)
/// included; the edits report positions in the log without them.
pub fn close_threads(
    ledgers: &BTreeMap<ThreadId, HoldLedger>,
    dropped: &[usize],
    report: &mut SalvageReport,
) -> BTreeMap<usize, Vec<TraceRecord>> {
    let mut inserts = BTreeMap::new();
    for (&thread, ledger) in ledgers {
        let Some(last) = ledger.last() else { continue };
        let pos = last - dropped.partition_point(|&d| d < last);
        let synths = ledger.close(thread, pos as u64, report);
        if !synths.is_empty() {
            inserts.insert(last, synths);
        }
    }
    inserts
}

/// Passes 3+4: a ledger per thread over the records pass 2 kept.
fn synthesize_releases_and_exits(
    log: &TraceLog,
    dropped: &[usize],
    report: &mut SalvageReport,
) -> BTreeMap<usize, Vec<TraceRecord>> {
    let mut ledgers: BTreeMap<ThreadId, HoldLedger> = BTreeMap::new();
    let mut drops = dropped.iter().copied().peekable();
    for (i, r) in log.records.iter().enumerate() {
        if drops.next_if_eq(&i).is_some() {
            continue;
        }
        match r.kind {
            EventKind::StartCollect | EventKind::EndCollect => continue,
            _ => ledgers.entry(r.thread).or_default().record(i, r),
        }
    }
    close_threads(&ledgers, dropped, report)
}

/// Append to `out`, which already holds `records[..out.len()]`, the rest
/// of the repaired record sequence: the remaining records without the
/// `dropped` indices (ascending), with each batch of `inserts` right after
/// the record at its index (never a dropped one). Drops and inserts all
/// lie at or past `out.len()`. Copies runs of untouched records whole,
/// and leaves room for the end bracket.
pub fn splice(
    out: &mut Vec<TraceRecord>,
    records: &[TraceRecord],
    dropped: &[usize],
    inserts: &BTreeMap<usize, Vec<TraceRecord>>,
) {
    let mut from = out.len();
    let extra: usize = inserts.values().map(Vec::len).sum();
    out.reserve(records.len() - from + extra + 1 - dropped.len());
    let mut drops = dropped.iter().copied().peekable();
    for (&at, batch) in inserts {
        while let Some(d) = drops.next_if(|&d| d < at) {
            out.extend_from_slice(&records[from..d]);
            from = d + 1;
        }
        out.extend_from_slice(&records[from..=at]);
        out.extend_from_slice(batch);
        from = at + 1;
    }
    for d in drops {
        out.extend_from_slice(&records[from..d]);
        from = d + 1;
    }
    out.extend_from_slice(&records[from..]);
}

/// A collection mark at `time`.
fn collect_mark(time: Time, kind: EventKind) -> TraceRecord {
    TraceRecord {
        seq: 0,
        time,
        thread: ThreadId::MAIN,
        phase: Phase::Mark,
        kind,
        result: EventResult::None,
        caller: CodeAddr::NULL,
    }
}

/// Pass 5: restore the `start_collect` / `end_collect` brackets.
fn synthesize_brackets(log: &mut TraceLog, report: &mut SalvageReport) {
    if log.records.first().map(|r| r.kind) != Some(EventKind::StartCollect) {
        let t = log.records.first().map(|r| r.time).unwrap_or(Time::ZERO);
        log.records.insert(0, collect_mark(t, EventKind::StartCollect));
        report.push(
            DiagCode::SynthesizedStart,
            Pos::Record(0),
            format!("log does not begin with start_collect; synthesized at {t}"),
        );
    }
    end_bracket(log, report);
}

/// Pass 5's end half: a log that does not end with `end_collect` gets one
/// at its last record's time.
pub fn end_bracket(log: &mut TraceLog, report: &mut SalvageReport) {
    if log.records.last().map(|r| r.kind) != Some(EventKind::EndCollect) {
        let t = log.records.last().map(|r| r.time).unwrap_or(Time::ZERO);
        let at = log.records.len() as u64;
        log.records.push(collect_mark(t, EventKind::EndCollect));
        report.push(
            DiagCode::SynthesizedEnd,
            Pos::Record(at),
            format!("log does not end with end_collect; synthesized at {t}"),
        );
    }
}

/// Pass 6a: the header's wall time must cover the last record.
pub fn clamp_wall_time(log: &mut TraceLog, report: &mut SalvageReport) {
    let last = log.records.last().map(|r| r.time).unwrap_or(Time::ZERO);
    if log.header.wall_time < last {
        report.push(
            DiagCode::ClampedWallTime,
            Pos::None,
            format!(
                "header wall time {} predates the last record; clamped to {last}",
                log.header.wall_time
            ),
        );
        log.header.wall_time = last;
    }
}

/// Pass 6b: renumber sequence numbers densely. The records before index
/// `from` are known to be numbered densely already.
pub fn renumber(log: &mut TraceLog, from: usize, report: &mut SalvageReport) {
    let mut changed = 0u64;
    for (i, r) in log.records.iter_mut().enumerate().skip(from) {
        if r.seq != i as u64 {
            changed += 1;
            r.seq = i as u64;
        }
    }
    if changed > 0 {
        report.push(
            DiagCode::RenumberedSeq,
            Pos::None,
            format!("renumbered {changed} record sequence numbers"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textlog;

    const HEALTHY: &str = "\
# vppb-log v1
# program toy
# walltime 0.100000
0.000000 T1 M start_collect @0x0
0.000010 T1 B mutex_lock obj=mtx0 @0x10
0.000012 T1 A mutex_lock obj=mtx0 @0x10
0.000020 T1 B mutex_unlock obj=mtx0 @0x14
0.000021 T1 A mutex_unlock obj=mtx0 @0x14
0.000030 T1 B thr_exit @0x18
0.100000 T1 M end_collect @0x0
";

    fn parse(text: &str) -> TraceLog {
        textlog::parse_log(text).expect("fixture parses")
    }

    #[test]
    fn healthy_log_needs_no_edits() {
        let mut log = parse(HEALTHY);
        let report = salvage(&mut log);
        assert!(report.is_clean(), "{:?}", report.edits);
        log.validate().expect("still valid");
    }

    #[test]
    fn truncated_log_gets_release_and_exit_and_end() {
        // Cut the healthy log right after the lock is acquired.
        let cut: String = HEALTHY.lines().take(6).map(|l| format!("{l}\n")).collect();
        let (mut log, diags) = textlog::parse_log_lenient(&cut);
        assert!(diags.is_empty());
        assert!(log.validate().is_err(), "truncation must be detected");
        let report = salvage(&mut log);
        assert_eq!(report.count(DiagCode::SynthesizedRelease), 1, "{:?}", report.edits);
        assert_eq!(report.count(DiagCode::SynthesizedExit), 1);
        assert_eq!(report.count(DiagCode::SynthesizedEnd), 1);
        log.validate().expect("salvaged log validates");
        // The synthesized unlock releases mtx0 before the synthesized exit.
        let kinds: Vec<&str> = log.records.iter().map(|r| r.kind.name()).collect();
        let unlock = kinds.iter().position(|k| *k == "mutex_unlock").expect("unlock synthesized");
        let exit = kinds.iter().position(|k| *k == "thr_exit").expect("exit synthesized");
        assert!(unlock < exit);
    }

    #[test]
    fn dangling_before_is_dropped() {
        let cut: String = HEALTHY.lines().take(7).map(|l| format!("{l}\n")).collect();
        // Last line is now `B mutex_unlock` with no AFTER.
        let (mut log, _) = textlog::parse_log_lenient(&cut);
        let report = salvage(&mut log);
        assert_eq!(report.count(DiagCode::DroppedDanglingBefore), 1, "{:?}", report.edits);
        // The unlock BEFORE is gone, so the ledger still sees the lock
        // held and releases it.
        assert_eq!(report.count(DiagCode::SynthesizedRelease), 1);
        log.validate().expect("salvaged");
    }

    #[test]
    fn time_regression_is_clamped() {
        let mut log = parse(HEALTHY);
        log.records[3].time = Time::from_micros(1);
        let report = salvage(&mut log);
        assert_eq!(report.count(DiagCode::ClampedTime), 1);
        log.validate().expect("salvaged");
    }

    #[test]
    fn create_without_child_id_is_dropped_as_a_pair() {
        let text = "\
0.000000 T1 M start_collect @0x0
0.000010 T1 B thr_create bound=0 func=0x1000 @0x10
0.000012 T1 A thr_create bound=0 func=0x1000 @0x10
0.000030 T1 B thr_exit @0x18
0.100000 T1 M end_collect @0x0
";
        let mut log = parse(text);
        let report = salvage(&mut log);
        assert_eq!(report.count(DiagCode::DroppedStrayAfter), 1, "{:?}", report.edits);
        assert!(!log.records.iter().any(|r| r.kind.name() == "thr_create"));
        log.validate().expect("salvaged");
    }

    #[test]
    fn records_after_thr_exit_are_dropped() {
        let text = "\
0.000000 T1 M start_collect @0x0
0.000030 T1 B thr_exit @0x18
0.000040 T1 B thr_yield @0x20
0.000041 T1 A thr_yield @0x20
0.100000 T1 M end_collect @0x0
";
        let mut log = parse(text);
        let report = salvage(&mut log);
        assert_eq!(report.count(DiagCode::DroppedStrayAfter), 2, "{:?}", report.edits);
        log.validate().expect("salvaged");
    }

    #[test]
    fn missing_brackets_are_synthesized() {
        let text = "0.000030 T1 B thr_exit @0x18\n";
        let (mut log, _) = textlog::parse_log_lenient(text);
        let report = salvage(&mut log);
        assert_eq!(report.count(DiagCode::SynthesizedStart), 1);
        assert_eq!(report.count(DiagCode::SynthesizedEnd), 1);
        log.validate().expect("salvaged");
    }

    #[test]
    fn report_counts_group_by_code() {
        let cut: String = HEALTHY.lines().take(6).map(|l| format!("{l}\n")).collect();
        let (mut log, _) = textlog::parse_log_lenient(&cut);
        let report = salvage(&mut log);
        let counts = report.counts();
        assert_eq!(counts.get("W0404").copied(), Some(1), "{counts:?}"); // exit
        assert_eq!(counts.get("W0405").copied(), Some(1)); // release
    }

    #[test]
    fn empty_log_is_left_alone() {
        let mut log = TraceLog::default();
        assert!(salvage(&mut log).is_clean());
        assert!(log.validate().is_err());
    }
}
