//! The recorded information: trace records and the log file.
//!
//! For each event the probes record exactly what §3.1 lists: *when* the
//! event occurred, the *type* of event, the *object* concerned, the
//! *identity of the thread* generating it, and the *location in the source
//! code* — plus return-value details at the AFTER probe.

use crate::event::{EventKind, EventResult, Phase};
use crate::ids::ThreadId;
use crate::source::{CodeAddr, SourceMap};
use crate::time::{Duration, Time};
use crate::VppbError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One probe record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Global sequence number: the position of this record in the log.
    /// Records are totally ordered even when microsecond timestamps tie.
    pub seq: u64,
    /// Virtual wall-clock time of the probe.
    pub time: Time,
    /// Thread that generated the event.
    pub thread: ThreadId,
    /// BEFORE / AFTER / point mark.
    pub phase: Phase,
    /// Which routine the event wraps.
    pub kind: EventKind,
    /// Return-value information (AFTER records only).
    pub result: EventResult,
    /// Recorded return address of the call site (`%i7` on SPARC).
    pub caller: CodeAddr,
}

impl TraceRecord {
    /// The child created by a `thr_create` AFTER record, if this is one.
    pub fn created_child(&self) -> Option<ThreadId> {
        match (self.phase, self.result) {
            (Phase::After, EventResult::Created(t)) => Some(t),
            _ => None,
        }
    }
}

/// Metadata stored in the log-file header.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LogHeader {
    /// Name of the monitored program.
    pub program: String,
    /// Total (virtual) duration of the monitored uni-processor run.
    pub wall_time: Time,
    /// Per-probe intrusion cost that was charged during recording.
    pub probe_cost: Duration,
    /// Start routine of each thread (from the recorded `thr_create`
    /// function pointers, resolved like the paper does with the debugger).
    pub thread_start_fn: BTreeMap<ThreadId, String>,
    /// Address → source-line table for the Visualizer.
    pub source_map: SourceMap,
}

/// The three encodings a serialized [`TraceLog`] comes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// The compact `binlog` codec.
    Binary,
    /// One JSON document.
    Json,
    /// The fig. 2-style `textlog` lines.
    Text,
}

impl LogFormat {
    /// Tell the format from the first bytes: the binary magic, else a
    /// JSON brace after any leading whitespace, else text. The loaders,
    /// the chunk framer and the chaos mutators all ask this one function,
    /// so they never disagree on what a buffer is.
    pub fn sniff(data: &[u8]) -> LogFormat {
        if data.starts_with(crate::binlog::MAGIC) {
            LogFormat::Binary
        } else if data.iter().find(|b| !b.is_ascii_whitespace()) == Some(&b'{') {
            LogFormat::Json
        } else {
            LogFormat::Text
        }
    }
}

/// A complete recorded log: header plus the sequentially ordered records.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceLog {
    /// Log-file metadata.
    pub header: LogHeader,
    /// The sequentially ordered probe records.
    pub records: Vec<TraceRecord>,
}

impl TraceLog {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All thread ids that appear in the log, in ascending order.
    pub fn threads(&self) -> Vec<ThreadId> {
        let mut ids: Vec<ThreadId> = self.records.iter().map(|r| r.thread).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Records of one thread, preserving log order.
    pub fn records_of(&self, thread: ThreadId) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter().filter(move |r| r.thread == thread)
    }

    /// Events per second of monitored execution — the paper reports a
    /// maximum of 653 for Ocean.
    pub fn events_per_second(&self) -> f64 {
        let secs = self.header.wall_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.records.len() as f64 / secs
        }
    }

    /// Check the structural well-formedness the Simulator relies on:
    /// * non-empty, bracketed by `start_collect` / `end_collect` marks;
    /// * sequence numbers dense and ascending;
    /// * timestamps non-decreasing;
    /// * every BEFORE record is eventually followed by an AFTER record of
    ///   the same kind on the same thread, with no other BEFORE in between
    ///   (the monitored run used a single LWP, so calls cannot nest).
    pub fn validate(&self) -> Result<(), VppbError> {
        let err = |msg: String| Err(VppbError::MalformedLog(msg));
        let first = match self.records.first() {
            None => return err("empty log".into()),
            Some(f) => f,
        };
        if first.kind != EventKind::StartCollect {
            return err(format!("log must start with start_collect, got {}", first.kind.name()));
        }
        let last = self.records.last().expect("non-empty");
        if last.kind != EventKind::EndCollect {
            return err(format!("log must end with end_collect, got {}", last.kind.name()));
        }
        let mut pending: BTreeMap<ThreadId, &TraceRecord> = BTreeMap::new();
        let mut prev_time = Time::ZERO;
        for (i, r) in self.records.iter().enumerate() {
            if r.seq != i as u64 {
                return err(format!("record {i} has sequence number {}", r.seq));
            }
            if r.time < prev_time {
                return err(format!("time goes backwards at record {i}"));
            }
            prev_time = r.time;
            match r.phase {
                Phase::Before => {
                    if let Some(p) = pending.insert(r.thread, r) {
                        return err(format!(
                            "nested BEFORE on {}: {} while {} pending",
                            r.thread,
                            r.kind.name(),
                            p.kind.name()
                        ));
                    }
                }
                Phase::After => match pending.remove(&r.thread) {
                    None => {
                        return err(format!(
                            "AFTER without BEFORE on {}: {}",
                            r.thread,
                            r.kind.name()
                        ))
                    }
                    Some(b) if b.kind.name() != r.kind.name() => {
                        return err(format!(
                            "mismatched pair on {}: before {} / after {}",
                            r.thread,
                            b.kind.name(),
                            r.kind.name()
                        ));
                    }
                    Some(_) => {}
                },
                Phase::Mark => {}
            }
        }
        // `thr_exit` never returns, so its BEFORE legitimately stays open;
        // anything else left pending is a truncated log.
        for (t, b) in pending {
            if b.kind != EventKind::ThrExit {
                return err(format!("unterminated call on {t}: {}", b.kind.name()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SyncObjId;

    fn rec(seq: u64, us: u64, t: u32, phase: Phase, kind: EventKind) -> TraceRecord {
        TraceRecord {
            seq,
            time: Time::from_micros(us),
            thread: ThreadId(t),
            phase,
            kind,
            result: EventResult::None,
            caller: CodeAddr::NULL,
        }
    }

    fn bracketed(mut inner: Vec<TraceRecord>) -> TraceLog {
        let mut records = vec![rec(0, 0, 1, Phase::Mark, EventKind::StartCollect)];
        records.append(&mut inner);
        let end_us = records.last().map(|r| r.time.as_micros() + 1).unwrap_or(1);
        records.push(rec(0, end_us, 1, Phase::Mark, EventKind::EndCollect));
        for (i, r) in records.iter_mut().enumerate() {
            r.seq = i as u64;
        }
        TraceLog {
            header: LogHeader { wall_time: Time::from_micros(end_us), ..LogHeader::default() },
            records,
        }
    }

    #[test]
    fn empty_log_is_invalid() {
        assert!(TraceLog::default().validate().is_err());
    }

    #[test]
    fn minimal_bracketed_log_is_valid() {
        assert!(bracketed(vec![]).validate().is_ok());
    }

    #[test]
    fn before_after_pairing_is_enforced() {
        let m = SyncObjId::mutex(0);
        let ok = bracketed(vec![
            rec(0, 10, 1, Phase::Before, EventKind::MutexLock { obj: m }),
            rec(0, 12, 1, Phase::After, EventKind::MutexLock { obj: m }),
        ]);
        assert!(ok.validate().is_ok());

        let dangling =
            bracketed(vec![rec(0, 10, 1, Phase::Before, EventKind::MutexLock { obj: m })]);
        assert!(dangling.validate().is_err());

        let after_only =
            bracketed(vec![rec(0, 10, 1, Phase::After, EventKind::MutexLock { obj: m })]);
        assert!(after_only.validate().is_err());
    }

    #[test]
    fn thr_exit_may_leave_open_before() {
        let log = bracketed(vec![rec(0, 10, 4, Phase::Before, EventKind::ThrExit)]);
        assert!(log.validate().is_ok());
    }

    #[test]
    fn time_monotonicity_is_enforced() {
        let m = SyncObjId::mutex(0);
        let mut log = bracketed(vec![
            rec(0, 20, 1, Phase::Before, EventKind::MutexLock { obj: m }),
            rec(0, 21, 1, Phase::After, EventKind::MutexLock { obj: m }),
        ]);
        log.records[2].time = Time::from_micros(5); // before the BEFORE at 20? no: index 2 is After
        log.records[2].time = Time::from_micros(1); // definitely before record 1
        assert!(log.validate().is_err());
    }

    #[test]
    fn threads_listing_and_filtering() {
        let m = SyncObjId::mutex(0);
        let log = bracketed(vec![
            rec(0, 10, 4, Phase::Before, EventKind::MutexLock { obj: m }),
            rec(0, 11, 4, Phase::After, EventKind::MutexLock { obj: m }),
            rec(0, 12, 5, Phase::Before, EventKind::MutexLock { obj: m }),
            rec(0, 13, 5, Phase::After, EventKind::MutexLock { obj: m }),
        ]);
        assert_eq!(log.threads(), vec![ThreadId(1), ThreadId(4), ThreadId(5)]);
        assert_eq!(log.records_of(ThreadId(4)).count(), 2);
    }

    #[test]
    fn events_per_second() {
        let log = bracketed(vec![]);
        assert!(log.events_per_second() > 0.0);
        let empty = TraceLog::default();
        assert_eq!(empty.events_per_second(), 0.0);
    }
}
