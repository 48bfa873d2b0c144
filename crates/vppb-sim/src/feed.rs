//! The incremental fast path of streaming ingestion.
//!
//! [`crate::stream::StreamSession`] must produce, after every append, the
//! exact `(LoadedLog, ReplayPlan)` a cold
//! `analyze(salvage(parse(prefix)))` produces — that is the bit-identity
//! invariant the chunk-equivalence battery enforces. The session's
//! baseline way to get there is to re-derive everything from the full
//! byte buffer, which costs O(log) per append. This module is the O(tail)
//! alternative: an [`IncrementalFeed`] decodes only the new bytes
//! ([`binlog::next_frame`] commits are final) and pushes each record once
//! into the analyzer's own [`Fold`] — the one the cold path runs over a
//! whole log — and into the salvager's per-thread [`HoldLedger`]s. Per
//! append it repairs only the torn tail, by calling the salvager's own
//! tail functions (dangling-BEFORE drop, releases and exits, splice, end
//! bracket, wall-time clamp, renumber), and [`Fold::finish`] builds the
//! plan and the committed horizon from the fold plus that tail. The feed keeps
//! three jobs of its own: frame decoding, the shape checks below, and
//! the per-append tail.
//!
//! The fast path only takes the shapes a healthy recorder emits — a
//! version-2 binary log whose interior frames are clean, in-order and
//! properly paired, where the cold path would salvage nothing but the
//! tail. Any structural surprise (damaged frame, time regression, nested
//! BEFORE, stray AFTER, a mark inside an open call, a record after
//! `thr_exit`, a create without its child id, …) flips the feed into
//! permanent [`Mode::Fallback`], and the session re-derives from the full
//! buffer — the cold path is the definition of correct, so falling back
//! can never lose fidelity, only speed.

use crate::sorter::Fold;
use crate::stream::PlanState;
use std::collections::BTreeMap;
use vppb_model::binlog::{self, FrameStep, Preamble};
use vppb_model::salvage::{self, HoldLedger};
use vppb_model::{
    Diagnostic, EventKind, EventResult, LogHeader, Phase, SalvageReport, ThreadId, Time, TraceLog,
    TraceRecord, VppbError,
};
use vppb_recorder::LoadedLog;

/// What one append produced.
pub(crate) enum FeedStep {
    /// The fast path derived the full plan state incrementally.
    Fast(Box<PlanState>),
    /// The caller must derive from the full byte buffer (probing, damage,
    /// or a non-v2 input).
    Full,
}

enum Mode {
    /// Waiting for enough bytes to classify the stream.
    Probing,
    /// Incrementally decoding a clean v2 binary log.
    Fast(Box<FastState>),
    /// Permanently delegating to the full re-derive path.
    Fallback,
}

/// Incremental decode + salvage + analyze state for a growing log.
pub(crate) struct IncrementalFeed {
    mode: Mode,
}

impl Default for IncrementalFeed {
    fn default() -> Self {
        IncrementalFeed { mode: Mode::Probing }
    }
}

impl IncrementalFeed {
    /// Advance over the full byte buffer (which the caller grows
    /// append-only) and either produce the new plan state or direct the
    /// caller to the full path. `prev` is the caller's current plan state:
    /// a fast step reuses its record vector, and leaves it intact on
    /// error. Errors are the exact errors the cold load of these bytes
    /// reports; the feed state stays valid across them.
    pub(crate) fn append(
        &mut self,
        bytes: &[u8],
        prev: Option<&mut PlanState>,
    ) -> Result<FeedStep, VppbError> {
        if matches!(self.mode, Mode::Probing) {
            match binlog::probe_preamble(bytes) {
                Preamble::NeedMore => return Ok(FeedStep::Full),
                Preamble::Fallback => {
                    self.mode = Mode::Fallback;
                    return Ok(FeedStep::Full);
                }
                Preamble::Ready { header, body_start } => {
                    self.mode = Mode::Fast(Box::new(FastState::new(*header, body_start)));
                }
            }
        }
        let state = match &mut self.mode {
            Mode::Fallback => return Ok(FeedStep::Full),
            Mode::Probing => unreachable!("probing resolved above"),
            Mode::Fast(state) => state,
        };
        loop {
            match binlog::next_frame(
                bytes,
                state.consumed,
                state.prev_us,
                state.records.len() as u64,
            ) {
                FrameStep::Record { rec, end, prev_us } => {
                    if !state.commit(*rec) {
                        self.mode = Mode::Fallback;
                        return Ok(FeedStep::Full);
                    }
                    state.consumed = end;
                    state.prev_us = prev_us;
                }
                FrameStep::Tail(diag) => {
                    return state.build(diag, prev).map(|s| FeedStep::Fast(Box::new(s)))
                }
                FrameStep::Damage => {
                    self.mode = Mode::Fallback;
                    return Ok(FeedStep::Full);
                }
            }
        }
    }

    /// Whether the fast path is engaged ([`crate::StreamSession::incremental`]).
    pub(crate) fn is_fast(&self) -> bool {
        matches!(self.mode, Mode::Fast(_))
    }
}

/// The records committed so far, folded once, plus what the per-append
/// tail repair needs.
struct FastState {
    header: LogHeader,
    /// Byte offset of the next undecoded frame.
    consumed: usize,
    /// Delta-time accumulator threaded through [`binlog::next_frame`].
    prev_us: u64,
    /// All committed records, densely numbered.
    records: Vec<TraceRecord>,
    /// An `end_collect` was committed: any further frame is corruption.
    end_seen: bool,
    /// Global monotone-time watermark.
    prev_time: Time,
    /// The analyzer over every committed record.
    fold: Fold,
    /// The salvager's ledger per thread, over the records it would keep.
    ledgers: BTreeMap<ThreadId, HoldLedger>,
}

impl FastState {
    fn new(header: LogHeader, body_start: usize) -> FastState {
        FastState {
            header,
            consumed: body_start,
            prev_us: 0,
            records: Vec::new(),
            end_seen: false,
            prev_time: Time::ZERO,
            fold: Fold::default(),
            ledgers: BTreeMap::new(),
        }
    }

    /// Commit one cleanly decoded frame. `false` means the record is a
    /// shape the fast path does not model (the cold salvager would drop,
    /// clamp or re-pair something): permanent fallback.
    fn commit(&mut self, rec: TraceRecord) -> bool {
        if self.end_seen {
            return false; // records after end_collect are corruption
        }
        let idx = self.records.len();
        match rec.kind {
            EventKind::StartCollect if rec.phase == Phase::Mark && idx == 0 => {}
            EventKind::EndCollect if rec.phase == Phase::Mark && rec.time >= self.prev_time => {
                self.end_seen = true;
            }
            EventKind::StartCollect | EventKind::EndCollect => return false,
            // The log must open with start_collect, and the cold path
            // clamps a time regression.
            _ if idx == 0 || rec.time < self.prev_time => return false,
            _ => {
                let open = self.fold.pending_of(rec.thread).copied();
                if !self.settles_cleanly(&rec, open.as_ref()) || self.fold.push(&rec, true).is_err()
                {
                    return false;
                }
                let ledger = self.ledgers.entry(rec.thread).or_default();
                match (rec.phase, open) {
                    (Phase::After, Some(b)) => {
                        ledger.record(b.seq as usize, &b);
                        ledger.record(idx, &rec);
                    }
                    (Phase::Before, _) if rec.kind != EventKind::ThrExit => {}
                    _ => ledger.record(idx, &rec),
                }
            }
        }
        self.prev_time = rec.time;
        self.records.push(rec);
        true
    }

    /// The shape checks: whether `rec`, on a thread whose call `open` is
    /// still open, pairs the way the cold salvager leaves untouched.
    fn settles_cleanly(&self, rec: &TraceRecord, open: Option<&TraceRecord>) -> bool {
        if open.is_some_and(|b| b.kind == EventKind::ThrExit) {
            return false; // cold drops records after thr_exit as stray
        }
        match rec.phase {
            // A mark inside an open call: if the call then dangles, cold
            // drops its BEFORE first and folds the mark as the thread's
            // last event; the fold here has already passed it.
            Phase::Mark => open.is_none() && matches!(rec.kind, EventKind::ThreadStart { .. }),
            // Nested BEFORE: cold drops the earlier one. (An exit holding
            // a lock settles: salvage closes an exited thread with no
            // release, as the complete log holds the lock at exit.)
            Phase::Before => open.is_none(),
            // Stray or mismatched AFTER, or a create that lost its child:
            // cold drops them.
            Phase::After => {
                open.is_some_and(|b| b.kind.name() == rec.kind.name())
                    && (!matches!(rec.kind, EventKind::ThrCreate { .. })
                        || matches!(rec.result, EventResult::Created(_)))
            }
        }
    }

    /// Derive the full `(LoadedLog, plan, committed, stable)` for the
    /// current prefix: the salvager's tail repair over the committed
    /// records, then [`Fold::finish`]. The log's records go into the
    /// vector of `prev`, the caller's current state, past the stable
    /// prefix both logs share (`prev` begins with its own
    /// [`PlanState::stable`] committed records, 0 after a full re-derive)
    /// — so a build costs O(tail + plan size).
    fn build(
        &mut self,
        tail: Option<Diagnostic>,
        prev: Option<&mut PlanState>,
    ) -> Result<PlanState, VppbError> {
        if self.records.is_empty() {
            // What `load_lenient_traced` reports for a body with no
            // complete records: salvage has nothing to repair and the
            // post-salvage validation fails.
            return Err(VppbError::MalformedLog("empty log".into()));
        }
        let mut report = SalvageReport::default();
        // All shape checks hold, so `validate()` passes — and the cold
        // path skips salvage entirely — exactly when the log is properly
        // terminated and nothing but thr_exit is open.
        let pristine = self.end_seen && !self.fold.pending().any(|b| b.kind != EventKind::ThrExit);
        let mut dropped: Vec<usize> = Vec::new();
        let mut inserts = BTreeMap::new();
        if !pristine {
            dropped = self
                .fold
                .pending()
                .filter(|b| salvage::drop_dangling(b.thread, b.seq as usize, b.kind, &mut report))
                .map(|b| b.seq as usize)
                .collect();
            dropped.sort_unstable();
            inserts = salvage::close_threads(&self.ledgers, &dropped, &mut report);
        }
        let mut analysis = self.fold.clone().finish(&self.header, &inserts)?;

        // Nothing fails from here on, so `prev` gives up its records only
        // now. Committed records are numbered densely: only what follows
        // the first drop or insert, and the end bracket, can change.
        let first_drop = dropped.first().copied().unwrap_or(usize::MAX);
        let first_insert = inserts.keys().next().map_or(usize::MAX, |&at| at + 1);
        let stable = first_drop.min(first_insert).min(self.records.len());
        let records = prev
            .map(|p| {
                let mut records = std::mem::take(&mut p.loaded.log.records);
                records.truncate(p.stable.min(stable));
                records
            })
            .unwrap_or_default();
        let mut log = TraceLog { header: self.header.clone(), records };
        salvage::splice(&mut log.records, &self.records, &dropped, &inserts);
        if !pristine {
            salvage::end_bracket(&mut log, &mut report);
            salvage::clamp_wall_time(&mut log, &mut report);
            salvage::renumber(&mut log, stable, &mut report);
            // `finish` ran on the header before this clamp.
            analysis.plan.recorded_wall = log.header.wall_time;
        }
        let loaded = LoadedLog { log, diagnostics: tail.into_iter().collect(), salvage: report };
        Ok(PlanState { loaded, plan: analysis.plan, committed: analysis.committed, stable })
    }
}
