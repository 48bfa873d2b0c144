//! The incremental fast path of streaming ingestion.
//!
//! [`crate::stream::StreamSession`] must produce, after every append, the
//! exact `(LoadedLog, ReplayPlan)` a cold
//! `analyze(salvage(parse(prefix)))` produces — that is the bit-identity
//! invariant the chunk-equivalence battery enforces. The session's
//! baseline way to get there is to re-derive everything from the full
//! byte buffer, which costs O(log) per append. This module is the O(tail)
//! alternative: an [`IncrementalFeed`] decodes only the new bytes
//! ([`binlog::next_frame`] commits are final), folds each *settled*
//! BEFORE/AFTER pair into per-thread op lists and analyzer aggregates
//! exactly once, and per append re-derives only what the salvager would
//! invent for the current torn tail (dropped dangling BEFOREs,
//! synthesized releases/exits, the `end_collect` bracket, the wall-time
//! clamp and the renumber count).
//!
//! The fold is *sound because it is cowardly*: it only handles the shapes
//! a healthy recorder emits — a version-2 binary log whose interior
//! frames are clean, in-order and properly paired. Any structural
//! surprise (damaged frame, time regression, nested BEFORE, stray AFTER,
//! a record after `thr_exit`, a create without its child id, …) flips the
//! feed into permanent [`Mode::Fallback`], and the session re-derives
//! from the full buffer — the cold path is the definition of correct, so
//! falling back can never lose fidelity, only speed. Within the fast
//! path, every emitted record, diagnostic, salvage edit and plan field is
//! constructed to byte-match its cold counterpart; the equivalence
//! battery (fixtures × fuzz seeds × chunkings) is the proof.

use crate::plan::{CvEpisode, CvPlan, ReplayPlan, ThreadPlan};
use crate::sorter::translate_call;
use crate::stream::{provisional_op, PlanState};
use std::collections::BTreeMap;
use vppb_model::binlog::{self, FrameStep, Preamble};
use vppb_model::{
    CodeAddr, DiagCode, Diagnostic, Duration, EventKind, EventResult, LogHeader, ObjKind, Phase,
    Pos, SalvageEdit, SalvageReport, SyncObjId, ThreadId, Time, TraceLog, TraceRecord, VppbError,
};
use vppb_recorder::LoadedLog;
use vppb_threads::{Action, LibCall};

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
    /// caller to the full path. Errors are the exact errors the cold load
    /// of these bytes reports; the feed state stays valid across them.
    pub(crate) fn append(&mut self, bytes: &[u8]) -> Result<FeedStep, VppbError> {
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
                    return state.build(diag).map(|s| FeedStep::Fast(Box::new(s)))
                }
                FrameStep::Damage => {
                    self.mode = Mode::Fallback;
                    return Ok(FeedStep::Full);
                }
            }
        }
    }

    /// Whether the fast path is engaged (diagnostics for the bench and
    /// `vppb watch`).
    pub(crate) fn is_fast(&self) -> bool {
        matches!(self.mode, Mode::Fast(_))
    }
}

/// Per-thread fold state: pairing, lock ledger, and the op list built
/// from settled pairs (the same ops sorter pass 4 derives, emitted once).
#[derive(Default)]
struct ThreadState {
    /// Open BEFORE (record index), awaiting its AFTER.
    pending: Option<usize>,
    /// Index of the thread's last settled (kept) non-collect record.
    last_of: Option<usize>,
    /// Whether that last record is a `thr_exit`.
    exits: bool,
    /// A `thr_exit` BEFORE was committed: nothing may follow.
    exited: bool,
    /// Net hold count per object (mutexes and rwlocks), clamped at zero.
    held: BTreeMap<SyncObjId, i64>,
    /// Replay ops from settled records only.
    ops: Vec<Action>,
    /// End time of the thread's last settled event (compute-gap anchor).
    prev_end: Option<Time>,
    /// `(op index, child)` for every Create op, in op order.
    creates: Vec<(usize, ThreadId)>,
    /// Op index of the first condvar/semaphore op, if any.
    first_provisional: Option<usize>,
}

/// The committed-prefix fold plus everything needed to re-derive the
/// salvaged tail and the plan per append in O(tail).
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
    threads: BTreeMap<ThreadId, ThreadState>,
    n_mutexes: u32,
    n_condvars: u32,
    n_rwlocks: u32,
    n_sems: u32,
    barrier_parties: Vec<u32>,
    once_init: Vec<Duration>,
    create_map: BTreeMap<(ThreadId, u64), ThreadId>,
    create_seq: BTreeMap<ThreadId, u64>,
    bound: BTreeMap<ThreadId, bool>,
    entries: BTreeMap<ThreadId, CodeAddr>,
    sem_level: Vec<i64>,
    sem_min: Vec<i64>,
    /// Closed, non-timed-out wait spans `(cv, before, after, mutex)`, in
    /// AFTER order — the order sorter pass 3 collects them.
    wait_spans: Vec<(u32, Time, Time, u32)>,
    /// Settled signal/broadcast BEFOREs: `(record idx, is_broadcast, cv)`.
    /// Settled in AFTER order; re-sorted by record index at plan build,
    /// because the cold pass walks BEFOREs in record order.
    notifies: Vec<(usize, bool, u32)>,
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
            threads: BTreeMap::new(),
            n_mutexes: 0,
            n_condvars: 0,
            n_rwlocks: 0,
            n_sems: 0,
            barrier_parties: Vec::new(),
            once_init: Vec::new(),
            create_map: BTreeMap::new(),
            create_seq: BTreeMap::new(),
            bound: BTreeMap::new(),
            entries: BTreeMap::new(),
            sem_level: Vec::new(),
            sem_min: Vec::new(),
            wait_spans: Vec::new(),
            notifies: Vec::new(),
        }
    }

    /// Track the object-universe maxima (sorter pass 1) for one record.
    fn maxima(&mut self, r: &TraceRecord) {
        if let Some(obj) = r.kind.object() {
            let i = obj.index as usize;
            match obj.kind {
                ObjKind::Mutex => self.n_mutexes = self.n_mutexes.max(obj.index + 1),
                ObjKind::Semaphore => self.n_sems = self.n_sems.max(obj.index + 1),
                ObjKind::Condvar => self.n_condvars = self.n_condvars.max(obj.index + 1),
                ObjKind::RwLock => self.n_rwlocks = self.n_rwlocks.max(obj.index + 1),
                ObjKind::Barrier => {
                    if self.barrier_parties.len() <= i {
                        self.barrier_parties.resize(i + 1, 1);
                    }
                    if let EventKind::BarrierWait { parties, .. } = r.kind {
                        self.barrier_parties[i] = parties.max(1);
                    }
                }
                ObjKind::Once => {
                    if self.once_init.len() <= i {
                        self.once_init.resize(i + 1, Duration::ZERO);
                    }
                    if let EventKind::OnceCall { init, .. } = r.kind {
                        self.once_init[i] = self.once_init[i].max(init);
                    }
                }
            }
        }
        if let Some(m) = r.kind.cond_mutex() {
            self.n_mutexes = self.n_mutexes.max(m.index + 1);
        }
    }

    fn sem_slot(&mut self, i: usize) -> (&mut i64, &mut i64) {
        if self.sem_level.len() <= i {
            self.sem_level.resize(i + 1, 0);
            self.sem_min.resize(i + 1, 0);
        }
        (&mut self.sem_level[i], &mut self.sem_min[i])
    }

    /// Analyzer aggregates derived from AFTER records (sorter pass 2).
    fn fold_after(&mut self, t: ThreadId, r: &TraceRecord) {
        match (r.kind, r.result) {
            (EventKind::ThrCreate { bound, .. }, EventResult::Created(child)) => {
                let seq = self.create_seq.entry(t).or_insert(0);
                self.create_map.insert((t, *seq), child);
                *seq += 1;
                self.bound.insert(child, bound);
            }
            (EventKind::SemPost { obj }, _) => {
                let (level, _) = self.sem_slot(obj.index as usize);
                *level += 1;
            }
            (EventKind::SemWait { obj }, _) => {
                let (level, min) = self.sem_slot(obj.index as usize);
                *level -= 1;
                *min = (*min).min(*level);
            }
            (EventKind::SemTryWait { obj }, EventResult::Acquired(true)) => {
                let (level, min) = self.sem_slot(obj.index as usize);
                *level -= 1;
                *min = (*min).min(*level);
            }
            _ => {}
        }
    }

    /// Commit one cleanly decoded frame into the fold. `false` means the
    /// record is a shape the fast path does not model (the cold salvager
    /// would drop, clamp or re-pair something): permanent fallback.
    fn commit(&mut self, rec: TraceRecord) -> bool {
        if self.end_seen {
            return false; // records after end_collect are corruption
        }
        let idx = self.records.len();
        match rec.kind {
            EventKind::StartCollect => {
                if rec.phase != Phase::Mark || idx != 0 {
                    return false;
                }
                self.prev_time = rec.time;
                self.records.push(rec);
                return true;
            }
            EventKind::EndCollect => {
                if rec.phase != Phase::Mark || rec.time < self.prev_time {
                    return false;
                }
                self.prev_time = rec.time;
                self.end_seen = true;
                self.records.push(rec);
                return true;
            }
            EventKind::ThreadStart { .. } if rec.phase != Phase::Mark => return false,
            _ => {}
        }
        if idx == 0 {
            return false; // log must open with start_collect
        }
        if rec.time < self.prev_time {
            return false; // cold path clamps; we don't model that
        }
        self.prev_time = rec.time;
        let t = rec.thread;
        {
            let ts = self.threads.entry(t).or_default();
            if ts.exited {
                return false; // cold drops records after thr_exit as stray
            }
        }
        match rec.phase {
            Phase::Mark => {
                let EventKind::ThreadStart { func } = rec.kind else {
                    return false; // unknown mark shape
                };
                let ts = self.threads.get_mut(&t).expect("entry above");
                if ts.pending.is_some() {
                    return false; // mark inside an open call: cold analyze chokes
                }
                ts.last_of = Some(idx);
                ts.exits = false;
                ts.prev_end = Some(rec.time);
                self.entries.insert(t, func);
            }
            Phase::Before => {
                let ts = self.threads.get_mut(&t).expect("entry above");
                if ts.pending.is_some() {
                    return false; // nested BEFORE: cold drops the earlier one
                }
                if rec.kind == EventKind::ThrExit {
                    // thr_exit never returns: it settles immediately.
                    ts.last_of = Some(idx);
                    ts.exits = true;
                    ts.exited = true;
                    if let Some(pe) = ts.prev_end {
                        let gap = rec.time - pe;
                        if !gap.is_zero() {
                            ts.ops.push(Action::Work(gap));
                        }
                    }
                    if translate_call(rec.kind, rec.caller, None, &mut ts.ops).is_err() {
                        return false;
                    }
                    ts.prev_end = Some(rec.time);
                    self.maxima(&rec);
                } else {
                    ts.pending = Some(idx);
                }
            }
            Phase::After => {
                let bi = {
                    let ts = self.threads.get_mut(&t).expect("entry above");
                    match ts.pending.take() {
                        Some(bi) => bi,
                        None => return false, // stray AFTER
                    }
                };
                let before = self.records[bi];
                if before.kind.name() != rec.kind.name() {
                    return false; // mismatched pair
                }
                if matches!(rec.kind, EventKind::ThrCreate { .. })
                    && !matches!(rec.result, EventResult::Created(_))
                {
                    return false; // cold drops the whole pair
                }
                self.maxima(&before);
                self.maxima(&rec);
                self.fold_after(t, &rec);
                match before.kind {
                    EventKind::CondWait { cond, mutex }
                    | EventKind::CondTimedWait { cond, mutex, .. }
                        if !matches!(rec.result, EventResult::TimedOut(true)) =>
                    {
                        self.wait_spans.push((cond.index, before.time, rec.time, mutex.index));
                    }
                    EventKind::CondSignal { cond } => self.notifies.push((bi, false, cond.index)),
                    EventKind::CondBroadcast { cond } => self.notifies.push((bi, true, cond.index)),
                    _ => {}
                }
                let ts = self.threads.get_mut(&t).expect("entry above");
                ledger(ts, &before);
                ledger(ts, &rec);
                ts.last_of = Some(idx);
                ts.exits = false;
                if let Some(pe) = ts.prev_end {
                    let gap = before.time - pe;
                    if !gap.is_zero() {
                        ts.ops.push(Action::Work(gap));
                    }
                }
                let start = ts.ops.len();
                if translate_call(before.kind, before.caller, Some(rec), &mut ts.ops).is_err() {
                    return false;
                }
                for j in start..ts.ops.len() {
                    if ts.first_provisional.is_none() && provisional_op(&ts.ops[j]) {
                        ts.first_provisional = Some(j);
                    }
                    if let Action::Call(LibCall::Create { .. }, _) = ts.ops[j] {
                        if let EventResult::Created(child) = rec.result {
                            ts.creates.push((j, child));
                        }
                    }
                }
                ts.prev_end = Some(rec.time);
            }
        }
        self.records.push(rec);
        true
    }

    /// Derive the full `(LoadedLog, plan, committed)` for the current
    /// prefix: replay the salvager's tail decisions over the fold, then
    /// assemble the plan — all in O(tail + output size).
    fn build(&self, tail: Option<Diagnostic>) -> Result<PlanState, VppbError> {
        if self.records.is_empty() {
            // What `load_lenient_traced` reports for a body with no
            // complete records: salvage has nothing to repair and the
            // post-salvage validation fails.
            return Err(VppbError::MalformedLog("empty log".into()));
        }

        let last_is_end = self.records.last().map(|r| r.kind) == Some(EventKind::EndCollect);
        let has_pending = self.threads.values().any(|ts| ts.pending.is_some());
        // All fast-path invariants hold, so `validate()` passes — and the
        // cold path skips salvage entirely — exactly when the log is
        // properly terminated and nothing but thr_exit is open.
        let pristine = last_is_end && !has_pending;

        let mut edits: Vec<SalvageEdit> = Vec::new();
        let mut dropped: Vec<usize> = Vec::new();
        let mut synth_after: BTreeMap<usize, Vec<TraceRecord>> = BTreeMap::new();
        let mut out: Vec<TraceRecord>;
        let mut header = self.header.clone();

        if pristine {
            out = self.records.clone();
        } else {
            // Salvage pass 2 tail: dangling BEFOREs are truncation damage.
            for (&t, ts) in &self.threads {
                if let Some(bi) = ts.pending {
                    dropped.push(bi);
                    edits.push(SalvageEdit {
                        code: DiagCode::DroppedDanglingBefore,
                        pos: Pos::Record(bi as u64),
                        message: format!(
                            "{} on {t} truncated before its AFTER; dropped",
                            self.records[bi].kind.name()
                        ),
                    });
                }
            }
            dropped.sort_unstable();
            let post_idx = |i: usize| (i - dropped.partition_point(|&d| d < i)) as u64;

            // Passes 3+4: synthesized releases and exits at last-seen time.
            for (&t, ts) in &self.threads {
                let Some(last) = ts.last_of else { continue };
                let time = self.records[last].time;
                let synth = |kind: EventKind, phase: Phase| TraceRecord {
                    seq: u64::MAX, // sentinel; renumbered below
                    time,
                    thread: t,
                    phase,
                    kind,
                    result: EventResult::None,
                    caller: CodeAddr::NULL,
                };
                for (&obj, &count) in &ts.held {
                    if count <= 0 {
                        continue;
                    }
                    let kind = match obj.kind {
                        ObjKind::Mutex => EventKind::MutexUnlock { obj },
                        ObjKind::RwLock => EventKind::RwUnlock { obj },
                        _ => continue,
                    };
                    let list = synth_after.entry(last).or_default();
                    for _ in 0..count {
                        list.push(synth(kind, Phase::Before));
                        list.push(synth(kind, Phase::After));
                    }
                    edits.push(SalvageEdit {
                        code: DiagCode::SynthesizedRelease,
                        pos: Pos::Record(post_idx(last)),
                        message: format!(
                            "{t} still held {obj} at its last record; released at {time}"
                        ),
                    });
                }
                if !ts.exits {
                    synth_after
                        .entry(last)
                        .or_default()
                        .push(synth(EventKind::ThrExit, Phase::Before));
                    edits.push(SalvageEdit {
                        code: DiagCode::SynthesizedExit,
                        pos: Pos::Record(post_idx(last)),
                        message: format!(
                            "{t} has no thr_exit; synthesized at last-seen time {time}"
                        ),
                    });
                }
            }

            // Assemble the output records, renumbering densely as we go.
            // Committed records carry dense sequence numbers already, so
            // everything before the first drop, or before the first record
            // a synthesized insert follows, is copied verbatim in one
            // memcpy; only the damaged tail takes the careful
            // record-by-record path, which emits each record's inserts
            // after it. (Salvage damage lives at the stream's ragged edge,
            // so the tail is short.)
            let extra: usize = synth_after.values().map(Vec::len).sum();
            out = Vec::with_capacity(self.records.len() + extra + 1);
            let first_change = dropped
                .first()
                .copied()
                .unwrap_or(usize::MAX)
                .min(synth_after.keys().next().copied().unwrap_or(usize::MAX))
                .min(self.records.len());
            out.extend_from_slice(&self.records[..first_change]);
            let mut changed = 0u64;
            let mut push = |out: &mut Vec<TraceRecord>, mut r: TraceRecord| {
                let i = out.len() as u64;
                if r.seq != i {
                    changed += 1;
                    r.seq = i;
                }
                out.push(r);
            };
            let mut di = 0usize;
            for (i, r) in self.records.iter().enumerate().skip(first_change) {
                if di < dropped.len() && dropped[di] == i {
                    di += 1;
                    continue;
                }
                push(&mut out, *r);
                if let Some(synths) = synth_after.get(&i) {
                    for s in synths {
                        push(&mut out, *s);
                    }
                }
            }
            // Pass 5: the end_collect bracket.
            if out.last().map(|r| r.kind) != Some(EventKind::EndCollect) {
                let bracket_t = out.last().map(|r| r.time).unwrap_or(Time::ZERO);
                edits.push(SalvageEdit {
                    code: DiagCode::SynthesizedEnd,
                    pos: Pos::Record(out.len() as u64),
                    message: format!(
                        "log does not end with end_collect; synthesized at {bracket_t}"
                    ),
                });
                push(
                    &mut out,
                    TraceRecord {
                        seq: 0,
                        time: bracket_t,
                        thread: ThreadId::MAIN,
                        phase: Phase::Mark,
                        kind: EventKind::EndCollect,
                        result: EventResult::None,
                        caller: CodeAddr::NULL,
                    },
                );
            }
            // Pass 6a: the header wall time must cover the last record.
            let wall_last = out.last().map(|r| r.time).unwrap_or(Time::ZERO);
            if header.wall_time < wall_last {
                edits.push(SalvageEdit {
                    code: DiagCode::ClampedWallTime,
                    pos: Pos::None,
                    message: format!(
                        "header wall time {} predates the last record; clamped to {wall_last}",
                        header.wall_time
                    ),
                });
                header.wall_time = wall_last;
            }
            // Pass 6b: report the renumber.
            if changed > 0 {
                edits.push(SalvageEdit {
                    code: DiagCode::RenumberedSeq,
                    pos: Pos::None,
                    message: format!("renumbered {changed} record sequence numbers"),
                });
            }
        }

        // ---- plan assembly (sorter passes 3+4 over fold + tail) ---------
        let mut threads_plan = Vec::new();
        let mut committed: BTreeMap<ThreadId, usize> = BTreeMap::new();
        for (&tid, ts) in &self.threads {
            let Some(last) = ts.last_of else {
                continue; // pending-only thread: all its records were dropped
            };
            let mut ops = ts.ops.clone();
            let mut prev_end = ts.prev_end;
            if let Some(synths) = synth_after.get(&last) {
                let mut i = 0;
                while i < synths.len() {
                    let b = synths[i];
                    let after = synths.get(i + 1).filter(|a| a.phase == Phase::After);
                    if let Some(pe) = prev_end {
                        let gap = b.time - pe;
                        if !gap.is_zero() {
                            ops.push(Action::Work(gap));
                        }
                    }
                    translate_call(b.kind, b.caller, after.copied(), &mut ops)?;
                    prev_end = Some(after.map(|a| a.time).unwrap_or(b.time));
                    i += if after.is_some() { 2 } else { 1 };
                }
            }
            if !matches!(ops.last(), Some(Action::Call(LibCall::Exit, _))) {
                ops.push(Action::Call(LibCall::Exit, CodeAddr::NULL));
            }
            // The committed horizon: settled ops, cut at the first
            // provisional (cv/sem) op and the first Create whose child has
            // no entry address yet (a later chunk backfills it). A
            // conservative subset of the cold stability map — only the
            // *plan* must bit-match the cold path; the horizon merely has
            // to stay append-stable.
            let mut cap = ts.ops.len();
            if let Some(p) = ts.first_provisional {
                cap = cap.min(p);
            }
            for &(j, child) in &ts.creates {
                if !self.entries.contains_key(&child) {
                    cap = cap.min(j);
                    break;
                }
            }
            committed.insert(tid, cap);
            threads_plan.push(ThreadPlan {
                id: tid,
                start_fn: header.thread_start_fn.get(&tid).cloned().unwrap_or_else(|| {
                    if tid == ThreadId::MAIN {
                        "main".into()
                    } else {
                        "thread".into()
                    }
                }),
                entry: self.entries.get(&tid).copied().unwrap_or(CodeAddr::NULL),
                ops,
            });
        }

        if threads_plan.is_empty() || threads_plan[0].id != ThreadId::MAIN {
            return Err(VppbError::MalformedLog("log has no main thread".into()));
        }

        // Created-but-recordless children get the cold path's empty plan.
        for child in self.create_map.values() {
            if self.threads.get(child).is_none_or(|ts| ts.last_of.is_none()) {
                threads_plan.push(ThreadPlan {
                    id: *child,
                    start_fn: header
                        .thread_start_fn
                        .get(child)
                        .cloned()
                        .unwrap_or_else(|| "thread".into()),
                    entry: CodeAddr::NULL,
                    ops: vec![Action::Call(LibCall::Exit, CodeAddr::NULL)],
                });
                committed.insert(*child, 0);
            }
        }

        // Condvar episodes (sorter pass 3): notifies walk in record order
        // against the closed-span set.
        let mut cvs = vec![CvPlan::default(); self.n_condvars as usize];
        let mut notes = self.notifies.clone();
        notes.sort_unstable_by_key(|&(bi, _, _)| bi);
        for &(bi, broadcast, cv) in &notes {
            let t = self.records[bi].time;
            if broadcast {
                let spanning: Vec<u32> = self
                    .wait_spans
                    .iter()
                    .filter(|(c, b, a, _)| *c == cv && *b <= t && *a >= t)
                    .map(|&(_, _, _, m)| m)
                    .collect();
                let mutex = spanning.first().copied().unwrap_or(0);
                cvs[cv as usize]
                    .episodes
                    .push(CvEpisode { parties: spanning.len() as u32 + 1, mutex });
            } else {
                let released = self
                    .wait_spans
                    .iter()
                    .filter(|(c, b, a, _)| *c == cv && *b <= t && *a >= t)
                    .count()
                    .min(1) as u32;
                cvs[cv as usize].signal_released.push(released);
            }
        }

        let sem_initial: Vec<u32> = (0..self.n_sems as usize)
            .map(|i| self.sem_min.get(i).map(|&m| (-m).max(0) as u32).unwrap_or(0))
            .collect();

        let plan = ReplayPlan {
            program: header.program.clone(),
            threads: threads_plan,
            create_map: self.create_map.clone(),
            cvs,
            sem_initial,
            n_mutexes: self.n_mutexes,
            n_condvars: self.n_condvars,
            n_rwlocks: self.n_rwlocks,
            barrier_parties: self.barrier_parties.clone(),
            once_init: self.once_init.clone(),
            recorded_wall: header.wall_time,
            bound: self.bound.clone(),
            tapes: std::sync::OnceLock::new(),
        };
        let loaded = LoadedLog {
            log: TraceLog { header, records: out },
            diagnostics: tail.into_iter().collect(),
            salvage: SalvageReport { edits },
        };
        Ok(PlanState { loaded, plan, committed })
    }
}

/// Salvage pass 3's hold ledger for one record.
fn ledger(ts: &mut ThreadState, r: &TraceRecord) {
    let mut add = |obj: SyncObjId, d: i64| {
        let e = ts.held.entry(obj).or_insert(0);
        *e = (*e + d).max(0);
    };
    match (r.phase, r.kind, r.result) {
        (Phase::After, EventKind::MutexLock { obj }, _) => add(obj, 1),
        (Phase::After, EventKind::MutexTryLock { obj }, EventResult::Acquired(true)) => add(obj, 1),
        (Phase::Before, EventKind::MutexUnlock { obj }, _) => add(obj, -1),
        (Phase::After, EventKind::RwRdLock { obj }, _)
        | (Phase::After, EventKind::RwWrLock { obj }, _) => add(obj, 1),
        (Phase::After, EventKind::RwTryRdLock { obj }, EventResult::Acquired(true))
        | (Phase::After, EventKind::RwTryWrLock { obj }, EventResult::Acquired(true)) => {
            add(obj, 1)
        }
        (Phase::Before, EventKind::RwUnlock { obj }, _) => add(obj, -1),
        _ => {}
    }
}
