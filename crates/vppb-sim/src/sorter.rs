//! Log analysis: sort the sequential log into per-thread event lists
//! (fig. 4 of the paper) and precompute the replay rules' inputs.
//!
//! The static replay rules from §3.2 are applied here, while building each
//! thread's op list:
//!
//! * **try-operations**: "If the thread gained access to the lock in the
//!   log file, the simulation will do a `mutex_lock`, otherwise no action
//!   is taken" — an acquired try becomes the blocking form, a failed one
//!   disappears.
//! * **`cond_timedwait`**: "handled as a delay if the operation timed out
//!   in the log and as an ordinary `cond_wait` operation otherwise" — the
//!   timed-out form becomes unlock / sleep / re-lock.
//! * compute gaps between consecutive events of one thread become `Work`
//!   ops (valid because the monitored run used a single LWP: no other
//!   thread can run between two events of the same thread).
//!
//! The analysis is one [`Fold`] over the records in log order. The cold
//! path ([`analyze`]) runs it over a whole validated log; the streaming
//! feed (`crate::feed`) runs the same fold over each record as it decodes
//! it, and [`Fold::finish`] builds the plan and each thread's committed
//! horizon for both.

use crate::plan::{CvEpisode, CvPlan, ReplayPlan, ThreadPlan};
use std::collections::{BTreeMap, BTreeSet};
use vppb_model::{
    CodeAddr, DiagCode, Diagnostic, Duration, EventKind, EventResult, LogHeader, ObjKind, Phase,
    Pos, ThreadId, Time, TraceLog, TraceRecord, VppbError,
};
use vppb_threads::{Action, BarrierRef, CondRef, LibCall, MutexRef, OnceRef, RwRef, SemRef};

/// Build the replay plan from a validated log.
pub fn analyze(log: &TraceLog) -> Result<ReplayPlan, VppbError> {
    Ok(fold_log(log, &[])?.plan)
}

/// Like [`analyze`], additionally reporting how many leading ops of each
/// thread's plan are *stable under appends*: derived purely from closed
/// BEFORE/AFTER pairs of real (non-salvaged) records. When the log grows,
/// the stable prefix of each thread can only extend — appended records sort
/// after the existing ones of their thread, closed pairs are permanent, and
/// salvage-synthesized tails (which the count stops at) are recomputed from
/// scratch each time. `synthetic_seqs` is the salvager's synthetic-record
/// list for this log ([`vppb_model::salvage_traced`]); pass an empty slice
/// for a log that validated cleanly.
///
/// The count excludes the auto-appended trailing `thr_exit` and everything
/// from the first unpaired BEFORE on (its AFTER — or, for `thr_exit`, a
/// successor record proving it really was the end — may still arrive).
pub fn analyze_with_stability(
    log: &TraceLog,
    synthetic_seqs: &[usize],
) -> Result<(ReplayPlan, BTreeMap<ThreadId, usize>), VppbError> {
    let a = fold_log(log, synthetic_seqs)?;
    Ok((a.plan, a.stable))
}

/// What the analyzer derives from a log.
pub(crate) struct Analysis {
    pub plan: ReplayPlan,
    /// Per thread, the stable op count of [`analyze_with_stability`].
    pub stable: BTreeMap<ThreadId, usize>,
    /// Per thread, the committed horizon (see [`ThreadFold::horizon`]).
    pub committed: BTreeMap<ThreadId, usize>,
}

/// Validate `log` and run the [`Fold`] over all of it.
pub(crate) fn fold_log(log: &TraceLog, synthetic_seqs: &[usize]) -> Result<Analysis, VppbError> {
    log.validate()?;
    let synthetic: BTreeSet<u64> = synthetic_seqs.iter().map(|&i| i as u64).collect();
    let mut fold = Fold::default();
    for r in &log.records {
        fold.push(r, !synthetic.contains(&r.seq))?;
    }
    fold.finish(&log.header, &BTreeMap::new())
}

/// Ops a checkpoint chain must never execute before the log is complete:
/// condvar traffic (replay-rule seeds grow with the log) and semaphore
/// traffic (inferred initial counts grow with the log).
pub(crate) fn provisional_op(op: &Action) -> bool {
    matches!(
        op,
        Action::Call(
            LibCall::CondWait { .. }
                | LibCall::CondSignal(_)
                | LibCall::CondBroadcast(_)
                | LibCall::SemWait(_)
                | LibCall::SemPost(_),
            _
        )
    )
}

/// The analyzer as one fold over a log's records in log order: the
/// object universe, the create map, thread entries and semaphore levels,
/// condvar wait spans and notifies, and each thread's op list built
/// through [`translate_call`]. A BEFORE pairs with its thread's next call
/// record — marks in between do not break a pair, as in
/// [`TraceLog::validate`] and the salvager — and a pair folds once, when
/// its AFTER arrives, so everything the fold holds is settled: the cold
/// analyzer pushes a whole validated log, the streaming feed pushes each
/// record as it is decoded, and [`Fold::finish`] builds the plan either
/// way.
#[derive(Clone, Default)]
pub(crate) struct Fold {
    seeds: Seeds,
    threads: BTreeMap<ThreadId, ThreadFold>,
}

/// Everything the fold derives besides the per-thread op lists.
#[derive(Clone, Default)]
struct Seeds {
    n_mutexes: u32,
    n_condvars: u32,
    n_rwlocks: u32,
    n_sems: u32,
    barrier_parties: Vec<u32>,
    once_init: Vec<Duration>,
    create_map: BTreeMap<(ThreadId, u64), ThreadId>,
    entries: BTreeMap<ThreadId, CodeAddr>,
    /// Running level and low-water mark per semaphore, over AFTER records.
    sem_level: Vec<i64>,
    sem_min: Vec<i64>,
    /// Closed, non-timed-out wait spans `(cv, before, after, mutex)`, in
    /// AFTER order.
    wait_spans: Vec<(u32, Time, Time, u32)>,
    /// Signals and broadcasts `(BEFORE seq, time, is_broadcast, cv)`, in
    /// AFTER order; replayed in BEFORE order.
    notifies: Vec<(u64, Time, bool, u32)>,
}

/// One thread's part of the [`Fold`].
#[derive(Clone, Default)]
struct ThreadFold {
    /// The open BEFORE, and whether it is a real (not synthesized) record.
    pending: Option<(TraceRecord, bool)>,
    /// Whether a mark or a pair of this thread has folded.
    seen: bool,
    ops: Vec<Action>,
    /// End time of the thread's last event: compute gaps start here.
    prev_end: Option<Time>,
    /// Ops before the first pair that is synthesized or unpaired: the
    /// ops from there on are not stable.
    unstable_from: Option<usize>,
    /// `(ops before the pair, child)` per `thr_create`, in order.
    creates: Vec<(usize, ThreadId)>,
    /// Index of the first condvar or semaphore op.
    first_provisional: Option<usize>,
}

impl Fold {
    /// The open BEFORE of `thread`, if any.
    pub(crate) fn pending_of(&self, thread: ThreadId) -> Option<&TraceRecord> {
        self.threads.get(&thread)?.pending.as_ref().map(|(b, _)| b)
    }

    /// Every open BEFORE, in thread order.
    pub(crate) fn pending(&self) -> impl Iterator<Item = &TraceRecord> {
        self.threads.values().filter_map(|tf| tf.pending.as_ref().map(|(b, _)| b))
    }

    /// Fold the next record of the log. `real` is false for a record the
    /// salvager synthesized: the ops it yields are not stable.
    pub(crate) fn push(&mut self, r: &TraceRecord, real: bool) -> Result<(), VppbError> {
        if matches!(r.kind, EventKind::StartCollect | EventKind::EndCollect) {
            return Ok(());
        }
        let tf = self.threads.entry(r.thread).or_default();
        match r.phase {
            Phase::Mark => {
                tf.seen = true;
                if let EventKind::ThreadStart { func } = r.kind {
                    // Compute starts at the thread's first scheduling
                    // instant; inside an open call the AFTER ends it.
                    if tf.pending.is_none() {
                        tf.prev_end = Some(r.time);
                    }
                    self.seeds.entries.insert(r.thread, func);
                }
                self.seeds.objects(r);
                Ok(())
            }
            Phase::Before => match tf.pending {
                Some((p, _)) => Err(VppbError::MalformedLog(format!(
                    "nested BEFORE on {}: {} while {} pending",
                    r.thread,
                    r.kind.name(),
                    p.kind.name()
                ))),
                None => {
                    tf.pending = Some((*r, real));
                    Ok(())
                }
            },
            Phase::After => match tf.pending.take() {
                Some((b, b_real)) => settle(&mut self.seeds, tf, &b, Some(r), b_real && real),
                None => Err(VppbError::MalformedLog(format!(
                    "stray AFTER for {} at {}",
                    r.thread, r.time
                ))),
            },
        }
    }

    /// Build the plan from the fold plus `tails`: the records the salvager
    /// inserts after each thread's last record, keyed by that record's
    /// index (empty for a log that is already salvaged). A BEFORE still
    /// open is what the salvager makes of it: a dangling one is dropped,
    /// an open `thr_exit` replays as the thread's exit.
    pub(crate) fn finish(
        mut self,
        header: &LogHeader,
        tails: &BTreeMap<usize, Vec<TraceRecord>>,
    ) -> Result<Analysis, VppbError> {
        for tf in self.threads.values_mut() {
            if tf.pending.is_some_and(|(b, _)| b.kind != EventKind::ThrExit) {
                tf.pending = None;
            }
        }
        for r in tails.values().flatten() {
            self.push(r, false)?;
        }
        let Fold { mut seeds, threads } = self;
        let start_fn = |id: ThreadId, default: &str| {
            header.thread_start_fn.get(&id).cloned().unwrap_or_else(|| default.into())
        };
        let mut plans = Vec::with_capacity(threads.len());
        let mut stable = BTreeMap::new();
        let mut committed = BTreeMap::new();
        for (id, mut tf) in threads {
            if let Some((b, real)) = tf.pending.take() {
                settle(&mut seeds, &mut tf, &b, None, real)?;
            }
            if !tf.seen {
                continue; // only a dangling BEFORE, which salvage dropped
            }
            let (s, c) = tf.horizon(&seeds.entries);
            stable.insert(id, s);
            committed.insert(id, c);
            let mut ops = tf.ops;
            // Ensure the thread terminates.
            if !matches!(ops.last(), Some(Action::Call(LibCall::Exit, _))) {
                ops.push(Action::Call(LibCall::Exit, CodeAddr::NULL));
            }
            plans.push(ThreadPlan {
                id,
                start_fn: start_fn(id, if id == ThreadId::MAIN { "main" } else { "thread" }),
                entry: seeds.entries.get(&id).copied().unwrap_or(CodeAddr::NULL),
                ops,
            });
        }
        if plans.is_empty() || plans[0].id != ThreadId::MAIN {
            return Err(VppbError::MalformedLog("log has no main thread".into()));
        }

        // A child that was created but never produced a record (the log was
        // truncated right after its spawn) gets an empty plan: it starts,
        // does nothing observable, and exits — so creates and joins of it
        // still replay instead of panicking on a missing thread plan.
        let recorded = plans.len();
        for &child in seeds.create_map.values() {
            if plans[..recorded].binary_search_by_key(&child, |t| t.id).is_err() {
                plans.push(ThreadPlan {
                    id: child,
                    start_fn: start_fn(child, "thread"),
                    entry: CodeAddr::NULL,
                    ops: vec![Action::Call(LibCall::Exit, CodeAddr::NULL)],
                });
                // Its real first record may still arrive: nothing is stable.
                stable.insert(child, 0);
                committed.insert(child, 0);
            }
        }

        // Condvar episodes and signal release counts:
        // notifies in record order against every closed wait span.
        let mut cvs: Vec<CvPlan> = vec![CvPlan::default(); seeds.n_condvars as usize];
        seeds.notifies.sort_unstable_by_key(|n| n.0);
        for &(_, t, broadcast, cv) in &seeds.notifies {
            let mut spanning =
                seeds.wait_spans.iter().filter(|(c, b, a, _)| *c == cv && *b <= t && *a >= t);
            let cv = &mut cvs[cv as usize];
            if broadcast {
                let mutex = spanning.clone().next().map_or(0, |s| s.3);
                cv.episodes.push(CvEpisode { parties: spanning.count() as u32 + 1, mutex });
            } else {
                cv.signal_released.push(u32::from(spanning.next().is_some()));
            }
        }
        let sem_initial = (0..seeds.n_sems as usize)
            .map(|i| seeds.sem_min.get(i).map_or(0, |&m| (-m).max(0) as u32))
            .collect();

        let plan = ReplayPlan {
            program: header.program.clone(),
            threads: plans,
            create_map: seeds.create_map,
            cvs,
            sem_initial,
            n_mutexes: seeds.n_mutexes,
            n_condvars: seeds.n_condvars,
            n_rwlocks: seeds.n_rwlocks,
            barrier_parties: seeds.barrier_parties,
            once_init: seeds.once_init,
            recorded_wall: header.wall_time,
            tapes: std::sync::OnceLock::new(),
        };
        Ok(Analysis { plan, stable, committed })
    }
}

/// Fold one call of thread `tf`: BEFORE `b` and its AFTER `a` (none for
/// a `thr_exit`).
fn settle(
    seeds: &mut Seeds,
    tf: &mut ThreadFold,
    b: &TraceRecord,
    a: Option<&TraceRecord>,
    real: bool,
) -> Result<(), VppbError> {
    let child = seeds.call(b, a)?;
    tf.seen = true;
    let before_pair = tf.ops.len();
    // The compute gap since the thread's previous event ended.
    if let Some(pe) = tf.prev_end {
        let gap = b.time - pe;
        if !gap.is_zero() {
            tf.ops.push(Action::Work(gap));
        }
    }
    let call = tf.ops.len();
    translate_call(b.kind, b.caller, a.copied(), &mut tf.ops)?;
    if tf.first_provisional.is_none() {
        tf.first_provisional = tf.ops[call..].iter().position(provisional_op).map(|k| call + k);
    }
    if let Some(child) = child {
        seeds.create_map.insert((b.thread, tf.creates.len() as u64), child);
        tf.creates.push((before_pair, child));
    }
    if !(real && a.is_some()) && tf.unstable_from.is_none() {
        tf.unstable_from = Some(before_pair);
    }
    tf.prev_end = Some(a.map_or(b.time, |a| a.time));
    Ok(())
}

impl ThreadFold {
    /// The thread's `(stable, committed)` op counts. Stable: the ops of
    /// closed pairs of real records, up to the first `thr_create` whose
    /// child has no entry address yet (a later record backfills it,
    /// changing the replayed create). Committed — the horizon a
    /// checkpoint chain may replay to (DESIGN.md §6f): the stable ops
    /// before the first provisional one. Both paths read it here.
    fn horizon(&self, entries: &BTreeMap<ThreadId, CodeAddr>) -> (usize, usize) {
        let real = self.unstable_from.unwrap_or(self.ops.len());
        let unresolved = self.creates.iter().find(|(_, child)| !entries.contains_key(child));
        let stable = unresolved.map_or(real, |&(at, _)| at.min(real));
        (stable, self.first_provisional.map_or(stable, |p| p.min(stable)))
    }
}

impl Seeds {
    /// Fold what call `b` (with AFTER `a`) adds besides ops; returns the
    /// child a `thr_create` created.
    fn call(
        &mut self,
        b: &TraceRecord,
        a: Option<&TraceRecord>,
    ) -> Result<Option<ThreadId>, VppbError> {
        self.objects(b);
        let Some(a) = a else { return Ok(None) };
        self.objects(a);
        let mut child = None;
        match (a.kind, a.result) {
            (EventKind::ThrCreate { .. }, EventResult::Created(c)) => child = Some(c),
            // A create whose AFTER lost its child id cannot be replayed:
            // the Simulator would not know which thread to spawn.
            // `validate()` does not see this (the pair is well-formed), so
            // say where, instead of panicking later.
            (EventKind::ThrCreate { .. }, _) => {
                return Err(Diagnostic::error(
                    DiagCode::OrphanCreate,
                    Pos::Record(a.seq),
                    format!("thr_create on {} returned no created-child id", a.thread),
                )
                .into())
            }
            (EventKind::SemPost { obj }, _) => *self.sem_slot(obj.index).0 += 1,
            (EventKind::SemWait { obj }, _)
            | (EventKind::SemTryWait { obj }, EventResult::Acquired(true)) => {
                let (level, min) = self.sem_slot(obj.index);
                *level -= 1;
                *min = (*min).min(*level);
            }
            _ => {}
        }
        match b.kind {
            // A timed-out wait was not *released* by anyone.
            EventKind::CondWait { cond, mutex } | EventKind::CondTimedWait { cond, mutex, .. }
                if !matches!(a.result, EventResult::TimedOut(true)) =>
            {
                self.wait_spans.push((cond.index, b.time, a.time, mutex.index));
            }
            EventKind::CondSignal { cond } => {
                self.notifies.push((b.seq, b.time, false, cond.index))
            }
            EventKind::CondBroadcast { cond } => {
                self.notifies.push((b.seq, b.time, true, cond.index))
            }
            _ => {}
        }
        Ok(child)
    }

    /// Track the object universe for one record.
    fn objects(&mut self, r: &TraceRecord) {
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

    fn sem_slot(&mut self, index: u32) -> (&mut i64, &mut i64) {
        let i = index as usize;
        if self.sem_level.len() <= i {
            self.sem_level.resize(i + 1, 0);
            self.sem_min.resize(i + 1, 0);
        }
        (&mut self.sem_level[i], &mut self.sem_min[i])
    }
}

/// Translate one recorded call into replay ops, applying the static rules.
fn translate_call(
    kind: EventKind,
    caller: CodeAddr,
    after: Option<TraceRecord>,
    ops: &mut Vec<Action>,
) -> Result<(), VppbError> {
    use EventKind::*;
    let call = |c: LibCall| Action::Call(c, caller);
    match kind {
        ThrCreate { bound, .. } => {
            // The function is resolved through the create map at spawn
            // time; the FuncId here is a placeholder rewritten by the
            // replay-app builder. We encode the *child* id via the map, so
            // the op only needs the bound flag. FuncId(0) is patched later.
            ops.push(call(LibCall::Create { func: vppb_threads::FuncId(usize::MAX), bound }));
        }
        ThrJoin { target } => ops.push(call(LibCall::Join(target))),
        ThrExit => ops.push(call(LibCall::Exit)),
        ThrYield => ops.push(call(LibCall::Yield)),
        ThrSetPrio { target, prio } => ops.push(call(LibCall::SetPrio { target, prio })),
        ThrSetConcurrency { n } => ops.push(call(LibCall::SetConcurrency(n))),
        ThrSuspend { target } => ops.push(call(LibCall::Suspend(target))),
        ThrContinue { target } => ops.push(call(LibCall::Continue(target))),
        IoWait { latency } => ops.push(call(LibCall::IoWait(latency))),

        MutexLock { obj } => ops.push(call(LibCall::MutexLock(MutexRef(obj.index)))),
        MutexUnlock { obj } => ops.push(call(LibCall::MutexUnlock(MutexRef(obj.index)))),
        MutexTryLock { obj } => {
            // Acquired in the log -> blocking lock; failed -> no action.
            if matches!(after.map(|a| a.result), Some(EventResult::Acquired(true))) {
                ops.push(call(LibCall::MutexLock(MutexRef(obj.index))));
            }
        }

        SemWait { obj } => ops.push(call(LibCall::SemWait(SemRef(obj.index)))),
        SemPost { obj } => ops.push(call(LibCall::SemPost(SemRef(obj.index)))),
        SemTryWait { obj } => {
            if matches!(after.map(|a| a.result), Some(EventResult::Acquired(true))) {
                ops.push(call(LibCall::SemWait(SemRef(obj.index))));
            }
        }

        CondWait { cond, mutex } => ops.push(call(LibCall::CondWait {
            cond: CondRef(cond.index),
            mutex: MutexRef(mutex.index),
        })),
        CondTimedWait { cond, mutex, timeout } => {
            let timed_out = matches!(after.map(|a| a.result), Some(EventResult::TimedOut(true)));
            if timed_out {
                // Replay "as a delay" (§3.2): release the mutex for the
                // recorded timeout, then re-acquire it.
                ops.push(call(LibCall::MutexUnlock(MutexRef(mutex.index))));
                ops.push(Action::Sleep(timeout));
                ops.push(call(LibCall::MutexLock(MutexRef(mutex.index))));
            } else {
                ops.push(call(LibCall::CondWait {
                    cond: CondRef(cond.index),
                    mutex: MutexRef(mutex.index),
                }));
            }
        }
        CondSignal { cond } => ops.push(call(LibCall::CondSignal(CondRef(cond.index)))),
        CondBroadcast { cond } => ops.push(call(LibCall::CondBroadcast(CondRef(cond.index)))),

        RwRdLock { obj } => ops.push(call(LibCall::RwRdLock(RwRef(obj.index)))),
        RwWrLock { obj } => ops.push(call(LibCall::RwWrLock(RwRef(obj.index)))),
        RwUnlock { obj } => ops.push(call(LibCall::RwUnlock(RwRef(obj.index)))),
        RwTryRdLock { obj } => {
            if matches!(after.map(|a| a.result), Some(EventResult::Acquired(true))) {
                ops.push(call(LibCall::RwRdLock(RwRef(obj.index))));
            }
        }
        RwTryWrLock { obj } => {
            if matches!(after.map(|a| a.result), Some(EventResult::Acquired(true))) {
                ops.push(call(LibCall::RwWrLock(RwRef(obj.index))));
            }
        }

        // Both replay directly: the engine's own semantics decide who trips
        // the barrier / runs the initializer, exactly like the recorded
        // 1-LWP run's semantics did (the party count and init latency ride
        // in the plan's object universe).
        BarrierWait { obj, .. } => ops.push(call(LibCall::BarrierWait(BarrierRef(obj.index)))),
        OnceCall { obj, .. } => ops.push(call(LibCall::OnceCall(OnceRef(obj.index)))),

        StartCollect | EndCollect | ThreadStart { .. } => {}
    }
    Ok(())
}
