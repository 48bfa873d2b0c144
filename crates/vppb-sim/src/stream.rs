//! Streaming ingestion and checkpointable incremental replay.
//!
//! `vppb watch` and the prediction service's follow mode feed a growing
//! log in chunks and want a fresh prediction after every append, with the
//! invariant that each rolling prediction is **bit-identical** to a cold
//! `simulate(analyze(salvage(parse(prefix))))` over the bytes received so
//! far. A [`StreamSession`] owns the raw bytes, re-derives the plan after
//! every append ([`StreamSession::append`]), and keeps per-configuration
//! *checkpoint chains* — [`vppb_machine::EngineSnapshot`]s of the replay
//! engine paused at the edge of the plan's *committed prefix* — so the
//! expensive replay resumes from the checkpoint instead of re-simulating
//! from time zero.
//!
//! ## Why this is exact (DESIGN.md §6f)
//!
//! A chunk boundary can tear a record, and the salvager closes the torn
//! log with synthesized unlocks/exits that the next chunk replaces. The
//! committed prefix of each thread therefore stops at the first salvaged
//! record, the first unpaired BEFORE, the first create whose child has
//! no entry address yet, and the first condvar/semaphore op (whose
//! replay-rule seeds and inferred initial counts can change as the log
//! grows); the analyzer computes it in one place for every path. Within
//! that prefix the per-thread ops are *append-stable*: later chunks
//! extend them without rewriting. The chain replays only
//! committed ops — each thread's tape is capped at its commit horizon,
//! where its [`TapeCursor`] returns [`Action::Stall`] — so a snapshot
//! paused before the first stall event is a true intermediate state of
//! the cold replay of **every** future prefix. Completion then moves the
//! paused cursors onto the full tapes at the same positions, reseeds the
//! semaphores (no sem op ever ran, so no waiter exists), and runs to the
//! end with fresh replay rules (no cv op ever ran, so fresh rules equal
//! the cold rules state). Every segment runs through
//! [`crate::replay_with_engine`], the cold replay's own setup. Any
//! structural surprise — a shrunken plan, a bootstrap stall — simply
//! falls back to the cold path, which is the definition of correct.

use crate::feed::{FeedStep, IncrementalFeed};
use crate::plan::ReplayPlan;
use crate::sim::{replay_with_engine, simulate_plan, tape_app};
use crate::sorter::{analyze, fold_log, Analysis};
use std::collections::BTreeMap;
use std::sync::Arc;
use vppb_machine::{run_stream, EngineSnapshot, RunResult, StreamControl, StreamOutcome};
use vppb_model::binlog::{self, CanonicalHasher};
use vppb_model::{chunk, ContentId, SimParams, StableHasher, ThreadId, TraceLog, VppbError};
use vppb_recorder::{load_lenient_traced, LoadedLog};
use vppb_threads::{Action, App, LibCall, TapeCursor};

/// Everything a session derives from the bytes received so far.
pub struct PlanState {
    /// The lenient-loaded log with its salvage report and diagnostics —
    /// exactly what a cold load of the same bytes would produce.
    pub loaded: LoadedLog,
    /// The replay plan of the current prefix.
    pub plan: ReplayPlan,
    /// Per-thread committed op counts (stable prefix ∩ pre-cv/sem prefix).
    pub(crate) committed: BTreeMap<ThreadId, usize>,
    /// How many leading records of the log are final: committed records
    /// verbatim, which every later state of the session begins with
    /// while the fast path serves it. A full re-derive carries 0.
    pub stable: usize,
}

/// One per-configuration checkpoint: the replay engine paused at the edge
/// of the committed prefix, plus the plan thread order its `FuncId`s were
/// numbered under (a later chunk can reveal a thread id that sorts between
/// existing ones, shifting every `FuncId` after it).
struct Chain {
    snapshot: EngineSnapshot,
    funcs: Vec<ThreadId>,
}

/// Converted tape op lists, cached across predictions. In fast-feed
/// mode every thread's plan ops are append-only up to the committed
/// horizon, so only the tail past the cached prefix needs re-converting;
/// anything that breaks that guarantee (a full re-derive, a shift in the
/// plan's thread order) discards the cache.
struct ConvCache {
    /// Plan thread order the cached `FuncId` patches were numbered under.
    order: Vec<ThreadId>,
    /// Per thread: converted ops for the committed prefix, plus the
    /// number of Create ops consumed inside it (the `create_map` key
    /// sequence resumes from there).
    per: BTreeMap<ThreadId, (Vec<Action>, u64)>,
}

/// A growing log plus the checkpoint chains replaying it incrementally.
#[derive(Default)]
pub struct StreamSession {
    bytes: Vec<u8>,
    state: Option<PlanState>,
    chains: BTreeMap<u64, Chain>,
    feed: IncrementalFeed,
    conv_cache: Option<ConvCache>,
    /// The current log's content id, resumed across appends.
    id: CanonicalHasher,
}

impl StreamSession {
    /// An empty session.
    pub fn new() -> StreamSession {
        StreamSession::default()
    }

    /// Rebuild a session from its write-ahead journal: replay the exact
    /// chunk sequence the live session acknowledged. Chunk boundaries are
    /// preserved and per-chunk parse failures are swallowed just as the
    /// live path swallows them (the bytes stay buffered either way), so
    /// the rebuilt session's byte buffer, plan state and feed mode are
    /// what an uninterrupted session holding the same appends would have
    /// — and its rolling predictions are therefore bit-identical.
    pub fn rebuild<I>(chunks: I) -> StreamSession
    where
        I: IntoIterator,
        I::Item: AsRef<[u8]>,
    {
        let mut session = StreamSession::new();
        for chunk in chunks {
            let _ = session.append(chunk.as_ref());
        }
        session
    }

    /// All bytes received so far.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The current plan state, if at least one append parsed.
    pub fn state(&self) -> Option<&PlanState> {
        self.state.as_ref()
    }

    /// The current (salvaged) log, if any.
    pub fn log(&self) -> Option<&TraceLog> {
        self.state.as_ref().map(|s| &s.loaded.log)
    }

    /// DES event count of the stored checkpoint for this configuration —
    /// `None` when the last prediction fell back to the cold path.
    /// Diagnostics for `vppb watch` and the streaming bench: a healthy
    /// chain advances its checkpoint as the log grows.
    pub fn checkpoint_events(&self, params: &SimParams) -> Option<u64> {
        self.chains.get(&params.fingerprint()).map(|c| c.snapshot.des_events())
    }

    /// Append a chunk of raw log bytes and re-derive the plan. On parse
    /// failure (e.g. a torn JSON document) the bytes are retained — a
    /// later append can complete them — and the previous plan state stays
    /// in force.
    ///
    /// For clean v2 binary streams the [`IncrementalFeed`] fast path
    /// derives the new state in O(tail); anything it does not model falls
    /// back to a bit-identical full re-derive over the whole buffer.
    pub fn append(&mut self, chunk: &[u8]) -> Result<&PlanState, VppbError> {
        self.bytes.extend_from_slice(chunk);
        let state = match self.feed.append(&self.bytes, self.state.as_mut())? {
            FeedStep::Fast(state) => *state,
            FeedStep::Full => {
                // A full re-derive may rewrite ops wholesale; the cached
                // converted prefixes are no longer trustworthy.
                self.conv_cache = None;
                derive_full(&self.bytes)?
            }
        };
        self.state = Some(state);
        Ok(self.state.as_ref().unwrap())
    }

    /// Content id of the current (salvaged) log: the [`ContentId`] of its
    /// canonical `binlog` encoding, which is never built. The hash
    /// resumes from the stable prefix ([`PlanState::stable`]) the last
    /// call left, so on a clean v2 stream an append hashes only its new
    /// records and the salvaged tail.
    pub fn content_id(&mut self) -> Result<ContentId, VppbError> {
        let state = self
            .state
            .as_ref()
            .ok_or_else(|| VppbError::MalformedLog("streaming session has no log yet".into()))?;
        self.id.id(&state.loaded.log, state.stable)
    }

    /// How many records the last [`Self::content_id`] call hashed.
    /// Diagnostics, like [`Self::checkpoint_events`]: on a clean v2
    /// stream it counts the records past the previous stable prefix.
    pub fn hashed_records(&self) -> usize {
        self.id.hashed()
    }

    /// Whether appends are served by the incremental fast path
    /// ([`IncrementalFeed`]): from the first append that holds a v2
    /// binary preamble for as long as every frame is clean — never for a
    /// text or JSON stream, and never again once a damaged frame, or a
    /// record shape the fast path does not model, has arrived.
    pub fn incremental(&self) -> bool {
        self.feed.is_fast()
    }

    /// Predict the replay of the current prefix under `params`,
    /// bit-identical to a cold [`cold_run`] over [`Self::bytes`]. Uses the
    /// configuration's checkpoint chain when possible and falls back to
    /// the cold path otherwise.
    pub fn predict(&mut self, params: &SimParams) -> Result<RunResult, VppbError> {
        if self.state.is_none() {
            return Err(VppbError::MalformedLog("streaming session has no log yet".into()));
        }
        let key = params.fingerprint();
        if let Some(result) = self.advance_chain(key, params) {
            return Ok(result);
        }
        let state = self.state.as_ref().unwrap();
        simulate_plan(&state.plan, &state.loaded.log, params)
    }

    /// Advance the chain for `key` over the current plan and produce the
    /// completed replay, or `None` to fall back to a cold run. Errors are
    /// deliberately swallowed into `None`: the cold path re-derives the
    /// same outcome (including the same error) from first principles.
    fn advance_chain(&mut self, key: u64, params: &SimParams) -> Option<RunResult> {
        let state = self.state.as_ref()?;
        let plan = &state.plan;
        let source_map = state.loaded.log.header.source_map.clone();
        let ops = convert_plan_ops_cached(&mut self.conv_cache, plan, &state.committed).ok()?;
        let capped: Vec<TapeCursor> = plan
            .threads
            .iter()
            .zip(&ops)
            .map(|(tp, ops)| {
                TapeCursor::capped(ops.clone(), state.committed.get(&tp.id).copied().unwrap_or(0))
            })
            .collect();
        let probe_app = tape_app(plan, capped.iter().cloned(), source_map.clone()).ok()?;

        // Resume point: the existing checkpoint rebound onto the new plan,
        // or a fresh bootstrap when there is none (or rebinding fails).
        let resume = match self.chains.get(&key) {
            Some(chain) => match rebind_onto(chain, plan, &capped) {
                Some(s) => Some(s),
                None => {
                    self.chains.remove(&key);
                    None
                }
            },
            None => None,
        };

        // Probe: run the committed plan until some thread stalls at its
        // commit horizon. Event M is the first uncommitted decision.
        let control = StreamControl { resume_from: resume.map(Box::new), stop_before: None };
        let m = match run_chain_segment(&probe_app, plan, params, control).ok()? {
            StreamOutcome::Stalled { event } => event,
            // Done: the committed plan ran every thread to its exit. Caps
            // cut at the first cv/sem op, so full caps mean the plan has
            // none at all — stale semaphore seeds and fresh rules are
            // unobservable, and the probe just performed the complete
            // cold replay. Its result IS the prediction (the log is
            // finished; keep no checkpoint).
            StreamOutcome::Done(result) => {
                self.chains.remove(&key);
                return Some(*result);
            }
            _ => {
                self.chains.remove(&key);
                return None;
            }
        };
        if m == 0 {
            // Stalled during bootstrap: there is no clean pre-stall state.
            self.chains.remove(&key);
            return None;
        }

        // Re-run to the boundary *before* the stall: this snapshot carries
        // no stall artifacts and is a true cold intermediate state.
        let resume = match self.chains.get(&key) {
            Some(chain) => Some(Box::new(rebind_onto(chain, plan, &capped)?)),
            None => None,
        };
        let control = StreamControl { resume_from: resume, stop_before: Some(m) };
        let snapshot = match run_chain_segment(&probe_app, plan, params, control).ok()? {
            StreamOutcome::Paused(s) => *s,
            _ => {
                self.chains.remove(&key);
                return None;
            }
        };

        // Completion: finish the replay from the checkpoint on the full
        // (uncapped) tapes, with fresh rules and reseeded semaphores.
        let kept = snapshot.try_clone()?;
        let funcs: Vec<ThreadId> = plan.threads.iter().map(|t| t.id).collect();
        let mut completion = snapshot;
        completion.reseed_sems(&plan.sem_initial).ok()?;
        let full: Vec<TapeCursor> = ops.into_iter().map(TapeCursor::new).collect();
        completion.rebind_tapes(&full).ok()?;
        let full_app = tape_app(plan, full, source_map).ok()?;
        let control = StreamControl { resume_from: Some(Box::new(completion)), stop_before: None };
        match run_chain_segment(&full_app, plan, params, control) {
            Ok(StreamOutcome::Done(result)) => {
                self.chains.insert(key, Chain { snapshot: kept, funcs });
                Some(*result)
            }
            _ => {
                self.chains.remove(&key);
                None
            }
        }
    }
}

/// Full (non-incremental) derivation of a session's plan state: lenient
/// load, salvage, and the analyzer's fold over the salvaged log, which
/// also yields the committed horizon. The feed's fallback target and the
/// baseline the fast path must bit-match.
fn derive_full(bytes: &[u8]) -> Result<PlanState, VppbError> {
    let (loaded, synthetic) = load_lenient_traced(bytes)?;
    let Analysis { plan, committed, .. } = fold_log(&loaded.log, &synthetic)?;
    Ok(PlanState { loaded, plan, committed, stable: 0 })
}

/// Cold reference run: parse, salvage, analyze and replay `bytes` from
/// scratch — the function every rolling prediction must bit-match.
pub fn cold_run(bytes: &[u8], params: &SimParams) -> Result<RunResult, VppbError> {
    let (loaded, _) = load_lenient_traced(bytes)?;
    simulate_plan(&analyze(&loaded.log)?, &loaded.log, params)
}

/// Convert every thread's plan ops into tape op lists, in plan order,
/// through the same [`ReplayPlan::compile_ops`] the cold tapes use — so
/// the committed prefix of the op stream is byte-for-byte the cold one.
/// This is the only O(total ops) step of app assembly, so it runs once
/// per prediction (the capped and uncapped tapes share the same lists)
/// and carries a cache across predictions: the converted prefix up to
/// each thread's committed horizon is append-stable in fast-feed mode,
/// so only the op tail past it is converted anew. The cache
/// self-invalidates when the plan's thread order shifts, and
/// [`StreamSession::append`] discards it on any full re-derive.
fn convert_plan_ops_cached(
    cache: &mut Option<ConvCache>,
    plan: &ReplayPlan,
    committed: &BTreeMap<ThreadId, usize>,
) -> Result<Vec<Arc<[Action]>>, VppbError> {
    let order: Vec<ThreadId> = plan.threads.iter().map(|t| t.id).collect();
    let func_of = plan.func_ids();
    let mut cached = match cache.take() {
        Some(c) if c.order == order => c.per,
        _ => BTreeMap::new(),
    };
    let mut out = Vec::with_capacity(plan.threads.len());
    let mut next = BTreeMap::new();
    for tp in &plan.threads {
        let (mut ops, mut seq) = cached.remove(&tp.id).unwrap_or_default();
        if ops.len() > tp.ops.len() {
            // The plan shrank under the cache — never the case in fast
            // mode, so distrust everything cached for this thread.
            ops.clear();
            seq = 0;
        }
        let from = ops.len();
        plan.compile_ops(&func_of, tp.id, &tp.ops[from..], &mut seq, &mut ops)?;
        out.push(ops[..].into());
        // Trim the cache entry back to the committed horizon — the part
        // guaranteed stable under future appends — rolling the create
        // sequence back past the trimmed tail.
        let cut = committed.get(&tp.id).copied().unwrap_or(0).min(ops.len());
        let trimmed = ops[cut..]
            .iter()
            .filter(|a| matches!(a, Action::Call(LibCall::Create { .. }, _)))
            .count() as u64;
        ops.truncate(cut);
        next.insert(tp.id, (ops, seq - trimmed));
    }
    *cache = Some(ConvCache { order, per: next });
    Ok(out)
}

/// Clone a checkpoint and rebind it onto the current plan: remap `FuncId`s
/// through the old plan order, then move every thread onto its tape in
/// `tapes` at the same position. `None` when the snapshot cannot be
/// carried forward.
fn rebind_onto(chain: &Chain, plan: &ReplayPlan, tapes: &[TapeCursor]) -> Option<EngineSnapshot> {
    let func_of = plan.func_ids();
    let table =
        chain.funcs.iter().map(|id| func_of.get(id).copied()).collect::<Option<Vec<_>>>()?;
    let mut snap = chain.snapshot.try_clone()?;
    snap.remap_funcs(|f| table.get(f.0).copied().unwrap_or(f));
    snap.rebind_tapes(tapes).ok()?;
    Some(snap)
}

/// Replay one chain segment under exactly the cold replay configuration.
fn run_chain_segment(
    app: &App,
    plan: &ReplayPlan,
    params: &SimParams,
    control: StreamControl,
) -> Result<StreamOutcome, VppbError> {
    replay_with_engine(app, plan, params, None, |app, cfg, opts| {
        run_stream(app, cfg, opts, control)
    })
}

/// A stable field-wise fingerprint of a completed run — every field a
/// prediction exposes (wall time, DES cost, CPU busy vector, the audit,
/// and the full trace). Two runs fingerprint equal iff they are
/// bit-identical for every consumer of a prediction.
pub fn result_fingerprint(r: &RunResult) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(r.wall_time.nanos());
    h.write_u64(r.des_events);
    h.write_u32(r.n_threads);
    h.write_u64(r.total_cpu_time.nanos());
    h.write_len(r.cpu_busy.len());
    for d in &r.cpu_busy {
        h.write_u64(d.nanos());
    }
    h.write_u32(r.audit.checks);
    h.write_len(r.audit.violations.len());
    for v in &r.audit.violations {
        h.write_str(&v.to_string());
    }
    let t = &r.trace;
    h.write_str(&t.program);
    h.write_u32(t.cpus);
    h.write_u64(t.wall_time.nanos());
    h.write_len(t.transitions.len());
    for tr in &t.transitions {
        h.write_u64(tr.time.nanos());
        h.write_u32(tr.thread.0);
        h.write_str(&format!("{:?}", tr.state));
    }
    h.write_len(t.events.len());
    for e in &t.events {
        h.write_u64(e.start.nanos());
        h.write_u64(e.end.nanos());
        h.write_u32(e.thread.0);
        h.write_u32(e.cpu.0);
        h.write_u64(e.caller.0);
        h.write_str(&format!("{:?}", e.kind));
    }
    h.write_len(t.threads.len());
    for (id, info) in &t.threads {
        h.write_u32(id.0);
        h.write_str(&info.start_fn);
        h.write_u64(info.started.nanos());
        h.write_u64(info.ended.nanos());
        h.write_u64(info.cpu_time.nanos());
    }
    h.finish()
}

/// The chunk-equivalence check the test battery and `vppb fuzz --chunked`
/// share: split `bytes` at record boundaries (seeded; every boundary for
/// small logs) and run [`check_chunks_equivalence`] over the chunks.
pub fn check_chunked_equivalence(
    bytes: &[u8],
    params: &SimParams,
    seed: u64,
) -> Result<usize, String> {
    check_chunks_equivalence(&chunk::split_random(bytes, seed, 8), params)
}

/// Feed `chunks` through a [`StreamSession`] and at every chunk boundary
/// require of the concatenated prefix that
///
/// * the session's salvaged log (records, salvage report, diagnostics)
///   equals a cold load's;
/// * the session's plan and committed horizon equal the full re-derive's;
/// * the session's resumed content id equals the hash of the cold log's
///   canonical encoding;
/// * each thread's committed ops are a prefix of its ops in the plan of
///   the complete log (when that log analyzes);
/// * the rolling prediction equals a cold run.
///
/// Returns the number of boundaries checked, or a description of the
/// first divergence.
pub fn check_chunks_equivalence(chunks: &[Vec<u8>], params: &SimParams) -> Result<usize, String> {
    if chunks.is_empty() {
        return Err("no chunks: empty input".into());
    }
    let complete = derive_full(&chunks.concat()).ok();
    let mut session = StreamSession::new();
    let mut prefix: Vec<u8> = Vec::new();
    let mut checked = 0usize;
    for (i, part) in chunks.iter().enumerate() {
        let at = format!("chunk {i}/{}", chunks.len());
        prefix.extend_from_slice(part);
        let append_err = session.append(part).err();
        let mut cold_id = None;
        if let (None, Some(state), Ok((cold, synthetic))) =
            (&append_err, session.state(), load_lenient_traced(&prefix))
        {
            cold_id =
                Some(binlog::encode(&cold.log).map(|canonical| ContentId::of_bytes(&canonical)));
            let fast = &state.loaded;
            if fast.log != cold.log
                || fast.salvage != cold.salvage
                || fast.diagnostics != cold.diagnostics
            {
                return Err(format!(
                    "{at}: the session's salvaged log ({} records) differs from a cold load \
                     ({} records)",
                    fast.log.len(),
                    cold.log.len(),
                ));
            }
            if let Ok(full) = fold_log(&cold.log, &synthetic) {
                if state.plan != full.plan || state.committed != full.committed {
                    return Err(format!(
                        "{at}: the session's plan or committed horizon differs from the full \
                         re-derive's"
                    ));
                }
            }
            if let Some(complete) = &complete {
                check_horizon(state, &complete.plan).map_err(|e| format!("{at}: {e}"))?;
            }
        }
        if let Some(cold_id) = cold_id {
            let render = |id: Result<ContentId, VppbError>| {
                id.map_or_else(|e| format!("error: {e}"), |id| id.to_string())
            };
            let (a, b) = (render(session.content_id()), render(cold_id));
            if a != b {
                return Err(format!(
                    "{at}: the session's content id {a} differs from a cold load's {b}"
                ));
            }
        }
        let inc = match append_err {
            Some(e) => Err(e),
            None => session.predict(params),
        };
        let cold = cold_run(&prefix, params);
        match (inc, cold) {
            (Ok(a), Ok(b)) => {
                let (fa, fb) = (result_fingerprint(&a), result_fingerprint(&b));
                if fa != fb {
                    return Err(format!(
                        "{at}: incremental {fa:016x} != cold {fb:016x} (wall {} vs {}, des {} vs \
                         {})",
                        a.wall_time, b.wall_time, a.des_events, b.des_events,
                    ));
                }
            }
            (Err(ea), Err(eb)) => {
                let (sa, sb) = (ea.to_string(), eb.to_string());
                if sa != sb {
                    return Err(format!("{at}: incremental error {sa:?} != cold error {sb:?}"));
                }
            }
            (Ok(_), Err(e)) => {
                return Err(format!("{at}: incremental succeeded but cold failed: {e}"))
            }
            (Err(e), Ok(_)) => {
                return Err(format!("{at}: cold succeeded but incremental failed: {e}"))
            }
        }
        checked += 1;
    }
    Ok(checked)
}

/// The horizon contract: every thread's committed ops are a prefix of its
/// ops in the plan of the complete log, so no later append rewrites them.
fn check_horizon(state: &PlanState, complete: &ReplayPlan) -> Result<(), String> {
    for tp in &state.plan.threads {
        let n = state.committed.get(&tp.id).copied().unwrap_or(0);
        let fin = complete.thread(tp.id).map_or(&[][..], |t| &t.ops[..]);
        if n > tp.ops.len() || n > fin.len() || tp.ops[..n] != fin[..n] {
            return Err(format!(
                "{} commits {n} ops that are not a prefix of its {} ops in the complete log",
                tp.id,
                fin.len()
            ));
        }
    }
    Ok(())
}
