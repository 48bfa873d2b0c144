//! The prediction service: uploaded logs, the content-addressed plan
//! cache, and a memo of finished predictions.
//!
//! Everything a prediction returns is a pure function of (salvaged log
//! bytes, simulation parameters) — the simulator is deterministic by
//! construction (the sweep engine's bit-identical regression test pins
//! it). The service exploits that twice:
//!
//! * the **plan cache** ([`PlanCache`]) shares the `analyze` output per
//!   distinct log, keyed by the content hash of the salvaged log's
//!   canonical binary encoding, and
//! * the **result memo** shares whole prediction responses per
//!   `(log, params-fingerprint)` pair, so a repeated query costs a hash
//!   lookup instead of a replay.
//!
//! Cached and cold answers are therefore bit-identical by design, and
//! both are bit-identical to the `vppb predict` CLI: each divides the
//! predicted 1-CPU wall of the same scheduling model by the N-CPU wall
//! (`vppb_sim::reference_params` and `vppb_sim::speedup`).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use vppb_model::{
    binlog, ConfigError, ContentId, LwpPolicy, ModelKind, SalvageReport, SchedMetrics, SimParams,
    Time, TraceLog, Vfs, VppbError,
};
use vppb_recorder::load_lenient_bytes;
use vppb_sim::{
    analyze, reference_params, sim_params, simulate_plan, simulate_plan_metrics, speedup,
    sweep_plan, CacheStats, PlanCache, RunResult, SweepGrid, SweepPoint,
};

use crate::persist::{Durability, DurabilityStats, StartupReport};

/// Entries the result memo holds before being wholesale cleared (the memo
/// is a pure optimization: clearing costs one recompute per key).
const RESULT_MEMO_CAP: usize = 8192;
/// The longest `delay_ms` a predict request may ask for: a worker sleeps
/// that long, and a graceful drain waits for it.
const MAX_DELAY_MS: u64 = 10_000;

/// A service-level failure, mapped onto an HTTP status by the server.
#[derive(Debug)]
pub enum ServeError {
    /// The request itself is unusable (bad id, bad grid, unsalvageable
    /// log bytes) — 400.
    BadRequest(String),
    /// The named log is not stored — 404.
    NotFound(String),
    /// The pipeline failed on stored state — 500.
    Internal(String),
    /// The durable store is degraded: mutating endpoints are disabled
    /// until an operator restarts against a healthy disk — 503.
    Unavailable(String),
}

impl ServeError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadRequest(_) => 400,
            ServeError::NotFound(_) => 404,
            ServeError::Internal(_) => 500,
            ServeError::Unavailable(_) => 503,
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        match self {
            ServeError::BadRequest(m)
            | ServeError::NotFound(m)
            | ServeError::Internal(m)
            | ServeError::Unavailable(m) => m,
        }
    }
}

/// Where a served prediction came from — travels as the `x-vppb-cache`
/// response header; the body is bit-identical either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheHit {
    /// Computed fresh on this request.
    Miss,
    /// Served from the in-memory result memo.
    Memory,
    /// Served from a memo entry restored off the spill journal after a
    /// restart — the disk-warm path.
    Disk,
}

impl CacheHit {
    /// The `x-vppb-cache` header value.
    pub fn header(self) -> &'static str {
        match self {
            CacheHit::Miss => "miss",
            CacheHit::Memory => "hit",
            CacheHit::Disk => "disk",
        }
    }

    /// Whether the memo answered at all.
    pub fn is_hit(self) -> bool {
        !matches!(self, CacheHit::Miss)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message())
    }
}

/// `POST /logs` response.
#[derive(Debug, Clone, serde::Serialize)]
pub struct UploadResponse {
    /// Content id of the salvaged log — the handle every later query uses.
    pub id: String,
    /// Recorded program name.
    pub program: String,
    /// Records in the (possibly salvaged) log.
    pub records: usize,
    /// Whether the upload needed no recovery at all.
    pub clean: bool,
    /// Decoder diagnostics, rendered, in input order.
    pub diagnostics: Vec<String>,
    /// Structural repairs applied after decoding.
    pub salvage: SalvageReport,
}

/// `POST /predict` request body. Every field except `id` is optional in
/// the JSON; absent fields take the defaults below. The machine fields
/// become simulation parameters through [`vppb_sim::sim_params`], so a
/// value out of its bounds is a 400 that names the field, before any
/// replay.
#[derive(Debug, Clone)]
pub struct PredictRequest {
    /// Content id returned by `POST /logs`.
    pub id: String,
    /// Simulated processor count, 1 to 1024 (default 8).
    pub cpus: u32,
    /// Fixed LWP-pool size, at most 1024; 0 means 1 (default: one LWP per
    /// thread, like the CLI).
    pub lwps: Option<u32>,
    /// Cross-CPU communication delay in µs, at most 1 s (default: the
    /// machine default, 1 µs).
    pub comm_delay_us: Option<u64>,
    /// User-level scheduling model, `"solaris"` (default) or `"async"`.
    pub model: ModelKind,
    /// Test/ops knob: hold the worker this long before predicting, to
    /// make deadlines and backpressure observable deterministically. At
    /// most 10 s; a longer hold is a bad request.
    pub delay_ms: u64,
    /// Test knob: arm the engine's panic fault after N events — the
    /// request must die with a 500 while the server keeps serving.
    pub panic_after_events: Option<u64>,
}

/// Read an optional field from a JSON object value.
fn opt_field<T: serde::Deserialize>(
    v: &serde::Value,
    key: &str,
) -> Result<Option<T>, serde::DeError> {
    match v.get(key) {
        None | Some(serde::Value::Null) => Ok(None),
        Some(x) => T::from_value(x).map(Some),
    }
}

impl serde::Deserialize for PredictRequest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        if !matches!(v, serde::Value::Object(_)) {
            return Err(serde::DeError::msg("predict request must be a JSON object"));
        }
        Ok(PredictRequest {
            id: opt_field::<String>(v, "id")?
                .ok_or_else(|| serde::DeError::msg("missing field `id`"))?,
            cpus: opt_field(v, "cpus")?.unwrap_or(8),
            lwps: opt_field(v, "lwps")?,
            comm_delay_us: opt_field(v, "comm_delay_us")?,
            model: match opt_field::<String>(v, "model")? {
                None => ModelKind::SolarisTs,
                Some(m) => m.parse().map_err(serde::DeError::msg)?,
            },
            delay_ms: opt_field(v, "delay_ms")?.unwrap_or(0),
            panic_after_events: opt_field(v, "panic_after_events")?,
        })
    }
}

impl PredictRequest {
    /// A predict request with defaults for everything but id and CPUs.
    pub fn new(id: impl Into<String>, cpus: u32) -> PredictRequest {
        PredictRequest {
            id: id.into(),
            cpus,
            lwps: None,
            comm_delay_us: None,
            model: ModelKind::SolarisTs,
            delay_ms: 0,
            panic_after_events: None,
        }
    }

    /// The simulation parameters this request describes, built by the
    /// builder the CLI flags go through, so service and CLI agree.
    fn params(&self) -> Result<SimParams, ServeError> {
        let lwps = self.lwps.map_or(LwpPolicy::PerThread, LwpPolicy::Fixed);
        let mut params =
            sim_params(self.cpus, lwps, self.comm_delay_us, self.model).map_err(bad_config)?;
        params.faults.panic_after_events = self.panic_after_events;
        Ok(params)
    }
}

/// `POST /predict` response. Deliberately carries no cache marker: hit
/// and miss answers must be byte-identical (the marker travels as the
/// `x-vppb-cache` response header instead). `Deserialize` exists for the
/// memo spill journal: a restored response must re-serialize to the
/// exact bytes the client saw before the restart.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PredictResponse {
    /// Content id the prediction is for.
    pub id: String,
    /// Recorded program name.
    pub program: String,
    /// Simulated processor count.
    pub cpus: u32,
    /// User-level scheduling model the prediction ran under.
    pub model: String,
    /// Predicted N-CPU wall time, virtual ns.
    pub wall_ns: u64,
    /// Predicted 1-CPU wall time the speed-up divides by, virtual ns.
    pub uni_wall_ns: u64,
    /// Table-1-style speed-up (1-CPU wall / N-CPU wall).
    pub speedup: f64,
    /// Whether the N-CPU replay's conservation-law audit came back clean.
    pub audit_clean: bool,
    /// Discrete-event steps of the N-CPU replay.
    pub des_events: u64,
}

/// `POST /sweep` request body: a [`SweepGrid`] over a stored log. The
/// grid expands through [`SweepGrid::try_configs`]: 1 to 4096 cells,
/// each bounded like a [`PredictRequest`], or a 400 before any replay.
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// Content id returned by `POST /logs`.
    pub id: String,
    /// Simulated processor counts, each 1 to 1024 (default `[1, 2, 4, 8]`).
    pub cpus: Vec<u32>,
    /// LWP policies: `"per-thread"`, `"follow"`, or a fixed count of at
    /// most 1024.
    pub lwps: Option<Vec<String>>,
    /// Cross-CPU communication delays in µs, each at most 1 s.
    pub comm_delay_us: Option<Vec<u64>>,
    /// Scheduling models: `"solaris"` and/or `"async"` (default: solaris).
    pub model: Option<Vec<String>>,
    /// Worker threads for the sweep (0 = all cores; more than the cores
    /// runs on all cores).
    pub jobs: usize,
}

impl serde::Deserialize for SweepRequest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        if !matches!(v, serde::Value::Object(_)) {
            return Err(serde::DeError::msg("sweep request must be a JSON object"));
        }
        Ok(SweepRequest {
            id: opt_field::<String>(v, "id")?
                .ok_or_else(|| serde::DeError::msg("missing field `id`"))?,
            cpus: opt_field(v, "cpus")?.unwrap_or_else(|| vec![1, 2, 4, 8]),
            lwps: opt_field(v, "lwps")?,
            comm_delay_us: opt_field(v, "comm_delay_us")?,
            model: opt_field(v, "model")?,
            jobs: opt_field(v, "jobs")?.unwrap_or(0),
        })
    }
}

/// `POST /sweep` response: the speed-up surface.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SweepResponse {
    /// Content id the sweep ran over.
    pub id: String,
    /// Recorded program name.
    pub program: String,
    /// Predicted 1-CPU wall time the speed-ups divide by, ns.
    pub uni_wall_ns: u64,
    /// Distinct runs simulated ([`vppb_sim::SweepOutcome::unique_runs`]).
    pub unique_runs: usize,
    /// Worker threads used.
    pub workers: usize,
    /// One row per grid cell, in grid order.
    pub points: Vec<SweepPoint>,
}

/// Result-memo counters for `GET /metrics`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ResultCacheStats {
    /// Predictions answered from the memo.
    pub hits: u64,
    /// Predictions that had to simulate.
    pub misses: u64,
    /// Responses currently memoized.
    pub entries: usize,
    /// Hits over lookups, 0.0 before the first lookup.
    pub hit_rate: f64,
}

/// `GET /metrics` service half (the server wraps HTTP counters around it).
#[derive(Debug, Clone, serde::Serialize)]
pub struct ServiceMetrics {
    /// Distinct logs stored.
    pub logs_stored: usize,
    /// Live streaming sessions (`POST /logs/{id}/append` handles).
    pub streams: usize,
    /// `POST /logs` requests accepted.
    pub uploads: u64,
    /// `POST /logs/{id}/append` chunks accepted.
    pub appends: u64,
    /// Predictions served (hit or cold).
    pub predictions: u64,
    /// Sweeps served.
    pub sweeps: u64,
    /// Result-memo counters.
    pub result_cache: ResultCacheStats,
    /// Plan-cache counters.
    pub plan_cache: CacheStats,
    /// Cold runs whose conservation-law audit came back clean.
    pub audits_clean: u64,
    /// Cold runs whose audit reported a violation.
    pub audits_violated: u64,
    /// Scheduling counters aggregated over every cold prediction run
    /// (sums; queue depths and thread counts as maxima; the per-object
    /// and per-CPU vectors are left empty in the rollup).
    pub sched: SchedMetrics,
    /// Durable-store counters — absent when serving memory-only.
    pub durability: Option<DurabilityStats>,
}

/// A stored log: the salvaged log plus what recovery reported, and the
/// raw bytes so a streaming session can grow from them.
struct StoredLog {
    log: TraceLog,
    salvage: SalvageReport,
    diagnostics: Vec<String>,
    raw: Vec<u8>,
}

impl StoredLog {
    /// Lenient-load raw log bytes: what an upload, a store fault-in and a
    /// grown stream version all store.
    fn from_raw(raw: Vec<u8>) -> Result<StoredLog, VppbError> {
        let loaded = load_lenient_bytes(&raw)?;
        Ok(StoredLog {
            diagnostics: loaded.diagnostics.iter().map(|d| d.to_string()).collect(),
            log: loaded.log,
            salvage: loaded.salvage,
            raw,
        })
    }
}

/// A grown stream version, registered without a copy: the first `len`
/// bytes of the buffer of the stream `stream`. [`PredictionService`]
/// builds its [`StoredLog`] from that prefix on first use.
#[derive(Clone, Copy)]
struct Version {
    stream: ContentId,
    len: usize,
}

/// A live streaming session behind `POST /logs/{id}/append`. The stream
/// handle is the content id of the *first* uploaded chunk and never
/// changes; `current` is re-keyed to the grown content after each append,
/// so an append invalidates only the memoized prediction (keyed by
/// content) while the session's engine checkpoints carry over.
struct FollowStream {
    session: vppb_sim::StreamSession,
    /// Content id of the current (grown, salvaged) log.
    current: ContentId,
}

/// `POST /logs/{id}/append` response.
#[derive(Debug, Clone, serde::Serialize)]
pub struct AppendResponse {
    /// The stable stream handle (the id of the first uploaded chunk).
    pub id: String,
    /// Content id of the grown log — what plain `POST /predict` would use,
    /// and what an upload of the same content returns. The session
    /// resumes its hash from the log's stable prefix
    /// ([`vppb_sim::StreamSession::content_id`]), so an append hashes
    /// only its new records and the salvaged tail.
    pub content_id: String,
    /// Raw bytes buffered in the stream so far.
    pub bytes: usize,
    /// Records in the grown (possibly salvaged) log.
    pub records: usize,
    /// Whether this parse needed no recovery (a torn trailing record
    /// flips this off until the next append completes it).
    pub clean: bool,
    /// Decoder diagnostics for the current parse, rendered.
    pub diagnostics: Vec<String>,
    /// Structural repairs applied after decoding the current buffer.
    pub salvage: SalvageReport,
}

#[derive(Default)]
struct Counters {
    uploads: u64,
    appends: u64,
    predictions: u64,
    sweeps: u64,
    result_hits: u64,
    result_misses: u64,
    audits_clean: u64,
    audits_violated: u64,
    sched: SchedMetrics,
}

/// Fold one cold run's counters into the rollup.
fn absorb(agg: &mut SchedMetrics, m: &SchedMetrics) {
    agg.dispatches += m.dispatches;
    agg.preemptions += m.preemptions;
    agg.migrations += m.migrations;
    agg.uthread_switches += m.uthread_switches;
    agg.lwp_switches += m.lwp_switches;
    agg.agings += m.agings;
    agg.blocks += m.blocks;
    agg.wakeups += m.wakeups;
    agg.max_kernel_rq_depth = agg.max_kernel_rq_depth.max(m.max_kernel_rq_depth);
    agg.max_user_rq_depth = agg.max_user_rq_depth.max(m.max_user_rq_depth);
    agg.wall_ns += m.wall_ns;
    agg.total_cpu_ns += m.total_cpu_ns;
    agg.des_events += m.des_events;
    agg.n_threads = agg.n_threads.max(m.n_threads);
}

/// Memoized responses keyed `(content id, params fingerprint)`; the flag
/// records whether the entry came off the spill journal (the disk-warm
/// path) rather than this process.
type ResultMemo = HashMap<(ContentId, u64), (Arc<PredictResponse>, bool)>;

/// The shared, thread-safe service state behind every endpoint.
///
/// Lock order: a session lock may be held while `versions` is taken (an
/// append registers its version), so nothing takes a session lock while
/// holding `logs` or `versions`.
pub struct PredictionService {
    logs: Mutex<HashMap<ContentId, Arc<StoredLog>>>,
    /// Acked stream versions, built into `logs` on first use.
    versions: Mutex<HashMap<ContentId, Version>>,
    plans: PlanCache,
    results: Mutex<ResultMemo>,
    uni_walls: Mutex<HashMap<(ContentId, ModelKind), u64>>,
    sessions: Mutex<HashMap<ContentId, Arc<Mutex<FollowStream>>>>,
    counters: Mutex<Counters>,
    durable: Option<Durability>,
}

impl PredictionService {
    /// A fresh memory-only service whose plan cache holds at most
    /// `cache_bytes`.
    pub fn new(cache_bytes: u64) -> PredictionService {
        PredictionService {
            logs: Mutex::new(HashMap::new()),
            versions: Mutex::new(HashMap::new()),
            plans: PlanCache::new(cache_bytes),
            results: Mutex::new(HashMap::new()),
            uni_walls: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            counters: Mutex::new(Counters::default()),
            durable: None,
        }
    }

    /// A durable service backed by the store under `root`: runs startup
    /// recovery (content-store fsck, journal replay, memo restore) and
    /// reports what it found. Acknowledged uploads and appends survive a
    /// crash; memoized predictions are rewarmed from the spill journal.
    pub fn with_store(
        cache_bytes: u64,
        root: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<(PredictionService, StartupReport), VppbError> {
        let (durable, report, restored) = Durability::open(root, vfs)?;
        let svc =
            PredictionService { durable: Some(durable), ..PredictionService::new(cache_bytes) };
        {
            let mut results = svc.results.lock().expect("results lock");
            let mut uni = svc.uni_walls.lock().expect("uni lock");
            for m in restored {
                let model = m.response.model.parse().unwrap_or(ModelKind::SolarisTs);
                uni.entry((m.id, model)).or_insert(m.response.uni_wall_ns);
                results.insert((m.id, m.fingerprint), (Arc::new(m.response), true));
            }
        }
        Ok((svc, report))
    }

    /// Whether a durable write failed and the service is read-only.
    pub fn degraded(&self) -> bool {
        self.durable.as_ref().is_some_and(|d| d.degraded())
    }

    /// Refuse mutating work while degraded.
    fn check_available(&self) -> Result<(), ServeError> {
        match &self.durable {
            Some(d) if d.degraded() => Err(ServeError::Unavailable(
                "durable store is degraded; the server is read-only until restarted".into(),
            )),
            _ => Ok(()),
        }
    }

    /// A durable write failed: flip read-only and surface a 503. The
    /// client must not treat the request as applied — it was never acked.
    fn degrade(&self, what: &str, e: VppbError) -> ServeError {
        if let Some(d) = &self.durable {
            d.mark_degraded();
        }
        ServeError::Unavailable(format!("{what} failed; the server is now read-only: {e}"))
    }

    /// Ingest raw log bytes: lenient salvage, content id, store. The id
    /// hashes the salvaged log's canonical `binlog` encoding without
    /// building it ([`binlog::content_id`]), so two damaged uploads that
    /// salvage to the same log, or the same log in text and binary form,
    /// share an id, a plan and every memoized prediction. Idempotent —
    /// re-uploading the same content returns the same id without
    /// replacing the stored log.
    pub fn upload(&self, raw: &[u8]) -> Result<UploadResponse, ServeError> {
        self.check_available()?;
        let stored = StoredLog::from_raw(raw.to_vec())
            .map_err(|e| ServeError::BadRequest(format!("unsalvageable log: {e}")))?;
        let id = binlog::content_id(&stored.log).map_err(canonical_encode)?;
        let response = UploadResponse {
            id: id.to_string(),
            program: stored.log.header.program.clone(),
            records: stored.log.len(),
            clean: stored.diagnostics.is_empty() && stored.salvage.is_clean(),
            diagnostics: stored.diagnostics.clone(),
            salvage: stored.salvage.clone(),
        };
        // Durability before acknowledgement: the raw bytes must be in the
        // content store (object + fsynced manifest) before the id goes out.
        if let Some(d) = &self.durable {
            d.put_object(id, raw).map_err(|e| self.degrade("storing upload", e))?;
        }
        self.logs.lock().expect("logs lock").entry(id).or_insert_with(|| Arc::new(stored));
        self.counters.lock().expect("counters lock").uploads += 1;
        Ok(response)
    }

    /// The streaming session for `id`, creating it from the stored upload's
    /// raw bytes on first use. The handle stays valid across appends —
    /// and across restarts: when a write-ahead journal exists for the
    /// stream, the session is rebuilt by replaying the journaled chunk
    /// sequence over the stored upload, which reproduces the live
    /// session's byte buffer (and therefore its predictions) exactly.
    fn session(&self, id: ContentId) -> Result<Arc<Mutex<FollowStream>>, ServeError> {
        if let Some(s) = self.sessions.lock().expect("sessions lock").get(&id).cloned() {
            return Ok(s);
        }
        let stored = self.stored(id)?;
        let journaled = match &self.durable {
            Some(d) => d
                .stream_chunks(id)
                .map_err(|e| ServeError::Internal(format!("replaying stream journal: {e}")))?,
            None => None,
        };
        let (session, current) = match journaled {
            Some(chunks) if !chunks.is_empty() => {
                let mut session = vppb_sim::StreamSession::rebuild(
                    std::iter::once(stored.raw.as_slice())
                        .chain(chunks.iter().map(|c| c.as_slice())),
                );
                // Register the rebuilt content as the original appends did,
                // so memo keys and plain predicts of the grown content work
                // after a restart. The stream id itself while the rebuilt
                // buffer does not parse (a journal whose tail chunk tore the
                // log; the next append can still complete it, exactly like
                // live).
                let current = match session.content_id() {
                    Ok(cid) => {
                        self.register_version(cid, id, session.bytes().len());
                        cid
                    }
                    Err(_) => id,
                };
                (session, current)
            }
            _ => {
                let mut session = vppb_sim::StreamSession::new();
                session
                    .append(&stored.raw)
                    .map_err(|e| ServeError::Internal(format!("re-parsing stored upload: {e}")))?;
                (session, id)
            }
        };
        let fresh = Arc::new(Mutex::new(FollowStream { session, current }));
        // Two racing first-appends both built a session from the same
        // bytes; keep whichever registered first.
        Ok(Arc::clone(self.sessions.lock().expect("sessions lock").entry(id).or_insert(fresh)))
    }

    /// Register `id` as the first `len` bytes of the stream `stream`'s
    /// buffer. The buffer only grows, so the prefix stays valid.
    fn register_version(&self, id: ContentId, stream: ContentId, len: usize) {
        self.versions.lock().expect("versions lock").entry(id).or_insert(Version { stream, len });
    }

    /// `POST /logs/{id}/append`: grow the stream behind `id` by one raw
    /// chunk. The whole buffer is re-salvaged, so a chunk that tears a
    /// record mid-frame is repaired now and the repair dissolves once the
    /// next chunk completes the record. A chunk that leaves the buffer
    /// unparseable is a 400, but its bytes stay buffered — a later append
    /// can still complete the log.
    pub fn append(&self, id: &str, chunk: &[u8]) -> Result<AppendResponse, ServeError> {
        let sid = self.parse_id(id)?;
        self.check_available()?;
        let slot = self.session(sid)?;
        let mut stream = slot.lock().expect("session lock");
        // Journal the chunk before even parsing it: a 400'd chunk keeps
        // its bytes in the live session, so it must survive a restart too.
        if let Some(d) = &self.durable {
            d.journal_chunk(sid, chunk).map_err(|e| self.degrade("journaling append chunk", e))?;
        }
        stream
            .session
            .append(chunk)
            .map_err(|e| ServeError::BadRequest(format!("buffer not parseable yet: {e}")))?;
        let cid = stream.session.content_id().map_err(canonical_encode)?;
        let state =
            stream.session.state().ok_or_else(|| ServeError::Internal("no parse state".into()))?;
        let response = AppendResponse {
            id: id.to_string(),
            content_id: cid.to_string(),
            bytes: stream.session.bytes().len(),
            records: state.loaded.log.len(),
            clean: state.loaded.is_pristine(),
            diagnostics: state.loaded.diagnostics.iter().map(|d| d.to_string()).collect(),
            salvage: state.loaded.salvage.clone(),
        };
        // The grown buffer goes into the content store before the ack:
        // after a crash a plain `POST /predict` of the acked content id
        // must still answer, even if nobody re-opens the stream.
        if let Some(d) = &self.durable {
            d.put_object(cid, stream.session.bytes())
                .map_err(|e| self.degrade("storing grown log", e))?;
        }
        // Register the grown content without copying it, so plain predicts
        // and sweeps over the new id work and the memo keys stay
        // content-true: `stored` builds it from this prefix on first use.
        self.register_version(cid, sid, stream.session.bytes().len());
        stream.current = cid;
        self.counters.lock().expect("counters lock").appends += 1;
        Ok(response)
    }

    /// `GET /predict?follow=1`: predict from the streaming session's last
    /// engine checkpoint instead of replaying from scratch. The response
    /// is memoized under the *current* content id, so an append
    /// invalidates the memo entry while the checkpoint chain carries over.
    /// Bit-identical to a cold `POST /predict` of the same content — the
    /// chunk-equivalence battery pins that invariant.
    pub fn predict_follow(
        &self,
        id: &str,
        cpus: u32,
    ) -> Result<(Arc<PredictResponse>, CacheHit), ServeError> {
        let params = sim_params(cpus, LwpPolicy::PerThread, None, ModelKind::SolarisTs)
            .map_err(bad_config)?;
        let sid = self.parse_id(id)?;
        let slot = self.session(sid)?;
        let mut stream = slot.lock().expect("session lock");
        let stream = &mut *stream;
        let program = stream
            .session
            .log()
            .map(|l| l.header.program.clone())
            .ok_or_else(|| ServeError::Internal("no parse state".into()))?;
        let current = stream.current;
        let key = (current, params.fingerprint());
        if let Some(hit) = self.memo_hit(key) {
            return Ok(hit);
        }
        // Follow runs stay out of the `/metrics` scheduling rollup.
        self.predict_content(key, &current.to_string(), &program, &params, |p, _| {
            Ok((stream.session.predict(p)?, None))
        })
    }

    /// What recovery reported for a stored log (`GET`-style lookup used
    /// by tests; the upload response carries the same data).
    pub fn salvage_of(&self, id: &str) -> Result<(SalvageReport, Vec<String>), ServeError> {
        let id = self.parse_id(id)?;
        let stored = self.stored(id)?;
        Ok((stored.salvage.clone(), stored.diagnostics.clone()))
    }

    /// Serve one prediction. Returns the response and where it came from.
    /// A memo hit answers without reading the stored log.
    pub fn predict(
        &self,
        req: &PredictRequest,
    ) -> Result<(Arc<PredictResponse>, CacheHit), ServeError> {
        if req.delay_ms > MAX_DELAY_MS {
            return Err(ServeError::BadRequest(format!(
                "delay_ms {} exceeds the {MAX_DELAY_MS} ms cap",
                req.delay_ms
            )));
        }
        let params = req.params()?;
        let id = self.parse_id(&req.id)?;
        if req.delay_ms > 0 {
            // Documented test/ops knob; occupies the worker like a long
            // replay would, making queue backpressure deterministic.
            std::thread::sleep(std::time::Duration::from_millis(req.delay_ms));
        }
        let key = (id, params.fingerprint());
        if let Some(hit) = self.memo_hit(key) {
            return Ok(hit);
        }
        let stored = self.stored(id)?;
        let log = &stored.log;
        let mut plan = None;
        self.predict_content(key, &req.id, &log.header.program, &params, |params, rollup| {
            // The plan is looked up once, and only on a memo miss.
            if plan.is_none() {
                plan = Some(self.plans.get_or_build(id, || analyze(log))?.0);
            }
            let plan = plan.as_deref().expect("looked up above");
            if rollup {
                let (run, m) = simulate_plan_metrics(plan, log, params)?;
                Ok((run, Some(m)))
            } else {
                Ok((simulate_plan(plan, log, params)?, None))
            }
        })
    }

    /// The one memo-miss path behind [`Self::predict`] and
    /// [`Self::predict_follow`], each of which first tries
    /// [`Self::memo_hit`] on `key` (content id, params fingerprint): the
    /// memoized 1-CPU reference wall, the response (echoing `id` and
    /// `program`), counters and memoization. `replay(params, rollup)` runs
    /// the content once under `params`, and collects scheduling counters
    /// for the `/metrics` rollup when `rollup` asks and its path feeds the
    /// rollup; the reference run never asks.
    fn predict_content(
        &self,
        key: (ContentId, u64),
        id: &str,
        program: &str,
        params: &SimParams,
        mut replay: impl FnMut(&SimParams, bool) -> Result<(RunResult, Option<SchedMetrics>), VppbError>,
    ) -> Result<(Arc<PredictResponse>, CacheHit), ServeError> {
        self.counters.lock().expect("counters lock").result_misses += 1;

        let internal = |e: VppbError| ServeError::Internal(e.to_string());
        // Copy out of the guard: a guard in the match scrutinee would
        // live across the `None` arm and deadlock on the re-lock below.
        let uni_key = (key.0, params.machine.model);
        let memoized_uni = self.uni_walls.lock().expect("uni lock").get(&uni_key).copied();
        let uni_wall = match memoized_uni {
            Some(w) => Time(w),
            None => {
                let w = replay(&reference_params(params), false).map_err(internal)?.0.wall_time;
                self.uni_walls.lock().expect("uni lock").insert(uni_key, w.nanos());
                w
            }
        };
        let (run, metrics) = replay(params, true).map_err(internal)?;
        let response = Arc::new(PredictResponse {
            id: id.to_string(),
            program: program.to_string(),
            cpus: params.machine.cpus,
            model: params.machine.model.name().to_string(),
            wall_ns: run.wall_time.nanos(),
            uni_wall_ns: uni_wall.nanos(),
            speedup: speedup(uni_wall, run.wall_time),
            audit_clean: run.audit.is_clean(),
            des_events: run.des_events,
        });
        {
            let mut c = self.counters.lock().expect("counters lock");
            c.predictions += 1;
            if response.audit_clean {
                c.audits_clean += 1;
            } else {
                c.audits_violated += 1;
            }
            if let Some(m) = &metrics {
                absorb(&mut c.sched, m);
            }
        }
        self.memoize(key, &response);
        Ok((response, CacheHit::Miss))
    }

    /// The memoized response under `key`, counted as a hit, and whether it
    /// was restored from disk.
    fn memo_hit(&self, key: (ContentId, u64)) -> Option<(Arc<PredictResponse>, CacheHit)> {
        let (hit, from_disk) = self.results.lock().expect("results lock").get(&key).cloned()?;
        let mut c = self.counters.lock().expect("counters lock");
        c.predictions += 1;
        c.result_hits += 1;
        Some((hit, if from_disk { CacheHit::Disk } else { CacheHit::Memory }))
    }

    /// Memoize a freshly computed response and spill it to the journal.
    /// The spill is best-effort: a spill failure degrades the service
    /// (writes are clearly unsafe) but never withholds the answer.
    fn memoize(&self, key: (ContentId, u64), response: &Arc<PredictResponse>) {
        {
            let mut results = self.results.lock().expect("results lock");
            if results.len() >= RESULT_MEMO_CAP {
                results.clear();
            }
            results.insert(key, (Arc::clone(response), false));
        }
        if let Some(d) = &self.durable {
            if !d.degraded() && d.spill_memo(key.0, key.1, response).is_err() {
                d.mark_degraded();
            }
        }
    }

    /// Serve one what-if sweep, reusing the cached plan.
    pub fn sweep(&self, req: &SweepRequest) -> Result<SweepResponse, ServeError> {
        let id = self.parse_id(&req.id)?;
        let mut grid = SweepGrid::over_cpus(req.cpus.clone());
        if let Some(specs) = &req.lwps {
            let mut lwps = Vec::new();
            for s in specs {
                lwps.push(
                    s.parse::<LwpPolicy>()
                        .map_err(|_| ServeError::BadRequest(format!("bad lwp policy `{s}`")))?,
                );
            }
            grid = grid.with_lwps(lwps);
        }
        if let Some(delays) = &req.comm_delay_us {
            grid = grid.with_comm_delays_us(delays.clone());
        }
        if let Some(specs) = &req.model {
            let mut models = Vec::new();
            for s in specs {
                models.push(s.parse::<ModelKind>().map_err(ServeError::BadRequest)?);
            }
            grid = grid.with_models(models);
        }
        let configs = grid.try_configs().map_err(bad_config)?;
        let stored = self.stored(id)?;
        let (plan, _) = self
            .plans
            .get_or_build(id, || analyze(&stored.log))
            .map_err(|e| ServeError::Internal(e.to_string()))?;
        // One request gets at most a thread per core (0 already means
        // all of them), however many unique cells its grid has.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let outcome = sweep_plan(&plan, &stored.log, &configs, req.jobs.min(cores))
            .map_err(|e| ServeError::Internal(e.to_string()))?;
        {
            let mut c = self.counters.lock().expect("counters lock");
            c.sweeps += 1;
            for p in &outcome.points {
                if p.error.is_none() && !p.deduplicated {
                    if p.audit_clean {
                        c.audits_clean += 1;
                    } else {
                        c.audits_violated += 1;
                    }
                }
            }
        }
        Ok(SweepResponse {
            id: req.id.clone(),
            program: stored.log.header.program.clone(),
            uni_wall_ns: outcome.uni_wall.nanos(),
            unique_runs: outcome.unique_runs,
            workers: outcome.workers,
            points: outcome.points,
        })
    }

    /// The service half of `GET /metrics`.
    pub fn metrics(&self) -> ServiceMetrics {
        let c = self.counters.lock().expect("counters lock");
        let lookups = c.result_hits + c.result_misses;
        // In durable mode the store is authoritative (restored logs may
        // not be faulted into memory yet); in-memory entries that raced
        // ahead of it are counted too. A stream version counts from its
        // ack, built or not.
        let logs_stored = {
            let in_memory = {
                let logs = self.logs.lock().expect("logs lock");
                let versions = self.versions.lock().expect("versions lock");
                logs.len() + versions.keys().filter(|id| !logs.contains_key(id)).count()
            };
            match &self.durable {
                Some(d) => in_memory.max(d.store.len()),
                None => in_memory,
            }
        };
        ServiceMetrics {
            logs_stored,
            streams: self.sessions.lock().expect("sessions lock").len(),
            uploads: c.uploads,
            appends: c.appends,
            predictions: c.predictions,
            sweeps: c.sweeps,
            result_cache: ResultCacheStats {
                hits: c.result_hits,
                misses: c.result_misses,
                entries: self.results.lock().expect("results lock").len(),
                hit_rate: if lookups == 0 { 0.0 } else { c.result_hits as f64 / lookups as f64 },
            },
            plan_cache: self.plans.stats(),
            audits_clean: c.audits_clean,
            audits_violated: c.audits_violated,
            sched: c.sched.clone(),
            durability: self.durable.as_ref().map(|d| d.stats()),
        }
    }

    fn parse_id(&self, id: &str) -> Result<ContentId, ServeError> {
        id.parse().map_err(ServeError::BadRequest)
    }

    fn stored(&self, id: ContentId) -> Result<Arc<StoredLog>, ServeError> {
        if let Some(s) = self.logs.lock().expect("logs lock").get(&id).cloned() {
            return Ok(s);
        }
        // Build the log on first use: a grown stream version from its
        // buffer prefix, or — the in-memory map starts empty after a
        // restart — from the content store (CRC-verified read).
        let raw = match self.version_bytes(id) {
            Some(raw) => raw,
            None => {
                let Some(d) = &self.durable else {
                    return Err(ServeError::NotFound(format!("no stored log with id `{id}`")));
                };
                d.store
                    .get(id)
                    .map_err(|e| ServeError::Internal(format!("reading stored log `{id}`: {e}")))?
                    .ok_or_else(|| ServeError::NotFound(format!("no stored log with id `{id}`")))?
            }
        };
        let entry =
            Arc::new(StoredLog::from_raw(raw).map_err(|e| {
                ServeError::Internal(format!("re-salvaging stored log `{id}`: {e}"))
            })?);
        Ok(Arc::clone(self.logs.lock().expect("logs lock").entry(id).or_insert(entry)))
    }

    /// The bytes of a registered stream version: a copy of its stream's
    /// buffer prefix. `None` while the live session does not hold that
    /// prefix yet (a restart registers a rebuilt session's content before
    /// the session is reachable); the content store has every acked
    /// version. Takes the session lock with neither `logs` nor `versions`
    /// held.
    fn version_bytes(&self, id: ContentId) -> Option<Vec<u8>> {
        let v = self.versions.lock().expect("versions lock").get(&id).copied()?;
        let slot = self.sessions.lock().expect("sessions lock").get(&v.stream).cloned()?;
        let stream = slot.lock().expect("session lock");
        Some(stream.session.bytes().get(..v.len)?.to_vec())
    }
}

/// A configuration [`sim_params`] refused: a bad request naming the field.
fn bad_config(e: ConfigError) -> ServeError {
    ServeError::BadRequest(format!("bad configuration: {e}"))
}

/// A log whose canonical encoding, and with it its content id, cannot be
/// computed.
fn canonical_encode(e: VppbError) -> ServeError {
    ServeError::Internal(format!("canonical encode: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vppb_recorder::{record, RecordOptions};
    use vppb_threads::AppBuilder;

    fn recorded_bytes() -> Vec<u8> {
        recorded_bytes_sized(200)
    }

    fn recorded_bytes_sized(work_us: u64) -> Vec<u8> {
        let mut b = AppBuilder::new("svc", "svc.c");
        let w = b.func("w", move |f| f.work_us(work_us));
        b.main(move |f| {
            let s = f.slot();
            f.loop_n(3, |f| f.create_into(w, s));
            f.loop_n(3, |f| f.join(s));
        });
        let log = record(&b.build().unwrap(), &RecordOptions::default()).unwrap().log;
        binlog::encode(&log).unwrap()
    }

    #[test]
    fn upload_predict_and_memoize() {
        let svc = PredictionService::new(1 << 20);
        let up = svc.upload(&recorded_bytes()).unwrap();
        assert!(up.clean);
        assert_eq!(up.program, "svc");

        let req = PredictRequest::new(&up.id, 4);
        let (cold, hit) = svc.predict(&req).unwrap();
        assert_eq!(hit, CacheHit::Miss);
        let (warm, hit) = svc.predict(&req).unwrap();
        assert_eq!(hit, CacheHit::Memory);
        // Bit-identical: the memo returns the same allocation, and the
        // serialized bodies match byte for byte.
        assert!(Arc::ptr_eq(&cold, &warm));
        assert_eq!(serde_json::to_vec(&*cold).unwrap(), serde_json::to_vec(&*warm).unwrap());
        assert!(cold.speedup > 1.0, "3 parallel workers must speed up");

        let m = svc.metrics();
        assert_eq!(m.predictions, 2);
        assert_eq!(m.result_cache.hits, 1);
        assert_eq!(m.plan_cache.misses, 1);
        assert!(m.sched.des_events > 0, "cold run feeds the rollup");
    }

    #[test]
    fn upload_is_idempotent_and_content_addressed() {
        let svc = PredictionService::new(1 << 20);
        let bytes = recorded_bytes();
        let a = svc.upload(&bytes).unwrap();
        let b = svc.upload(&bytes).unwrap();
        assert_eq!(a.id, b.id);
        assert_eq!(svc.metrics().logs_stored, 1);
        assert_eq!(svc.metrics().uploads, 2);
    }

    #[test]
    fn unknown_id_is_not_found_and_bad_id_is_bad_request() {
        let svc = PredictionService::new(1 << 20);
        let missing = ContentId::of_bytes(b"never uploaded").to_string();
        let err = svc.predict(&PredictRequest::new(missing, 2)).unwrap_err();
        assert_eq!(err.status(), 404);
        let err = svc.predict(&PredictRequest::new("not-a-hash", 2)).unwrap_err();
        assert_eq!(err.status(), 400);
        let err = svc.upload(b"complete garbage that cannot be salvaged").unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn sweep_reuses_the_cached_plan() {
        let svc = PredictionService::new(1 << 20);
        let up = svc.upload(&recorded_bytes()).unwrap();
        svc.predict(&PredictRequest::new(&up.id, 2)).unwrap();
        let sweep = svc
            .sweep(&SweepRequest {
                id: up.id.clone(),
                cpus: vec![1, 2, 4],
                lwps: None,
                comm_delay_us: None,
                model: None,
                jobs: 2,
            })
            .unwrap();
        assert_eq!(sweep.points.len(), 3);
        assert!(sweep.points.iter().all(|p| p.error.is_none()));
        let m = svc.metrics();
        assert_eq!(m.plan_cache.misses, 1, "sweep hit the plan from predict");
        assert_eq!(m.plan_cache.hits, 1);
    }

    #[test]
    fn one_request_holds_at_most_a_thread_per_core_and_ten_seconds() {
        let svc = PredictionService::new(1 << 20);
        let up = svc.upload(&recorded_bytes()).unwrap();
        // Sixteen distinct cells (CPU counts above the program's four
        // threads would fold into one run), plus the 1-CPU reference.
        let sweep = svc
            .sweep(&SweepRequest {
                id: up.id.clone(),
                cpus: vec![2],
                lwps: None,
                comm_delay_us: Some((0..16).collect()),
                model: None,
                jobs: 16,
            })
            .unwrap();
        assert_eq!((sweep.points.len(), sweep.unique_runs), (16, 17));
        let cores = std::thread::available_parallelism().unwrap().get();
        assert!(sweep.workers <= cores, "{} workers on {cores} cores", sweep.workers);

        let started = std::time::Instant::now();
        let over_cap = PredictRequest { delay_ms: 10_001, ..PredictRequest::new(&up.id, 2) };
        let err = svc.predict(&over_cap).unwrap_err();
        assert_eq!(err.status(), 400, "{}", err.message());
        assert!(started.elapsed() < std::time::Duration::from_secs(5), "refused without sleeping");
    }

    #[test]
    fn append_rekeys_content_and_follow_matches_cold_predict() {
        let svc = PredictionService::new(1 << 20);
        let bytes = recorded_bytes();
        // Cut halfway through the records (an even byte split would put
        // every record after the JSON header into the second chunk).
        let b = vppb_model::chunk::record_boundaries(&bytes);
        assert!(b.len() > 4, "fixture too small to split");
        let cut = [&bytes[..b[b.len() / 2]], &bytes[b[b.len() / 2]..]];

        let up = svc.upload(cut[0]).unwrap();
        let (first, _) = svc.predict_follow(&up.id, 4).unwrap();
        let ap = svc.append(&up.id, cut[1]).unwrap();
        assert_eq!(ap.id, up.id, "the stream handle must stay stable");
        assert_ne!(ap.content_id, up.id, "an append must re-key the content");
        assert_eq!(ap.bytes, bytes.len());

        // The append invalidated the memo: the next follow is a miss, and
        // its answer matches a cold predict of the full content exactly.
        let (follow, hit) = svc.predict_follow(&up.id, 4).unwrap();
        assert_eq!(hit, CacheHit::Miss, "grown content must not hit the stale memo");
        assert_ne!(follow.wall_ns, first.wall_ns, "the log grew, the prediction must move");
        let cold_svc = PredictionService::new(1 << 20);
        let full = cold_svc.upload(&bytes).unwrap();
        assert_eq!(full.id, ap.content_id, "grown stream and full upload share content");
        let (cold, _) = cold_svc.predict(&PredictRequest::new(&full.id, 4)).unwrap();
        assert_eq!(
            serde_json::to_vec(&*follow).unwrap(),
            serde_json::to_vec(&*cold).unwrap(),
            "follow and cold predictions must be bit-identical"
        );

        // Same content, same service: a plain predict hits the follow memo.
        let (_, hit) = svc.predict(&PredictRequest::new(&ap.content_id, 4)).unwrap();
        assert_eq!(hit, CacheHit::Memory, "plain predict of the grown content shares the memo");
        assert_eq!(svc.metrics().appends, 1);
        assert_eq!(svc.metrics().streams, 1);
    }

    #[test]
    fn unparseable_append_is_rejected_but_bytes_are_retained() {
        let svc = PredictionService::new(1 << 20);
        let bytes = recorded_bytes();
        let b = vppb_model::chunk::record_boundaries(&bytes);
        let mid = b[b.len() / 2];
        let up = svc.upload(&bytes[..mid]).unwrap();
        // An empty append re-parses the same content: accepted, unchanged.
        let same = svc.append(&up.id, b"").unwrap();
        assert_eq!(same.bytes, mid);
        let after = svc.append(&up.id, &bytes[mid..]).unwrap();
        assert_eq!(after.bytes, bytes.len());
        assert!(after.clean, "completed log needs no salvage");
    }

    #[test]
    fn an_upload_that_validates_also_predicts() {
        use vppb_model::{EventKind, Phase, TraceRecord};
        // Each worker's `thread_start` mark repeated between the BEFORE
        // and AFTER of its first `mutex_lock`: validation pairs the call
        // across the mark, and so must the analyzer, or the accepted
        // upload predicts to a 500.
        let bytes = long_recorded_bytes();
        let mut log = load_lenient_bytes(&bytes).unwrap().log;
        let mut marked = Vec::new();
        let mut at = 0;
        while at < log.records.len() {
            let r = log.records[at];
            let start = log.records[..at]
                .iter()
                .find(|m| m.thread == r.thread && matches!(m.kind, EventKind::ThreadStart { .. }));
            if let (Phase::Before, EventKind::MutexLock { .. }, Some(&start)) =
                (r.phase, r.kind, start)
            {
                if !marked.contains(&r.thread) {
                    marked.push(r.thread);
                    log.records.insert(at + 1, TraceRecord { time: r.time, ..start });
                }
            }
            at += 1;
        }
        assert_eq!(marked.len(), 3, "every worker locks");
        for (i, r) in log.records.iter_mut().enumerate() {
            r.seq = i as u64;
        }
        log.validate().expect("the marks sit inside well-paired calls");

        let svc = PredictionService::new(1 << 20);
        let up = svc.upload(&binlog::encode(&log).unwrap()).unwrap();
        assert!(up.clean, "validation accepts the upload as it is");
        let (with_marks, _) = svc.predict(&PredictRequest::new(&up.id, 4)).unwrap();
        let plain = svc.upload(&bytes).unwrap();
        let (without, _) = svc.predict(&PredictRequest::new(&plain.id, 4)).unwrap();
        assert_eq!(with_marks.speedup, without.speedup);
    }

    /// A binary log with a few hundred records: three workers taking one
    /// lock twenty times each.
    fn long_recorded_bytes() -> Vec<u8> {
        let mut b = AppBuilder::new("svc-long", "svc_long.c");
        let m = b.mutex();
        let w = b.func("w", move |f| {
            f.loop_n(20, |f| {
                f.work_us(40);
                f.lock(m);
                f.work_us(5);
                f.unlock(m);
            })
        });
        b.main(move |f| {
            let s = f.slot();
            f.loop_n(3, |f| f.create_into(w, s));
            f.loop_n(3, |f| f.join(s));
        });
        let log = record(&b.build().unwrap(), &RecordOptions::default()).unwrap().log;
        binlog::encode(&log).unwrap()
    }

    fn json<T: serde::Serialize>(v: &T) -> Vec<u8> {
        serde_json::to_vec(v).unwrap()
    }

    #[test]
    fn every_stream_version_answers_like_a_fresh_upload_of_its_prefix() {
        let bytes = long_recorded_bytes();
        let b = vppb_model::chunk::record_boundaries(&bytes);
        let n = b.len();
        // Upload a prefix, then three chunks: the second ends three bytes
        // into a record, the third completes the log.
        let cuts = [b[n / 4], b[n / 2], b[3 * n / 4] + 3, bytes.len()];
        let svc = PredictionService::new(1 << 20);
        let up = svc.upload(&bytes[..cuts[0]]).unwrap();
        let mut versions = Vec::new();
        for w in cuts.windows(2) {
            let ap = svc.append(&up.id, &bytes[w[0]..w[1]]).unwrap();
            assert_eq!(ap.bytes, w[1]);
            versions.push((ap.content_id, ap.bytes, !ap.diagnostics.is_empty()));
        }
        let torn: Vec<bool> = versions.iter().map(|v| v.2).collect();
        assert_eq!(torn, [false, true, false], "only the second chunk tears a record");
        assert_eq!(svc.metrics().logs_stored, 4, "the upload and three acked versions");
        assert_eq!(svc.logs.lock().unwrap().len(), 1, "no version is built before use");

        for (cid, len, _) in &versions {
            let fresh = PredictionService::new(1 << 20);
            assert_eq!(&fresh.upload(&bytes[..*len]).unwrap().id, cid, "content-true ids");
            let predict =
                |s: &PredictionService| json(&*s.predict(&PredictRequest::new(cid, 4)).unwrap().0);
            assert_eq!(predict(&svc), predict(&fresh), "{cid}: predict");
            let sweep = |s: &PredictionService| {
                json(
                    &s.sweep(&SweepRequest {
                        id: cid.clone(),
                        cpus: vec![1, 2, 4],
                        lwps: Some(vec!["per-thread".into(), "2".into()]),
                        comm_delay_us: None,
                        model: None,
                        jobs: 1,
                    })
                    .unwrap(),
                )
            };
            assert_eq!(sweep(&svc), sweep(&fresh), "{cid}: sweep");
            let salvage = |s: &PredictionService| {
                let (report, diagnostics) = s.salvage_of(cid).unwrap();
                (json(&report), diagnostics)
            };
            assert_eq!(salvage(&svc), salvage(&fresh), "{cid}: salvage");
            // A follow stream opened on the version's id, not the stream's.
            let follow = |s: &PredictionService| json(&*s.predict_follow(cid, 3).unwrap().0);
            assert_eq!(follow(&svc), follow(&fresh), "{cid}: follow");
        }
        assert_eq!(svc.metrics().logs_stored, 4, "built versions are not counted twice");
    }

    #[test]
    fn appends_hold_no_copy_of_the_grown_log() {
        let bytes = long_recorded_bytes();
        let b = vppb_model::chunk::record_boundaries(&bytes);
        assert!(b.len() > 60, "fixture too small for 50 appends");
        let svc = PredictionService::new(1 << 20);
        let up = svc.upload(&bytes[..b[10]]).unwrap();
        // A chunk that adds only a BEFORE salvages to the content before
        // it, so 50 appends ack fewer than 50 distinct ids.
        let mut acked = std::collections::HashSet::from([up.id.clone()]);
        let mut last = String::new();
        for k in 11..=60 {
            last = svc.append(&up.id, &bytes[b[k - 1]..b[k]]).unwrap().content_id;
            acked.insert(last.clone());
        }
        assert!(acked.len() > 20, "{} distinct versions", acked.len());
        assert_eq!(svc.logs.lock().unwrap().len(), 1, "only the upload is held");
        assert_eq!(svc.metrics().logs_stored, acked.len(), "every acked content id counts");
        svc.predict(&PredictRequest::new(&last, 4)).unwrap();
        assert_eq!(svc.logs.lock().unwrap().len(), 2, "a plain predict builds its version");
        assert_eq!(svc.metrics().logs_stored, acked.len());
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vppb-svc-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable(root: &std::path::Path) -> (PredictionService, StartupReport) {
        PredictionService::with_store(1 << 20, root, Arc::new(vppb_model::RealVfs)).unwrap()
    }

    #[test]
    fn durable_service_survives_a_restart() {
        let root = scratch("restart");
        let bytes = recorded_bytes();
        let (id, pre_restart) = {
            let (svc, report) = durable(&root);
            assert!(report.is_clean());
            let up = svc.upload(&bytes).unwrap();
            let (resp, hit) = svc.predict(&PredictRequest::new(&up.id, 4)).unwrap();
            assert_eq!(hit, CacheHit::Miss);
            (up.id, serde_json::to_vec(&*resp).unwrap())
        };
        // "Restart": a brand-new service over the same root, empty memory.
        let (svc, report) = durable(&root);
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(report.memos_restored, 1, "the spilled prediction came back");
        let (resp, hit) = svc.predict(&PredictRequest::new(&id, 4)).unwrap();
        assert_eq!(hit, CacheHit::Disk, "first predict after restart is disk-warm");
        assert_eq!(
            serde_json::to_vec(&*resp).unwrap(),
            pre_restart,
            "restored response must be byte-identical"
        );
        assert!(svc.logs.lock().unwrap().is_empty(), "a memo hit reads no stored log");
        // The log itself also survived: an unmemoized configuration
        // recomputes from the stored bytes.
        let (_, hit) = svc.predict(&PredictRequest::new(&id, 3)).unwrap();
        assert_eq!(hit, CacheHit::Miss);
    }

    #[test]
    fn durable_appends_rebuild_the_stream_after_restart() {
        let root = scratch("stream");
        let bytes = recorded_bytes();
        let b = vppb_model::chunk::record_boundaries(&bytes);
        let cut = b[b.len() / 2];
        let (sid, live) = {
            let (svc, _) = durable(&root);
            let up = svc.upload(&bytes[..cut]).unwrap();
            let ap = svc.append(&up.id, &bytes[cut..]).unwrap();
            assert_eq!(ap.bytes, bytes.len());
            let (live, _) = svc.predict_follow(&up.id, 4).unwrap();
            (up.id, serde_json::to_vec(&*live).unwrap())
        };
        let (svc, _) = durable(&root);
        let (rebuilt, _) = svc.predict_follow(&sid, 4).unwrap();
        assert_eq!(
            serde_json::to_vec(&*rebuilt).unwrap(),
            live,
            "rebuilt stream must predict bit-identically"
        );
        // The grown content id answers plain predicts too.
        let (_, hit) = svc.predict(&PredictRequest::new(&rebuilt.id, 4)).unwrap();
        assert!(hit.is_hit());
    }

    #[test]
    fn write_failure_degrades_to_read_only_503() {
        let root = scratch("degrade");
        let bytes = recorded_bytes();
        let vfs: Arc<dyn vppb_model::Vfs> = Arc::new(vppb_model::FaultVfs::new(
            Arc::new(vppb_model::RealVfs),
            // Manifest append 1 = the upload ack; then the disk "fills".
            vppb_model::FaultSpec::parse("enospc=3").unwrap(),
        ));
        let (svc, _) = PredictionService::with_store(1 << 20, &root, vfs).unwrap();
        let up = svc.upload(&bytes).unwrap();
        assert!(!svc.degraded());
        // A different upload now hits ENOSPC: 503, degraded, read-only.
        let err = svc.upload(&recorded_bytes_sized(300)).unwrap_err();
        assert_eq!(err.status(), 503, "{err:?}");
        assert!(svc.degraded());
        let err = svc.append(&up.id, b"").unwrap_err();
        assert_eq!(err.status(), 503, "degraded server refuses appends");
        // Reads still work (memo spill is skipped while degraded).
        let (_, hit) = svc.predict(&PredictRequest::new(&up.id, 4)).unwrap();
        assert_eq!(hit, CacheHit::Miss);
        let m = svc.metrics();
        assert!(m.durability.as_ref().unwrap().degraded);
    }

    #[test]
    fn out_of_bounds_configurations_are_bad_requests_before_any_replay() {
        let svc = PredictionService::new(1 << 20);
        let up = svc.upload(&recorded_bytes()).unwrap();
        let req = |cpus| PredictRequest::new(&up.id, cpus);
        let wrapping_us = 18_446_744_073_709_552; // 2^64 + 384 ns
        let predicts = [
            ("cpus", req(u32::MAX)),
            ("cpus", req(0)),
            ("lwps", PredictRequest { lwps: Some(u32::MAX), ..req(2) }),
            ("comm_delay_us", PredictRequest { comm_delay_us: Some(wrapping_us), ..req(2) }),
            ("comm_delay_us", PredictRequest { comm_delay_us: Some(1_000_001), ..req(2) }),
        ];
        let sweep = |cpus: Vec<u32>, lwps: &[&str], comm_delay_us: Option<Vec<u64>>| {
            svc.sweep(&SweepRequest {
                id: up.id.clone(),
                cpus,
                lwps: Some(lwps.iter().map(|s| s.to_string()).collect()),
                comm_delay_us,
                model: None,
                jobs: 1,
            })
        };
        let mut refusals = Vec::new();
        for (field, req) in &predicts {
            refusals.push((*field, svc.predict(req).map(|_| ()).unwrap_err()));
        }
        for cpus in [0, u32::MAX] {
            refusals.push(("cpus", svc.predict_follow(&up.id, cpus).map(|_| ()).unwrap_err()));
        }
        for (field, result) in [
            ("cpus", sweep(vec![u32::MAX], &["follow"], None)),
            ("cpus", sweep(vec![2, 0], &["per-thread"], None)),
            ("lwps", sweep(vec![2], &["2", "4294967295"], None)),
            ("comm_delay_us", sweep(vec![2], &["per-thread"], Some(vec![1, wrapping_us]))),
            ("4097 x 1 x 1 x 1 cells", sweep(vec![2; 4097], &["per-thread"], None)),
            ("1 x 0 x 1 x 1 cells", sweep(vec![2], &[], None)),
            ("0 x 1 x 1 x 1 cells", sweep(vec![], &["per-thread"], None)),
        ] {
            refusals.push((field, result.map(|_| ()).unwrap_err()));
        }
        for (field, err) in &refusals {
            assert_eq!(err.status(), 400, "{field}: {}", err.message());
            assert!(err.message().contains(field), "names `{field}`: {}", err.message());
        }
        let m = svc.metrics();
        assert_eq!((m.result_cache.misses, m.plan_cache.misses, m.sweeps), (0, 0, 0), "no replay");
        let (ok, _) = svc.predict(&req(4)).unwrap();
        assert!(ok.speedup > 1.0);
    }

    #[test]
    fn predict_request_json_defaults_apply() {
        let req: PredictRequest =
            serde_json::from_str("{\"id\": \"abc123\", \"cpus\": 4}").unwrap();
        assert_eq!((req.cpus, req.delay_ms, req.lwps), (4, 0, None));
        let req: PredictRequest = serde_json::from_str("{\"id\": \"abc123\"}").unwrap();
        assert_eq!(req.cpus, 8);
        assert!(serde_json::from_str::<PredictRequest>("{\"cpus\": 4}").is_err());
    }
}
