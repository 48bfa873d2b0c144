//! Durability glue between [`crate::service::PredictionService`] and the
//! model crate's crash-only primitives.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/store/                 content store: raw upload bytes by id
//! <root>/streams/<sid>.waj      write-ahead journal per follow session
//! <root>/memo.waj               prediction-memo spill journal
//! ```
//!
//! Ordering contract (the whole crash-safety argument):
//!
//! * an **upload** is acknowledged only after its raw bytes are in the
//!   content store (object + manifest, both fsynced);
//! * an **append** journals the chunk *before* the parse is even
//!   attempted (even a 400'd chunk keeps its bytes, matching the live
//!   session's buffer-retention semantics), and the grown buffer is
//!   stored under its new content id before the response goes out;
//! * a **memo spill** happens after the response is computed and is
//!   best-effort — losing it costs one recompute, never an answer.
//!
//! Any failed durable *write* flips [`Durability::degraded`]: the service
//! turns read-only and mutating endpoints answer 503 + `Retry-After`
//! until an operator restarts it against a healthy disk.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use vppb_model::{ContentId, ContentStore, Diagnostic, Journal, RecoveryReport, Vfs, VppbError};

/// What startup recovery found and rebuilt.
pub struct StartupReport {
    /// The content-store fsck outcome.
    pub store: RecoveryReport,
    /// Memoized predictions restored from the spill journal.
    pub memos_restored: usize,
    /// Spill-journal recovery findings (torn tail, corrupt records).
    pub memo_diagnostics: Vec<Diagnostic>,
}

impl StartupReport {
    /// One human line for the serve startup banner.
    pub fn summary(&self) -> String {
        format!("{}; {} memoized prediction(s) restored", self.store.summary(), self.memos_restored)
    }

    /// Whether recovery found nothing to repair.
    pub fn is_clean(&self) -> bool {
        self.store.is_clean() && self.memo_diagnostics.is_empty()
    }
}

/// One restored memo-spill record.
pub struct RestoredMemo {
    /// Content id the memoized prediction is for.
    pub id: ContentId,
    /// `SimParams::fingerprint()` of the configuration.
    pub fingerprint: u64,
    /// The response body, exactly as first serialized.
    pub response: crate::service::PredictResponse,
}

/// The durable half of a service: content store, per-stream write-ahead
/// journals, memo spill, and the degraded flag.
pub struct Durability {
    root: PathBuf,
    vfs: Arc<dyn Vfs>,
    /// Raw upload bytes, content-addressed.
    pub store: ContentStore,
    memo: Mutex<Journal>,
    streams: Mutex<HashMap<ContentId, Arc<Journal>>>,
    degraded: AtomicBool,
    memos_spilled: AtomicU64,
    chunks_journaled: AtomicU64,
    recovery: RecoveryCounts,
}

/// The store recovery counters kept for `GET /metrics` after the full
/// report has been handed to the caller.
#[derive(Debug, Clone, Copy, Default)]
struct RecoveryCounts {
    adopted: usize,
    quarantined: usize,
    missing: usize,
}

/// Durability counters for `GET /metrics`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct DurabilityStats {
    /// Whether the server turned read-only after a disk failure.
    pub degraded: bool,
    /// Objects servable from the content store.
    pub objects: usize,
    /// Startup recovery: verified orphans adopted.
    pub recovered_adopted: usize,
    /// Startup recovery: damaged objects quarantined.
    pub recovered_quarantined: usize,
    /// Startup recovery: lost acknowledged writes (always 0 after a
    /// crash; nonzero means real disk damage).
    pub recovered_missing: usize,
    /// Predictions spilled to the memo journal this run.
    pub memos_spilled: u64,
    /// Append chunks journaled this run.
    pub chunks_journaled: u64,
}

impl Durability {
    /// Open (or create) the durable state under `root`, running content
    /// store fsck and memo-journal replay.
    pub fn open(
        root: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<(Durability, StartupReport, Vec<RestoredMemo>), VppbError> {
        let root = root.into();
        let (store, store_report) = ContentStore::open(root.join("store"), Arc::clone(&vfs))?;
        let (memo, replay) = Journal::open(root.join("memo.waj"), Arc::clone(&vfs))?;
        let mut memo_diagnostics = replay.diagnostics;
        let mut restored = Vec::new();
        let mut healthy_records = Vec::new();
        for record in &replay.records {
            match parse_memo_record(record) {
                Some(m) => {
                    healthy_records.push(record.clone());
                    restored.push(m);
                }
                None => {
                    // An unparseable (but CRC-clean) record: a schema from
                    // another era. Drop it; the memo is an optimization.
                    memo_diagnostics.push(Diagnostic::warning(
                        vppb_model::DiagCode::BadJournalRecord,
                        vppb_model::Pos::None,
                        "dropped unparseable memo-spill record",
                    ));
                }
            }
        }
        if replay.corrupt || healthy_records.len() != replay.records.len() {
            // Heal the journal down to what actually parsed, atomically.
            memo.rewrite(&healthy_records)?;
        }
        let recovery = RecoveryCounts {
            adopted: store_report.adopted,
            quarantined: store_report.quarantined,
            missing: store_report.missing,
        };
        let report =
            StartupReport { store: store_report, memos_restored: restored.len(), memo_diagnostics };
        Ok((
            Durability {
                root,
                vfs,
                store,
                memo: Mutex::new(memo),
                streams: Mutex::new(HashMap::new()),
                degraded: AtomicBool::new(false),
                memos_spilled: AtomicU64::new(0),
                chunks_journaled: AtomicU64::new(0),
                recovery,
            },
            report,
            restored,
        ))
    }

    /// Whether a durable write has failed (the service is read-only).
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Flip into read-only degradation.
    pub fn mark_degraded(&self) {
        self.degraded.store(true, Ordering::SeqCst);
    }

    /// Durably store raw log bytes. Idempotent.
    pub fn put_object(&self, id: ContentId, raw: &[u8]) -> Result<(), VppbError> {
        self.store.put(id, raw).map(|_| ())
    }

    /// Journal one append chunk for stream `sid`, durably, before the
    /// caller parses or acknowledges anything.
    pub fn journal_chunk(&self, sid: ContentId, chunk: &[u8]) -> Result<(), VppbError> {
        self.stream_journal(sid)?.append(chunk)?;
        self.chunks_journaled.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The journaled chunk sequence for stream `sid` — `None` when the
    /// stream has no journal (no appends ever happened). Heals a corrupt
    /// journal down to its clean prefix.
    pub fn stream_chunks(&self, sid: ContentId) -> Result<Option<Vec<Vec<u8>>>, VppbError> {
        let path = self.stream_path(sid);
        if !self.vfs.exists(&path) {
            return Ok(None);
        }
        let (journal, replay) = Journal::open(path, Arc::clone(&self.vfs))?;
        if replay.corrupt {
            journal.rewrite(&replay.records)?;
        }
        self.streams.lock().expect("streams lock").insert(sid, Arc::new(journal));
        Ok(Some(replay.records))
    }

    /// Spill one memoized prediction. Best-effort from the caller's view
    /// — a spill failure degrades the service but never loses the answer.
    pub fn spill_memo(
        &self,
        id: ContentId,
        fingerprint: u64,
        response: &crate::service::PredictResponse,
    ) -> Result<(), VppbError> {
        let record = encode_memo_record(id, fingerprint, response);
        self.memo.lock().expect("memo lock").append(&record)?;
        self.memos_spilled.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Durability counters for `GET /metrics`.
    pub fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            degraded: self.degraded(),
            objects: self.store.len(),
            recovered_adopted: self.recovery.adopted,
            recovered_quarantined: self.recovery.quarantined,
            recovered_missing: self.recovery.missing,
            memos_spilled: self.memos_spilled.load(Ordering::Relaxed),
            chunks_journaled: self.chunks_journaled.load(Ordering::Relaxed),
        }
    }

    fn stream_path(&self, sid: ContentId) -> PathBuf {
        self.root.join("streams").join(format!("{sid}.waj"))
    }

    /// The (cached) open journal for stream `sid`.
    fn stream_journal(&self, sid: ContentId) -> Result<Arc<Journal>, VppbError> {
        if let Some(j) = self.streams.lock().expect("streams lock").get(&sid).cloned() {
            return Ok(j);
        }
        let (journal, _) = Journal::open(self.stream_path(sid), Arc::clone(&self.vfs))?;
        let fresh = Arc::new(journal);
        Ok(Arc::clone(self.streams.lock().expect("streams lock").entry(sid).or_insert(fresh)))
    }
}

/// Memo-spill record: `{"id": <hex>, "fp": <hex16>, "resp": {...}}`. The
/// fingerprint travels as a hex string so no JSON number-width question
/// can ever corrupt a 64-bit hash.
#[derive(serde::Serialize, serde::Deserialize)]
struct MemoRecord {
    id: String,
    fp: String,
    resp: crate::service::PredictResponse,
}

fn encode_memo_record(
    id: ContentId,
    fingerprint: u64,
    response: &crate::service::PredictResponse,
) -> Vec<u8> {
    let record = MemoRecord {
        id: id.to_string(),
        fp: format!("{fingerprint:016x}"),
        resp: response.clone(),
    };
    serde_json::to_vec(&record).unwrap_or_default()
}

fn parse_memo_record(record: &[u8]) -> Option<RestoredMemo> {
    let MemoRecord { id, fp, resp } = serde_json::from_slice(record).ok()?;
    Some(RestoredMemo {
        id: id.parse().ok()?,
        fingerprint: u64::from_str_radix(&fp, 16).ok()?,
        response: resp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::PredictResponse;
    use vppb_model::RealVfs;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vppb-persist-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_response() -> PredictResponse {
        PredictResponse {
            id: ContentId::of_bytes(b"x").to_string(),
            program: "demo".to_string(),
            cpus: 4,
            model: "solaris".to_string(),
            wall_ns: 123_456_789,
            uni_wall_ns: 400_000_000,
            speedup: 3.2400000000000007, // deliberately awkward float
            audit_clean: true,
            des_events: u64::MAX / 3, // full 64-bit fidelity required
        }
    }

    #[test]
    fn memo_spill_restores_byte_identical_responses() {
        let root = scratch("memo");
        let vfs: Arc<dyn Vfs> = Arc::new(RealVfs);
        let id = ContentId::of_bytes(b"some log");
        let original = sample_response();
        let original_bytes = serde_json::to_vec(&original).unwrap();
        {
            let (d, rep, restored) = Durability::open(&root, Arc::clone(&vfs)).unwrap();
            assert!(rep.is_clean() && restored.is_empty());
            d.spill_memo(id, 0xDEAD_BEEF_1234_5678, &original).unwrap();
        }
        let (_, rep, restored) = Durability::open(&root, vfs).unwrap();
        assert_eq!(rep.memos_restored, 1);
        let m = &restored[0];
        assert_eq!(m.id, id);
        assert_eq!(m.fingerprint, 0xDEAD_BEEF_1234_5678);
        assert_eq!(
            serde_json::to_vec(&m.response).unwrap(),
            original_bytes,
            "restored response must re-serialize byte-identically"
        );
    }

    #[test]
    fn stream_journal_round_trips_chunks_in_order() {
        let root = scratch("stream");
        let vfs: Arc<dyn Vfs> = Arc::new(RealVfs);
        let sid = ContentId::of_bytes(b"first chunk");
        {
            let (d, _, _) = Durability::open(&root, Arc::clone(&vfs)).unwrap();
            assert_eq!(d.stream_chunks(sid).unwrap(), None, "no appends yet");
            d.journal_chunk(sid, b"chunk-1").unwrap();
            d.journal_chunk(sid, b"chunk-2").unwrap();
            d.journal_chunk(sid, b"").unwrap();
        }
        let (d, _, _) = Durability::open(&root, vfs).unwrap();
        let chunks = d.stream_chunks(sid).unwrap().unwrap();
        assert_eq!(chunks, vec![b"chunk-1".to_vec(), b"chunk-2".to_vec(), Vec::new()]);
    }

    #[test]
    fn unparseable_memo_records_are_dropped_and_healed() {
        let root = scratch("heal");
        let vfs: Arc<dyn Vfs> = Arc::new(RealVfs);
        {
            let (d, _, _) = Durability::open(&root, Arc::clone(&vfs)).unwrap();
            d.spill_memo(ContentId::of_bytes(b"a"), 1, &sample_response()).unwrap();
            // A CRC-clean but semantically foreign record sneaks in.
            d.memo.lock().unwrap().append(b"not a memo record").unwrap();
            d.spill_memo(ContentId::of_bytes(b"b"), 2, &sample_response()).unwrap();
        }
        let (_, rep, restored) = Durability::open(&root, Arc::clone(&vfs)).unwrap();
        assert_eq!(restored.len(), 2, "both real memos survive");
        assert!(!rep.memo_diagnostics.is_empty(), "the foreign record is reported");
        // The heal rewrote the journal: a third open is clean.
        let (_, rep, restored) = Durability::open(&root, vfs).unwrap();
        assert!(rep.is_clean(), "{:?}", rep.memo_diagnostics);
        assert_eq!(restored.len(), 2);
    }
}
