//! The replay plan: everything the Simulator derives from a log before
//! replaying it.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use vppb_model::{CodeAddr, Duration, ThreadId, VppbError};
use vppb_threads::{Action, FuncId, LibCall};

/// One replayable step of a thread. `Action` already expresses everything
/// needed: compute gaps (`Work`), timed-out waits (`Sleep`) and library
/// calls.
pub type ReplayOp = Action;

/// Per-thread replay program material.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadPlan {
    /// The thread's id in the log (preserved in replay).
    pub id: ThreadId,
    /// Start-routine name from the log header (shown by the Visualizer).
    pub start_fn: String,
    /// Entry address of the start routine (from the `thread_start` mark).
    pub entry: CodeAddr,
    /// The ops, ending with `thr_exit`.
    pub ops: Vec<ReplayOp>,
}

/// A condvar-broadcast episode: the §6 barrier model. `parties` counts the
/// recorded broadcaster plus every waiter the recorded broadcast released;
/// in replay, whichever thread arrives at the barrier last performs the
/// broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CvEpisode {
    /// Number of arrivals in this episode (waiters + broadcaster).
    pub parties: u32,
    /// The mutex the waiters used (an early-arriving recorded broadcaster
    /// is converted into a wait on this mutex's condvar protocol).
    pub mutex: u32,
}

/// Replay state seeds for one condition variable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CvPlan {
    /// Broadcast episodes in recorded order.
    pub episodes: Vec<CvEpisode>,
    /// For each recorded `cond_signal`, how many waiters it released
    /// (0 or 1), in recorded order.
    pub signal_released: Vec<u32>,
}

/// The complete plan.
#[derive(Debug, Clone)]
pub struct ReplayPlan {
    /// The recorded program's name.
    pub program: String,
    /// Thread plans in log-id order; index 0 is the main thread.
    pub threads: Vec<ThreadPlan>,
    /// `(creator, creator's n-th create)` → recorded child id. Drives the
    /// machine's id assigner so replayed ids equal log ids.
    pub create_map: BTreeMap<(ThreadId, u64), ThreadId>,
    /// Per-condvar episode/credit seeds, indexed by condvar index.
    pub cvs: Vec<CvPlan>,
    /// Inferred initial semaphore counts.
    pub sem_initial: Vec<u32>,
    /// Number of mutexes the log references.
    pub n_mutexes: u32,
    /// Number of condition variables the log references.
    pub n_condvars: u32,
    /// Number of read/write locks the log references.
    pub n_rwlocks: u32,
    /// Party count per barrier index (from the recorded `barrier_wait`s'
    /// event payloads).
    pub barrier_parties: Vec<u32>,
    /// Initializer latency per once index (from the recorded
    /// `once_call`s' event payloads).
    pub once_init: Vec<Duration>,
    /// Wall time of the monitored run (the prediction baseline).
    pub recorded_wall: vppb_model::Time,
    /// Lazily compiled replay tapes — one flat op list per thread, in
    /// plan order, with every `Create` patched to the child's dense
    /// [`FuncId`]. Compiled once per plan ([`ReplayPlan::tapes`]) and
    /// shared by every replay app built from it, so a CPU-count sweep or
    /// a cache hit pays the plan→tape compile exactly once. Derived data:
    /// excluded from [`ReplayPlan::approx_bytes`] (reclaimable, and absent
    /// until first use).
    pub(crate) tapes: OnceLock<Arc<Vec<Arc<[Action]>>>>,
}

/// Plans are equal when everything the analyzer derived is; the compiled
/// tapes are a cache of it. The pattern is exhaustive, so a new field
/// does not compile until it is compared or skipped here.
impl PartialEq for ReplayPlan {
    fn eq(&self, other: &ReplayPlan) -> bool {
        let ReplayPlan {
            program,
            threads,
            create_map,
            cvs,
            sem_initial,
            n_mutexes,
            n_condvars,
            n_rwlocks,
            barrier_parties,
            once_init,
            recorded_wall,
            tapes: _,
        } = self;
        *program == other.program
            && *threads == other.threads
            && *create_map == other.create_map
            && *cvs == other.cvs
            && *sem_initial == other.sem_initial
            && *n_mutexes == other.n_mutexes
            && *n_condvars == other.n_condvars
            && *n_rwlocks == other.n_rwlocks
            && *barrier_parties == other.barrier_parties
            && *once_init == other.once_init
            && *recorded_wall == other.recorded_wall
    }
}

impl ReplayPlan {
    /// Total number of replay ops (a size metric for tests/benches).
    pub fn total_ops(&self) -> usize {
        self.threads.iter().map(|t| t.ops.len()).sum()
    }

    /// Find a thread plan by id.
    pub fn thread(&self, id: ThreadId) -> Option<&ThreadPlan> {
        self.threads.iter().find(|t| t.id == id)
    }

    /// The compiled replay tapes, one per thread in plan order (the
    /// function table built from this plan uses the same order, so tape
    /// `i` belongs to `FuncId(i)`).
    ///
    /// Fails (rather than panicking) on plans whose create bookkeeping is
    /// inconsistent — a `thr_create` with no recorded child, or a child
    /// with no thread plan. `analyze` never produces such plans; the
    /// checks guard hand-built or future deserialized ones. Errors are
    /// not cached (the error path is cold); success is compiled once.
    pub fn tapes(&self) -> Result<Arc<Vec<Arc<[Action]>>>, VppbError> {
        if let Some(t) = self.tapes.get() {
            return Ok(t.clone());
        }
        let func_of = self.func_ids();
        let mut tapes: Vec<Arc<[Action]>> = Vec::with_capacity(self.threads.len());
        for tp in &self.threads {
            let mut ops = Vec::new();
            self.compile_ops(&func_of, tp.id, &tp.ops, &mut 0, &mut ops)?;
            tapes.push(ops.into());
        }
        Ok(self.tapes.get_or_init(|| Arc::new(tapes)).clone())
    }

    /// Thread id → the [`FuncId`] its replay function gets: replay apps
    /// number their function table in plan order.
    pub(crate) fn func_ids(&self) -> BTreeMap<ThreadId, FuncId> {
        self.threads.iter().enumerate().map(|(i, t)| (t.id, FuncId(i))).collect()
    }

    /// Append the tape form of `ops` — a run of thread `id`'s plan ops
    /// that `*seq` earlier Create ops precede — to `out`, patching each
    /// Create with the [`FuncId`] of its recorded child and advancing
    /// `*seq` past it. The one place a plan op becomes a tape op: the
    /// cold tapes and the streaming conversion cache both compile here.
    /// On error `out` holds a partly patched tail; callers discard it.
    pub(crate) fn compile_ops(
        &self,
        func_of: &BTreeMap<ThreadId, FuncId>,
        id: ThreadId,
        ops: &[ReplayOp],
        seq: &mut u64,
        out: &mut Vec<Action>,
    ) -> Result<(), VppbError> {
        let start = out.len();
        out.extend_from_slice(ops);
        for op in &mut out[start..] {
            if let Action::Call(LibCall::Create { func, .. }, _) = op {
                let child = self.create_map.get(&(id, *seq)).copied().ok_or_else(|| {
                    VppbError::MalformedLog(format!(
                        "replay plan: create #{seq} on {id} has no recorded child"
                    ))
                })?;
                *seq += 1;
                *func = func_of.get(&child).copied().ok_or_else(|| {
                    VppbError::MalformedLog(format!(
                        "replay plan: created thread {child} has no thread plan"
                    ))
                })?;
            }
        }
        Ok(())
    }

    /// Approximate resident size of this plan in bytes — the charge the
    /// byte-budgeted [`crate::cache::PlanCache`] accounts an entry at.
    /// Counts the dominant owned allocations (op vectors, the create
    /// map, condvar seeds); constant per-struct overhead is folded into
    /// a fixed base so even an empty plan has a nonzero cost.
    pub fn approx_bytes(&self) -> u64 {
        let ops: usize = self
            .threads
            .iter()
            .map(|t| t.ops.len() * std::mem::size_of::<ReplayOp>() + t.start_fn.len() + 64)
            .sum();
        let create = self.create_map.len() * 32;
        let cvs: usize =
            self.cvs.iter().map(|cv| (cv.episodes.len() + cv.signal_released.len()) * 8 + 48).sum();
        let sems = self.sem_initial.len() * 4;
        let barriers = self.barrier_parties.len() * 4 + self.once_init.len() * 8;
        (256 + ops + create + cvs + sems + barriers) as u64
    }
}
