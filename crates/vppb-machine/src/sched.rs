//! Pluggable scheduler models for the *user-level* run queue.
//!
//! The engine's two-level structure is common machinery: LWPs are
//! dispatched onto CPUs by kernel TS priority, parked LWPs wake when
//! user-level work appears, bound threads keep private LWPs. What a
//! [`SchedModel`] owns is the policy *between* those layers — how
//! runnable unbound threads are ordered, which thread a given LWP picks
//! next, and whether pool LWPs are preemptively time-sliced.
//!
//! Two worlds ship today:
//!
//! * [`SolarisTs`] — the paper's world. One global 128-level priority
//!   FIFO ([`crate::prioq::PrioQueue`]); any LWP pops the global maximum;
//!   `thr_setprio` re-queues; the dispatch table time-slices pool LWPs.
//!   This is the faithful default and is bit-identical to the
//!   pre-refactor hard-wired queue (the oracle grid proves it).
//! * [`AsyncPool`] — an async-executor world: cooperative tasks over M:N
//!   work-stealing run queues. Each pool LWP is a *worker* with its own
//!   deque; wakeups with no worker affinity land in a shared injector; an
//!   idle worker pops its own deque, then the injector, then steals from
//!   the other workers in deterministic ascending wrapping order. Tasks
//!   run to their next blocking point (no time slicing) and priorities do
//!   not reorder the queues.
//!
//! Models speak dense engine handles (`usize` thread/LWP table indices),
//! not `ThreadId`s, for the same reason the sync objects do: the hot
//! dispatch path must not do id lookups.

use crate::prioq::PrioQueue;
use std::collections::VecDeque;
use vppb_model::ModelKind;

/// Scheduling policy over the user-level run queue. Object-safe; the
/// engine holds a `Box<dyn SchedModel>` chosen by
/// [`vppb_model::MachineConfig::model`].
pub trait SchedModel: std::fmt::Debug + Send {
    /// Make thread `tix` runnable. `prio` is the thread's current user
    /// priority (models may ignore it); `front` requests LIFO placement
    /// (the Solaris preemption re-queue); `local`, when present, is the
    /// LWP handle whose local queue should receive the thread (a yield or
    /// block-handoff on that worker) — models without per-worker queues
    /// ignore it.
    fn push(&mut self, tix: usize, prio: i32, front: bool, local: Option<usize>);

    /// Pick the next thread for LWP `lix` to run, removing it from the
    /// queue. `None` means no runnable unbound thread exists *for this
    /// LWP* — with every model shipped today that implies the queue is
    /// globally empty, so the LWP may park.
    fn pop_for(&mut self, lix: usize) -> Option<usize>;

    /// Remove `tix` from wherever it is queued; `true` if it was queued.
    fn remove(&mut self, tix: usize) -> bool;

    /// Number of queued threads.
    fn len(&self) -> usize;

    /// Whether no thread is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `thr_setprio` on a queued thread must re-queue it at the
    /// new priority (Solaris) or leave its position alone (async: the
    /// deques are not priority-ordered).
    fn requeue_priority(&self) -> bool;

    /// Whether pool LWPs run tasks to their next blocking point instead
    /// of being preemptively time-sliced.
    fn cooperative(&self) -> bool;

    /// An unbound-pool LWP was created. Models with per-worker state
    /// allocate it here; registration order is the worker numbering that
    /// steal order is defined over.
    fn register_worker(&mut self, lix: usize);

    /// Clone into a fresh box (snapshot support).
    fn clone_box(&self) -> Box<dyn SchedModel>;
}

/// Build the model `kind` names.
pub fn build_model(kind: ModelKind) -> Box<dyn SchedModel> {
    match kind {
        ModelKind::SolarisTs => Box::new(SolarisTs::new()),
        ModelKind::AsyncPool => Box::new(AsyncPool::new()),
    }
}

/// The Solaris TS user-level policy: one global priority FIFO.
#[derive(Debug, Clone, Default)]
pub struct SolarisTs {
    rq: PrioQueue<usize>,
}

impl SolarisTs {
    /// An empty queue.
    pub fn new() -> SolarisTs {
        SolarisTs { rq: PrioQueue::new() }
    }
}

impl SchedModel for SolarisTs {
    fn push(&mut self, tix: usize, prio: i32, front: bool, _local: Option<usize>) {
        if front {
            self.rq.push_front(tix, prio);
        } else {
            self.rq.push_back(tix, prio);
        }
    }

    fn pop_for(&mut self, _lix: usize) -> Option<usize> {
        self.rq.pop_max()
    }

    fn remove(&mut self, tix: usize) -> bool {
        self.rq.remove(tix)
    }

    fn len(&self) -> usize {
        self.rq.len()
    }

    fn requeue_priority(&self) -> bool {
        true
    }

    fn cooperative(&self) -> bool {
        false
    }

    fn register_worker(&mut self, _lix: usize) {}

    fn clone_box(&self) -> Box<dyn SchedModel> {
        Box::new(self.clone())
    }
}

/// The async-executor policy: M:N work-stealing deques.
#[derive(Debug, Clone, Default)]
pub struct AsyncPool {
    /// LWP handle → worker slot (sparse).
    worker_of: Vec<Option<usize>>,
    /// Per-worker local deques, indexed by slot (registration order).
    locals: Vec<VecDeque<usize>>,
    /// Bit `w` is set exactly when `locals[w]` is non-empty, so a steal
    /// finds its victim without walking every empty deque.
    nonempty: Vec<u64>,
    /// Shared injector for wakeups with no worker affinity.
    injector: VecDeque<usize>,
    len: usize,
}

impl AsyncPool {
    /// An empty pool with no workers yet.
    pub fn new() -> AsyncPool {
        AsyncPool::default()
    }

    fn slot_of(&self, lix: usize) -> Option<usize> {
        self.worker_of.get(lix).copied().flatten()
    }

    /// Clear worker `w`'s non-empty bit if its deque has emptied.
    fn clear_if_empty(&mut self, w: usize) {
        if self.locals[w].is_empty() {
            self.nonempty[w / 64] &= !(1 << (w % 64));
        }
    }

    /// Take the oldest task of worker `w`'s deque.
    fn pop_local(&mut self, w: usize) -> Option<usize> {
        let t = self.locals[w].pop_front()?;
        self.clear_if_empty(w);
        self.len -= 1;
        Some(t)
    }

    /// The first non-empty slot at or after `start`, wrapping once
    /// around the slot table (a `start` past the last slot wraps to 0).
    fn next_nonempty(&self, start: usize) -> Option<usize> {
        let start = if start < self.locals.len() { start } else { 0 };
        let (word, bit) = (start / 64, start % 64);
        let first = self.nonempty.get(word).map_or(0, |&m| m & (!0 << bit));
        if first != 0 {
            return Some(word * 64 + first.trailing_zeros() as usize);
        }
        let n = self.nonempty.len();
        (1..=n).map(|k| (word + k) % n).find_map(|i| {
            let m = self.nonempty[i];
            (m != 0).then(|| i * 64 + m.trailing_zeros() as usize)
        })
    }
}

impl SchedModel for AsyncPool {
    fn push(&mut self, tix: usize, _prio: i32, front: bool, local: Option<usize>) {
        let q = match local.and_then(|lix| self.slot_of(lix)) {
            Some(w) => {
                self.nonempty[w / 64] |= 1 << (w % 64);
                &mut self.locals[w]
            }
            None => &mut self.injector,
        };
        if front {
            q.push_front(tix);
        } else {
            q.push_back(tix);
        }
        self.len += 1;
    }

    fn pop_for(&mut self, lix: usize) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let w = self.slot_of(lix);
        // Own deque first.
        if let Some(t) = w.and_then(|w| self.pop_local(w)) {
            return Some(t);
        }
        // Then the shared injector.
        if let Some(t) = self.injector.pop_front() {
            self.len -= 1;
            return Some(t);
        }
        // Then steal, visiting victims in ascending wrapping slot order
        // starting just after our own slot (a non-worker LWP starts at
        // slot 0). Our own deque is empty by now, so the first non-empty
        // slot from there is the victim. Steals take its oldest task.
        let v = self.next_nonempty(w.map_or(0, |w| w + 1))?;
        self.pop_local(v)
    }

    fn remove(&mut self, tix: usize) -> bool {
        if let Some(pos) = self.injector.iter().position(|&t| t == tix) {
            self.injector.remove(pos);
            self.len -= 1;
            return true;
        }
        for w in 0..self.locals.len() {
            if let Some(pos) = self.locals[w].iter().position(|&t| t == tix) {
                self.locals[w].remove(pos);
                self.clear_if_empty(w);
                self.len -= 1;
                return true;
            }
        }
        false
    }

    fn len(&self) -> usize {
        self.len
    }

    fn requeue_priority(&self) -> bool {
        false
    }

    fn cooperative(&self) -> bool {
        true
    }

    fn register_worker(&mut self, lix: usize) {
        if lix >= self.worker_of.len() {
            self.worker_of.resize(lix + 1, None);
        }
        debug_assert!(self.worker_of[lix].is_none(), "LWP {lix} registered twice");
        self.worker_of[lix] = Some(self.locals.len());
        self.locals.push(VecDeque::new());
        if self.locals.len() > self.nonempty.len() * 64 {
            self.nonempty.push(0);
        }
    }

    fn clone_box(&self) -> Box<dyn SchedModel> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solaris_pops_global_max_regardless_of_lwp() {
        let mut m = SolarisTs::new();
        m.push(1, 10, false, None);
        m.push(2, 50, false, Some(7));
        m.push(3, 10, false, None);
        assert_eq!(m.len(), 3);
        assert_eq!(m.pop_for(0), Some(2));
        assert_eq!(m.pop_for(9), Some(1), "FIFO within a level");
        assert_eq!(m.pop_for(9), Some(3));
        assert_eq!(m.pop_for(0), None);
    }

    #[test]
    fn async_pool_prefers_local_then_injector_then_steals() {
        let mut m = AsyncPool::new();
        m.register_worker(10);
        m.register_worker(11);
        m.push(1, 0, false, Some(10)); // worker 0 local
        m.push(2, 0, false, None); // injector
        m.push(3, 0, false, Some(11)); // worker 1 local
        assert_eq!(m.pop_for(10), Some(1), "own deque first");
        assert_eq!(m.pop_for(10), Some(2), "then injector");
        assert_eq!(m.pop_for(10), Some(3), "then steal from worker 1");
        assert_eq!(m.pop_for(10), None);
    }

    #[test]
    fn async_steal_order_is_ascending_wrapping() {
        let mut m = AsyncPool::new();
        for lix in [20, 21, 22] {
            m.register_worker(lix);
        }
        m.push(1, 0, false, Some(20));
        m.push(2, 0, false, Some(22));
        // Worker 1 (lix 21) has nothing local; steal order is slots
        // 2, 0 (ascending from own slot, wrapping).
        assert_eq!(m.pop_for(21), Some(2));
        assert_eq!(m.pop_for(21), Some(1));
    }

    #[test]
    fn async_ignores_priority_and_keeps_fifo() {
        let mut m = AsyncPool::new();
        m.register_worker(0);
        m.push(1, 5, false, None);
        m.push(2, 99, false, None);
        assert_eq!(m.pop_for(0), Some(1), "priority does not reorder");
        assert!(!m.requeue_priority());
        assert!(m.cooperative());
    }

    #[test]
    fn async_remove_finds_tasks_anywhere() {
        let mut m = AsyncPool::new();
        m.register_worker(0);
        m.push(1, 0, false, Some(0));
        m.push(2, 0, false, None);
        assert!(m.remove(1));
        assert!(m.remove(2));
        assert!(!m.remove(2));
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn unregistered_lwp_falls_back_to_injector_and_slot_zero() {
        let mut m = AsyncPool::new();
        m.register_worker(5);
        m.push(1, 0, false, Some(5));
        // LWP 9 was never registered (e.g. a transiently-created pool LWP
        // under FollowProgram growth); it must still drain work.
        assert_eq!(m.pop_for(9), Some(1));
    }

    /// The steal scan before the non-empty bitmask: every slot in
    /// ascending wrapping order from just after the thief's own.
    fn naive_pop(
        locals: &mut [VecDeque<usize>],
        injector: &mut VecDeque<usize>,
        w: Option<usize>,
    ) -> Option<usize> {
        if let Some(t) = w.and_then(|w| locals[w].pop_front()) {
            return Some(t);
        }
        if let Some(t) = injector.pop_front() {
            return Some(t);
        }
        let n = locals.len();
        let start = w.map_or(0, |w| w + 1);
        (0..n)
            .map(|k| (start + k) % n)
            .filter(|&v| Some(v) != w)
            .find_map(|v| locals[v].pop_front())
    }

    #[test]
    fn async_steal_matches_a_naive_scan_across_bitmask_words() {
        let mut rng = vppb_model::corrupt::ChaosRng::new(0xA5_7EA1);
        for round in 0..300 {
            let workers = 1 + rng.below(130);
            // Registered LWP handles are sparse and include a few past
            // the last worker, which act as unregistered thieves.
            let lix = |w: usize| 3 * w + 1;
            let mut m = AsyncPool::new();
            for w in 0..workers {
                m.register_worker(lix(w));
            }
            let mut locals = vec![VecDeque::new(); workers];
            let mut injector = VecDeque::new();
            let mut next_task = 0;
            for step in 0..400 {
                let w = rng.below(workers + 2);
                let slot = (w < workers).then_some(w);
                let what = format!("round {round} ({workers} workers) step {step}");
                match rng.below(10) {
                    0..=4 => {
                        let front = rng.below(4) == 0;
                        let local = rng.below(3) != 0;
                        m.push(next_task, 0, front, Some(lix(w)).filter(|_| local));
                        let q = match slot.filter(|_| local) {
                            Some(s) => &mut locals[s],
                            None => &mut injector,
                        };
                        if front {
                            q.push_front(next_task);
                        } else {
                            q.push_back(next_task);
                        }
                        next_task += 1;
                    }
                    5..=8 => {
                        let want = naive_pop(&mut locals, &mut injector, slot);
                        assert_eq!(m.pop_for(lix(w)), want, "{what}: pop");
                    }
                    _ => {
                        let t = rng.below(next_task.max(1));
                        let queued = injector.contains(&t) || locals.iter().any(|q| q.contains(&t));
                        injector.retain(|&x| x != t);
                        locals.iter_mut().for_each(|q| q.retain(|&x| x != t));
                        assert_eq!(m.remove(t), queued, "{what}: remove {t}");
                    }
                }
                let len = injector.len() + locals.iter().map(VecDeque::len).sum::<usize>();
                assert_eq!(m.len(), len, "{what}: len");
            }
        }
    }

    #[test]
    fn build_by_kind() {
        assert!(!build_model(ModelKind::SolarisTs).cooperative());
        assert!(build_model(ModelKind::AsyncPool).cooperative());
    }
}
