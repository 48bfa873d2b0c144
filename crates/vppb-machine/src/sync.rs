//! Synchronization-object state.
//!
//! Pure data structures with deterministic FIFO wait queues; the engine
//! decides *when* woken threads become runnable (communication delay) and
//! charges costs. Mutex release hands the lock directly to the first
//! waiter ("direct handoff"), which keeps executions deterministic — the
//! machine has no adaptive barging.
//!
//! Waiters and owners are stored as the engine's dense thread handles
//! (`Th`, the index into its struct-of-arrays thread table), not
//! `ThreadId`s: the hot wake paths (mutex handoff, semaphore grant,
//! condvar signal) then index straight into the thread table with no id
//! lookup. Ownership violations are reported structurally (the offending
//! handle) so the engine can format the error with real thread ids.

use std::collections::VecDeque;

/// Dense thread handle: the engine's index into its thread table. Stable
/// for the lifetime of a run (threads are never removed from the table).
pub type Th = u32;

/// A Solaris `mutex_t`.
#[derive(Debug, Clone, Default)]
pub struct MutexState {
    /// Current holder.
    pub owner: Option<Th>,
    /// FIFO wait queue.
    pub queue: VecDeque<Th>,
}

impl MutexState {
    /// Try to take the lock for `t`; returns `true` on success.
    pub fn try_lock(&mut self, t: Th) -> bool {
        if self.owner.is_none() {
            self.owner = Some(t);
            true
        } else {
            false
        }
    }

    /// Release by `t`; returns `Err(actual owner)` if `t` is not the
    /// owner, otherwise the thread the lock was handed to (now the new
    /// owner), if any.
    pub fn unlock(&mut self, t: Th) -> Result<Option<Th>, Option<Th>> {
        if self.owner != Some(t) {
            return Err(self.owner);
        }
        self.owner = self.queue.pop_front();
        Ok(self.owner)
    }
}

/// A Solaris `sema_t`.
#[derive(Debug, Clone, Default)]
pub struct SemState {
    /// Available units.
    pub count: u32,
    /// FIFO wait queue.
    pub queue: VecDeque<Th>,
}

impl SemState {
    /// A semaphore with `initial` units.
    pub fn new(initial: u32) -> SemState {
        SemState { count: initial, queue: VecDeque::new() }
    }

    /// Try to decrement; `true` on success.
    pub fn try_wait(&mut self) -> bool {
        if self.count > 0 {
            self.count -= 1;
            true
        } else {
            false
        }
    }

    /// Post one unit; if a waiter exists the unit is handed to it directly
    /// (returned), otherwise the count is incremented.
    pub fn post(&mut self) -> Option<Th> {
        match self.queue.pop_front() {
            Some(t) => Some(t),
            None => {
                self.count += 1;
                None
            }
        }
    }
}

/// A Solaris `cond_t`.
#[derive(Debug, Clone, Default)]
pub struct CondState {
    /// FIFO wait queue.
    pub queue: VecDeque<Th>,
}

impl CondState {
    /// Remove and return the first waiter (for `cond_signal`).
    pub fn signal(&mut self) -> Option<Th> {
        self.queue.pop_front()
    }

    /// Remove and return all waiters in FIFO order (for `cond_broadcast`).
    pub fn broadcast(&mut self) -> Vec<Th> {
        self.queue.drain(..).collect()
    }

    /// Remove a specific waiter (timed-wait timeout); `true` if it was
    /// still queued.
    pub fn remove(&mut self, t: Th) -> bool {
        if let Some(pos) = self.queue.iter().position(|&q| q == t) {
            self.queue.remove(pos);
            true
        } else {
            false
        }
    }
}

/// Who waits on a rwlock and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RwWaiter {
    /// Queued for shared access.
    Reader(Th),
    /// Queued for exclusive access.
    Writer(Th),
}

/// A Solaris `rwlock_t`: queued writers are preferred over new readers.
#[derive(Debug, Clone, Default)]
pub struct RwState {
    /// Threads currently holding shared access.
    pub readers: Vec<Th>,
    /// Thread currently holding exclusive access.
    pub writer: Option<Th>,
    /// FIFO wait queue (writer preference on grant).
    pub queue: VecDeque<RwWaiter>,
}

impl RwState {
    fn writers_queued(&self) -> bool {
        self.queue.iter().any(|w| matches!(w, RwWaiter::Writer(_)))
    }

    /// Try a read acquisition. A queued writer blocks new readers, as on
    /// Solaris.
    pub fn try_read(&mut self, t: Th) -> bool {
        if self.writer.is_none() && !self.writers_queued() {
            self.readers.push(t);
            true
        } else {
            false
        }
    }

    /// Try a write acquisition.
    pub fn try_write(&mut self, t: Th) -> bool {
        if self.writer.is_none() && self.readers.is_empty() {
            self.writer = Some(t);
            true
        } else {
            false
        }
    }

    /// Unlock by `t` (reader or writer); returns threads granted the lock
    /// as a result (the grants are applied already). `None` if `t` holds
    /// neither the write lock nor a read share.
    pub fn unlock(&mut self, t: Th) -> Option<Vec<Th>> {
        if self.writer == Some(t) {
            self.writer = None;
        } else if let Some(pos) = self.readers.iter().position(|&r| r == t) {
            self.readers.remove(pos);
        } else {
            return None;
        }
        Some(self.grant())
    }

    /// Hand the lock to queued waiters: the first waiter decides the mode
    /// (writer gets it alone; a reader is granted together with all
    /// immediately following readers).
    fn grant(&mut self) -> Vec<Th> {
        let mut granted = Vec::new();
        if self.writer.is_some() || !self.readers.is_empty() {
            // Still held (other readers remain).
            return granted;
        }
        match self.queue.front() {
            Some(RwWaiter::Writer(_)) => {
                if let Some(RwWaiter::Writer(t)) = self.queue.pop_front() {
                    self.writer = Some(t);
                    granted.push(t);
                }
            }
            Some(RwWaiter::Reader(_)) => {
                while let Some(RwWaiter::Reader(t)) = self.queue.front().copied() {
                    self.queue.pop_front();
                    self.readers.push(t);
                    granted.push(t);
                }
            }
            None => {}
        }
        granted
    }
}

/// A cyclic barrier for a fixed party count.
#[derive(Debug, Clone, Default)]
pub struct BarrierState {
    /// How many arrivals trip the barrier.
    pub parties: u32,
    /// Threads blocked waiting for the current generation to trip.
    pub queue: VecDeque<Th>,
    /// Completed generations (trips).
    pub generation: u64,
    /// Total arrivals across all generations; the audit's conservation
    /// law is `generation * parties + queue.len() == arrivals`.
    pub arrivals: u64,
}

impl BarrierState {
    /// A barrier tripping every `parties` arrivals.
    pub fn new(parties: u32) -> BarrierState {
        BarrierState { parties, ..BarrierState::default() }
    }

    /// Thread `t` arrives. If this arrival trips the barrier, returns the
    /// waiters to wake (not including `t`, who never blocked); otherwise
    /// `t` is queued and `None` is returned.
    pub fn arrive(&mut self, t: Th) -> Option<Vec<Th>> {
        self.arrivals += 1;
        if self.queue.len() as u64 + 1 >= self.parties as u64 {
            self.generation += 1;
            Some(self.queue.drain(..).collect())
        } else {
            self.queue.push_back(t);
            None
        }
    }
}

/// A `pthread_once`-style one-time initializer.
#[derive(Debug, Clone, Default)]
pub struct OnceState {
    /// The initializer has completed.
    pub done: bool,
    /// The thread currently running the initializer, if any.
    pub running: Option<Th>,
    /// Threads blocked waiting for the running initializer to finish.
    pub queue: VecDeque<Th>,
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: Th = 1;
    const T4: Th = 4;
    const T5: Th = 5;

    #[test]
    fn mutex_handoff_is_fifo() {
        let mut m = MutexState::default();
        assert!(m.try_lock(T1));
        assert!(!m.try_lock(T4));
        m.queue.push_back(T4);
        m.queue.push_back(T5);
        assert_eq!(m.unlock(T1).unwrap(), Some(T4));
        assert_eq!(m.owner, Some(T4));
        assert_eq!(m.unlock(T4).unwrap(), Some(T5));
        assert_eq!(m.unlock(T5).unwrap(), None);
    }

    #[test]
    fn mutex_unlock_by_non_owner_reports_owner() {
        let mut m = MutexState::default();
        assert!(m.try_lock(T1));
        assert_eq!(m.unlock(T4), Err(Some(T1)));
        assert_eq!(MutexState::default().unlock(T1), Err(None));
    }

    #[test]
    fn semaphore_counting_and_handoff() {
        let mut s = SemState::new(2);
        assert!(s.try_wait());
        assert!(s.try_wait());
        assert!(!s.try_wait());
        s.queue.push_back(T4);
        assert_eq!(s.post(), Some(T4)); // direct handoff, count stays 0
        assert_eq!(s.count, 0);
        assert_eq!(s.post(), None);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn cond_signal_broadcast_remove() {
        let mut c = CondState::default();
        c.queue.extend([T1, T4, T5]);
        assert_eq!(c.signal(), Some(T1));
        assert!(c.remove(T5));
        assert!(!c.remove(T5));
        assert_eq!(c.broadcast(), vec![T4]);
        assert_eq!(c.signal(), None);
    }

    #[test]
    fn rwlock_readers_share_writers_exclude() {
        let mut rw = RwState::default();
        assert!(rw.try_read(T1));
        assert!(rw.try_read(T4));
        assert!(!rw.try_write(T5));
        rw.queue.push_back(RwWaiter::Writer(T5));
        // Writer queued -> new readers must wait (writer preference).
        assert!(!rw.try_read(6));
        assert_eq!(rw.unlock(T1).unwrap(), Vec::<Th>::new());
        assert_eq!(rw.unlock(T4).unwrap(), vec![T5]);
        assert_eq!(rw.writer, Some(T5));
    }

    #[test]
    fn rwlock_grants_reader_batch() {
        let mut rw = RwState::default();
        assert!(rw.try_write(T1));
        rw.queue.push_back(RwWaiter::Reader(T4));
        rw.queue.push_back(RwWaiter::Reader(T5));
        rw.queue.push_back(RwWaiter::Writer(6));
        let granted = rw.unlock(T1).unwrap();
        assert_eq!(granted, vec![T4, T5]);
        assert_eq!(rw.readers, vec![T4, T5]);
        assert!(rw.writer.is_none());
    }

    #[test]
    fn rwlock_unlock_by_stranger_fails() {
        let mut rw = RwState::default();
        assert!(rw.try_read(T1));
        assert!(rw.unlock(T5).is_none());
    }

    #[test]
    fn barrier_trips_every_parties_arrivals() {
        let mut b = BarrierState::new(3);
        assert_eq!(b.arrive(T1), None);
        assert_eq!(b.arrive(T4), None);
        assert_eq!(b.arrive(T5), Some(vec![T1, T4]));
        assert_eq!(b.generation, 1);
        assert_eq!(b.arrivals, 3);
        // Cyclic: the next generation starts empty.
        assert_eq!(b.arrive(T4), None);
        assert_eq!(b.queue.len(), 1);
        assert_eq!(b.generation * b.parties as u64 + b.queue.len() as u64, b.arrivals);
    }

    #[test]
    fn single_party_barrier_never_blocks() {
        let mut b = BarrierState::new(1);
        assert_eq!(b.arrive(T1), Some(vec![]));
        assert_eq!(b.arrive(T1), Some(vec![]));
        assert_eq!(b.generation, 2);
    }
}
