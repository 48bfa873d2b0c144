//! Naive synchronization-object state — the oracle's own transcription of
//! the DESIGN.md §3 rules, independent of `vppb_machine::sync`.
//!
//! Semantics the oracle commits to (and the engine must match):
//!
//! * mutex: direct handoff to the first FIFO waiter on unlock; unlocking
//!   a mutex you don't own is a program error.
//! * semaphore: counting, with direct handoff — a post with waiters gives
//!   the unit straight to the first waiter, never incrementing the count.
//! * condvar: plain FIFO of waiting threads; signal takes the first,
//!   broadcast drains all, a timed-out waiter removes itself.
//! * rwlock: writer preference — a queued writer blocks *new* readers;
//!   on release the first waiter decides the grant mode (a writer alone,
//!   or the whole leading run of readers together).
//! * barrier: every `parties`-th arrival trips it, waking all queued
//!   waiters; the ledger `generation * parties + queued == arrivals` is
//!   the audit's conservation law.
//! * once: the first caller runs the initializer; latecomers queue behind
//!   it and everyone after completion passes straight through.
//!
//! All queues are plain `Vec`s scanned linearly.

use vppb_model::ThreadId;

/// A Solaris `mutex_t`, naively.
#[derive(Debug, Clone, Default)]
pub struct NMutex {
    /// Current holder.
    pub owner: Option<ThreadId>,
    /// FIFO wait queue.
    pub queue: Vec<ThreadId>,
}

impl NMutex {
    /// Take the lock for `t` if free.
    pub fn try_lock(&mut self, t: ThreadId) -> bool {
        if self.owner.is_none() {
            self.owner = Some(t);
            true
        } else {
            false
        }
    }

    /// Release by `t`: hand to the first waiter (now the owner), if any.
    pub fn unlock(&mut self, t: ThreadId) -> Result<Option<ThreadId>, String> {
        if self.owner != Some(t) {
            return Err(format!("{t} unlocked a mutex owned by {:?}", self.owner));
        }
        self.owner = if self.queue.is_empty() { None } else { Some(self.queue.remove(0)) };
        Ok(self.owner)
    }
}

/// A Solaris `sema_t`, naively.
#[derive(Debug, Clone, Default)]
pub struct NSem {
    /// Available units.
    pub count: u32,
    /// FIFO wait queue.
    pub queue: Vec<ThreadId>,
}

impl NSem {
    /// A semaphore with `initial` units.
    pub fn new(initial: u32) -> NSem {
        NSem { count: initial, queue: Vec::new() }
    }

    /// Decrement if possible.
    pub fn try_wait(&mut self) -> bool {
        if self.count > 0 {
            self.count -= 1;
            true
        } else {
            false
        }
    }

    /// Post one unit: direct handoff to the first waiter, else count up.
    pub fn post(&mut self) -> Option<ThreadId> {
        if self.queue.is_empty() {
            self.count += 1;
            None
        } else {
            Some(self.queue.remove(0))
        }
    }
}

/// A Solaris `cond_t`, naively.
#[derive(Debug, Clone, Default)]
pub struct NCond {
    /// FIFO wait queue.
    pub queue: Vec<ThreadId>,
}

impl NCond {
    /// First waiter, for `cond_signal`.
    pub fn signal(&mut self) -> Option<ThreadId> {
        if self.queue.is_empty() {
            None
        } else {
            Some(self.queue.remove(0))
        }
    }

    /// All waiters in FIFO order, for `cond_broadcast`.
    pub fn broadcast(&mut self) -> Vec<ThreadId> {
        std::mem::take(&mut self.queue)
    }

    /// Remove a specific waiter (timeout); whether it was still queued.
    pub fn remove(&mut self, t: ThreadId) -> bool {
        match self.queue.iter().position(|&q| q == t) {
            Some(pos) => {
                self.queue.remove(pos);
                true
            }
            None => false,
        }
    }
}

/// Who waits on an rwlock and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NRwWaiter {
    /// Queued for shared access.
    Reader(ThreadId),
    /// Queued for exclusive access.
    Writer(ThreadId),
}

/// A Solaris `rwlock_t` with writer preference, naively.
#[derive(Debug, Clone, Default)]
pub struct NRw {
    /// Threads holding shared access.
    pub readers: Vec<ThreadId>,
    /// Thread holding exclusive access.
    pub writer: Option<ThreadId>,
    /// FIFO wait queue.
    pub queue: Vec<NRwWaiter>,
}

impl NRw {
    fn writers_queued(&self) -> bool {
        self.queue.iter().any(|w| matches!(w, NRwWaiter::Writer(_)))
    }

    /// Shared acquisition; a queued writer blocks new readers.
    pub fn try_read(&mut self, t: ThreadId) -> bool {
        if self.writer.is_none() && !self.writers_queued() {
            self.readers.push(t);
            true
        } else {
            false
        }
    }

    /// Exclusive acquisition.
    pub fn try_write(&mut self, t: ThreadId) -> bool {
        if self.writer.is_none() && self.readers.is_empty() {
            self.writer = Some(t);
            true
        } else {
            false
        }
    }

    /// Release by `t`; returns the threads granted the lock as a result.
    pub fn unlock(&mut self, t: ThreadId) -> Result<Vec<ThreadId>, String> {
        if self.writer == Some(t) {
            self.writer = None;
        } else if let Some(pos) = self.readers.iter().position(|&r| r == t) {
            self.readers.remove(pos);
        } else {
            return Err(format!("{t} rw-unlocked a lock it does not hold"));
        }
        let mut granted = Vec::new();
        if self.writer.is_some() || !self.readers.is_empty() {
            return Ok(granted); // still held by remaining readers
        }
        match self.queue.first().copied() {
            Some(NRwWaiter::Writer(t)) => {
                self.queue.remove(0);
                self.writer = Some(t);
                granted.push(t);
            }
            Some(NRwWaiter::Reader(_)) => {
                while let Some(&NRwWaiter::Reader(t)) = self.queue.first() {
                    self.queue.remove(0);
                    self.readers.push(t);
                    granted.push(t);
                }
            }
            None => {}
        }
        Ok(granted)
    }
}

/// A cyclic barrier, naively. Mirrors `vppb_machine::sync::BarrierState`
/// field for field so the shared auditor's generation-count law applies
/// to both implementations unchanged.
#[derive(Debug, Clone, Default)]
pub struct NBarrier {
    /// How many arrivals trip the barrier.
    pub parties: u32,
    /// Threads blocked waiting for the current generation to trip.
    pub queue: Vec<ThreadId>,
    /// Completed generations (trips).
    pub generation: u64,
    /// Total arrivals across all generations.
    pub arrivals: u64,
}

impl NBarrier {
    /// A barrier tripping every `parties` arrivals.
    pub fn new(parties: u32) -> NBarrier {
        NBarrier { parties, ..NBarrier::default() }
    }

    /// Thread `t` arrives. If this arrival trips the barrier, returns the
    /// waiters to wake (not including `t`, who never blocked); otherwise
    /// `t` is queued and `None` is returned.
    pub fn arrive(&mut self, t: ThreadId) -> Option<Vec<ThreadId>> {
        self.arrivals += 1;
        if self.queue.len() as u64 + 1 >= self.parties as u64 {
            self.generation += 1;
            Some(std::mem::take(&mut self.queue))
        } else {
            self.queue.push(t);
            None
        }
    }
}

/// A `pthread_once`-style one-time initializer, naively.
#[derive(Debug, Clone, Default)]
pub struct NOnce {
    /// The initializer has completed.
    pub done: bool,
    /// The thread currently running the initializer, if any.
    pub running: Option<ThreadId>,
    /// Threads blocked waiting for the running initializer to finish.
    pub queue: Vec<ThreadId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: ThreadId = ThreadId(1);
    const T4: ThreadId = ThreadId(4);
    const T5: ThreadId = ThreadId(5);

    #[test]
    fn mutex_direct_handoff() {
        let mut m = NMutex::default();
        assert!(m.try_lock(T1));
        assert!(!m.try_lock(T4));
        m.queue.push(T4);
        assert_eq!(m.unlock(T1).unwrap(), Some(T4));
        assert_eq!(m.owner, Some(T4));
        assert!(m.unlock(T5).is_err());
    }

    #[test]
    fn semaphore_handoff_skips_the_count() {
        let mut s = NSem::new(1);
        assert!(s.try_wait());
        assert!(!s.try_wait());
        s.queue.push(T4);
        assert_eq!(s.post(), Some(T4));
        assert_eq!(s.count, 0);
        assert_eq!(s.post(), None);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn rwlock_writer_preference_and_reader_batch() {
        let mut rw = NRw::default();
        assert!(rw.try_write(T1));
        rw.queue.push(NRwWaiter::Reader(T4));
        rw.queue.push(NRwWaiter::Reader(T5));
        rw.queue.push(NRwWaiter::Writer(ThreadId(6)));
        assert_eq!(rw.unlock(T1).unwrap(), vec![T4, T5]);
        assert!(!rw.try_read(ThreadId(7)), "queued writer blocks new readers");
    }

    #[test]
    fn barrier_ledger_counts_every_arrival() {
        let mut b = NBarrier::new(3);
        assert!(b.arrive(T1).is_none());
        assert!(b.arrive(T4).is_none());
        assert_eq!(b.arrive(T5), Some(vec![T1, T4]));
        assert_eq!((b.generation, b.arrivals, b.queue.len()), (1, 3, 0));
        assert!(b.arrive(T1).is_none());
        assert_eq!(b.generation * u64::from(b.parties) + b.queue.len() as u64, b.arrivals);
    }
}
