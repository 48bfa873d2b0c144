//! Generative synthesis of random-but-valid recorded programs.
//!
//! A [`ProgSpec`] is a small intermediate representation of a threaded
//! program: a list of workers (bound or unbound, optionally reprioritized)
//! each running a list of [`Seg`]ments over a shared synchronization
//! topology, optionally separated by global barrier rounds. The spec — not
//! the built [`App`] — is the unit the shrinker edits, so every shrink
//! candidate rebuilds a *consistent* program (barrier parties always equal
//! the surviving worker count, sync objects are re-declared from scratch).
//!
//! Every generated program is deadlock-free **by construction**:
//!
//! * lock regions never nest: each segment is acquire → work → release of
//!   a single object;
//! * semaphores start with at least one unit and are used as locks
//!   (wait → work → post);
//! * trylocks have *scheduling-independent* outcomes, so the recorded
//!   outcome is valid under any replay interleaving: a failing trylock
//!   targets a mutex `main` holds for the workers' whole lifetime, a
//!   succeeding one targets a mutex private to that one segment;
//! * timed condition waits use condvars nobody ever signals, so they
//!   always time out (exercising the §3.2 timeout replay rule);
//! * broadcast barriers are sense-reversing condvar barriers over all
//!   workers, and every worker passes every round;
//! * native barrier rounds put *all* workers on one `barrier_wait`
//!   barrier whose party count always equals the worker count, so every
//!   generation trips;
//! * condvar-barrier and native-barrier rounds share one interleaved
//!   global schedule, so every worker passes the same rendezvous
//!   sequence in the same order (two independently positioned global
//!   rendezvous would deadlock when workers of different body lengths
//!   hit them in different orders);
//! * `once` regions cannot deadlock by nature: the winner runs the
//!   initializer on its own CPU and latecomers block only until it
//!   completes.

use vppb_model::corrupt::ChaosRng;
use vppb_model::Duration;
use vppb_threads::{App, AppBuilder, BarrierDecl, CondRef, MutexRef, OnceRef, RwRef, SemRef};

/// One step of a worker's body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seg {
    /// Pure computation, in microseconds.
    Work(u64),
    /// `lock(mutex m); work; unlock` on a shared mutex.
    Locked { mutex: u32, work_us: u64 },
    /// A `mutex_trylock` that always fails (the target is held by `main`
    /// for the workers' whole lifetime).
    TryLockFail,
    /// A `mutex_trylock` that always succeeds (the target is private to
    /// this segment), then works and unlocks.
    TryLockOk { work_us: u64 },
    /// `rw_rdlock(r); work; rw_unlock`.
    ReadLocked { rw: u32, work_us: u64 },
    /// `rw_wrlock(r); work; rw_unlock`.
    WriteLocked { rw: u32, work_us: u64 },
    /// `sema_wait(s); work; sema_post` — the semaphore as a lock.
    SemRegion { sem: u32, work_us: u64 },
    /// `lock(m); cond_timedwait(cv, m, timeout); unlock` on a condvar
    /// nobody signals — always times out.
    TimedWait { mutex: u32, cond: u32, timeout_us: u64 },
    /// A blocking I/O call (sleeps the LWP), in microseconds.
    Io(u64),
    /// `thr_yield`.
    Yield,
    /// `once_call(o)` — first arrival runs the initializer, latecomers
    /// wait for it, everyone after passes through.
    OnceRegion { once: u32 },
}

/// One worker thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSpec {
    /// Created with `THR_BOUND` (a dedicated LWP).
    pub bound: bool,
    /// `thr_setprio(thr_self(), p)` as the first statement.
    pub prio: Option<i32>,
    /// Body segments, in order.
    pub segs: Vec<Seg>,
}

/// A complete generated program, the shrinker's editing unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgSpec {
    /// The seed this spec was generated from (kept for repro dumps).
    pub seed: u64,
    /// Worker threads created (and joined) by `main`.
    pub workers: Vec<WorkerSpec>,
    /// Global condvar-broadcast barrier rounds splitting every worker's
    /// body; parties are always recomputed as `workers.len()` at build
    /// time.
    pub barrier_rounds: u32,
    /// Global *native* (`barrier_wait`) barrier rounds, same
    /// all-workers-pass-every-round construction on its own chunking.
    pub native_barrier_rounds: u32,
    /// One-time-initializer topology size (for `OnceRegion`).
    pub n_onces: u32,
    /// Initializer latency per once object, µs.
    pub once_init_us: Vec<u64>,
    /// Shared-mutex topology size (for `Locked` / `TimedWait`).
    pub n_mutexes: u32,
    /// Semaphore topology size (each starts with one unit).
    pub n_sems: u32,
    /// Timeout-condvar topology size.
    pub n_conds: u32,
    /// Reader-writer-lock topology size.
    pub n_rws: u32,
    /// `main` joins with wildcard `thr_join(0, …)` instead of per-slot.
    pub wildcard_join: bool,
}

/// Generator size knobs.
#[derive(Debug, Clone, Copy)]
pub struct GenParams {
    /// Maximum worker count (at least 1 is always generated).
    pub max_workers: usize,
    /// Maximum segments per worker.
    pub max_segs: usize,
    /// Maximum barrier rounds.
    pub max_barrier_rounds: u32,
}

impl Default for GenParams {
    fn default() -> GenParams {
        GenParams { max_workers: 6, max_segs: 8, max_barrier_rounds: 2 }
    }
}

/// Work-segment durations, µs. Short enough that a 500-seed corpus runs
/// in seconds, long enough that quanta expire and preemption happens.
fn work_us(rng: &mut ChaosRng) -> u64 {
    10 + rng.below(1990) as u64
}

impl ProgSpec {
    /// Deterministically synthesize the spec for `seed`.
    pub fn generate(seed: u64, p: &GenParams) -> ProgSpec {
        // Decorrelate from other splitmix users of small seeds.
        let mut rng = ChaosRng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xFA22);
        let n_workers = 1 + rng.below(p.max_workers.max(1));
        let n_mutexes = 1 + rng.below(3) as u32;
        let n_sems = 1 + rng.below(2) as u32;
        let n_conds = 1 + rng.below(2) as u32;
        let n_rws = 1 + rng.below(2) as u32;
        let n_onces = 1 + rng.below(2) as u32;
        let once_init_us = (0..n_onces).map(|_| 20 + rng.below(480) as u64).collect();
        let workers = (0..n_workers)
            .map(|_| {
                let bound = rng.below(4) == 0; // ~25 % bound threads
                let prio = match rng.below(3) {
                    0 => Some(rng.below(6) as i32),
                    _ => None,
                };
                let n_segs = rng.below(p.max_segs + 1);
                let segs = (0..n_segs)
                    .map(|_| match rng.below(13) {
                        0..=2 => Seg::Work(work_us(&mut rng)),
                        3 | 4 => Seg::Locked {
                            mutex: rng.below(n_mutexes as usize) as u32,
                            work_us: work_us(&mut rng),
                        },
                        5 => Seg::TryLockFail,
                        6 => Seg::TryLockOk { work_us: work_us(&mut rng) },
                        7 => Seg::ReadLocked {
                            rw: rng.below(n_rws as usize) as u32,
                            work_us: work_us(&mut rng),
                        },
                        8 => Seg::WriteLocked {
                            rw: rng.below(n_rws as usize) as u32,
                            work_us: work_us(&mut rng),
                        },
                        9 => Seg::SemRegion {
                            sem: rng.below(n_sems as usize) as u32,
                            work_us: work_us(&mut rng),
                        },
                        10 => Seg::TimedWait {
                            mutex: rng.below(n_mutexes as usize) as u32,
                            cond: rng.below(n_conds as usize) as u32,
                            timeout_us: 50 + rng.below(450) as u64,
                        },
                        11 => Seg::OnceRegion { once: rng.below(n_onces as usize) as u32 },
                        _ => {
                            if rng.below(2) == 0 {
                                Seg::Io(20 + rng.below(480) as u64)
                            } else {
                                Seg::Yield
                            }
                        }
                    })
                    .collect();
                WorkerSpec { bound, prio, segs }
            })
            .collect();
        ProgSpec {
            seed,
            workers,
            barrier_rounds: rng.below(p.max_barrier_rounds as usize + 1) as u32,
            native_barrier_rounds: rng.below(p.max_barrier_rounds as usize + 1) as u32,
            n_mutexes,
            n_sems,
            n_conds,
            n_rws,
            n_onces,
            once_init_us,
            wildcard_join: rng.below(3) == 0,
        }
    }

    /// Whether any worker runs a [`Seg::TryLockFail`] (decides whether
    /// `main` holds the fail-target mutex around the workers' lifetime).
    fn has_fail_trylock(&self) -> bool {
        self.workers.iter().any(|w| w.segs.iter().any(|s| matches!(s, Seg::TryLockFail)))
    }

    /// Build the spec into a recordable [`App`]. Infallible for generated
    /// and shrunk specs (all topology indices are in range by
    /// construction).
    pub fn build_app(&self) -> App {
        let mut b = AppBuilder::new(format!("fuzz-{:016x}", self.seed), "fuzz.c");
        let mutexes: Vec<MutexRef> = (0..self.n_mutexes).map(|_| b.mutex()).collect();
        let sems: Vec<SemRef> = (0..self.n_sems).map(|_| b.semaphore(1)).collect();
        let conds: Vec<CondRef> = (0..self.n_conds).map(|_| b.condvar()).collect();
        let rws: Vec<RwRef> = (0..self.n_rws).map(|_| b.rwlock()).collect();
        // The always-fail trylock target, held by main while workers run.
        let held = if self.has_fail_trylock() { Some(b.mutex()) } else { None };
        // One private mutex per TryLockOk occurrence, so its success is
        // scheduling-independent.
        let n_private: usize = self
            .workers
            .iter()
            .flat_map(|w| &w.segs)
            .filter(|s| matches!(s, Seg::TryLockOk { .. }))
            .count();
        let private: Vec<MutexRef> = (0..n_private).map(|_| b.mutex()).collect();
        let onces: Vec<OnceRef> = self
            .once_init_us
            .iter()
            .take(self.n_onces as usize)
            .map(|&us| b.once(Duration::from_micros(us)))
            .collect();
        let barrier = if self.barrier_rounds > 0 && !self.workers.is_empty() {
            Some(BarrierDecl::declare(&mut b, self.workers.len() as u32))
        } else {
            None
        };
        // The native barrier: parties always equal the worker count, so
        // every generation trips no matter which workers survive a shrink.
        let native_bar = if self.native_barrier_rounds > 0 && !self.workers.is_empty() {
            Some(b.barrier(self.workers.len() as u32))
        } else {
            None
        };

        let mut next_private = 0usize;
        let funcs: Vec<_> = self
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                // Assign this worker's private-mutex slice up front so the
                // closure below owns plain data.
                let mine: Vec<MutexRef> = w
                    .segs
                    .iter()
                    .filter(|s| matches!(s, Seg::TryLockOk { .. }))
                    .map(|_| {
                        let m = private[next_private];
                        next_private += 1;
                        m
                    })
                    .collect();
                let w = w.clone();
                // One interleaved global rendezvous schedule shared by
                // every worker (`true` = condvar-barrier round, `false` =
                // native barrier round): all workers pass the same
                // sequence in the same order, so the two barrier kinds
                // can never cross-block each other.
                let schedule: Vec<bool> = {
                    let (mut cv, mut nat) =
                        (self.barrier_rounds as usize, self.native_barrier_rounds as usize);
                    let mut s = Vec::with_capacity(cv + nat);
                    while cv > 0 || nat > 0 {
                        if cv > 0 {
                            s.push(true);
                            cv -= 1;
                        }
                        if nat > 0 {
                            s.push(false);
                            nat -= 1;
                        }
                    }
                    s
                };
                let (mutexes, sems, conds, rws, onces) =
                    (mutexes.clone(), sems.clone(), conds.clone(), rws.clone(), onces.clone());
                b.func(format!("w{i}"), move |f| {
                    if let Some(p) = w.prio {
                        f.set_prio_self(p);
                    }
                    // Split the body into rounds+1 chunks with the next
                    // scheduled rendezvous after each of the first
                    // `rounds` chunks.
                    let rounds = schedule.len();
                    let chunk = w.segs.len().div_ceil(rounds + 1).max(1);
                    let emit = |f: &mut vppb_threads::FnBuilder, k: usize| {
                        if schedule[k] {
                            if let Some(bar) = &barrier {
                                bar.wait(f);
                            }
                        } else if let Some(nb) = native_bar {
                            f.barrier_wait(nb);
                        }
                    };
                    let mut private_iter = mine.into_iter();
                    for (si, seg) in w.segs.iter().enumerate() {
                        if si > 0 && si % chunk == 0 && si / chunk <= rounds {
                            emit(f, si / chunk - 1);
                        }
                        match *seg {
                            Seg::Work(us) => f.work_us(us),
                            Seg::Locked { mutex, work_us } => {
                                f.lock(mutexes[mutex as usize]);
                                f.work_us(work_us);
                                f.unlock(mutexes[mutex as usize]);
                            }
                            Seg::TryLockFail => {
                                f.trylock(held.expect("held mutex declared"));
                            }
                            Seg::TryLockOk { work_us } => {
                                let m = private_iter.next().expect("private mutex declared");
                                f.trylock(m);
                                f.work_us(work_us);
                                f.unlock(m);
                            }
                            Seg::ReadLocked { rw, work_us } => {
                                f.rd_lock(rws[rw as usize]);
                                f.work_us(work_us);
                                f.rw_unlock(rws[rw as usize]);
                            }
                            Seg::WriteLocked { rw, work_us } => {
                                f.wr_lock(rws[rw as usize]);
                                f.work_us(work_us);
                                f.rw_unlock(rws[rw as usize]);
                            }
                            Seg::SemRegion { sem, work_us } => {
                                f.sem_wait(sems[sem as usize]);
                                f.work_us(work_us);
                                f.sem_post(sems[sem as usize]);
                            }
                            Seg::TimedWait { mutex, cond, timeout_us } => {
                                f.lock(mutexes[mutex as usize]);
                                f.cond_timedwait(
                                    conds[cond as usize],
                                    mutexes[mutex as usize],
                                    Duration::from_micros(timeout_us),
                                );
                                f.unlock(mutexes[mutex as usize]);
                            }
                            Seg::Io(us) => f.io_us(us),
                            Seg::Yield => f.yield_now(),
                            Seg::OnceRegion { once } => f.once_call(onces[once as usize]),
                        }
                    }
                    // Remaining rendezvous rounds (short bodies may not
                    // have reached every chunk boundary) — still in
                    // schedule order.
                    let taken = if w.segs.is_empty() {
                        0
                    } else {
                        ((w.segs.len() - 1) / chunk).min(rounds)
                    };
                    for k in taken..rounds {
                        emit(f, k);
                    }
                })
            })
            .collect();

        let workers: Vec<bool> = self.workers.iter().map(|w| w.bound).collect();
        let wildcard = self.wildcard_join;
        b.main(move |f| {
            if let Some(h) = held {
                f.lock(h);
            }
            let mut slots = Vec::new();
            for (i, &bound) in workers.iter().enumerate() {
                let slot = if bound { f.create_bound(funcs[i]) } else { f.create(funcs[i]) };
                slots.push(slot);
            }
            if wildcard {
                for _ in &slots {
                    f.join_any();
                }
            } else {
                for &s in &slots {
                    f.join(s);
                }
            }
            if let Some(h) = held {
                f.unlock(h);
            }
        });
        b.build().expect("generated spec builds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_builds() {
        let p = GenParams::default();
        for seed in 0..40 {
            let a = ProgSpec::generate(seed, &p);
            let b = ProgSpec::generate(seed, &p);
            assert_eq!(a, b, "seed {seed} must generate deterministically");
            let app = a.build_app();
            app.validate().expect("generated app validates");
        }
    }

    #[test]
    fn every_worker_passes_every_barrier_round() {
        // A spec with barrier rounds and wildly different body lengths
        // must still terminate when recorded (all parties reach all
        // rounds) — proven here by just running it single-threaded.
        let spec = ProgSpec {
            seed: 7,
            workers: vec![
                WorkerSpec { bound: false, prio: None, segs: vec![] },
                WorkerSpec { bound: false, prio: Some(3), segs: vec![Seg::Work(100); 7] },
                WorkerSpec { bound: true, prio: None, segs: vec![Seg::Yield] },
            ],
            barrier_rounds: 2,
            native_barrier_rounds: 1,
            n_mutexes: 1,
            n_sems: 1,
            n_conds: 1,
            n_rws: 1,
            n_onces: 1,
            once_init_us: vec![100],
            wildcard_join: true,
        };
        let app = spec.build_app();
        app.validate().expect("validates");
    }

    #[test]
    fn grammar_reaches_the_new_primitives() {
        // Across a modest seed range the generator must emit rwlock
        // segments, once regions and native barrier rounds — otherwise the
        // differential grid never exercises the new oracle rules.
        let p = GenParams::default();
        let (mut rw, mut once, mut nbar) = (false, false, false);
        for seed in 0..200 {
            let s = ProgSpec::generate(seed, &p);
            rw |= s
                .workers
                .iter()
                .flat_map(|w| &w.segs)
                .any(|g| matches!(g, Seg::ReadLocked { .. } | Seg::WriteLocked { .. }));
            once |=
                s.workers.iter().flat_map(|w| &w.segs).any(|g| matches!(g, Seg::OnceRegion { .. }));
            nbar |= s.native_barrier_rounds > 0;
        }
        assert!(rw, "no rwlock segment in 200 seeds");
        assert!(once, "no once region in 200 seeds");
        assert!(nbar, "no native barrier round in 200 seeds");
    }
}
