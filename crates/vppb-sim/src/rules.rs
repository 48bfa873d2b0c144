//! Dynamic replay rules: the [`CallInterceptor`] handling condition
//! variables.
//!
//! §6 of the paper: "since it is common to use condition variables when
//! implementing barriers, the simulator is designed to model the behaviour
//! of a barrier as accurate as possible. [...] the last thread arriving at
//! the barrier releases all the waiting threads."
//!
//! Each recorded `cond_broadcast` defines an *episode* of `parties`
//! arrivals (the recorded waiters it released, plus the broadcaster). In
//! the simulated schedule, threads can reach the barrier in any order —
//! whichever arrives **last** performs the broadcast:
//!
//! * a recorded *waiter* arriving while others are still missing waits as
//!   recorded;
//! * the recorded *broadcaster* arriving early is rewritten into a
//!   `cond_wait` (in reality it would not have been the last to increment
//!   the barrier counter, so it would have taken the wait branch);
//! * the final arrival is rewritten into `cond_broadcast`, whatever the
//!   log said it did.
//!
//! `cond_signal` on an empty queue banks a *credit* when the log shows the
//! signal released a waiter; a later `cond_wait` consumes the credit and
//! returns immediately instead of sleeping forever on a wake-up that
//! already happened.

use crate::plan::{CvPlan, ReplayPlan};
use std::collections::VecDeque;
use vppb_machine::{CallInterceptor, Intercept};
use vppb_model::{ThreadId, Time};
use vppb_threads::{CondRef, LibCall, MutexRef};

struct CvState {
    episodes: VecDeque<crate::plan::CvEpisode>,
    signal_released: VecDeque<u32>,
    /// Arrivals in the current episode (waiters queued + converted
    /// broadcaster).
    arrived: u32,
    /// Waiters currently asleep on the cv outside barrier episodes.
    plain_waiting: u32,
    /// Banked lost-signal credits.
    credits: u32,
}

impl CvState {
    fn from_plan(p: &CvPlan) -> CvState {
        CvState {
            episodes: p.episodes.iter().copied().collect(),
            signal_released: p.signal_released.iter().copied().collect(),
            arrived: 0,
            plain_waiting: 0,
            credits: 0,
        }
    }

    fn barrier_mode(&self) -> bool {
        !self.episodes.is_empty()
    }
}

/// The Simulator's replay-rule engine.
pub struct ReplayRules {
    cvs: Vec<CvState>,
    /// Barrier-aware broadcast on/off (the `whatif --no-barrier-model`
    /// ablation sets this to false, reproducing the naive replay).
    barrier_aware: bool,
}

impl ReplayRules {
    /// Rules seeded from a plan's condvar analysis.
    pub fn new(plan: &ReplayPlan, barrier_aware: bool) -> ReplayRules {
        ReplayRules { cvs: plan.cvs.iter().map(CvState::from_plan).collect(), barrier_aware }
    }

    fn on_wait(&mut self, cv: u32, mutex: u32) -> Intercept {
        let s = &mut self.cvs[cv as usize];
        if self.barrier_aware && s.barrier_mode() {
            let ep = *s.episodes.front().expect("barrier mode");
            s.arrived += 1;
            if s.arrived >= ep.parties {
                // Last arrival: this thread releases everyone.
                s.episodes.pop_front();
                s.arrived = 0;
                Intercept::Proceed(LibCall::CondBroadcast(CondRef(cv)))
            } else {
                Intercept::Proceed(LibCall::CondWait { cond: CondRef(cv), mutex: MutexRef(mutex) })
            }
        } else if s.credits > 0 {
            // A signal already "happened" for this wait.
            s.credits -= 1;
            Intercept::Skip
        } else {
            s.plain_waiting += 1;
            Intercept::Proceed(LibCall::CondWait { cond: CondRef(cv), mutex: MutexRef(mutex) })
        }
    }

    fn on_signal(&mut self, cv: u32) -> Intercept {
        let s = &mut self.cvs[cv as usize];
        let released_in_log = s.signal_released.pop_front().unwrap_or(0);
        if s.plain_waiting > 0 {
            s.plain_waiting -= 1;
            Intercept::Proceed(LibCall::CondSignal(CondRef(cv)))
        } else if released_in_log > 0 {
            // The recorded wake-up hasn't been waited for yet: bank it.
            s.credits += 1;
            Intercept::Skip
        } else {
            // Released nobody in the log either; harmless no-op signal.
            Intercept::Proceed(LibCall::CondSignal(CondRef(cv)))
        }
    }

    fn on_broadcast(&mut self, cv: u32) -> Intercept {
        let s = &mut self.cvs[cv as usize];
        if !self.barrier_aware || !s.barrier_mode() {
            let woken = s.plain_waiting;
            s.plain_waiting = 0;
            let _ = woken;
            return Intercept::Proceed(LibCall::CondBroadcast(CondRef(cv)));
        }
        let ep = *s.episodes.front().expect("barrier mode");
        s.arrived += 1;
        if s.arrived >= ep.parties {
            s.episodes.pop_front();
            s.arrived = 0;
            Intercept::Proceed(LibCall::CondBroadcast(CondRef(cv)))
        } else {
            // The recorded broadcaster arrived early: in reality it would
            // have found count < N and taken the wait branch.
            Intercept::Proceed(LibCall::CondWait { cond: CondRef(cv), mutex: MutexRef(ep.mutex) })
        }
    }
}

impl CallInterceptor for ReplayRules {
    fn intercept(&mut self, _thread: ThreadId, call: LibCall, _now: Time) -> Intercept {
        match call {
            LibCall::CondWait { cond, mutex } => self.on_wait(cond.0, mutex.0),
            LibCall::CondSignal(cv) => self.on_signal(cv.0),
            LibCall::CondBroadcast(cv) => self.on_broadcast(cv.0),
            other => Intercept::Proceed(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CvEpisode;

    fn plan_with(episodes: Vec<CvEpisode>, signals: Vec<u32>) -> ReplayPlan {
        ReplayPlan {
            program: "t".into(),
            threads: vec![],
            create_map: Default::default(),
            cvs: vec![CvPlan { episodes, signal_released: signals }],
            sem_initial: vec![],
            barrier_parties: vec![],
            once_init: vec![],
            n_mutexes: 1,
            n_condvars: 1,
            n_rwlocks: 0,
            recorded_wall: Time::ZERO,
            tapes: std::sync::OnceLock::new(),
        }
    }

    fn is_wait(i: &Intercept) -> bool {
        matches!(i, Intercept::Proceed(LibCall::CondWait { .. }))
    }

    fn is_broadcast(i: &Intercept) -> bool {
        matches!(i, Intercept::Proceed(LibCall::CondBroadcast(_)))
    }

    #[test]
    fn last_arriver_broadcasts_even_if_log_said_wait() {
        // 3 parties: recorded waiters A, B and broadcaster C. Arrival
        // order in sim: C (recorded broadcaster) first, then A, then B.
        let plan = plan_with(vec![CvEpisode { parties: 3, mutex: 0 }], vec![]);
        let mut rules = ReplayRules::new(&plan, true);
        let c = rules.on_broadcast(0);
        assert!(is_wait(&c), "early broadcaster must wait: {c:?}");
        let a = rules.on_wait(0, 0);
        assert!(is_wait(&a));
        let b = rules.on_wait(0, 0);
        assert!(is_broadcast(&b), "last arriver broadcasts: {b:?}");
    }

    #[test]
    fn recorded_order_replays_identically() {
        let plan = plan_with(vec![CvEpisode { parties: 3, mutex: 0 }], vec![]);
        let mut rules = ReplayRules::new(&plan, true);
        assert!(is_wait(&rules.on_wait(0, 0)));
        assert!(is_wait(&rules.on_wait(0, 0)));
        assert!(is_broadcast(&rules.on_broadcast(0)));
    }

    #[test]
    fn consecutive_episodes_are_independent() {
        let plan = plan_with(
            vec![CvEpisode { parties: 2, mutex: 0 }, CvEpisode { parties: 2, mutex: 0 }],
            vec![],
        );
        let mut rules = ReplayRules::new(&plan, true);
        assert!(is_wait(&rules.on_wait(0, 0)));
        assert!(is_broadcast(&rules.on_broadcast(0)));
        // Second barrier: broadcaster early this time.
        assert!(is_wait(&rules.on_broadcast(0)));
        assert!(is_broadcast(&rules.on_wait(0, 0)));
    }

    #[test]
    fn ablated_rules_pass_broadcasts_through() {
        let plan = plan_with(vec![CvEpisode { parties: 3, mutex: 0 }], vec![]);
        let mut rules = ReplayRules::new(&plan, false);
        assert!(is_broadcast(&rules.on_broadcast(0)), "naive replay broadcasts immediately");
    }

    #[test]
    fn early_signal_banks_a_credit_for_the_late_waiter() {
        let plan = plan_with(vec![], vec![1]);
        let mut rules = ReplayRules::new(&plan, true);
        // Signal arrives before the waiter: banked.
        assert_eq!(rules.on_signal(0), Intercept::Skip);
        // The waiter then consumes the credit instead of sleeping forever.
        assert_eq!(rules.on_wait(0, 0), Intercept::Skip);
    }

    #[test]
    fn signal_with_present_waiter_proceeds() {
        let plan = plan_with(vec![], vec![1]);
        let mut rules = ReplayRules::new(&plan, true);
        assert!(is_wait(&rules.on_wait(0, 0)));
        assert!(matches!(rules.on_signal(0), Intercept::Proceed(LibCall::CondSignal(_))));
    }

    #[test]
    fn useless_recorded_signal_stays_a_noop() {
        let plan = plan_with(vec![], vec![0]);
        let mut rules = ReplayRules::new(&plan, true);
        assert!(matches!(rules.on_signal(0), Intercept::Proceed(LibCall::CondSignal(_))));
        // No credit banked: a later wait really waits.
        let w = rules.on_wait(0, 0);
        assert!(is_wait(&w));
    }
}
