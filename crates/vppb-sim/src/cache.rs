//! The content-addressed plan cache: log hash → [`Arc<ReplayPlan>`].
//!
//! The expensive half of a prediction is everything *before* the replay:
//! parsing, salvage and [`crate::sorter::analyze`]. All of it is a pure
//! function of the recorded bytes, so the prediction service computes it
//! once per distinct log and shares the resulting plan — immutable behind
//! an `Arc` — across every query that names the same content.
//!
//! The cache is a byte-budgeted LRU: entries are charged at
//! [`ReplayPlan::approx_bytes`] and the least-recently-used plans are
//! evicted once the resident total exceeds the budget. A single plan
//! larger than the whole budget is built and returned but not retained.
//! All operations are thread-safe; builds for *different* keys run
//! concurrently (the lock is dropped while the builder closure runs), and
//! a lost insert race simply adopts the winner's entry.

use crate::plan::ReplayPlan;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use vppb_model::{ContentId, VppbError};

/// Aggregate cache counters, serialized into `GET /metrics`.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct CacheStats {
    /// Lookups that found a resident plan.
    pub hits: u64,
    /// Lookups that had to build the plan.
    pub misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Plans larger than the whole budget, returned but never retained.
    pub uncacheable: u64,
    /// Plans currently resident.
    pub entries: usize,
    /// Bytes currently charged against the budget.
    pub resident_bytes: u64,
    /// The configured budget.
    pub budget_bytes: u64,
}

impl CacheStats {
    /// Hits over lookups, `0.0` before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    plan: Arc<ReplayPlan>,
    bytes: u64,
    /// Logical timestamp of the last lookup that touched this entry.
    last_used: u64,
}

struct Inner {
    map: HashMap<ContentId, Entry>,
    clock: u64,
    resident: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    uncacheable: u64,
}

/// A thread-safe, content-addressed, byte-budgeted LRU of replay plans.
pub struct PlanCache {
    inner: Mutex<Inner>,
    budget: u64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(f, "PlanCache({} entries, {}/{} bytes)", s.entries, s.resident_bytes, s.budget_bytes)
    }
}

impl PlanCache {
    /// An empty cache with the given byte budget.
    pub fn new(budget_bytes: u64) -> PlanCache {
        PlanCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
                resident: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                uncacheable: 0,
            }),
            budget: budget_bytes,
        }
    }

    /// The plan for `key`, building it with `build` on a miss.
    ///
    /// Returns the shared plan and whether the lookup was a hit. The lock
    /// is not held while `build` runs, so cold builds of different logs
    /// proceed in parallel; if two threads miss on the same key, both
    /// build and the first insert wins (the loser adopts the winner's
    /// plan, counted as its own miss).
    pub fn get_or_build(
        &self,
        key: ContentId,
        build: impl FnOnce() -> Result<ReplayPlan, VppbError>,
    ) -> Result<(Arc<ReplayPlan>, bool), VppbError> {
        {
            let mut inner = self.inner.lock().expect("plan cache lock");
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(e) = inner.map.get_mut(&key) {
                e.last_used = clock;
                let plan = Arc::clone(&e.plan);
                inner.hits += 1;
                return Ok((plan, true));
            }
            inner.misses += 1;
        }
        let plan = Arc::new(build()?);
        let bytes = plan.approx_bytes();
        let mut inner = self.inner.lock().expect("plan cache lock");
        if let Some(e) = inner.map.get(&key) {
            // Lost an insert race; share the resident plan.
            return Ok((Arc::clone(&e.plan), false));
        }
        if bytes > self.budget {
            inner.uncacheable += 1;
            return Ok((plan, false));
        }
        inner.clock += 1;
        let clock = inner.clock;
        inner.map.insert(key, Entry { plan: Arc::clone(&plan), bytes, last_used: clock });
        inner.resident += bytes;
        self.evict_to_budget(&mut inner);
        Ok((plan, false))
    }

    /// Evict least-recently-used entries until the budget holds.
    fn evict_to_budget(&self, inner: &mut Inner) {
        while inner.resident > self.budget && inner.map.len() > 1 {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty map");
            if let Some(e) = inner.map.remove(&victim) {
                inner.resident -= e.bytes;
                inner.evictions += 1;
            }
        }
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("plan cache lock");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            uncacheable: inner.uncacheable,
            entries: inner.map.len(),
            resident_bytes: inner.resident,
            budget_bytes: self.budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vppb_model::{Time, TraceLog};
    use vppb_recorder::{record, RecordOptions};
    use vppb_threads::AppBuilder;

    fn small_log(workers: u64) -> TraceLog {
        let mut b = AppBuilder::new("cache", "cache.c");
        let w = b.func("w", |f| f.work_us(50));
        b.main(move |f| {
            let s = f.slot();
            f.loop_n(workers, |f| f.create_into(w, s));
            f.loop_n(workers, |f| f.join(s));
        });
        record(&b.build().unwrap(), &RecordOptions::default()).unwrap().log
    }

    fn plan_of(log: &TraceLog) -> ReplayPlan {
        crate::sorter::analyze(log).unwrap()
    }

    #[test]
    fn second_lookup_hits_and_shares_the_same_plan() {
        let log = small_log(2);
        let cache = PlanCache::new(1 << 20);
        let key = ContentId::of_bytes(b"log-a");
        let (a, hit_a) = cache.get_or_build(key, || Ok(plan_of(&log))).unwrap();
        let (b, hit_b) = cache.get_or_build(key, || panic!("must not rebuild")).unwrap();
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b), "hit returns the same allocation");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn build_errors_propagate_and_cache_nothing() {
        let cache = PlanCache::new(1 << 20);
        let key = ContentId::of_bytes(b"bad");
        let err = cache
            .get_or_build(key, || Err(VppbError::MalformedLog("nope".into())))
            .expect_err("error propagates");
        assert!(matches!(err, VppbError::MalformedLog(_)));
        assert_eq!(cache.stats().entries, 0);
        // A later good build still works.
        let log = small_log(1);
        let (_, hit) = cache.get_or_build(key, || Ok(plan_of(&log))).unwrap();
        assert!(!hit);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget_and_recency() {
        let log = small_log(2);
        let bytes = plan_of(&log).approx_bytes();
        // Room for two plans, not three.
        let cache = PlanCache::new(bytes * 2 + bytes / 2);
        let (ka, kb, kc) =
            (ContentId::of_bytes(b"a"), ContentId::of_bytes(b"b"), ContentId::of_bytes(b"c"));
        cache.get_or_build(ka, || Ok(plan_of(&log))).unwrap();
        cache.get_or_build(kb, || Ok(plan_of(&log))).unwrap();
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        let (_, hit) = cache.get_or_build(ka, || unreachable!()).unwrap();
        assert!(hit);
        cache.get_or_build(kc, || Ok(plan_of(&log))).unwrap();
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        assert!(s.resident_bytes <= s.budget_bytes);
        let (_, hit_a) = cache.get_or_build(ka, || unreachable!()).unwrap();
        assert!(hit_a, "recently-used entry survived");
        let (_, hit_b) = cache.get_or_build(kb, || Ok(plan_of(&log))).unwrap();
        assert!(!hit_b, "LRU entry was evicted");
    }

    #[test]
    fn oversized_plan_is_returned_but_not_retained() {
        let log = small_log(4);
        let cache = PlanCache::new(8); // smaller than any plan
        let key = ContentId::of_bytes(b"big");
        let (plan, hit) = cache.get_or_build(key, || Ok(plan_of(&log))).unwrap();
        assert!(!hit);
        assert!(plan.recorded_wall > Time::ZERO);
        let s = cache.stats();
        assert_eq!((s.entries, s.uncacheable), (0, 1));
        let (_, hit) = cache.get_or_build(key, || Ok(plan_of(&log))).unwrap();
        assert!(!hit, "oversized plans never become hits");
    }

    #[test]
    fn concurrent_same_key_lookups_converge_on_one_entry() {
        let log = small_log(2);
        let cache = PlanCache::new(1 << 20);
        let key = ContentId::of_bytes(b"racy");
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (plan, _) = cache.get_or_build(key, || Ok(plan_of(&log))).unwrap();
                    assert_eq!(plan.program, "cache");
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.hits + s.misses, 8);
    }
}
