//! # vppb-testkit — shared test scaffolding
//!
//! Dev-only crate consolidating the helpers that every integration suite
//! used to re-declare locally: the audited [`go`] runner, the
//! zero-latency [`exact`] config, the panic-capturing [`quiet`] wrapper
//! and its RAII [`SilencedPanicHook`] guard, the small workload
//! [`fixtures`] the engine/scheduler/IO suites share, and the [`httpc`]
//! HTTP client + `vppb serve` process harness the e2e suites and the
//! chaos drivers drive the server with.
//!
//! This crate appears only in `[dev-dependencies]` of other workspace
//! members (the resulting dev-dependency cycle with `vppb-machine` is
//! legal in Cargo: dev-dependencies do not participate in the library
//! dependency graph).

use std::panic::{catch_unwind, AssertUnwindSafe};
use vppb_machine::{run, NullHooks, RunOptions, RunResult};
use vppb_model::{Duration, LwpPolicy, MachineConfig};
use vppb_threads::App;

pub mod fixtures;
pub mod httpc;

/// `sun_enterprise(cpus)` with an LWP per thread — the baseline test
/// machine.
pub fn cfg(cpus: u32) -> MachineConfig {
    MachineConfig::sun_enterprise(cpus).with_lwps(LwpPolicy::PerThread)
}

/// Zero all latency knobs so timing assertions are exact.
pub fn exact(mut c: MachineConfig) -> MachineConfig {
    c.base_costs.create = Duration::ZERO;
    c.base_costs.sync_op = Duration::ZERO;
    c.base_costs.uthread_switch = Duration::ZERO;
    c.base_costs.lwp_switch = Duration::ZERO;
    c.comm_delay = Duration::ZERO;
    c
}

/// Run `app` on `c`, asserting success and a clean conservation audit.
pub fn go(app: &App, c: &MachineConfig) -> RunResult {
    let mut hooks = NullHooks;
    let r = run(app, c, RunOptions::new(&mut hooks)).expect("run succeeds");
    assert!(r.audit.is_clean(), "conservation audit failed:\n{}", r.audit.render());
    r
}

/// Split raw log bytes at record boundaries for streaming tests: seeded
/// and reproducible, using *every* boundary for small logs so prefix
/// checks are exhaustive ([`vppb_model::chunk::split_random`]).
pub fn chunked(bytes: &[u8], seed: u64) -> Vec<Vec<u8>> {
    vppb_model::chunk::split_random(bytes, seed, 8)
}

/// Split raw log bytes at every record boundary, one record per chunk.
pub fn every_boundary(bytes: &[u8]) -> Vec<Vec<u8>> {
    let n = vppb_model::chunk::record_boundaries(bytes).len();
    vppb_model::chunk::split_random(bytes, 0, n)
}

/// Run the closure with panics captured, reporting the panic payload as
/// `Err(message)` instead of unwinding into the test harness.
pub fn quiet<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into())
    })
}

/// RAII guard that silences the global panic hook (for tests that
/// deliberately catch panics in bulk and would otherwise spam stderr
/// with backtraces), restoring the previous hook on drop.
///
/// The panic hook is process-global, so tests holding this guard should
/// not assume other concurrently-running tests print their panics; the
/// chaos suites accept that, capturing payloads via [`quiet`] instead.
#[must_use = "the hook is restored when the guard drops"]
pub struct SilencedPanicHook {
    prev: Option<PanicHook>,
}

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

impl SilencedPanicHook {
    /// Install the silent hook, remembering the previous one.
    pub fn install() -> SilencedPanicHook {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        SilencedPanicHook { prev: Some(prev) }
    }
}

impl Drop for SilencedPanicHook {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

/// Insta-style golden-file assertion. Compares `actual` against the file
/// at `path`; with `UPDATE_GOLDEN=1` in the environment it (re)writes the
/// file instead, so snapshots regenerate with
/// `UPDATE_GOLDEN=1 cargo test`.
///
/// Callers build `path` from their own `env!("CARGO_MANIFEST_DIR")` so
/// snapshots live next to the suite that owns them.
pub fn assert_golden(path: impl AsRef<std::path::Path>, actual: &str) {
    let path = path.as_ref();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create golden dir");
        }
        std::fs::write(path, actual).expect("write golden file");
        eprintln!("updated golden file {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "golden file {} unreadable ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected,
        actual,
        "snapshot mismatch against {}; run with UPDATE_GOLDEN=1 to regenerate",
        path.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use vppb_model::Time;

    #[test]
    fn go_runs_and_audits_a_fixture() {
        let app = fixtures::two_worker_app(10);
        let r = go(&app, &exact(cfg(2)));
        assert_eq!(r.wall_time, Time::from_millis(10));
    }

    #[test]
    fn quiet_captures_panics_under_the_silenced_hook() {
        let _guard = SilencedPanicHook::install();
        assert_eq!(quiet(|| 7).unwrap(), 7);
        let err = quiet(|| panic!("boom {}", 42)).unwrap_err();
        assert_eq!(err, "boom 42");
    }
}
