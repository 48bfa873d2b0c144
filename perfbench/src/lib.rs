//! perfbench — the repository benchmark.
//!
//! One command runs one named workload at a given seed over the vppb
//! prediction stack and prints every end-to-end metric, checking every
//! answer. A traced run replays the same schedule with a span around each
//! call into a layer's public functions and prints the per-layer metrics.
//! See `README.md` beside this crate.

pub mod heap;
pub mod host;
pub mod http;
pub mod inputs;
pub mod report;
pub mod schedule;
pub mod trace;
pub mod workloads;
