//! # vppb-sim — the trace-driven Simulator (§3.2 of the paper)
//!
//! Takes the recorded information (a [`vppb_model::TraceLog`]), the
//! hardware configuration and the scheduling parameters, and produces the
//! predicted multiprocessor execution.
//!
//! Configuration from outside the program becomes
//! [`vppb_model::SimParams`] through [`sweep::sim_params`] alone, which
//! checks it.
//!
//! Pipeline: [`sorter::analyze`] sorts the log into per-thread event lists
//! (fig. 4) and precomputes replay inputs; [`sim::build_replay_app`] turns
//! them into a replay app whose every thread body is a flat tape
//! ([`vppb_threads::TapeCursor`]); [`sim::replay_with_engine`] runs every
//! replay, cold or streaming, on the machine engine under the requested
//! configuration with [`rules::ReplayRules`] applying the dynamic
//! condition-variable rules (§6's barrier model). [`sim::predict`] turns
//! two replays into Table 1's speed-up: the 1-CPU reference run of
//! [`sim::reference_params`] over the N-CPU run, by [`sim::speedup`], the
//! one definition of that ratio.

pub mod cache;
pub mod divergence;
mod feed;
pub mod plan;
pub mod rules;
pub mod sim;
pub mod sorter;
pub mod stream;
pub mod sweep;

pub use cache::{CacheStats, PlanCache};
pub use divergence::{Divergence, DivergenceReport};
pub use plan::{CvEpisode, CvPlan, ReplayOp, ReplayPlan, ThreadPlan};
pub use rules::ReplayRules;
pub use sim::{
    build_replay_app, predict, reference_params, replay_with_engine, simulate, simulate_plan,
    simulate_plan_metrics, speedup, Prediction,
};
pub use sorter::{analyze, analyze_with_stability};
pub use stream::{
    check_chunked_equivalence, check_chunks_equivalence, cold_run, result_fingerprint, PlanState,
    StreamSession,
};
pub use sweep::{
    lwp_bound, sim_params, sweep, sweep_plan, SweepConfig, SweepGrid, SweepOutcome, SweepPoint,
};
/// What every replay returns.
pub use vppb_machine::RunResult;
