//! # vppb-machine — the execution substrate
//!
//! A deterministic discrete-event virtual machine executing [`vppb_threads`]
//! programs under Solaris 2.5-style two-level scheduling: user threads
//! multiplexed on LWPs, LWPs dispatched onto CPUs by TS-class priority with
//! per-priority quanta and priority aging, synchronization objects with
//! FIFO sleep queues, and a configurable cross-CPU communication delay.
//!
//! This crate stands in for the paper's validation hardware (a Sun Ultra
//! Enterprise 4000) *and* its operating system. Ground-truth "real"
//! executions, monitored Recorder runs and trace-driven Simulator
//! predictions all execute on this one engine — see `DESIGN.md` §2 for why
//! that substitution preserves the paper's claims.

pub mod audit;
pub(crate) mod calendar;
pub mod engine;
pub mod hooks;
pub(crate) mod idmap;
pub mod jitter;
pub mod observer;
pub mod prioq;
pub mod result;
pub mod sched;
pub mod sync;

pub use engine::{
    run, run_stream, CallInterceptor, EngineSnapshot, IdAssigner, Intercept, RunOptions,
    StreamControl, StreamOutcome,
};
pub use hooks::{event_kind_of, Hooks, NullHooks};
pub use idmap::ManipTable;
pub use jitter::JitterModel;
pub use observer::{
    first_divergence, MetricsObserver, SchedEvent, SchedObserver, StepDivergence, StepRecorder,
};
pub use prioq::{PrioQueue, QueueIndex, PRIO_LEVELS};
pub use result::{RunLimits, RunResult};
pub use sched::{build_model, AsyncPool, SchedModel, SolarisTs};
pub use vppb_model::FaultInjection;
