//! # vppb-model — shared vocabulary of the VPPB system
//!
//! Core data types used by every other crate in the workspace: virtual
//! [`time::Time`], identifier types, the thread-library [`event::EventKind`]
//! taxonomy, the recorded-information format ([`trace::TraceLog`], §3.1 of
//! the paper), source-location mapping, the Solaris TS
//! [`dispatch::DispatchTable`], and machine/simulation configuration.
//!
//! This crate has no dependencies on the rest of the workspace and only
//! `serde` externally, so every downstream crate agrees on one definition
//! of "an event" and "a log".

pub mod binlog;
pub mod chunk;
pub mod config;
pub mod corrupt;
pub mod diag;
pub mod dispatch;
pub mod error;
pub mod event;
pub mod exec;
pub mod hash;
pub mod ids;
pub mod journal;
pub mod metrics;
pub mod salvage;
pub mod source;
pub mod store;
pub mod textlog;
pub mod time;
pub mod trace;
pub mod vfs;

pub use config::{
    BaseCosts, Binding, BoundCosts, ConfigError, FaultInjection, LwpPolicy, MachineConfig,
    ModelKind, SimParams, ThreadManip,
};
pub use diag::{DiagCode, Diagnostic, Pos, Severity};
pub use dispatch::{DispatchRow, DispatchTable, TS_DEFAULT_PRI, TS_LEVELS, TS_MAX_PRI};
pub use error::VppbError;
pub use event::{EventKind, EventResult, Phase};
pub use exec::{BlockReason, ExecutionTrace, PlacedEvent, ThreadInfo, ThreadState, Transition};
pub use hash::{canonical_f64_bits, crc32, ContentHasher, ContentId, StableHash, StableHasher};
pub use ids::{parse_obj_id, CpuId, LwpId, ObjKind, SyncObjId, ThreadId};
pub use journal::{Journal, JournalReplay};
pub use metrics::{AuditReport, ObjContention, SchedMetrics, Violation, ViolationKind};
pub use salvage::{salvage, salvage_traced, SalvageEdit, SalvageReport};
pub use source::{CodeAddr, SourceLoc, SourceMap};
pub use store::{ContentStore, RecoveryReport};
pub use time::{parse_time, Duration, Time};
pub use trace::{LogFormat, LogHeader, TraceLog, TraceRecord};
pub use vfs::{FaultSpec, FaultVfs, RealVfs, Vfs};
