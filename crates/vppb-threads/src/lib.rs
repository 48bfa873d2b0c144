//! # vppb-threads — the programs under study
//!
//! The paper monitors C/C++ programs written against Solaris `libthread`.
//! This crate is our stand-in for "a compiled multithreaded binary": an
//! [`App`] bundles a table of thread-body functions, the synchronization
//! objects and shared variables the program declares, and the source map
//! that ties every call site to a pseudo `file:line`.
//!
//! Thread bodies are coroutines ([`Program`]) that yield [`Action`]s:
//! compute segments, shared-memory accesses and thread-library calls. Most
//! bodies are written with the [`builder`] DSL and run by the script
//! interpreter in [`script`]; fully dynamic behaviour (work stealing, spin
//! loops) implements [`Program`] directly. The Simulator's replay apps
//! give each function a flat [`tape`] instead ([`Body::Tape`]).

pub mod action;
pub mod app;
pub mod builder;
pub mod posix;
pub mod program;
pub mod script;
pub mod tape;

pub use action::{
    Action, BarrierRef, Cmp, Cond, CondRef, FuncId, LibCall, LocalId, MutexRef, OnceRef, Operand,
    Outcome, RwRef, SemRef, SlotId, VarId, VarOp,
};
pub use app::{App, Body, FuncDecl};
pub use builder::{op, AppBuilder, BarrierDecl, FnBuilder};
pub use posix::{PthreadApi, Scope};
pub use program::{Program, ProgramFactory, ResumeCtx};
pub use script::{Block, JoinFrom, ScriptFn, ScriptRunner, SlotCallKind, Stmt};
pub use tape::{TapeCursor, TapeProgram};
