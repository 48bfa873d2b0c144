//! A multithreaded application: the unit the Recorder monitors and the
//! machine executes.
//!
//! An [`App`] is immutable and reusable: every machine run starts fresh
//! thread bodies from the function table, so the same `App` can be
//! executed on a uni-processor under the Recorder, on the 8-CPU ground-truth
//! machine five times with different jitter seeds, and so on — exactly how
//! the paper reuses one compiled binary for all of its runs.

use crate::action::FuncId;
use crate::program::{Program, ProgramFactory};
use crate::tape::{TapeCursor, TapeProgram};
use vppb_model::{CodeAddr, SourceMap, VppbError};

/// A function's body: exactly one executable form.
#[derive(Clone)]
pub enum Body {
    /// A flat replay tape (replay apps compiled from a plan). Every thread
    /// started with this function walks its own clone of the cursor.
    Tape(TapeCursor),
    /// A coroutine factory (scripts and hand-written programs): creates a
    /// fresh coroutine for every thread started with this function.
    Coroutine(ProgramFactory),
}

/// One entry of the function table.
#[derive(Clone)]
pub struct FuncDecl {
    /// Function name, e.g. `producer`.
    pub name: String,
    /// Pseudo-address of the function entry point (recorded by
    /// `thr_create` probes, resolved back to `name` via the source map).
    pub entry: CodeAddr,
    /// What a thread started with this function executes.
    pub body: Body,
}

impl std::fmt::Debug for FuncDecl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FuncDecl").field("name", &self.name).field("entry", &self.entry).finish()
    }
}

/// A complete application.
#[derive(Debug, Clone)]
pub struct App {
    /// Program name (the paper's "binary file").
    pub name: String,
    /// Function table; thread bodies refer to entries by [`FuncId`].
    pub functions: Vec<FuncDecl>,
    /// The function `main` executes.
    pub main: FuncId,
    /// Address → `file:line` table (the "debugger output").
    pub source_map: SourceMap,
    /// Initial value of each semaphore.
    pub sem_initial: Vec<u32>,
    /// Number of mutexes the program declares.
    pub n_mutexes: u32,
    /// Number of condition variables.
    pub n_condvars: u32,
    /// Number of read/write locks.
    pub n_rwlocks: u32,
    /// Party count of each declared barrier (`barrier_parties.len()` is
    /// the barrier count).
    pub barrier_parties: Vec<u32>,
    /// Initializer compute cost of each declared once cell
    /// (`once_init.len()` is the once count).
    pub once_init: Vec<vppb_model::Duration>,
    /// Initial values of the shared integer variables.
    pub var_initial: Vec<i64>,
}

impl App {
    /// Instantiate a fresh coroutine for `func`. A tape body yields the
    /// reference walk [`TapeProgram`]; the machine engine walks tapes with
    /// its own cursor instead.
    pub fn instantiate(&self, func: FuncId) -> Box<dyn Program> {
        match &self.functions[func.0].body {
            Body::Tape(tape) => Box::new(TapeProgram::new(tape)),
            Body::Coroutine(factory) => factory(),
        }
    }

    /// Name of a function (for `thread_start` resolution).
    pub fn func_name(&self, func: FuncId) -> &str {
        &self.functions[func.0].name
    }

    /// Entry address of a function.
    pub fn func_entry(&self, func: FuncId) -> CodeAddr {
        self.functions[func.0].entry
    }

    /// Find a function id from its entry address (the Recorder does this to
    /// fill the log header's thread → start-routine table).
    pub fn func_by_entry(&self, entry: CodeAddr) -> Option<FuncId> {
        self.functions.iter().position(|f| f.entry == entry).map(FuncId)
    }

    /// Basic sanity checks.
    pub fn validate(&self) -> Result<(), VppbError> {
        if self.functions.is_empty() {
            return Err(VppbError::InvalidConfig("app has no functions".into()));
        }
        if self.main.0 >= self.functions.len() {
            return Err(VppbError::InvalidConfig("main function id out of range".into()));
        }
        if let Some(i) = self.barrier_parties.iter().position(|&p| p == 0) {
            return Err(VppbError::InvalidConfig(format!("barrier {i} declared with 0 parties")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, LibCall};
    use crate::program::ResumeCtx;
    use std::sync::Arc;

    fn exit_factory() -> ProgramFactory {
        Arc::new(|| {
            Box::new(|_ctx: ResumeCtx| Action::Call(LibCall::Exit, CodeAddr::NULL))
                as Box<dyn Program>
        })
    }

    fn one_func_app() -> App {
        App {
            name: "t".into(),
            functions: vec![FuncDecl {
                name: "main".into(),
                entry: CodeAddr(0x1000),
                body: Body::Coroutine(exit_factory()),
            }],
            main: FuncId(0),
            source_map: SourceMap::new(),
            sem_initial: vec![],
            n_mutexes: 0,
            n_condvars: 0,
            n_rwlocks: 0,
            barrier_parties: vec![],
            once_init: vec![],
            var_initial: vec![],
        }
    }

    #[test]
    fn instantiate_gives_fresh_programs() {
        let app = one_func_app();
        let mut a = app.instantiate(FuncId(0));
        let mut b = app.instantiate(FuncId(0));
        let ctx = ResumeCtx {
            outcome: Default::default(),
            self_id: vppb_model::ThreadId(1),
            now: vppb_model::Time::ZERO,
        };
        assert!(matches!(a.resume(ctx), Action::Call(LibCall::Exit, _)));
        assert!(matches!(b.resume(ctx), Action::Call(LibCall::Exit, _)));
    }

    #[test]
    fn lookup_by_entry() {
        let app = one_func_app();
        assert_eq!(app.func_by_entry(CodeAddr(0x1000)), Some(FuncId(0)));
        assert_eq!(app.func_by_entry(CodeAddr(0x2000)), None);
        assert_eq!(app.func_name(FuncId(0)), "main");
    }

    #[test]
    fn validation() {
        let mut app = one_func_app();
        assert!(app.validate().is_ok());
        app.main = FuncId(9);
        assert!(app.validate().is_err());
        app.functions.clear();
        assert!(app.validate().is_err());
    }
}
