//! # vppb-recorder — the Recorder (§3.1 of the paper)
//!
//! Monitors a uni-processor, single-LWP execution of an [`vppb_threads::App`]
//! by interposing probes at the thread-library boundary, and writes the
//! recorded information to a log file. Also measures recording intrusion
//! (§4's ≤ 3 % claim) and detects the program classes that *cannot* be
//! recorded on one LWP (spin loops, greedy task stealing — the programs
//! §4 had to exclude).

pub mod logfile;
pub mod overhead;
pub mod recorder;

pub use logfile::{
    load, load_lenient, load_lenient_bytes, load_lenient_traced, save_bin, save_json, save_text,
    LoadedLog,
};
pub use overhead::{measure_overhead, OverheadReport};
pub use recorder::{record, RecordOptions, Recording};
