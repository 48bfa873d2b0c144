//! The recorded programs every workload draws its inputs from: the five
//! Table-1 programs, the §5 producer/consumer pair, and the lock-step
//! mill the streaming workload cuts into chunks.

use crate::schedule::Rng;
use vppb_bench::harness::real_speedup;
use vppb_model::{binlog, textlog, TraceLog, VppbError};
use vppb_recorder::{record, RecordOptions};
use vppb_threads::{App, AppBuilder};
use vppb_workloads::{prodcons, splash2_suite, KernelParams};

/// Thread counts (= CPU counts) of the Table-1 cells.
pub const TABLE1_THREADS: [u32; 3] = [2, 4, 8];

/// One recorded program.
pub struct Recorded {
    /// `Ocean-8`, `prodcons-naive`, ...
    pub name: String,
    /// Worker threads the program was built with (the CPU count a cold
    /// predict asks for).
    pub threads: u32,
    pub log: TraceLog,
    /// `(suite index, threads)` when this recording is a Table-1 cell.
    pub cell: Option<(usize, u32)>,
}

/// Record `app` on the monitored uni-processor.
pub fn record_app(app: &App) -> Result<TraceLog, VppbError> {
    Ok(record(app, &RecordOptions::default())?.log)
}

/// The Table-1 programs recorded at each of `threads`, suite-major.
pub fn table1(threads: &[u32]) -> Result<Vec<Recorded>, VppbError> {
    let mut out = Vec::new();
    for (i, spec) in splash2_suite().iter().enumerate() {
        for &p in threads {
            out.push(Recorded {
                name: format!("{}-{p}", spec.name),
                threads: p,
                log: record_app(&(spec.build)(KernelParams::new(p)))?,
                cell: Some((i, p)),
            });
        }
    }
    Ok(out)
}

/// A §5 case-study program, recorded. `scale` stretches its durations
/// without changing what it does.
pub fn case_study(improved: bool, scale: f64) -> Result<Recorded, VppbError> {
    let app = if improved { prodcons::improved(scale) } else { prodcons::naive(scale) };
    let name = if improved { "prodcons-improved" } else { "prodcons-naive" };
    Ok(Recorded { name: name.into(), threads: 8, log: record_app(&app)?, cell: None })
}

/// The seed's duration scale for the case-study programs: within ±2 % of
/// the calibrated durations. Table-1 programs keep theirs, so the
/// prediction error is comparable across seeds.
pub fn duration_scale(seed: u64) -> f64 {
    let mut rng = Rng::new(seed ^ 0x5EED_D0A7);
    1.0 + (rng.below(4001) as f64 - 2000.0) / 100_000.0
}

/// The lock-step mill: `workers` threads plus main each take one shared
/// lock `rounds` times around a compute slice, then main joins them. It
/// uses no condvars or semaphores, so a stream's committed prefix
/// advances with every append.
pub fn mill(workers: u32, rounds: u64) -> App {
    let mut b = AppBuilder::new("stream-mill", "mill.c");
    let red = b.mutex();
    let w = b.func("miller", move |f| {
        f.loop_n(rounds, |f| {
            f.work_us(120);
            f.lock(red);
            f.work_us(8);
            f.unlock(red);
            f.yield_now();
        });
    });
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(workers as u64, |f| f.create_into(w, s));
        f.loop_n(rounds, |f| {
            f.work_us(120);
            f.lock(red);
            f.work_us(8);
            f.unlock(red);
            f.yield_now();
        });
        f.loop_n(workers as u64, |f| f.join(s));
    });
    b.build().expect("the mill program builds")
}

/// A log in the text format `vppb record` writes by default.
pub fn text(log: &TraceLog) -> Vec<u8> {
    textlog::write_log(log).into_bytes()
}

/// A log in the v2 binary format.
pub fn binary(log: &TraceLog) -> Result<Vec<u8>, VppbError> {
    binlog::encode(log)
}

/// Real speed-up of Table-1 program `suite_idx` at `p` threads on `p`
/// CPUs: the median of five jittered machine runs.
pub fn table1_real(suite_idx: usize, p: u32) -> Result<f64, VppbError> {
    let spec = &splash2_suite()[suite_idx];
    let one = (spec.build)(KernelParams::new(1));
    let many = (spec.build)(KernelParams::new(p));
    Ok(real_speedup(&one, &many, p)?.median)
}

/// Mean |real − predicted| ÷ real over `cells`, percent.
pub fn pred_error_pct(cells: &[(f64, f64)]) -> f64 {
    let sum: f64 = cells.iter().map(|(real, pred)| ((real - pred) / real).abs()).sum();
    100.0 * sum / cells.len().max(1) as f64
}
