//! Processor-count sweep over the SPLASH-2-style kernels: the core VPPB
//! use case of predicting "the behaviour of a multithreaded program using
//! any number of processors" from uni-processor recordings only.
//!
//! SPLASH-2 programs create one thread per processor, so (as in §4) one
//! log is recorded per processor setup; each log is then simulated at its
//! own CPU count plus on one CPU to form the speed-up.
//!
//! Run with: `cargo run --release --example splash_sweep [scale]`

use vppb::pipeline;
use vppb_workloads::{splash2_suite, KernelParams};

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.5);
    let cpu_counts = [1u32, 2, 3, 4, 6, 8, 12, 16];

    println!("Predicted speed-ups from uni-processor recordings (scale {scale}):\n");
    print!("{:<16}", "program");
    for c in cpu_counts {
        print!(" {c:>6}");
    }
    println!();

    for spec in splash2_suite() {
        print!("{:<16}", spec.name);
        for &cpus in &cpu_counts {
            let app = (spec.build)(KernelParams::scaled(cpus, scale));
            let prediction = pipeline::record_and_predict(&app, cpus).expect("prediction succeeds");
            print!(" {:>6.2}", prediction.speedup());
        }
        println!();
    }
    println!(
        "\nPaper reference (real, 8 CPUs): Ocean 6.65, Water 7.67, FFT 2.62, Radix 7.79, LU 4.82"
    );
    println!(
        "Note the FFT plateau and LU's sub-linear curve — visible without any multiprocessor."
    );
}
