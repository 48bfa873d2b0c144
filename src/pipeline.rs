//! One-call helpers for the full VPPB workflow of fig. 1:
//! write a program → record it on a uni-processor → simulate a
//! multiprocessor → visualize / inspect the prediction.

use vppb_machine::{run, NullHooks, RunOptions, RunResult};
use vppb_model::{LwpPolicy, MachineConfig, SimParams, TraceLog, VppbError};
use vppb_recorder::{record, RecordOptions, Recording};
use vppb_sim::{analyze, Prediction};
use vppb_threads::App;

/// Record a monitored uni-processor execution (box b–d of fig. 1).
pub fn record_app(app: &App) -> Result<Recording, VppbError> {
    record(app, &RecordOptions::default())
}

/// Predict the recorded program on `cpus` processors with one LWP per
/// thread (boxes d–g): the speed-up over the predicted 1-CPU run, and the
/// simulated execution for the Visualizer.
pub fn predict(log: &TraceLog, cpus: u32) -> Result<Prediction, VppbError> {
    vppb_sim::predict(&analyze(log)?, log, &SimParams::cpus(cpus))
}

/// Record `app` and predict it on `cpus` processors in one call.
pub fn record_and_predict(app: &App, cpus: u32) -> Result<Prediction, VppbError> {
    predict(&record_app(app)?.log, cpus)
}

/// Ground truth: actually execute `app` on a simulated `cpus`-processor
/// machine (what the paper does on its real Sun E4000 to validate).
pub fn real_run(app: &App, cpus: u32) -> Result<RunResult, VppbError> {
    let mut hooks = NullHooks;
    let cfg = MachineConfig::sun_enterprise(cpus).with_lwps(LwpPolicy::PerThread);
    run(app, &cfg, RunOptions::new(&mut hooks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vppb_threads::AppBuilder;

    #[test]
    fn full_pipeline_in_three_calls() {
        let mut b = AppBuilder::new("pipe", "pipe.c");
        let w = b.func("w", |f| f.work_ms(40));
        b.main(move |f| {
            let s = f.slot();
            f.loop_n(4, |f| f.create_into(w, s));
            f.loop_n(4, |f| f.join(s));
        });
        let app = b.build().unwrap();
        let prediction = record_and_predict(&app, 4).unwrap();
        let (speedup, sim) = (prediction.speedup(), &prediction.run);
        assert!(speedup > 3.5 && speedup <= 4.05, "{speedup}");
        assert!(!sim.trace.events.is_empty());
        let real = real_run(&app, 4).unwrap();
        let err = (real.wall_time.nanos() as f64 - sim.wall_time.nanos() as f64).abs()
            / real.wall_time.nanos() as f64;
        assert!(err < 0.02, "prediction err {err}");
    }
}
