//! Experiment WHATIF: ablations of the Simulator's design choices called
//! out in DESIGN.md §5, plus the §3.2 what-if parameter sweeps.

use crate::harness::real_speedup;
use std::fmt::Write as _;
use vppb_model::{DispatchTable, Duration, SimParams, Time, VppbError};
use vppb_recorder::{record, RecordOptions};
use vppb_sim::{analyze, predict, simulate};
use vppb_threads::AppBuilder;
use vppb_workloads::{splash, KernelParams};

/// Ablation 1: barrier-aware `cond_broadcast` replay (§6) on a barrier-
/// dominated kernel. Reports (error with model, outcome without).
#[derive(Debug, Clone)]
pub struct BarrierAblation {
    pub error_with_model: f64,
    /// `None` = replay diverged (deadlocked) without the model.
    pub error_without_model: Option<f64>,
}

pub fn barrier_ablation(scale: f64) -> Result<BarrierAblation, VppbError> {
    let app1 = splash::ocean(KernelParams::scaled(1, scale));
    let app8 = splash::ocean(KernelParams::scaled(8, scale));
    let real = real_speedup(&app1, &app8, 8)?.median;
    let rec = record(&app8, &RecordOptions::default())?;
    let plan = analyze(&rec.log)?;
    let with_model = predict(&plan, &rec.log, &SimParams::cpus(8))?.speedup();
    let mut naive = SimParams::cpus(8);
    naive.barrier_aware_broadcast = false;
    let without = match predict(&plan, &rec.log, &naive) {
        Ok(p) => Some(p.speedup()),
        Err(VppbError::ReplayDiverged(_)) => None,
        Err(e) => return Err(e),
    };
    Ok(BarrierAblation {
        error_with_model: (real - with_model) / real,
        error_without_model: without.map(|p| (real - p) / real),
    })
}

/// Ablation 2: the bound-thread cost factors (6.7× create, 5.9× sync).
/// A fork-join program with *bound* workers is recorded once and
/// simulated under different factor settings.
pub fn bound_factor_sweep(factors: &[f64]) -> Result<Vec<(f64, Time)>, VppbError> {
    let mut b = AppBuilder::new("bound-workers", "bound.c");
    let m = b.mutex();
    let w = b.func("w", move |f| {
        f.loop_n(200, |f| {
            f.work_us(100);
            f.lock(m);
            f.unlock(m);
        });
    });
    b.main(move |f| {
        let s = f.slot();
        for _ in 0..4 {
            let h = f.create_bound(w);
            let _ = h;
        }
        let _ = s;
        f.loop_n(4, |f| f.join_any());
    });
    let app = b.build()?;
    let rec = record(&app, &RecordOptions::default())?;
    let mut out = Vec::new();
    for &factor in factors {
        let mut params = SimParams::cpus(4);
        params.machine.bound_costs.create_factor = factor;
        params.machine.bound_costs.sync_factor = factor * (5.9 / 6.7);
        let sim = simulate(&rec.log, &params)?;
        out.push((factor, sim.wall_time));
    }
    Ok(out)
}

/// §3.2 sweep: communication delay between CPUs.
pub fn comm_delay_sweep(delays_us: &[u64]) -> Result<Vec<(u64, Time)>, VppbError> {
    // A ping-pong-ish program with many cross-CPU wakeups.
    let mut b = AppBuilder::new("pingpong", "ping.c");
    let items = b.semaphore(0);
    let done = b.semaphore(0);
    let ponger = b.func("ponger", move |f| {
        f.loop_n(300, |f| {
            f.sem_wait(items);
            f.work_us(20);
            f.sem_post(done);
        });
    });
    b.main(move |f| {
        let h = f.create(ponger);
        f.loop_n(300, |f| {
            f.work_us(20);
            f.sem_post(items);
            f.sem_wait(done);
        });
        f.join(h);
    });
    let app = b.build()?;
    let rec = record(&app, &RecordOptions::default())?;
    let mut out = Vec::new();
    for &us in delays_us {
        let mut params = SimParams::cpus(2);
        params.machine.comm_delay = Duration::from_micros(us);
        let sim = simulate(&rec.log, &params)?;
        out.push((us, sim.wall_time));
    }
    Ok(out)
}

/// Ablation 3: Solaris TS dispatch table vs plain round-robin, with more
/// threads than processors (where priority aging matters).
pub fn dispatch_ablation(scale: f64) -> Result<(Time, Time), VppbError> {
    let app = crate::figures_app_many_threads(scale);
    let rec = record(&app, &RecordOptions::default())?;
    let ts = simulate(&rec.log, &SimParams::cpus(2))?.wall_time;
    let mut rr = SimParams::cpus(2);
    rr.machine.dispatch = DispatchTable::round_robin(Duration::from_millis(50));
    let rr_wall = simulate(&rec.log, &rr)?.wall_time;
    Ok((ts, rr_wall))
}

pub fn render_all(scale: f64) -> Result<String, VppbError> {
    let mut s = String::new();
    let bar = barrier_ablation(scale)?;
    let _ = writeln!(s, "Ablation: barrier-aware cond_broadcast (DESIGN.md §5)");
    let _ = writeln!(s, "  with model:    error {:+.2}%", bar.error_with_model * 100.0);
    match bar.error_without_model {
        Some(e) => {
            let _ = writeln!(s, "  without model: error {:+.2}%", e * 100.0);
        }
        None => {
            let _ = writeln!(
                s,
                "  without model: replay DIVERGED (deadlock) — the rule is load-bearing"
            );
        }
    }
    let _ = writeln!(s, "\nSweep: bound-thread cost factor (paper: 6.7x create / 5.9x sync)");
    for (f, wall) in bound_factor_sweep(&[1.0, 3.0, 6.7, 10.0])? {
        let _ = writeln!(s, "  factor {f:>4.1} -> predicted wall {wall}");
    }
    let _ = writeln!(s, "\nSweep: communication delay between CPUs (§3.2)");
    for (us, wall) in comm_delay_sweep(&[0, 1, 10, 100])? {
        let _ = writeln!(s, "  {us:>3} us -> predicted wall {wall}");
    }
    let (ts, rr) = dispatch_ablation(scale)?;
    let _ = writeln!(s, "\nAblation: Solaris TS dispatch vs round-robin (threads > CPUs)");
    let _ = writeln!(s, "  TS table:    {ts}");
    let _ = writeln!(s, "  round-robin: {rr}");
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_model_is_load_bearing() {
        let bar = barrier_ablation(0.2).unwrap();
        assert!(bar.error_with_model.abs() < 0.06, "with: {}", bar.error_with_model);
        match bar.error_without_model {
            None => {} // diverged: the strongest possible demonstration
            Some(e) => assert!(
                e.abs() >= bar.error_with_model.abs(),
                "naive replay should not beat the barrier model: {e} vs {}",
                bar.error_with_model
            ),
        }
    }

    #[test]
    fn bound_factors_increase_predicted_time() {
        let sweep = bound_factor_sweep(&[1.0, 6.7]).unwrap();
        assert!(sweep[1].1 > sweep[0].1, "higher factor, longer run: {sweep:?}");
    }

    #[test]
    fn comm_delay_increases_predicted_time_monotonically() {
        let sweep = comm_delay_sweep(&[0, 10, 100]).unwrap();
        assert!(sweep[0].1 < sweep[1].1);
        assert!(sweep[1].1 < sweep[2].1);
    }

    #[test]
    fn dispatch_tables_differ_when_oversubscribed() {
        let (ts, rr) = dispatch_ablation(0.2).unwrap();
        assert!(ts > Time::ZERO && rr > Time::ZERO);
        assert_ne!(ts, rr, "different dispatch tables must schedule differently");
    }
}
