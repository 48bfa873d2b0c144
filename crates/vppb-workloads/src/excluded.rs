//! The program classes §4 had to *exclude* from validation, reproduced so
//! the exclusion itself can be demonstrated.
//!
//! "Barnes, Radiosity, Cholesky, and FMM could not run in one single LWP
//! as required by the Recorder. The reason is that these programs all spin
//! on a variable, and since the thread never yields the CPU, no other
//! thread could possibly change the value of that variable. The program
//! Raytrace and Volrend could not be used since all tasks that are
//! executed by a thread are put in a queue. Whenever a thread is idle it
//! steals a task from another thread's queue. The impact of using one LWP
//! gives the result that only one thread steals all tasks, since it never
//! yields the CPU."

use vppb_model::Duration;
use vppb_threads::{op, App, AppBuilder, Cmp};

/// Barnes-style: worker threads spin-wait on an ordinary variable that
/// the main thread sets after its own compute. Fine on a multiprocessor;
/// livelocks on one LWP because the spinner never yields.
pub fn spin_variable(workers: u32, scale: f64) -> App {
    let mut b = AppBuilder::new("spin-variable", "barnes.c");
    let flag = b.shared_var(0);
    let d = |s: f64| Duration::from_secs_f64(s * scale);
    let spin_check = d(2e-6);
    let work_after = d(0.2);
    let worker = b.func("worker", move |f| {
        // while (!flag) { /* re-read the volatile */ }
        f.while_(op::s(flag), Cmp::Eq, op::c(0), move |f| f.work(spin_check));
        f.work(work_after);
    });
    let main_work = d(0.1);
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(workers as u64, |f| f.create_into(worker, s));
        // Let the workers start (on one LWP this is the moment the first
        // spinner takes the CPU and never gives it back).
        f.yield_now();
        f.work(main_work);
        f.set_shared(flag, op::c(1));
        f.loop_n(workers as u64, |f| f.join(s));
    });
    b.build().expect("spin app builds")
}

/// Raytrace-style task stealing: a shared pool of tasks; each thread
/// grabs tasks until the pool is empty. On a multiprocessor all threads
/// share the work; on one LWP the first thread to run drains the entire
/// pool without ever yielding, so the recorded "behaviour profile" shows
/// no exploitable parallelism at all.
pub fn task_stealing(workers: u32, tasks: u64, scale: f64) -> App {
    let mut b = AppBuilder::new("task-stealing", "raytrace.c");
    let pool = b.shared_var(tasks as i64);
    let task_work = Duration::from_secs_f64(2e-4 * scale);
    let worker = b.func("worker", move |f| {
        let got = f.local();
        let done = f.local();
        f.while_(op::l(done), Cmp::Eq, op::c(0), move |f| {
            f.fetch_add_into(pool, -1, got);
            f.if_else(
                op::l(got),
                Cmp::Gt,
                op::c(0),
                move |f| f.work(task_work),
                move |f| f.assign(done, op::c(1)),
            );
        });
    });
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(workers as u64, |f| f.create_into(worker, s));
        // Main also works the pool, as Raytrace's initial thread does.
        let got = f.local();
        let done = f.local();
        f.while_(op::l(done), Cmp::Eq, op::c(0), move |f| {
            f.fetch_add_into(pool, -1, got);
            f.if_else(
                op::l(got),
                Cmp::Gt,
                op::c(0),
                move |f| f.work(task_work),
                move |f| f.assign(done, op::c(1)),
            );
        });
        f.loop_n(workers as u64, |f| f.join(s));
    });
    b.build().expect("stealing app builds")
}

/// The fix for the Barnes class: replace the spin loop with a condition
/// variable. The restructured program is recordable on one LWP (the waiter
/// *blocks*, letting the setter run), and predicts accurately — showing
/// that the §4 exclusions are properties of the *programs*, not the
/// approach.
pub fn spin_variable_fixed(workers: u32, scale: f64) -> App {
    let mut b = AppBuilder::new("spin-fixed", "barnes_fixed.c");
    let flag = b.shared_var(0);
    let m = b.mutex();
    let cv = b.condvar();
    let d = |s: f64| Duration::from_secs_f64(s * scale);
    let work_after = d(0.2);
    let worker = b.func("worker", move |f| {
        // while (!flag) cond_wait(&cv, &m);
        f.lock(m);
        f.while_(op::s(flag), Cmp::Eq, op::c(0), move |f| f.cond_wait(cv, m));
        f.unlock(m);
        f.work(work_after);
    });
    let main_work = d(0.1);
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(workers as u64, |f| f.create_into(worker, s));
        f.yield_now();
        f.work(main_work);
        f.lock(m);
        f.set_shared(flag, op::c(1));
        f.cond_broadcast(cv);
        f.unlock(m);
        f.loop_n(workers as u64, |f| f.join(s));
    });
    b.build().expect("fixed spin app builds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vppb_machine::{run, NullHooks, RunLimits, RunOptions};
    use vppb_model::{LwpPolicy, MachineConfig, SimParams, Time, VppbError};
    use vppb_recorder::{record, RecordOptions};
    use vppb_sim::{analyze, predict};

    /// Table-1 speed-up of a recorded log on `cpus` processors.
    fn predicted_speedup(log: &vppb_model::TraceLog, cpus: u32) -> f64 {
        predict(&analyze(log).unwrap(), log, &SimParams::cpus(cpus)).unwrap().speedup()
    }

    fn real_speedup(app1: &App, app8: &App) -> f64 {
        let mut hooks = NullHooks;
        let cfg = |p| MachineConfig::sun_enterprise(p).with_lwps(LwpPolicy::PerThread);
        let r1 = run(app1, &cfg(1), RunOptions::new(&mut hooks)).unwrap();
        let mut hooks = NullHooks;
        let r8 = run(app8, &cfg(8), RunOptions::new(&mut hooks)).unwrap();
        r1.wall_time.nanos() as f64 / r8.wall_time.nanos() as f64
    }

    #[test]
    fn spin_program_runs_fine_on_a_multiprocessor() {
        let app = spin_variable(3, 0.1);
        let mut hooks = NullHooks;
        let cfg = MachineConfig::sun_enterprise(4).with_lwps(LwpPolicy::PerThread);
        let r = run(&app, &cfg, RunOptions::new(&mut hooks)).unwrap();
        assert!(r.wall_time >= Time::from_secs_f64(0.03));
    }

    #[test]
    fn spin_program_is_unrecordable() {
        // On 1 LWP the spinner never yields; the Recorder must diagnose it
        // rather than hang (the Barnes exclusion).
        let app = spin_variable(3, 0.1);
        let opts = RecordOptions {
            limits: RunLimits { max_des_events: 2_000_000, max_time: Time::from_secs_f64(100.0) },
            ..RecordOptions::default()
        };
        match record(&app, &opts) {
            Err(VppbError::Unrecordable(msg)) => {
                assert!(msg.contains("one LWP"), "{msg}");
            }
            Err(other) => panic!("expected Unrecordable, got {other}"),
            Ok(_) => panic!("spin program must not be recordable on one LWP"),
        }
    }

    #[test]
    fn fixed_spin_program_records_and_predicts() {
        // After the condvar rewrite the same logic records fine and the
        // prediction matches reality.
        let app = |_| spin_variable_fixed(3, 0.1);
        let rec = record(&app(()), &RecordOptions::default()).expect("recordable after fix");
        let predicted = predicted_speedup(&rec.log, 4);
        let real = {
            let mut hooks = NullHooks;
            let cfg = |p| MachineConfig::sun_enterprise(p).with_lwps(LwpPolicy::PerThread);
            let r1 = run(&app(()), &cfg(1), RunOptions::new(&mut hooks)).unwrap();
            let mut hooks = NullHooks;
            let r4 = run(&app(()), &cfg(4), RunOptions::new(&mut hooks)).unwrap();
            r1.wall_time.nanos() as f64 / r4.wall_time.nanos() as f64
        };
        assert!(
            (predicted - real).abs() / real < 0.06,
            "fixed program predicts: {predicted:.2} vs real {real:.2}"
        );
    }

    #[test]
    fn task_stealing_records_but_mispredicts() {
        // The Raytrace exclusion: recording *succeeds*, but the log shows
        // one thread doing everything, so the prediction is uselessly
        // pessimistic compared to the real multiprocessor run.
        let app = |p| task_stealing(p, 400, 0.5);
        let real = real_speedup(&app(4), &app(4));
        assert!(real > 3.0, "real stealing scales: {real:.2}");
        let rec = record(&app(4), &RecordOptions::default()).expect("records fine");
        let predicted = predicted_speedup(&rec.log, 8);
        assert!(predicted < 1.5, "prediction sees one greedy thread: {predicted:.2}");
    }
}
