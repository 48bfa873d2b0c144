//! Zero-violation sweep: every built-in workload, recorded and replayed
//! on several CPU counts, must keep a clean conservation audit and (for
//! condvar-free programs) an exact per-thread replay order.

use vppb::pipeline;
use vppb_model::SimParams;
use vppb_sim::{analyze, simulate_plan_metrics};
use vppb_workloads::{prodcons, splash2_suite, KernelParams};

#[test]
fn every_workload_replays_with_zero_violations() {
    let mut apps: Vec<(String, vppb_threads::App)> = splash2_suite()
        .iter()
        .map(|spec| (spec.name.to_string(), (spec.build)(KernelParams::scaled(4, 0.05))))
        .collect();
    apps.push(("prodcons-naive".into(), prodcons::naive(0.05)));
    apps.push(("prodcons-improved".into(), prodcons::improved(0.05)));

    for (name, app) in &apps {
        let rec = pipeline::record_app(app).unwrap_or_else(|e| panic!("{name}: record: {e}"));
        let plan = analyze(&rec.log).unwrap_or_else(|e| panic!("{name}: analyze: {e}"));
        for cpus in [1u32, 2, 8] {
            let (sim, metrics) = simulate_plan_metrics(&plan, &rec.log, &SimParams::cpus(cpus))
                .unwrap_or_else(|e| panic!("{name} @{cpus}p: {e}"));
            assert!(
                sim.audit.is_clean(),
                "{name} @{cpus}p: audit violations:\n{}",
                sim.audit.render()
            );
            assert!(sim.audit.checks > 0, "{name} @{cpus}p: audit ran no checks");
            assert!(metrics.dispatches > 0, "{name} @{cpus}p: observer saw nothing");
            assert_eq!(
                metrics.wall_ns,
                sim.wall_time.nanos(),
                "{name} @{cpus}p: metrics wall disagrees with the run"
            );
            // The replay must follow the recorded per-thread event order
            // (condvar traffic exempt per the §3.2 rewrite rules).
            let div = vppb_sim::DivergenceReport::vs_log(&rec.log, &sim.trace);
            assert!(div.identical, "{name} @{cpus}p: replay diverged at {:?}", div.first);
        }
    }
}
