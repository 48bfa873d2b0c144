//! # vppb-bench — the evaluation harness
//!
//! One module per experiment in DESIGN.md §4; the `src/bin/` targets are
//! thin wrappers that print each module's report. Experiments:
//!
//! * [`table1`] — TAB1, the paper's headline validation table;
//! * [`case_study`] — CS-A/CS-B, the §5 producer/consumer walkthrough;
//! * [`overhead_exp`] — OVH + LOG, recording intrusion and log statistics;
//! * [`figures`] — FIG2/4/5/6/7 regeneration (text + SVG);
//! * [`whatif`] — WHATIF, ablations and §3.2 parameter sweeps.

pub mod case_study;
pub mod figures;
pub mod harness;
pub mod overhead_exp;
pub mod table1;
pub mod whatif;

use std::collections::BTreeMap;
use vppb_threads::{App, AppBuilder};

/// Parse a bench binary's arguments: each one is a flag from `switches`,
/// or a flag from `valued` followed by its value. Anything else (a flag
/// the binary does not read, a valued flag with no value, a stray word)
/// prints `usage` and exits 2, before anything is measured or written.
/// Maps each flag given to its value (`None` for a switch).
pub fn parse_flags(
    args: impl IntoIterator<Item = String>,
    usage: &str,
    switches: &[&str],
    valued: &[&str],
) -> BTreeMap<String, Option<String>> {
    let mut flags = BTreeMap::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if switches.contains(&arg.as_str()) {
            flags.insert(arg, None);
        } else if let (true, Some(value)) = (valued.contains(&arg.as_str()), args.next()) {
            flags.insert(arg, Some(value));
        } else {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }
    flags
}

/// A program with more runnable threads than CPUs, used by the dispatch
/// ablation (priority aging only matters when LWPs compete).
pub fn figures_app_many_threads(scale: f64) -> App {
    let mut b = AppBuilder::new("oversubscribed", "many.c");
    let m = b.mutex();
    let w = b.func("w", move |f| {
        f.loop_n(20, |f| {
            f.work(vppb_model::Duration::from_secs_f64(2e-3 * scale));
            f.lock(m);
            f.unlock(m);
        });
    });
    b.main(move |f| {
        let s = f.slot();
        f.loop_n(6, |f| f.create_into(w, s));
        f.loop_n(6, |f| f.join(s));
    });
    b.build().expect("oversubscribed app builds")
}
