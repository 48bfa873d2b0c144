//! `vppb` — command-line front end for the record → simulate → visualize
//! workflow, driving everything from log files like the original tool.
//!
//! ```text
//! vppb workloads
//! vppb record <workload> [--threads N] [--scale S] [-o FILE] [--format text|json|bin]
//! vppb simulate <LOG> [--cpus N] [--lwps N] [--comm-delay-us D] [--model solaris|async] [--svg FILE] [--html FILE] [--ansi] [--stats] [--metrics-json FILE] [--lenient]
//! vppb predict <LOG> [--cpus N] [--model solaris|async] [--metrics-json FILE] [--lenient]
//! vppb sweep <LOG> [--cpus N,N,..] [--lwps ..] [--comm-delay-us D,..] [--model solaris,async] [--jobs N] [--metrics-json FILE] [--lenient]
//! vppb check <LOG> [--strict|--lenient] [--json]
//! vppb report <LOG>
//! vppb serve [--addr A] [--workers N] [--cache-bytes B] [--queue-depth Q] [--request-timeout-ms T] [--max-body-bytes B] [--store DIR] [--tenant-backlog Q] [--tenant-weights a=4,b=1]
//! vppb fuzz [--seeds N] [--seed-start S] [--cpus N,N,..] [--model solaris,async] [--chunked] [--shrink] [--shrink-budget N] [--self-test] [--repro-dir DIR] [--json]
//! vppb watch <LOG> [--cpus N] [--chunks N] [--interval-ms D] [--idle-timeout-ms T] [--once] [--metrics-json FILE]
//! ```
//!
//! Exit codes are uniform across the log-consuming verbs: **0** the input
//! was clean and the verb fully succeeded, **1** the verb completed but
//! only after reported recovery (a salvaged log, an error-valued sweep
//! cell, a conservation-audit violation), **2** unrecoverable (unusable
//! input, bad usage, a failed simulation). Diagnostics always go to
//! stderr; stdout carries only results, so `--json` output stays clean.

use std::collections::BTreeMap;
use std::process::ExitCode;
use vppb::pipeline;
use vppb_model::{
    AuditReport, ConfigError, Diagnostic, LwpPolicy, ModelKind, SalvageReport, SchedMetrics,
    SimParams, Time, TraceLog, VppbError,
};
use vppb_oracle::OracleTweaks;
use vppb_recorder as logio;
use vppb_sim::{
    analyze, reference_params, sim_params, simulate_plan, simulate_plan_metrics, speedup,
    DivergenceReport, RunResult, SweepGrid, SweepPoint,
};
use vppb_viz::{ansi, compute_stats, stats, svg, Align, AnsiOptions, TextTable};
use vppb_workloads::{prodcons, splash2_suite, KernelParams};

/// Exit code for "completed, but only after reported recovery".
const EXIT_RECOVERED: u8 = 1;
/// Exit code for "unrecoverable input or failed operation".
const EXIT_UNRECOVERABLE: u8 = 2;

/// Machine-readable sweep dump written by `sweep --metrics-json`.
#[derive(serde::Serialize)]
struct SweepDump {
    /// Monitored program the sweep predicted.
    program: String,
    /// Predicted 1-CPU wall time every speed-up divides by, ns.
    uni_wall_ns: u64,
    /// Distinct configurations simulated after deduplication.
    unique_runs: usize,
    /// Worker threads the sweep ran on.
    workers: usize,
    /// The speed-up surface, one row per grid cell.
    points: Vec<SweepPoint>,
}

/// Machine-readable per-run dump written by `--metrics-json`.
#[derive(serde::Serialize)]
struct MetricsDump {
    /// Monitored program the prediction came from.
    program: String,
    /// Simulated CPU count.
    cpus: u32,
    /// User-level scheduling model the replay machine ran
    /// (`solaris` / `async`).
    model: String,
    /// Predicted wall time of the run, in virtual nanoseconds.
    wall_ns: u64,
    /// `simulate`: speed-up vs the monitored run; `predict`: predicted
    /// 1-CPU/N-CPU speed-up.
    speedup: f64,
    /// Scheduling counters of the N-CPU replay.
    metrics: SchedMetrics,
    /// Conservation-law audit of the N-CPU replay.
    audit: AuditReport,
    /// Where the replay departs from the recorded event order, if at all.
    /// Computed against the (possibly salvaged) log, so salvage edits act
    /// as the exemption set: synthesized records replay like recorded ones.
    divergence: DivergenceReport,
    /// Repairs applied to the log before simulating (empty on strict loads).
    salvage: SalvageReport,
}

/// Write the `--metrics-json` dump of `run`, one replay of `log` under
/// `params`, with the speed-up the verb reports.
fn write_metrics_json(
    path: &str,
    log: &TraceLog,
    params: &SimParams,
    run: &RunResult,
    speedup: f64,
    metrics: SchedMetrics,
    salvage: &SalvageReport,
) -> Result<(), String> {
    let dump = MetricsDump {
        program: log.header.program.clone(),
        cpus: params.machine.cpus,
        model: params.machine.model.name().to_string(),
        wall_ns: run.wall_time.nanos(),
        speedup,
        metrics,
        audit: run.audit.clone(),
        divergence: DivergenceReport::vs_log(log, &run.trace),
        salvage: salvage.clone(),
    };
    let json = serde_json::to_string(&dump).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| e.to_string())?;
    println!("wrote {path}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("vppb: {msg}");
            ExitCode::from(EXIT_UNRECOVERABLE)
        }
    }
}

/// A log brought in by a verb, with everything recovery reported.
struct LoadedInput {
    log: TraceLog,
    diagnostics: Vec<Diagnostic>,
    salvage: SalvageReport,
}

impl LoadedInput {
    fn is_pristine(&self) -> bool {
        self.diagnostics.is_empty() && self.salvage.is_clean()
    }

    /// The verb's exit code when everything else succeeded.
    fn exit(&self) -> ExitCode {
        if self.is_pristine() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(EXIT_RECOVERED)
        }
    }
}

/// Load a log for a verb: strict by default, recovering under
/// `--lenient` with every diagnostic and salvage edit printed to stderr.
fn load_input(path: &str, flags: &BTreeMap<String, String>) -> Result<LoadedInput, String> {
    if !flags.contains_key("lenient") {
        let log = logio::load(path).map_err(|e| e.to_string())?;
        return Ok(LoadedInput { log, diagnostics: Vec::new(), salvage: SalvageReport::default() });
    }
    let loaded = logio::load_lenient(path).map_err(|e| e.to_string())?;
    for d in &loaded.diagnostics {
        eprintln!("{d}");
    }
    for e in &loaded.salvage.edits {
        eprintln!("{}", e.to_diagnostic());
    }
    if !loaded.is_pristine() {
        eprintln!(
            "vppb: salvaged `{path}`: {} decoder diagnostic(s), {} repair(s)",
            loaded.diagnostics.len(),
            loaded.salvage.edits.len()
        );
    }
    Ok(LoadedInput { log: loaded.log, diagnostics: loaded.diagnostics, salvage: loaded.salvage })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let (pos, flags) = parse_flags(cmd, &args[1..])?;
    match cmd.as_str() {
        "workloads" => {
            println!("built-in workloads (record with `vppb record <name>`):");
            for spec in splash2_suite() {
                println!(
                    "  {:<18} SPLASH-2-style kernel (paper 8p real speed-up {:.2})",
                    spec.name.to_lowercase(),
                    spec.paper_real[2].1
                );
            }
            println!("  {:<18} §5 case study, 226 threads, one hot mutex", "prodcons-naive");
            println!("  {:<18} §5 case study after the fix", "prodcons-improved");
            Ok(ExitCode::SUCCESS)
        }
        "record" => {
            let name = pos.first().ok_or("record: which workload? (see `vppb workloads`)")?;
            let threads: u32 = flag(&flags, "threads", 8)?;
            let scale: f64 = flag(&flags, "scale", 0.25)?;
            let app = build_workload(name, threads, scale)?;
            let rec = pipeline::record_app(&app).map_err(|e| e.to_string())?;
            let default_out = format!("{name}.vppb");
            let out = flags.get("o").map(String::as_str).unwrap_or(&default_out);
            let format = flags.get("format").map(String::as_str).unwrap_or("text");
            save_log(&rec.log, out, format).map_err(|e| e.to_string())?;
            println!(
                "recorded {} events over {} of monitored uni-processor time -> {out} ({format})",
                rec.log.len(),
                rec.wall_time()
            );
            Ok(ExitCode::SUCCESS)
        }
        "simulate" => {
            let path = pos.first().ok_or("simulate: which log file?")?;
            let input = load_input(path, &flags)?;
            let log = &input.log;
            let cpus: u32 = flag(&flags, "cpus", 8)?;
            let lwps = match flags.get("lwps") {
                None => LwpPolicy::PerThread,
                Some(l) => LwpPolicy::Fixed(l.parse().map_err(|_| "bad --lwps")?),
            };
            let comm_delay_us = match flags.get("comm-delay-us") {
                None => None,
                Some(d) => Some(d.parse().map_err(|_| "bad --comm-delay-us")?),
            };
            let params =
                sim_params(cpus, lwps, comm_delay_us, parse_model(&flags)?).map_err(flag_error)?;
            let plan = analyze(log).map_err(|e| e.to_string())?;
            let (sim, metrics) = if flags.contains_key("metrics-json") {
                let (sim, m) =
                    simulate_plan_metrics(&plan, log, &params).map_err(|e| e.to_string())?;
                (sim, Some(m))
            } else {
                (simulate_plan(&plan, log, &params).map_err(|e| e.to_string())?, None)
            };
            let vs_recorded = speedup(log.header.wall_time, sim.wall_time);
            println!(
                "simulated `{}` on {cpus} CPUs: wall {}, speed-up vs monitored run {vs_recorded:.2}",
                log.header.program, sim.wall_time,
            );
            if let (Some(file), Some(metrics)) = (flags.get("metrics-json"), metrics) {
                write_metrics_json(file, log, &params, &sim, vs_recorded, metrics, &input.salvage)?;
            }
            if let Some(file) = flags.get("svg") {
                std::fs::write(file, svg::render_trace(&sim.trace)).map_err(|e| e.to_string())?;
                println!("wrote {file}");
            }
            if flags.contains_key("ansi") {
                print!("{}", ansi::render_trace(&sim.trace, &AnsiOptions::default()));
            }
            if let Some(file) = flags.get("html") {
                std::fs::write(file, vppb_viz::render_html(&sim.trace))
                    .map_err(|e| e.to_string())?;
                println!("wrote {file}");
            }
            if flags.contains_key("stats") {
                print!("{}", stats::render(&compute_stats(&sim.trace)));
            }
            Ok(input.exit())
        }
        "predict" => {
            let path = pos.first().ok_or("predict: which log file?")?;
            let input = load_input(path, &flags)?;
            let log = &input.log;
            let cpus: u32 = flag(&flags, "cpus", 8)?;
            let params = sim_params(cpus, LwpPolicy::PerThread, None, parse_model(&flags)?)
                .map_err(flag_error)?;
            // Table-1 style speed-up over the same model's 1-CPU run, with
            // the N-CPU run's metrics under `--metrics-json`.
            let plan = analyze(log).map_err(|e| e.to_string())?;
            let prediction = vppb_sim::predict(&plan, log, &params).map_err(|e| e.to_string())?;
            let s = prediction.speedup();
            println!("predicted speed-up of `{}` on {cpus} CPUs: {s:.2}", log.header.program);
            if let Some(file) = flags.get("metrics-json") {
                let (run, metrics) = (&prediction.run, prediction.metrics);
                write_metrics_json(file, log, &params, run, s, metrics, &input.salvage)?;
            }
            Ok(input.exit())
        }
        "sweep" => {
            let path = pos.first().ok_or("sweep: which log file?")?;
            let input = load_input(path, &flags)?;
            let log = &input.log;
            let cpus = parse_list::<u32>(flags.get("cpus").map_or("1,2,4,8", String::as_str))
                .map_err(|_| "bad --cpus list")?;
            let mut grid = SweepGrid::over_cpus(cpus);
            if let Some(l) = flags.get("lwps") {
                grid = grid.with_lwps(parse_list::<LwpPolicy>(l).map_err(|_| "bad --lwps list")?);
            }
            if let Some(d) = flags.get("comm-delay-us") {
                let delays = parse_list::<u64>(d).map_err(|_| "bad --comm-delay-us list")?;
                grid = grid.with_comm_delays_us(delays);
            }
            if let Some(m) = flags.get("model") {
                let models = parse_list::<ModelKind>(m)
                    .map_err(|_| "bad --model list (expected solaris and/or async)")?;
                grid = grid.with_models(models);
            }
            let jobs: usize = flag(&flags, "jobs", 0)?;
            let configs = grid.try_configs().map_err(flag_error)?;
            let outcome = vppb_sim::sweep(log, &configs, jobs).map_err(|e| e.to_string())?;
            println!(
                "swept `{}` over {} configurations ({} unique) on {} worker thread{}; \
                 1-CPU reference wall {}",
                log.header.program,
                configs.len(),
                outcome.unique_runs,
                outcome.workers,
                if outcome.workers == 1 { "" } else { "s" },
                outcome.uni_wall,
            );
            let mut table = TextTable::new([
                "config",
                "cpus",
                "wall",
                "speed-up",
                "util",
                "DES events",
                "audit",
            ])
            .aligns([
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Left,
            ]);
            for p in &outcome.points {
                if let Some(err) = &p.error {
                    table.row([
                        p.label.clone(),
                        p.cpus.to_string(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        format!("ERROR: {err}"),
                    ]);
                    continue;
                }
                let mut audit = if p.audit_clean { "clean" } else { "VIOLATED" }.to_string();
                if p.deduplicated {
                    audit += " (dedup)";
                }
                table.row([
                    p.label.clone(),
                    p.cpus.to_string(),
                    Time(p.wall_ns).to_string(),
                    format!("{:.2}", p.speedup),
                    format!("{:.0}%", p.utilization * 100.0),
                    p.des_events.to_string(),
                    audit,
                ]);
            }
            print!("{}", table.render(!flags.contains_key("no-color")));
            let violated = outcome.points.iter().any(|p| p.error.is_none() && !p.audit_clean);
            let failed_cells = outcome.points.iter().filter(|p| p.error.is_some()).count();
            if let Some(file) = flags.get("metrics-json") {
                let dump = SweepDump {
                    program: log.header.program.clone(),
                    uni_wall_ns: outcome.uni_wall.nanos(),
                    unique_runs: outcome.unique_runs,
                    workers: outcome.workers,
                    points: outcome.points,
                };
                let json = serde_json::to_string(&dump).map_err(|e| e.to_string())?;
                std::fs::write(file, json).map_err(|e| e.to_string())?;
                println!("wrote {file}");
            }
            // Degraded-but-complete outcomes exit 1, like a salvaged load.
            if violated {
                eprintln!("vppb: a sweep cell ended with a conservation-law violation");
            }
            if failed_cells > 0 {
                eprintln!("vppb: {failed_cells} sweep cell(s) failed; see the table for details");
            }
            if violated || failed_cells > 0 {
                return Ok(ExitCode::from(EXIT_RECOVERED));
            }
            Ok(input.exit())
        }
        "serve" => {
            // `--tenant-weights a=4,b=1`: WRR weights per tenant identity.
            let tenant_weights = match flags.get("tenant-weights") {
                None => Vec::new(),
                Some(spec) => spec
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|pair| {
                        let (name, w) = pair
                            .split_once('=')
                            .ok_or_else(|| format!("bad --tenant-weights entry `{pair}`"))?;
                        let w: u32 = w
                            .parse()
                            .map_err(|_| format!("bad weight in --tenant-weights `{pair}`"))?;
                        Ok((name.to_string(), w))
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            };
            let opts = vppb_serve::ServeOptions {
                addr: flags
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| vppb_serve::ServeOptions::default().addr),
                workers: flag(&flags, "workers", 0usize)?,
                cache_bytes: flag(&flags, "cache-bytes", 64 * 1024 * 1024u64)?,
                queue_depth: flag(&flags, "queue-depth", 128usize)?,
                request_timeout_ms: flag(&flags, "request-timeout-ms", 30_000u64)?,
                max_body_bytes: flag(&flags, "max-body-bytes", 256 * 1024 * 1024usize)?,
                store_dir: flags.get("store").cloned(),
                // Chaos-testing knob: sabotage the store's VFS from the
                // environment, so the crash harness can arm faults in a
                // real child process without new flags leaking into docs.
                fault_vfs: std::env::var("VPPB_FAULT_VFS").ok().filter(|s| !s.is_empty()),
                tenant_backlog: flag(&flags, "tenant-backlog", 0usize)?,
                tenant_weights,
            };
            // A 10k-connection front end needs the soft fd limit at the
            // hard cap. VPPB_RLIMIT_NOFILE *lowers* it instead — the
            // accept-error regression test starves the server of fds.
            match std::env::var("VPPB_RLIMIT_NOFILE").ok().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => {
                    vppb_serve::rlimit::set_nofile(n);
                }
                None => {
                    vppb_serve::rlimit::raise_nofile();
                }
            }
            vppb_serve::signals::install();
            let server = vppb_serve::start(opts).map_err(|e| e.to_string())?;
            if let Some(report) = server.startup_report() {
                println!("vppb serve: {}", report.summary());
                for d in report.store.diagnostics.iter().chain(&report.memo_diagnostics) {
                    eprintln!("vppb serve: {d}");
                }
            }
            // The e2e tests and the smoke bench scrape this line to learn
            // the bound port, so its shape is part of the CLI contract.
            println!("vppb serve: listening on http://{}", server.local_addr());
            server.join();
            println!("vppb serve: drained, shutting down");
            Ok(ExitCode::SUCCESS)
        }
        "fuzz" => fuzz(&flags),
        "watch" => {
            let path = pos.first().ok_or("watch: which log file?")?;
            watch(path, &flags)
        }
        "check" => {
            let path = pos.first().ok_or("check: which log file?")?;
            check_log(path, &flags)
        }
        "report" => {
            let path = pos.first().ok_or("report: which log file?")?;
            let log = logio::load(path).map_err(|e| e.to_string())?;
            println!("program:   {}", log.header.program);
            println!("wall time: {} (monitored uni-processor)", log.header.wall_time);
            println!("records:   {}", log.len());
            println!("events/s:  {:.0}", log.events_per_second());
            println!("threads:   {}", log.threads().len());
            for (t, f) in &log.header.thread_start_fn {
                println!("  {t} -> {f}()");
            }
            Ok(ExitCode::SUCCESS)
        }
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

/// `vppb check`: run the linter/salvager standalone. Diagnostics render
/// rustc-style on stderr; stdout carries the verdict (or, with `--json`,
/// the machine-readable report). Exit codes: 0 clean, 1 salvaged with
/// warnings, 2 unrecoverable.
fn check_log(path: &str, flags: &BTreeMap<String, String>) -> Result<ExitCode, String> {
    if flags.contains_key("strict") && flags.contains_key("lenient") {
        return Err("check: --strict and --lenient are mutually exclusive".into());
    }
    let json = flags.contains_key("json");

    /// The machine-readable half of the `check` contract.
    #[derive(serde::Serialize)]
    struct CheckDump {
        file: String,
        /// Mode the check ran in: `strict` or `lenient`.
        mode: &'static str,
        /// Whether a usable log came out at all.
        usable: bool,
        /// Whether it came out without any recovery.
        clean: bool,
        /// Records in the (possibly salvaged) log.
        records: usize,
        /// Decoder diagnostics, in input order.
        diagnostics: Vec<Diagnostic>,
        /// Structural repairs applied after decoding.
        salvage: SalvageReport,
    }

    if flags.contains_key("strict") {
        // Strict: the log must load with zero recovery, or the check fails.
        match logio::load(path) {
            Ok(log) => {
                if json {
                    let dump = CheckDump {
                        file: path.to_string(),
                        mode: "strict",
                        usable: true,
                        clean: true,
                        records: log.len(),
                        diagnostics: Vec::new(),
                        salvage: SalvageReport::default(),
                    };
                    println!("{}", serde_json::to_string(&dump).map_err(|e| e.to_string())?);
                } else {
                    println!("{path}: clean ({} records)", log.len());
                }
                return Ok(ExitCode::SUCCESS);
            }
            Err(e) => {
                eprintln!("{e}");
                if json {
                    let dump = CheckDump {
                        file: path.to_string(),
                        mode: "strict",
                        usable: false,
                        clean: false,
                        records: 0,
                        diagnostics: match e {
                            VppbError::Diag(d) => vec![d],
                            _ => Vec::new(),
                        },
                        salvage: SalvageReport::default(),
                    };
                    println!("{}", serde_json::to_string(&dump).map_err(|e| e.to_string())?);
                } else {
                    println!("{path}: unrecoverable");
                }
                return Ok(ExitCode::from(EXIT_UNRECOVERABLE));
            }
        }
    }

    // Lenient (the default): salvage what a strict load would refuse.
    match logio::load_lenient(path) {
        Ok(loaded) => {
            for d in &loaded.diagnostics {
                eprintln!("{d}");
            }
            for e in &loaded.salvage.edits {
                eprintln!("{}", e.to_diagnostic());
            }
            let clean = loaded.is_pristine();
            if json {
                let dump = CheckDump {
                    file: path.to_string(),
                    mode: "lenient",
                    usable: true,
                    clean,
                    records: loaded.log.len(),
                    diagnostics: loaded.diagnostics,
                    salvage: loaded.salvage,
                };
                println!("{}", serde_json::to_string(&dump).map_err(|e| e.to_string())?);
            } else if clean {
                println!("{path}: clean ({} records)", loaded.log.len());
            } else {
                println!(
                    "{path}: salvaged ({} records kept, {} diagnostic(s), {} repair(s))",
                    loaded.log.len(),
                    loaded.diagnostics.len(),
                    loaded.salvage.edits.len()
                );
                for (code, n) in loaded.salvage.counts() {
                    println!("  {code} x{n}");
                }
            }
            Ok(if clean { ExitCode::SUCCESS } else { ExitCode::from(EXIT_RECOVERED) })
        }
        Err(e) => {
            eprintln!("{e}");
            if json {
                let dump = CheckDump {
                    file: path.to_string(),
                    mode: "lenient",
                    usable: false,
                    clean: false,
                    records: 0,
                    diagnostics: match e {
                        VppbError::Diag(d) => vec![d],
                        _ => Vec::new(),
                    },
                    salvage: SalvageReport::default(),
                };
                println!("{}", serde_json::to_string(&dump).map_err(|e| e.to_string())?);
            } else {
                println!("{path}: unrecoverable");
            }
            Ok(ExitCode::from(EXIT_UNRECOVERABLE))
        }
    }
}

/// A scheduling bug `vppb fuzz --self-test` plants in the oracle. The
/// fuzzer must catch it, and the first divergence must shrink to at most
/// `max_shrunk_ops` replay-plan ops.
struct PlantedBug {
    name: &'static str,
    /// Suffix of the bug's repro files, so the two passes do not
    /// overwrite each other's reproducer for one seed.
    slug: &'static str,
    tweaks: OracleTweaks,
    max_shrunk_ops: usize,
}

/// One planted bug per scheduler world. The steal-order bound is looser:
/// exposing steal *order* needs a 3-worker pool kept busy plus two blocked
/// and woken threads, so its minimal program carries more ops than a
/// tie-break repro.
const PLANTED_BUGS: [PlantedBug; 2] = [
    PlantedBug {
        name: "tie-break inversion",
        slug: "-tie-break",
        tweaks: OracleTweaks { invert_dispatch_tiebreak: true, reverse_steal_order: false },
        max_shrunk_ops: 20,
    },
    PlantedBug {
        name: "async steal-order reversal",
        slug: "-steal-order",
        tweaks: OracleTweaks { invert_dispatch_tiebreak: false, reverse_steal_order: true },
        max_shrunk_ops: 30,
    },
];

/// Seeds per `fuzz_corpus` call; a progress line follows each block.
const FUZZ_BLOCK: u64 = 100;

/// `vppb fuzz`: differential fuzzing of the scheduler. Seeded random
/// programs are recorded on the monitored machine, then each replay plan
/// runs through both the optimized engine and the naive oracle across a
/// scheduler-model × CPU-count × LWP-policy grid (`--model` restricts
/// the model axis; default both `solaris` and `async`); the two must
/// agree on the full stream of scheduling decisions, bit for bit.
/// `--chunked` also streams each recorded log in chunks and holds, at
/// every chunk boundary, the session's salvaged log, plan and committed
/// horizon to a full re-derive of the same prefix and its rolling
/// prediction to a cold run (`vppb_sim::check_chunked_equivalence`). `--shrink`
/// delta-debugs every divergence to a minimal reproducer and writes it
/// out as a replayable text log. `--self-test` proves the fuzzer has
/// teeth: it plants an inverted dispatch tie-break in the oracle over the
/// whole grid and a reversed steal order over the grid's async points,
/// and each must be caught with a first divergence that shrinks within
/// its bound. Exit codes: 0 all comparisons agreed (or, under
/// `--self-test`, both bugs were caught and shrunk within bounds), 2
/// otherwise.
fn fuzz(flags: &BTreeMap<String, String>) -> Result<ExitCode, String> {
    use vppb_oracle::{ConfigGrid, GenParams, LwpMode, ProgSpec};

    let seeds: u64 = flag(flags, "seeds", 100)?;
    let start: u64 = flag(flags, "seed-start", 0)?;
    let cpus = parse_list::<u32>(flags.get("cpus").map_or("1,2,4,8", String::as_str))
        .map_err(|_| "bad --cpus list")?;
    for &c in &cpus {
        sim_params(c, LwpPolicy::PerThread, None, ModelKind::SolarisTs).map_err(flag_error)?;
    }
    let models =
        parse_list::<ModelKind>(flags.get("model").map_or("solaris,async", String::as_str))
            .map_err(|_| "bad --model list (expected solaris and/or async)")?;
    let grid = ConfigGrid { cpus, modes: LwpMode::ALL.to_vec(), models };
    if grid.is_empty() {
        return Err("fuzz: empty configuration grid".into());
    }
    let self_test = flags.contains_key("self-test");
    let chunked = flags.contains_key("chunked");
    let do_shrink = flags.contains_key("shrink");
    let budget: usize = flag(flags, "shrink-budget", 200)?;
    let json = flags.contains_key("json");
    let repro_dir = flags.get("repro-dir").map(String::as_str).unwrap_or(".");
    let gen = GenParams::default();

    // One pass per oracle: the real one, or under `--self-test` each
    // planted bug, the steal-order one on the async points only.
    let passes = if self_test {
        if chunked {
            return Err(format!("fuzz: --self-test and --chunked are separate runs\n{}", usage()));
        }
        if !grid.models.contains(&ModelKind::AsyncPool) {
            return Err(format!(
                "fuzz: --self-test needs the async model on the grid, where its steal-order bug \
                 lives\n{}",
                usage()
            ));
        }
        let async_grid = ConfigGrid { models: vec![ModelKind::AsyncPool], ..grid.clone() };
        let [tiebreak, steal] = &PLANTED_BUGS;
        vec![(Some(tiebreak), grid.clone()), (Some(steal), async_grid)]
    } else {
        vec![(None, grid.clone())]
    };

    /// Minimized reproducer, as reported under `--json`.
    #[derive(serde::Serialize)]
    struct ShrunkDump {
        /// Replay-plan size of the minimized program, in ops.
        plan_ops: usize,
        /// Candidate reductions evaluated / accepted while shrinking.
        attempts: usize,
        accepted: usize,
        /// Path of the replayable text log written for this reproducer
        /// (none when a self-test shrank it without `--shrink`).
        log: Option<String>,
    }

    /// One divergence, as reported under `--json`.
    #[derive(serde::Serialize)]
    struct DivergenceDump {
        /// Generator seed, zero-padded hex (regenerate with `--seed-start`).
        seed: String,
        /// Grid point where the schedules split (`cpus` 0 = pipeline error).
        cpus: u32,
        lwps: String,
        /// Scheduling model at the diverging grid point.
        model: String,
        plan_ops: usize,
        detail: String,
        shrunk: Option<ShrunkDump>,
    }

    /// The machine-readable half of the `fuzz` contract.
    #[derive(serde::Serialize)]
    struct FuzzDump {
        seeds: u64,
        seed_start: u64,
        /// Scheduling models on the grid's model axis.
        models: Vec<String>,
        /// Model × CPU-count × LWP-policy points each seed was replayed
        /// under.
        grid_points: usize,
        /// Total engine-vs-oracle comparisons performed.
        comparisons: usize,
        /// Incremental-vs-cold prefix comparisons under `--chunked`
        /// (0 when the flag is off).
        chunk_comparisons: usize,
        self_test: bool,
        clean: bool,
        divergences: Vec<DivergenceDump>,
    }

    // Delta-debug one divergent seed; under `--shrink`, also write the
    // minimized program as a replayable text log plus a note.
    let shrink_seed = |seed: u64,
                       grid: &ConfigGrid,
                       tweaks: OracleTweaks,
                       slug: &str|
     -> Result<Option<ShrunkDump>, String> {
        let spec = ProgSpec::generate(seed, &gen);
        let Some(r) = vppb_oracle::shrink(&spec, grid, tweaks, budget) else {
            return Ok(None);
        };
        let mut log = None;
        if do_shrink {
            std::fs::create_dir_all(repro_dir).map_err(|e| e.to_string())?;
            let stem = format!("{repro_dir}/fuzz-repro-{seed:016x}{slug}");
            let log_path = format!("{stem}.vppb");
            let rec = logio::record(&r.spec.build_app(), &logio::RecordOptions::default())
                .map_err(|e| e.to_string())?;
            logio::save_text(&rec.log, &log_path).map_err(|e| e.to_string())?;
            std::fs::write(
                format!("{stem}.txt"),
                format!(
                    "minimized divergence: {}\n\nshrunk spec ({} candidate(s) tried, {} \
                     accepted):\n{:#?}\n",
                    r.divergence, r.attempts, r.accepted, r.spec
                ),
            )
            .map_err(|e| e.to_string())?;
            log = Some(log_path);
        }
        if !json {
            eprintln!(
                "vppb fuzz: shrunk seed {seed:#018x} to {} plan ops ({} candidate(s) tried, {} \
                 accepted){}",
                r.divergence.plan_ops,
                r.attempts,
                r.accepted,
                log.as_ref().map_or(String::new(), |p| format!(" -> {p}"))
            );
        }
        Ok(Some(ShrunkDump {
            plan_ops: r.divergence.plan_ops,
            attempts: r.attempts,
            accepted: r.accepted,
            log,
        }))
    };

    let end = start.saturating_add(seeds);
    let mut comparisons = 0usize;
    let mut chunk_comparisons = 0usize;
    let mut dumps = Vec::new();
    let mut failures = Vec::new();
    for &(bug, ref grid) in &passes {
        let tweaks = bug.map_or(OracleTweaks::default(), |b| b.tweaks);
        let mut report = vppb_oracle::FuzzReport::default();
        for block in (start..end).step_by(FUZZ_BLOCK as usize) {
            let block = block..end.min(block.saturating_add(FUZZ_BLOCK));
            let r = vppb_oracle::fuzz_corpus(block.clone(), &gen, grid, tweaks);
            report.seeds += r.seeds;
            report.configs_checked += r.configs_checked;
            report.divergences.extend(r.divergences);
            // Second axis: the same recorded log, streamed in chunks split
            // at seeded record boundaries — every rolling prediction must
            // be bit-identical to a cold run of the same prefix.
            for seed in block.clone().filter(|_| chunked) {
                let spec = ProgSpec::generate(seed, &gen);
                let Ok(rec) = logio::record(&spec.build_app(), &logio::RecordOptions::default())
                else {
                    continue; // the corpus pass reported the pipeline error
                };
                let bytes = vppb_model::binlog::encode(&rec.log).map_err(|e| e.to_string())?;
                for &c in &grid.cpus {
                    match vppb_sim::check_chunked_equivalence(&bytes, &SimParams::cpus(c), seed) {
                        Ok(n) => chunk_comparisons += n,
                        Err(detail) => report.divergences.push(vppb_oracle::Divergence {
                            seed,
                            cpus: c,
                            mode: LwpMode::PerThread,
                            model: ModelKind::SolarisTs,
                            detail: format!("incremental replay diverged from cold run: {detail}"),
                            plan_ops: 0,
                        }),
                    }
                }
            }
            if block.end < end {
                eprintln!(
                    "vppb fuzz: {}/{seeds} seeds, {} divergence(s) so far",
                    block.end - start,
                    report.divergences.len()
                );
            }
        }
        comparisons += report.configs_checked;

        // A self-test always shrinks its first divergence, to hold it to
        // the bug's bound.
        let mut first_shrunk = None;
        for (i, d) in report.divergences.iter().enumerate() {
            if !json {
                eprintln!("vppb fuzz: divergence at {d}");
            }
            let shrunk = if do_shrink || (bug.is_some() && i == 0) {
                shrink_seed(d.seed, grid, tweaks, bug.map_or("", |b| b.slug))?
            } else {
                None
            };
            if i == 0 {
                first_shrunk = shrunk.as_ref().map(|s| s.plan_ops);
            }
            dumps.push(DivergenceDump {
                seed: format!("{:#018x}", d.seed),
                cpus: d.cpus,
                lwps: d.mode.to_string(),
                model: d.model.name().to_string(),
                plan_ops: d.plan_ops,
                detail: d.detail.clone(),
                shrunk,
            });
        }

        if !json {
            let chunk_note = if chunked {
                format!(", {chunk_comparisons} incremental-vs-cold prefix comparison(s)")
            } else {
                String::new()
            };
            println!(
                "{}fuzzed {} seed(s) (from {start:#x}) over {} grid point(s) each: {} \
                 comparison(s){chunk_note}, {} divergence(s)",
                bug.map_or(String::new(), |b| format!("{}: ", b.name)),
                report.seeds,
                grid.len(),
                report.configs_checked,
                report.divergences.len()
            );
        }
        let Some(bug) = bug else { continue };
        let verdict = match (report.divergences.first(), first_shrunk) {
            (None, _) => format!("the {} went unnoticed", bug.name),
            (Some(d), None) => format!(
                "caught the {} at seed {:#018x}, which did not re-diverge while shrinking",
                bug.name, d.seed
            ),
            (Some(d), Some(ops)) => format!(
                "caught the {} at seed {:#018x}, shrunk to {ops} plan ops (bound {})",
                bug.name, d.seed, bug.max_shrunk_ops
            ),
        };
        if first_shrunk.is_none_or(|ops| ops > bug.max_shrunk_ops) {
            failures.push(verdict);
        } else if !json {
            println!("self-test: {verdict}");
        }
    }

    let clean = dumps.is_empty();
    if json {
        let dump = FuzzDump {
            seeds,
            seed_start: start,
            models: grid.models.iter().map(|m| m.name().to_string()).collect(),
            grid_points: grid.len(),
            comparisons,
            chunk_comparisons,
            self_test,
            clean,
            divergences: dumps,
        };
        println!("{}", serde_json::to_string(&dump).map_err(|e| e.to_string())?);
    }
    if self_test {
        for f in &failures {
            eprintln!("vppb: fuzz self-test FAILED: {f}");
        }
        if !failures.is_empty() {
            return Ok(ExitCode::from(EXIT_UNRECOVERABLE));
        }
        if !json {
            println!("self-test passed: both planted scheduling bugs were caught and shrunk");
        }
        Ok(ExitCode::SUCCESS)
    } else if !clean {
        eprintln!("vppb: engine and oracle disagree on a schedule; see the divergences above");
        Ok(ExitCode::from(EXIT_UNRECOVERABLE))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// `vppb watch`: rolling prediction over a growing log. The file is
/// tailed (or, under `--chunks N`, replayed as N synthetic appends) and
/// after every append the incremental replay session re-predicts from its
/// last committed checkpoint instead of re-simulating from scratch.
/// Rolling updates go to stderr; stdout carries only the final line,
/// which is digit-identical to `vppb predict` on the same bytes.
/// Exit codes: 0 clean, 2 the log never became parseable.
fn watch(path: &str, flags: &BTreeMap<String, String>) -> Result<ExitCode, String> {
    let cpus: u32 = flag(flags, "cpus", 8)?;
    let chunks: usize = flag(flags, "chunks", 0)?;
    let interval_ms: u64 = flag(flags, "interval-ms", 500)?;
    let idle_timeout_ms: u64 = flag(flags, "idle-timeout-ms", 0)?;
    let once = flags.contains_key("once");
    let multi =
        sim_params(cpus, LwpPolicy::PerThread, None, ModelKind::SolarisTs).map_err(flag_error)?;
    let uni = reference_params(&multi);
    let mut session = vppb_sim::StreamSession::new();
    let mut last: Option<f64> = None;

    // One append + re-predict. `Ok(None)` means the buffer is not a
    // parseable log yet (e.g. binlog header only) — keep tailing.
    let feed = |session: &mut vppb_sim::StreamSession,
                part: &[u8]|
     -> Result<Option<f64>, String> {
        if session.append(part).is_err() {
            return Ok(None);
        }
        let u = session.predict(&uni).map_err(|e| e.to_string())?;
        let m = session.predict(&multi).map_err(|e| e.to_string())?;
        let s = speedup(u.wall_time, m.wall_time);
        let ckpt = session
            .checkpoint_events(&multi)
            .map_or("cold".to_string(), |e| format!("checkpoint @{e}"));
        eprintln!(
            "vppb watch: {} byte(s), {} record(s), wall {} on {cpus} CPUs, speed-up {s:.2} ({ckpt})",
            session.bytes().len(),
            session.log().map_or(0, |l| l.len()),
            m.wall_time,
        );
        Ok(Some(s))
    };

    if chunks > 0 {
        // Synthetic streaming: replay the file as N appends split at
        // record boundaries. Deterministic, good for demos and tests.
        let bytes = std::fs::read(path).map_err(|e| format!("watch: {path}: {e}"))?;
        for part in vppb_model::chunk::split_even(&bytes, chunks) {
            last = feed(&mut session, &part)?.or(last);
        }
    } else {
        let interval = std::time::Duration::from_millis(interval_ms.max(10));
        let mut consumed = 0usize;
        let mut idle = std::time::Duration::ZERO;
        loop {
            let bytes = std::fs::read(path).map_err(|e| format!("watch: {path}: {e}"))?;
            if bytes.len() > consumed {
                idle = std::time::Duration::ZERO;
                last = feed(&mut session, &bytes[consumed..])?.or(last);
                consumed = bytes.len();
                if once {
                    break;
                }
            } else {
                idle += interval;
                if once && last.is_some() {
                    break;
                }
                if idle_timeout_ms > 0 && idle >= std::time::Duration::from_millis(idle_timeout_ms)
                {
                    eprintln!("vppb watch: no growth for {idle_timeout_ms} ms, stopping");
                    break;
                }
            }
            std::thread::sleep(interval);
        }
    }

    let Some(s) = last else {
        return Err(format!("watch: `{path}` never became a parseable log"));
    };
    let program = session.log().map(|l| l.header.program.clone()).unwrap_or_default();
    println!("predicted speed-up of `{program}` on {cpus} CPUs: {s:.2}");
    if let Some(file) = flags.get("metrics-json") {
        let log = session.log().ok_or("watch: no parsed log")?;
        let plan = analyze(log).map_err(|e| e.to_string())?;
        let (m, metrics) = simulate_plan_metrics(&plan, log, &multi).map_err(|e| e.to_string())?;
        write_metrics_json(file, log, &multi, &m, s, metrics, &SalvageReport::default())?;
    }
    Ok(ExitCode::SUCCESS)
}

fn usage() -> String {
    "usage:\n  \
     vppb workloads\n  \
     vppb record <workload> [--threads N] [--scale S] [-o FILE] [--format text|json|bin]\n  \
     vppb simulate <LOG> [--cpus N] [--lwps N] [--comm-delay-us D] [--model solaris|async] [--svg FILE] [--html FILE] [--ansi] [--stats] [--metrics-json FILE] [--lenient]\n  \
     vppb predict <LOG> [--cpus N] [--model solaris|async] [--metrics-json FILE] [--lenient]\n  \
     vppb sweep <LOG> [--cpus N,N,..] [--lwps per-thread|follow|N,..] [--comm-delay-us D,..] \
     [--model solaris,async] [--jobs N] [--no-color] [--metrics-json FILE] [--lenient]\n  \
     vppb check <LOG> [--strict|--lenient] [--json]\n  \
     vppb report <LOG>\n  \
     vppb serve [--addr A] [--workers N] [--cache-bytes B] [--queue-depth Q] \
     [--request-timeout-ms T] [--max-body-bytes B] [--store DIR] \
     [--tenant-backlog Q] [--tenant-weights a=4,b=1]\n  \
     vppb fuzz [--seeds N] [--seed-start S] [--cpus N,N,..] [--model solaris,async] [--chunked] \
     [--shrink] [--shrink-budget N] [--self-test] [--repro-dir DIR] [--json]\n  \
     vppb watch <LOG> [--cpus N] [--chunks N] [--interval-ms D] [--idle-timeout-ms T] [--once] [--metrics-json FILE]\n\
     \n\
     exit codes: 0 clean, 1 completed after reported recovery, 2 unrecoverable"
        .to_string()
}

/// Parse a `--flag a,b,c` list.
fn parse_list<T: std::str::FromStr>(s: &str) -> Result<Vec<T>, ()> {
    s.split(',').map(|x| x.trim().parse().map_err(|_| ())).collect()
}

/// Parse a single `--model` flag (default: the Solaris TS queues).
fn parse_model(flags: &BTreeMap<String, String>) -> Result<ModelKind, String> {
    match flags.get("model") {
        None => Ok(ModelKind::SolarisTs),
        Some(m) => m.parse(),
    }
}

/// A configuration [`sim_params`] refused, naming the flag that set it:
/// the flags are the request fields, spelled with dashes.
fn flag_error(e: ConfigError) -> String {
    match e.field {
        Some(field) => format!("bad --{}: {}", field.replace('_', "-"), e.reason),
        None => e.reason,
    }
}

/// The flags each verb reads: `(switches, flags that take a value)`,
/// space-separated.
fn verb_flags(cmd: &str) -> (&'static str, &'static str) {
    match cmd {
        "record" => ("", "threads scale o format"),
        "simulate" => ("ansi stats lenient", "cpus lwps comm-delay-us model svg html metrics-json"),
        "predict" => ("lenient", "cpus model metrics-json"),
        "sweep" => ("no-color lenient", "cpus lwps comm-delay-us model jobs metrics-json"),
        "check" => ("strict lenient json", ""),
        "serve" => (
            "",
            "addr workers cache-bytes queue-depth request-timeout-ms max-body-bytes store \
             tenant-backlog tenant-weights",
        ),
        "fuzz" => {
            ("chunked shrink self-test json", "seeds seed-start cpus model shrink-budget repro-dir")
        }
        "watch" => ("once", "cpus chunks interval-ms idle-timeout-ms metrics-json"),
        _ => ("", ""),
    }
}

/// Split `cmd`'s positional args from its `--key value` / `--switch` /
/// `-o value` flags. A flag the verb does not read is a usage error, so a
/// misspelt or retired switch can neither take the next argument as its
/// value nor be silently ignored.
fn parse_flags(
    cmd: &str,
    args: &[String],
) -> Result<(Vec<String>, BTreeMap<String, String>), String> {
    let (switches, valued) = verb_flags(cmd);
    let mut pos = Vec::new();
    let mut flags = BTreeMap::new();
    let mut args = args.iter();
    while let Some(a) = args.next() {
        let Some(key) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) else {
            pos.push(a.clone());
            continue;
        };
        let value = if switches.split(' ').any(|f| f == key) {
            "true".to_string()
        } else if valued.split(' ').any(|f| f == key) {
            args.next().cloned().unwrap_or_default()
        } else {
            return Err(format!("{cmd}: unknown flag `{a}`\n{}", usage()));
        };
        flags.insert(key.to_string(), value);
    }
    Ok((pos, flags))
}

fn flag<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad --{key} value `{v}`")),
    }
}

fn build_workload(name: &str, threads: u32, scale: f64) -> Result<vppb_threads::App, String> {
    let params = KernelParams::scaled(threads, scale);
    for spec in splash2_suite() {
        if spec.name.eq_ignore_ascii_case(name) {
            return Ok((spec.build)(params));
        }
    }
    match name {
        "prodcons-naive" => Ok(prodcons::naive(scale)),
        "prodcons-improved" => Ok(prodcons::improved(scale)),
        _ => Err(format!("unknown workload `{name}` (see `vppb workloads`)")),
    }
}

fn save_log(log: &TraceLog, path: &str, format: &str) -> Result<(), VppbError> {
    match format {
        "text" => logio::save_text(log, path),
        "json" => logio::save_json(log, path),
        "bin" => logio::save_bin(log, path),
        other => Err(VppbError::InvalidConfig(format!("unknown format `{other}`"))),
    }
}
