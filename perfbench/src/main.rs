//! `perfbench --workload <cold|sweep|stream|serve> --seed N --seconds S --trace 0|1`
//!
//! Prints diagnostics on stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Traced runs
//! also write `layers.md` and `spans.tsv` under `.perfbench/<workload>-<seed>/`.

use perfbench::report::{json_line, layer_metrics, layer_table};
use perfbench::trace::{dump, self_times};
use perfbench::workloads::{cold, serve, stream, sweep, Run};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static HEAP: perfbench::heap::Counting = perfbench::heap::Counting;

fn usage() -> String {
    "usage: perfbench --workload <cold|sweep|stream|serve> --seed N --seconds S --trace 0|1".into()
}

fn parse(args: &[String]) -> Result<(String, Run), String> {
    let started = Instant::now();
    let flag = |name: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == name).ok_or_else(usage)?;
        args.get(i + 1).map(String::as_str).ok_or_else(usage)
    };
    let number = |name: &str| -> Result<u64, String> {
        flag(name)?.parse().map_err(|_| format!("{name} takes a whole number"))
    };
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let run = Run { seed: number("--seed")?, seconds: number("--seconds")?.max(1), trace, started };
    Ok((flag("--workload")?.to_string(), run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match workload.as_str() {
        "cold" => cold::run(&run),
        "sweep" => sweep::run(&run),
        "stream" => stream::run(&run),
        "serve" => serve::run(&run),
        other => Err(format!("unknown workload `{other}`\n{}", usage())),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &out.notes {
        eprintln!("perfbench: {workload}: {note}");
    }
    for problem in &out.problems {
        eprintln!("perfbench: {workload}: WRONG: {problem}");
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    let metrics = if run.trace {
        let table = layer_table(&workload, run.seed, &out.layers, &self_times(&out.spans));
        eprint!("{table}");
        let dir = std::path::Path::new(".perfbench").join(format!("{workload}-{}", run.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(dir.join("layers.md"), &table))
            .and_then(|()| std::fs::write(dir.join("spans.tsv"), dump(&out.spans)));
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", dir.display());
        }
        layer_metrics(&out.layers)
    } else {
        out.end_to_end.clone()
    };
    println!("{}", json_line(correct, out.attempted, out.failed, &metrics));
    ExitCode::SUCCESS
}
