//! Command line of the benchmark.
//!
//! ```text
//! lnic-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!                [--smoke] [--commit <id>]
//! lnic-benchmark compare [--bounds <BENCHMARK.json>] <parent runs…> -- <change runs…>
//! ```
//!
//! A run prints a context line and, last, the result line: one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. It exits
//! 1 when the correctness gate fails and 2 on a usage error or a
//! refused environment. `compare` exits 1 when the change fails the
//! gate.

use std::process::ExitCode;

use lnic_benchmark::compare::{compare, parse_runs};
use lnic_benchmark::json::Json;
use lnic_benchmark::{environment_problem, run, Options, Workload};

/// Run length when `--seconds` is absent (the `run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 16;

const USAGE: &str = "usage: lnic-benchmark --workload <name> --seed <n> [--seconds <s>] \
[--trace 0|1] [--smoke] [--commit <id>]\n       \
lnic-benchmark compare [--bounds <BENCHMARK.json>] <parent runs...> -- <change runs...>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare_main(&args[1..])
    } else {
        run_main(&args)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lnic-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut layers = false;
    let mut smoke = false;
    let mut commit = std::env::var("LNIC_COMMIT").unwrap_or_else(|_| "unknown".to_owned());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".to_owned());
                }
            }
            "--trace" => match value()?.as_str() {
                "0" => layers = false,
                "1" => layers = true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            },
            "--smoke" => smoke = true,
            "--commit" => commit = value()?.clone(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        layers,
        smoke,
        commit,
    })
}

fn run_main(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_options(args)?;
    if let Some(problem) = environment_problem() {
        return Err(format!("refusing to start: {problem}"));
    }
    let report = run(&opts);
    println!("{}", report.context_line());
    println!("{}", report.result_line());
    if report.problems.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        for p in &report.problems {
            eprintln!("lnic-benchmark: incorrect: {p}");
        }
        Ok(ExitCode::from(1))
    }
}

fn compare_main(args: &[String]) -> Result<ExitCode, String> {
    let mut bounds = "BENCHMARK.json".to_owned();
    let mut parent = Vec::new();
    let mut change = Vec::new();
    let mut after_separator = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bounds" => bounds = it.next().ok_or("--bounds needs a path")?.clone(),
            "--" => after_separator = true,
            path if after_separator => change.push(path.to_owned()),
            path => parent.push(path.to_owned()),
        }
    }
    if parent.is_empty() || change.is_empty() {
        return Err("compare needs parent runs, then --, then change runs".to_owned());
    }
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bench = Json::parse(&read(&bounds)?).map_err(|e| format!("{bounds}: {e}"))?;
    let load = |paths: &[String]| -> Result<Vec<_>, String> {
        let mut runs = Vec::new();
        for p in paths {
            runs.extend(parse_runs(&read(p)?).map_err(|e| format!("{p}: {e}"))?);
        }
        Ok(runs)
    };
    let comparison = compare(&bench, &load(&parent)?, &load(&change)?)?;
    print!("{}", comparison.report);
    Ok(if comparison.failed() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
