//! The repository benchmark. See `README.md` beside this package for the
//! metrics, the workloads and how to read the output, and `BENCHMARK.json` at
//! the repository root for the contract an outside driver runs it under.
//!
//! ```text
//! blaze-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! blaze-benchmark --all [--quick] [--seed <n>] [--out <file>]                every workload, both passes
//! blaze-benchmark --compare <a.json> <b.json>                                two --all result files
//! blaze-benchmark --print-spec                                               BENCHMARK.json
//! ```

mod calibrate;
mod drill;
mod host;
mod json;
mod passes;
mod rep;
mod spans;
mod spec;
mod stats;
mod suite;
mod workloads;

use json::Json;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: host::CountingAlloc = host::CountingAlloc;

/// The seed used when none is given; any other seed is a held-out check.
pub const DEFAULT_SEED: u64 = 42;

const USAGE: &str = "usage:
  blaze-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  blaze-benchmark --all [--quick] [--seed <n>] [--out <file>]
  blaze-benchmark --compare <a.json> <b.json>
  blaze-benchmark --print-spec";

/// The value following `flag`, if the flag is present.
fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match value_of(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {flag}: {v}")),
    }
}

/// One run under the outside driver's contract: human-readable metric lines,
/// then the per-repetition samples, then the result object as the last line.
fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let name = value_of(args, "--workload").ok_or("--workload needs a name")?;
    let workload = workloads::Workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let seed: u64 = parsed(args, "--seed", DEFAULT_SEED)?;
    let seconds: f64 = parsed(args, "--seconds", spec::RUN_SECONDS as f64)?;
    let trace = match value_of(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("--seconds out of range: {seconds}"));
    }

    println!(
        "{} seed {seed}: {} pass for {seconds} s; nproc {}, load {}",
        workload.name,
        if trace { "traced" } else { "timed" },
        host::nproc(),
        host::loadavg(),
    );
    let report = if trace {
        passes::traced(&workload, seed, seconds)
    } else {
        passes::timed(&workload, seed, seconds)
    };

    let table: Vec<spec::Metric> = if trace {
        spec::PER_LAYER.to_vec()
    } else {
        spec::END_TO_END.iter().map(|(m, _)| *m).collect()
    };
    let reported: Vec<&str> = report.metrics.iter().map(|(n, _)| *n).collect();
    let expected: Vec<&str> = table.iter().map(|m| m.name).collect();
    assert_eq!(reported, expected, "the pass and the metric table disagree");

    for (metric, (_, value)) in table.iter().zip(&report.metrics) {
        println!("{:<30} {value:>16.6} {}", metric.name, metric.unit);
    }
    for problem in &report.problems {
        println!("FAILED: {problem}");
    }
    println!("fail_share {} / {} operations", report.failed, report.attempted);
    println!("{}", Json::obj([("samples", report.samples_json())]));
    let metrics = table.iter().zip(&report.metrics).map(|(m, (_, value))| {
        let entry = Json::obj([("value", Json::Num(*value)), ("unit", Json::Str(m.unit.into()))]);
        (m.name, entry)
    });
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(report.correct)),
            ("attempted", Json::Num(report.attempted as f64)),
            ("failed", Json::Num(report.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    );
    Ok(if report.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let outcome = if has("--print-spec") {
        print!("{}", spec::benchmark_json().pretty());
        Ok(ExitCode::SUCCESS)
    } else if has("--compare") {
        suite::compare(&args)
    } else if has("--all") {
        suite::run_all(&args)
    } else if has("--workload") {
        run_one(&args)
    } else {
        Err("nothing to do".to_string())
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("blaze-benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
