//! `blaze-trace`: inspect and validate structured engine event traces.
//!
//! Runs a workload with tracing enabled and operates on the resulting
//! [`blaze_engine::TraceLog`]:
//!
//! - `--validate` (the default) replays each requested application across
//!   several `worker_threads` settings and checks the determinism and
//!   self-consistency contract: the Chrome-trace export must be
//!   byte-identical across thread counts, metrics must match (also against
//!   one untraced run: tracing only retains events), and the trace's own
//!   audit (span nesting, aggregate reconciliation, cache event pairing —
//!   BA401..BA403) must find no error. Its warnings — BA404, blocks a
//!   controller command dropped and a later task recomputed — are counted
//!   per run and printed, and do not fail the sweep.
//! - `--timeline <path>` writes the Chrome trace-event JSON for one run
//!   (load it in `chrome://tracing` or Perfetto).
//! - `--ledger` prints the per-job cache-decision ledger.
//! - `--explain <rdd[:part]>` prints every cache decision that touched one
//!   block, with the deciding policy's rationale.
//! - `--diff <system>` diffs the trace against a second system's run of
//!   the same application.
//!
//! Everything here runs on the simulated clock; this file is trace
//! tooling, so `blaze-lint`'s wall-clock rule applies to it even though
//! it lives in the bench crate.

use blaze_common::ids::{BlockId, RddId};
use blaze_common::{SimDuration, SimTime};
use blaze_engine::{ExecutorCrash, FaultPlan, TraceLog};
use blaze_workloads::{App, AppSpec, RunOutcome, Session, SystemKind};
use std::process::ExitCode;

/// Parsed command line.
struct Options {
    mode: Mode,
    apps: Vec<App>,
    system: SystemKind,
    threads: Vec<usize>,
    faults: bool,
}

enum Mode {
    Validate,
    Timeline(String),
    Ledger,
    Explain(BlockId),
    Diff(SystemKind),
}

fn usage() -> String {
    format!(
        "usage: blaze-trace [--validate | --timeline <path> | --ledger | \
         --explain <rdd[:part]> | --diff <system>]\n\
         \x20      [--apps <a,b,..>] [--system <name>] [--threads <1,2,..>] [--faults]\n\
         apps:    {} (default: all)\n\
         systems: {}\n\
         threads: worker-thread counts swept by --validate (default: 1,2,4)",
        App::all().map(|a| a.key()).join(" "),
        SystemKind::all().map(|k| k.key()).join(" "),
    )
}

fn parse_app(s: &str) -> Result<App, String> {
    App::from_name(s).ok_or_else(|| format!("unknown app `{s}`"))
}

fn parse_system(s: &str) -> Result<SystemKind, String> {
    SystemKind::from_name(s).ok_or_else(|| format!("unknown system `{s}`"))
}

fn parse_block(s: &str) -> Result<BlockId, String> {
    let (rdd, part) = match s.split_once(':') {
        Some((r, p)) => (r, p),
        None => (s, "0"),
    };
    let rdd: u32 = rdd.parse().map_err(|_| format!("bad rdd id `{rdd}`"))?;
    let part: u32 = part.parse().map_err(|_| format!("bad partition `{part}`"))?;
    Ok(BlockId::new(RddId(rdd), part))
}

fn parse_args(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        mode: Mode::Validate,
        apps: Vec::new(),
        system: SystemKind::Blaze,
        threads: vec![1, 2, 4],
        faults: false,
    };
    let mut it = argv.iter();
    let need = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--validate" => opts.mode = Mode::Validate,
            "--timeline" => opts.mode = Mode::Timeline(need(&mut it, "--timeline")?),
            "--ledger" => opts.mode = Mode::Ledger,
            "--explain" => opts.mode = Mode::Explain(parse_block(&need(&mut it, "--explain")?)?),
            "--diff" => opts.mode = Mode::Diff(parse_system(&need(&mut it, "--diff")?)?),
            "--apps" => {
                opts.apps =
                    need(&mut it, "--apps")?.split(',').map(parse_app).collect::<Result<_, _>>()?;
            }
            "--system" => opts.system = parse_system(&need(&mut it, "--system")?)?,
            "--threads" => {
                opts.threads = need(&mut it, "--threads")?
                    .split(',')
                    .map(|t| t.parse::<usize>().map_err(|_| format!("bad thread count `{t}`")))
                    .collect::<Result<_, _>>()?;
            }
            "--faults" => opts.faults = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.apps.is_empty() {
        opts.apps = App::all().to_vec();
    }
    if opts.threads.is_empty() {
        return Err("--threads needs at least one count".into());
    }
    Ok(opts)
}

/// The deterministic fault schedule applied under `--faults`: a modest
/// transient-failure rate plus one mid-run executor crash without an
/// external shuffle service (same shape as `bench_failure`).
fn fault_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xB1A2E,
        task_failure_rate: 0.02,
        max_task_retries: 3,
        crashes: vec![ExecutorCrash {
            at: SimTime::ZERO + SimDuration::from_secs_f64(0.05),
            executor: 1,
        }],
        map_output_loss_rate: 0.0,
        external_shuffle_service: false,
        ..Default::default()
    }
}

fn run(opts: &Options, app: App, system: SystemKind, threads: usize, tracing: bool) -> RunOutcome {
    let spec = AppSpec::evaluation(app).with_worker_threads(threads);
    let fault = if opts.faults { fault_plan() } else { FaultPlan::default() };
    let run = Session::builder().app(spec).system(system).fault(fault).tracing(tracing).run();
    match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("blaze-trace: {} under {system:?} failed: {e}", app.key());
            std::process::exit(2);
        }
    }
}

/// One run with its trace; exits when the engine produced no trace (that
/// would mean the tracing gate is broken).
fn traced(opts: &Options, app: App, system: SystemKind, threads: usize) -> (RunOutcome, TraceLog) {
    let out = run(opts, app, system, threads, true);
    match out.trace.clone() {
        Some(t) => (out, t),
        None => {
            eprintln!("blaze-trace: run produced no trace despite tracing=true");
            std::process::exit(2);
        }
    }
}

/// `--validate`: the determinism + self-consistency sweep. Returns the
/// number of failures.
fn validate(opts: &Options) -> usize {
    let mut failures = 0;
    for &app in &opts.apps {
        let mut baseline: Option<(usize, String, String)> = None;
        let untraced = run(opts, app, opts.system, opts.threads[0], false).metrics;
        for &t in &opts.threads {
            let (out, trace) = traced(opts, app, opts.system, t);
            let report = trace.validate(&out.metrics);
            if !report.passes() {
                failures += 1;
                eprintln!("FAIL {} threads={t}: trace audit found:", app.key());
                for d in report.errors() {
                    eprintln!("  {d}");
                }
            }
            if out.metrics != untraced {
                failures += 1;
                eprintln!("FAIL {} threads={t}: traced and untraced metrics differ", app.key());
            }
            let json = trace.chrome_json();
            let metrics = format!("{:?}", out.metrics);
            match &baseline {
                None => baseline = Some((t, json, metrics)),
                Some((t0, json0, metrics0)) => {
                    if *json0 != json {
                        failures += 1;
                        eprintln!(
                            "FAIL {}: trace differs between threads={t0} and threads={t}",
                            app.key()
                        );
                    }
                    if *metrics0 != metrics {
                        failures += 1;
                        eprintln!(
                            "FAIL {}: metrics differ between threads={t0} and threads={t}",
                            app.key()
                        );
                    }
                }
            }
            println!(
                "ok {:9} threads={t} events={} act={:.4}s ba404={}",
                app.key(),
                trace.events().len(),
                out.metrics.completion_time.as_secs_f64(),
                report.warnings().count()
            );
        }
    }
    failures
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&argv) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("blaze-trace: {msg}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    match &opts.mode {
        Mode::Validate => {
            let failures = validate(&opts);
            if failures > 0 {
                eprintln!("blaze-trace: {failures} validation failure(s)");
                return ExitCode::FAILURE;
            }
            println!("blaze-trace: no audit errors, all traces thread-count invariant");
        }
        Mode::Timeline(path) => {
            let app = opts.apps[0];
            let (_, trace) = traced(&opts, app, opts.system, opts.threads[0]);
            if let Err(e) = std::fs::write(path, trace.chrome_json()) {
                eprintln!("blaze-trace: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {} events for {} to {path}", trace.events().len(), app.key());
        }
        Mode::Ledger => {
            let app = opts.apps[0];
            let (_, trace) = traced(&opts, app, opts.system, opts.threads[0]);
            print!("{}", trace.ledger());
        }
        Mode::Explain(id) => {
            let app = opts.apps[0];
            let (_, trace) = traced(&opts, app, opts.system, opts.threads[0]);
            print!("{}", trace.explain(*id));
        }
        Mode::Diff(other) => {
            let app = opts.apps[0];
            let (_, a) = traced(&opts, app, opts.system, opts.threads[0]);
            let (_, b) = traced(&opts, app, *other, opts.threads[0]);
            print!("{}", a.diff(&b));
        }
    }
    ExitCode::SUCCESS
}
