//! `blaze-trace`: inspect and validate structured engine event traces, and
//! look into one run's task timeline and lineage.
//!
//! Runs a workload with tracing enabled and operates on the resulting
//! [`blaze_engine::TraceLog`]:
//!
//! - `--validate` (the default) replays each requested application across
//!   several `worker_threads` settings and checks the determinism and
//!   self-consistency contract: the Chrome-trace export must be
//!   byte-identical across thread counts, metrics must match (also against
//!   one untraced run: tracing only retains events), and the trace's own
//!   audit (span nesting and cache event pairing — BA401, BA403) must find
//!   no error. Its warnings — BA404, blocks a controller command dropped
//!   and a later task recomputed — are counted per run and printed, and do
//!   not fail the sweep.
//! - `--timeline <path>` writes the Chrome trace-event JSON for one run
//!   (load it in `chrome://tracing` or Perfetto).
//! - `--ledger` prints the per-job cache-decision ledger.
//! - `--explain <rdd[:part]>` prints every cache decision that touched one
//!   block, with the deciding policy's rationale.
//! - `--diff <system>` diffs the trace against a second system's run of
//!   the same application.
//! - `--utilization` prints per-executor utilization, task-duration
//!   percentiles and the ten slowest tasks of one run, read from the
//!   trace's committed-task spans.
//! - `--dot` prints the application's profiled lineage (the paper's
//!   Fig. 1(b)/Fig. 8 view) as Graphviz DOT, with job targets and reused
//!   datasets marked; it runs only the dependency-extraction pass.
//!
//! Every mode but `--validate` runs one application once: `--apps` names at
//! most one there (default: PageRank), and `--threads` at most one count
//! (default: 1).
//!
//! ```sh
//! cargo run --release -p blaze-bench --bin blaze-trace -- --utilization --apps pr --system blaze
//! cargo run --release -p blaze-bench --bin blaze-trace -- --dot --apps pr > pr.dot
//! dot -Tsvg pr.dot -o pr.svg
//! ```
//!
//! Everything here runs on the simulated clock; this file is trace
//! tooling, so `blaze-lint`'s wall-clock rule applies to it even though
//! it lives in the bench crate.

use blaze_bench::table::{secs, Table};
use blaze_common::ids::{BlockId, ExecutorId, RddId};
use blaze_common::{SimDuration, SimTime};
use blaze_core::{extract_dependencies, ProfileResult};
use blaze_engine::{ExecutorCrash, FaultPlan, Metrics, TaskTrace, TraceEvent, TraceLog};
use blaze_workloads::{App, AppSpec, RunOutcome, Session, SystemKind};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug)]
struct Options {
    mode: Mode,
    apps: Vec<App>,
    system: SystemKind,
    threads: Vec<usize>,
    faults: bool,
}

#[derive(Debug, PartialEq)]
enum Mode {
    Validate,
    Timeline(String),
    Ledger,
    Explain(BlockId),
    Diff(SystemKind),
    Utilization,
    Dot,
}

fn usage() -> String {
    format!(
        "usage: blaze-trace [--validate | --timeline <path> | --ledger | \
         --explain <rdd[:part]> | --diff <system> | --utilization | --dot]\n\
         \x20      [--apps <a,b,..>] [--system <name>] [--threads <1,2,..>] [--faults]\n\
         apps:    {} (--validate default: all; every other mode runs one, default: pagerank)\n\
         systems: {}\n\
         threads: worker-thread counts swept by --validate (default: 1,2,4); every other mode\n\
         \x20        runs one (default: 1)",
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
        threads: Vec::new(),
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
            "--utilization" => opts.mode = Mode::Utilization,
            "--dot" => opts.mode = Mode::Dot,
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
    if opts.mode == Mode::Validate {
        if opts.apps.is_empty() {
            opts.apps = App::all().to_vec();
        }
        if opts.threads.is_empty() {
            opts.threads = vec![1, 2, 4];
        }
    } else if opts.apps.len() > 1 {
        return Err(format!("this mode runs one application; --apps named {}", opts.apps.len()));
    } else if opts.threads.len() > 1 {
        return Err(format!("this mode runs once; --threads named {}", opts.threads.len()));
    } else {
        opts.apps.resize(1, App::PageRank);
        opts.threads.resize(1, 1);
    }
    Ok(opts)
}

/// The deterministic fault schedule applied under `--faults`: a modest
/// transient-failure rate plus one mid-run executor crash without an
/// external shuffle service (same shape as `fault_recovery`'s duress plan).
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
    let run = Session::builder(spec).system(system).fault(fault).tracing(tracing).run();
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
            let report = trace.validate();
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
        Mode::Utilization => {
            let app = opts.apps[0];
            let (out, trace) = traced(&opts, app, opts.system, opts.threads[0]);
            utilization(app, opts.system, &out.metrics, &task_spans(&trace));
        }
        Mode::Dot => {
            let app = opts.apps[0];
            let spec = AppSpec::evaluation(app);
            match extract_dependencies(move |ctx| spec.drive_sample(ctx), 0) {
                Ok(profile) => lineage_dot(app, &profile),
                Err(e) => {
                    eprintln!("blaze-trace: profiling {} failed: {e}", app.key());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

/// The committed-task spans of a run, in commit order.
fn task_spans(trace: &TraceLog) -> Vec<TaskTrace> {
    trace
        .events()
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::TaskCommitted(t) => Some(*t),
            _ => None,
        })
        .collect()
}

/// Busy time (the sum of task durations) per executor, by executor.
fn busy_time_per_executor(spans: &[TaskTrace]) -> BTreeMap<ExecutorId, SimDuration> {
    let mut busy = BTreeMap::new();
    for t in spans {
        *busy.entry(t.executor).or_default() += t.duration();
    }
    busy
}

/// The `n` longest tasks (stragglers), longest first. Ties are ordered by
/// (job, stage output, partition) ascending — a total order, so the answer
/// does not depend on the order the spans were committed in.
fn slowest_tasks(spans: &[TaskTrace], n: usize) -> Vec<TaskTrace> {
    let mut slowest = spans.to_vec();
    slowest.sort_by_key(|t| (std::cmp::Reverse(t.duration()), t.job, t.stage_output, t.partition));
    slowest.truncate(n);
    slowest
}

/// `--utilization`: per-executor utilization, task-duration percentiles and
/// the stragglers of one run.
fn utilization(app: App, system: SystemKind, m: &Metrics, spans: &[TaskTrace]) {
    let act = m.completion_time.as_secs_f64();
    println!(
        "== timeline: {} under {} — ACT {} over {} tasks ==\n",
        app.label(),
        system.label(),
        secs(act),
        m.tasks
    );

    let slots = AppSpec::evaluation(app).slots as f64;
    let mut t = Table::new(["executor", "busy", "utilization"]);
    for (exec, b) in busy_time_per_executor(spans) {
        t.row([
            exec.to_string(),
            secs(b.as_secs_f64()),
            format!("{:.0}%", 100.0 * b.as_secs_f64() / (act * slots)),
        ]);
    }
    println!("{}", t.render());

    let mut durations: Vec<f64> = spans.iter().map(|t| t.duration().as_secs_f64()).collect();
    durations.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
    let pct = |p: f64| durations[((durations.len() - 1) as f64 * p) as usize];
    println!(
        "task durations: p50 {} | p95 {} | p99 {} | max {}\n",
        secs(pct(0.50)),
        secs(pct(0.95)),
        secs(pct(0.99)),
        secs(*durations.last().expect("a run commits tasks")),
    );

    let mut t = Table::new(["task", "stage", "exec/slot", "start", "duration", "dominant cost"]);
    for trace in slowest_tasks(spans, 10) {
        let c = trace.charge;
        let categories = [
            ("compute", c.compute),
            ("recompute", c.recompute),
            ("shuffle-write", c.shuffle_write),
            ("shuffle-fetch", c.shuffle_fetch),
            ("disk-write", c.disk_cache_write),
            ("disk-read", c.disk_cache_read),
            ("ext-store", c.external_store_io),
        ];
        let dominant = categories.iter().max_by_key(|(_, d)| *d).expect("non-empty");
        t.row([
            format!("{}[{}]", trace.job, trace.partition),
            trace.stage_output.to_string(),
            format!("{}/{}", trace.executor, trace.slot),
            secs(trace.start.as_secs_f64()),
            secs(trace.duration().as_secs_f64()),
            format!("{} ({})", dominant.0, dominant.1),
        ]);
    }
    println!("slowest tasks:\n{}", t.render());
}

/// `--dot`: the profiled lineage as Graphviz DOT. Job targets are filled
/// blue, datasets with more than one future reference yellow, and shuffle
/// outputs are hexagons.
fn lineage_dot(app: App, profile: &ProfileResult) {
    println!("digraph lineage {{");
    println!("  rankdir=LR;");
    println!("  node [shape=box, fontsize=10];");
    println!(
        "  label=\"{} lineage ({} jobs, pattern {:?})\";",
        app.label(),
        profile.job_targets.len(),
        profile.pattern.map(|p| p.stride)
    );
    // The lineage iterates in id order, so nodes and edges print sorted.
    let nodes: Vec<_> = profile.lineage.iter().collect();
    for node in &nodes {
        let refs = profile.refs.future_refs(node.rdd, 0);
        let mut attrs =
            vec![format!("label=\"{}\\n{} (x{})\"", node.rdd, node.name, node.parts.len())];
        if profile.job_targets.contains(&node.rdd) {
            attrs.push("style=filled, fillcolor=lightblue".into());
        } else if refs > 1 {
            attrs.push("style=filled, fillcolor=lightyellow".into());
        }
        if node.is_shuffle {
            attrs.push("shape=hexagon".into());
        }
        println!("  r{} [{}];", node.rdd.raw(), attrs.join(", "));
    }
    for node in &nodes {
        for parent in &node.parents {
            println!("  r{} -> r{};", parent.raw(), node.rdd.raw());
        }
    }
    println!("}}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn single_run_modes_refuse_several_apps() {
        for mode in [
            &["--timeline", "t.json"][..],
            &["--ledger"],
            &["--explain", "2:0"],
            &["--diff", "lrc"],
            &["--utilization"],
            &["--dot"],
        ] {
            let args = [mode, &["--apps", "pagerank,cc"]].concat();
            let err = parse(&args).unwrap_err();
            assert!(err.contains("runs one application"), "{args:?}: {err}");
            assert!(parse(&[mode, &["--apps", "cc"]].concat()).is_ok(), "{mode:?}");
        }
    }

    #[test]
    fn single_run_modes_refuse_several_thread_counts() {
        for mode in [&["--ledger"][..], &["--utilization"], &["--timeline", "t.json"]] {
            let args = [mode, &["--threads", "1,4"]].concat();
            let err = parse(&args).unwrap_err();
            assert!(err.contains("runs once"), "{args:?}: {err}");
            assert_eq!(parse(&[mode, &["--threads", "4"]].concat()).unwrap().threads, [4]);
            assert_eq!(parse(mode).unwrap().threads, [1], "{mode:?}");
        }
        assert_eq!(parse(&[]).unwrap().threads, [1, 2, 4]);
        assert_eq!(parse(&["--validate", "--threads", "1,4"]).unwrap().threads, [1, 4]);
    }

    #[test]
    fn single_run_modes_default_to_pagerank_and_validate_to_all() {
        assert_eq!(parse(&["--ledger"]).unwrap().apps, [App::PageRank]);
        assert_eq!(parse(&[]).unwrap().apps, App::all());
        assert_eq!(
            parse(&["--apps", "pagerank,cc"]).unwrap().apps,
            [App::PageRank, App::ConnectedComponents]
        );
    }

    fn span(job: u32, stage: u32, partition: u32, dur_ms: u64) -> TaskTrace {
        TaskTrace {
            job: blaze_common::ids::JobId(job),
            stage_output: RddId(stage),
            partition,
            executor: ExecutorId(0),
            slot: 0,
            start: SimTime::ZERO,
            end: SimTime::ZERO + SimDuration::from_millis(dur_ms),
            charge: Default::default(),
        }
    }

    #[test]
    fn slowest_tasks_orders_ties_by_stage_and_task_id() {
        // Regression: equal-duration tasks used to surface in push order.
        // The canonical order is duration desc, then (job, stage, partition)
        // ascending — independent of recording order.
        let spans = [span(1, 9, 1, 10), span(0, 7, 3, 10), span(1, 9, 0, 10), span(0, 7, 2, 20)];
        let top = slowest_tasks(&spans, 3);
        let key: Vec<(u32, u32, u32)> =
            top.iter().map(|t| (t.job.raw(), t.stage_output.raw(), t.partition)).collect();
        assert_eq!(key, vec![(0, 7, 2), (0, 7, 3), (1, 9, 0)]);
        // n larger than the span count returns everything, still ordered.
        assert_eq!(slowest_tasks(&spans, 10).len(), 4);
        assert!(slowest_tasks(&spans, 0).is_empty());
    }

    #[test]
    fn utilization_and_dot_flags_parse() {
        let opts = parse(&["--utilization", "--apps", "cc", "--system", "lrc"]).unwrap();
        assert_eq!(opts.mode, Mode::Utilization);
        assert_eq!((opts.apps, opts.system), (vec![App::ConnectedComponents], SystemKind::Lrc));
        assert_eq!(parse(&["--dot"]).unwrap().mode, Mode::Dot);
    }
}
