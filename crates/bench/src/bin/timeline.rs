//! Task-timeline explorer: per-executor utilization, per-job phases and the
//! straggler tasks of one (application, system) run.
//!
//! ```sh
//! cargo run --release -p blaze-bench --bin timeline -- pr blaze
//! ```

use blaze_bench::table::{secs, Table};
use blaze_workloads::{run_app, App, AppSpec, SystemKind};

fn parse_app(s: &str) -> App {
    App::from_name(s)
        .unwrap_or_else(|| panic!("unknown app {s:?} ({})", App::all().map(|a| a.key()).join("|")))
}

fn parse_system(s: &str) -> SystemKind {
    SystemKind::from_name(s).unwrap_or_else(|| {
        panic!("unknown system {s:?} ({})", SystemKind::all().map(|k| k.key()).join("|"))
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let app = parse_app(args.get(1).map(String::as_str).unwrap_or("pr"));
    let system = parse_system(args.get(2).map(String::as_str).unwrap_or("blaze"));
    let out = run_app(app, system).expect("run failed");
    let m = &out.metrics;
    let act = m.completion_time.as_secs_f64();
    println!(
        "== timeline: {} under {} — ACT {} over {} tasks ==\n",
        app.label(),
        system.label(),
        secs(act),
        m.tasks
    );

    // Per-executor utilization.
    let mut busy: Vec<_> = m.busy_time_per_executor().into_iter().collect();
    busy.sort_by_key(|(e, _)| *e);
    let slots = AppSpec::evaluation(app).slots as f64;
    let mut t = Table::new(["executor", "busy", "utilization"]);
    for (exec, b) in busy {
        t.row([
            exec.to_string(),
            secs(b.as_secs_f64()),
            format!("{:.0}%", 100.0 * b.as_secs_f64() / (act * slots)),
        ]);
    }
    println!("{}", t.render());

    // Task-duration percentiles (straggler pressure at a glance).
    let mut durations: Vec<f64> =
        m.task_traces.iter().map(|t| t.duration().as_secs_f64()).collect();
    durations.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
    let pct = |p: f64| durations[((durations.len() - 1) as f64 * p) as usize];
    println!(
        "task durations: p50 {} | p95 {} | p99 {} | max {}\n",
        secs(pct(0.50)),
        secs(pct(0.95)),
        secs(pct(0.99)),
        secs(*durations.last().unwrap()),
    );

    // The stragglers.
    let mut t = Table::new(["task", "stage", "exec/slot", "start", "duration", "dominant cost"]);
    for trace in m.slowest_tasks(10) {
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
