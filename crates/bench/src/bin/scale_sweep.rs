//! Extension: scale robustness. Re-runs the headline comparison at half,
//! nominal and double data scale (memory scaled proportionally) — the
//! ordering and approximate speedups must be scale-invariant, which is the
//! premise behind reproducing a cluster-scale evaluation at laptop scale.

use blaze_bench::table::{secs, speedup, Table};
use blaze_workloads::{App, AppSpec, RunOutcome, Session, SystemKind};

fn run_one(spec: &AppSpec, system: SystemKind) -> RunOutcome {
    Session::builder(*spec).system(system).run().expect("run failed")
}

fn main() {
    println!("== Extension: scale sweep (PageRank, SVD++) ==\n");
    for app in [App::PageRank, App::Svdpp] {
        let mut t = Table::new([
            "scale",
            "Spark (MEM)",
            "Spark (MEM+DISK)",
            "Blaze",
            "Blaze vs MEM",
            "Blaze vs M+D",
        ]);
        for factor in [0.5, 1.0, 2.0] {
            eprintln!("running {} at {factor}x ...", app.label());
            let spec = AppSpec::evaluation(app).scaled(factor);
            let mem = run_one(&spec, SystemKind::SparkMemOnly);
            let disk = run_one(&spec, SystemKind::SparkMemDisk);
            let blaze = run_one(&spec, SystemKind::Blaze);
            let (m, d, b) = (
                mem.metrics.completion_time.as_secs_f64(),
                disk.metrics.completion_time.as_secs_f64(),
                blaze.metrics.completion_time.as_secs_f64(),
            );
            t.row([
                format!("{factor}x"),
                secs(m),
                secs(d),
                secs(b),
                speedup(m / b),
                speedup(d / b),
            ]);
        }
        println!("[{}]\n{}", app.label(), t.render());
    }
    println!("expectation: Blaze wins at every scale; ratios shift mildly.");
}
