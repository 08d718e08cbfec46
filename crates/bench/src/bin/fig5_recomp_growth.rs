//! Fig. 5: total recomputation time per iteration of PageRank on MEM_ONLY
//! Spark, with the most expensive RDD of each late iteration labeled.
//!
//! Recomputation grows across iterations because the vertex-update lineage
//! is narrow across iterations (GraphX-style): once evicted, a rank dataset
//! recomputes through the chain of all earlier iterations' updates.

use blaze_bench::table::{secs, Table};
use blaze_workloads::{run_app, App, SystemKind};

fn main() {
    println!("== Fig. 5: recomputation time per iteration (PageRank, Spark MEM_ONLY) ==\n");
    let out = run_app(App::PageRank, SystemKind::SparkMemOnly).expect("run failed");
    let per_job = out.metrics.recompute_by_job();

    let mut t = Table::new(["iteration (job)", "recompute time", "top RDD", "top RDD time"]);
    for (job, time) in &per_job {
        let top = out.metrics.top_recompute_rdd(*job);
        let (top_rdd, top_time) = match top {
            Some((rdd, t)) => (rdd.to_string(), secs(t.as_secs_f64())),
            None => ("-".into(), "-".into()),
        };
        t.row([job.to_string(), secs(time.as_secs_f64()), top_rdd, top_time]);
    }
    println!("{}", t.render());

    // Shape check: the second half of iterations recomputes more than the
    // first half (the paper's growth from ~tens of seconds to 250 s).
    let times: Vec<f64> = per_job.iter().map(|(_, t)| t.as_secs_f64()).collect();
    let mid = times.len() / 2;
    let first: f64 = times[..mid].iter().sum();
    let second: f64 = times[mid..].iter().sum();
    println!("first-half recompute: {} | second-half: {}", secs(first), secs(second));
    println!(
        "paper: recomputation grows with the iteration number (R85..R133 \
         dominating iterations 6-10); expect second half >> first half."
    );
}
