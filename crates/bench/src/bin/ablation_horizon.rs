//! Extension ablation: the ILP's upcoming-jobs window `J` (paper §5.5 uses
//! the current job and its successor, i.e. horizon 2, to bound solver
//! latency). This harness sweeps the horizon to show the sensitivity.

use blaze_bench::table::{secs, Table};
use blaze_core::{BlazeConfig, OptimizerConfig};
use blaze_workloads::{App, AppSpec, Session};

fn main() {
    println!("== Ablation: ILP horizon (jobs ahead considered by Eq. 5) ==\n");
    let apps = [App::PageRank, App::ConnectedComponents];

    let mut t = Table::new(["app", "horizon", "ACT", "evictions", "disk writes"]);
    for app in apps {
        let spec = AppSpec::evaluation(app);
        for horizon in [1usize, 2, 3, 4] {
            eprintln!("running {} with horizon {horizon} ...", app.label());
            let cfg = BlazeConfig {
                optimizer: OptimizerConfig { horizon_jobs: horizon, ..Default::default() },
                ..BlazeConfig::full()
            };
            let out = Session::builder(spec).blaze(cfg).run().expect("run failed");
            t.row([
                app.label().to_string(),
                horizon.to_string(),
                secs(out.metrics.completion_time.as_secs_f64()),
                out.metrics.evictions.to_string(),
                out.metrics.disk_bytes_written.to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "expectation: horizon 2 (the paper's choice) captures nearly all of \
         the benefit; horizon 1 under-protects data reused two jobs ahead."
    );
}
