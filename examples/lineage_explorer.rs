//! Exploring the CostLineage and the potential-recovery-cost model.
//!
//! ```sh
//! cargo run --release --example lineage_explorer
//! ```
//!
//! Profiles a PageRank run, then prints the captured job sequence, the
//! iteration pattern, per-dataset future-reference counts and the Eq. 2-4
//! cost estimates the Blaze controller would base its decisions on.

use blaze::common::ids::BlockId;
use blaze::common::{ByteSize, SimDuration};
use blaze::core::{extract_dependencies, CostModel};
use blaze::engine::HardwareModel;
use blaze::graph::datagen::GraphGenConfig;
use blaze::graph::pagerank::{self, PageRankConfig};

fn main() {
    let cfg = PageRankConfig {
        graph: GraphGenConfig { vertices: 256, avg_degree: 4, partitions: 4, ..Default::default() },
        iterations: 4,
        damping: 0.85,
    };
    let mut profile = extract_dependencies(move |ctx| pagerank::run(ctx, &cfg).map(|_| ()), 0)
        .expect("profiling succeeds");

    println!("captured {} jobs; targets: {:?}", profile.job_targets.len(), profile.job_targets);
    println!("iteration pattern: {:?}\n", profile.pattern);

    // Pretend runtime observed some metrics, then ask the cost model. The
    // lineage iterates in id order.
    let rdds: Vec<_> = profile.lineage.iter().map(|n| (n.rdd, n.name.clone())).collect();
    for (rdd, _) in &rdds {
        for p in 0..4u32 {
            profile.lineage.record_metrics(
                BlockId::new(*rdd, p),
                ByteSize::from_kib(32 + rdd.raw() as u64),
                SimDuration::from_micros(200 + rdd.raw() as u64 * 10),
            );
        }
    }

    let hw = HardwareModel::default();
    let mut model = CostModel::new(&profile.lineage, &hw, profile.pattern);
    println!(
        "{:<8} {:<18} {:>6} {:>12} {:>12} {:>10}",
        "rdd", "operator", "refs", "cost_d", "cost_r", "prefers"
    );
    for (rdd, name) in rdds {
        let refs = profile.refs.future_refs(rdd, 0);
        let id = BlockId::new(rdd, 0);
        let cost_d = model.cost_d(id);
        let cost_r = model.cost_r(id);
        println!(
            "{:<8} {:<18} {:>6} {:>12} {:>12} {:>10}",
            rdd.to_string(),
            name,
            refs,
            cost_d.to_string(),
            cost_r.to_string(),
            if model.prefers_disk(id) { "disk" } else { "recompute" },
        );
    }
}
