//! Plugging a custom cache controller into the engine.
//!
//! ```sh
//! cargo run --release --example custom_policy
//! ```
//!
//! The engine's `CacheController` trait is the single integration surface
//! for caching, eviction and recovery decisions (the same one the paper's
//! baselines and Blaze use). This example implements a "biggest-first"
//! policy: on memory pressure, evict the largest resident blocks — a
//! size-aware cousin of LRU — and compares it against LRU.

use blaze::common::ids::{BlockId, ExecutorId};
use blaze::common::ByteSize;
use blaze::dataflow::Context;
use blaze::engine::{
    victims_by_key, Admission, BlockInfo, CacheController, Cluster, ClusterConfig, CtrlCtx,
    VictimAction,
};
use blaze::policies::{EvictMode, LruController};

/// Evicts the biggest blocks first, spilling them to disk.
#[derive(Default)]
struct BiggestFirst;

impl CacheController for BiggestFirst {
    fn name(&self) -> String {
        "BiggestFirst".into()
    }

    fn choose_victims(
        &mut self,
        _ctx: &CtrlCtx,
        _exec: ExecutorId,
        needed: ByteSize,
        _incoming: &BlockInfo,
        resident: &[BlockInfo],
    ) -> Vec<(BlockId, VictimAction)> {
        victims_by_key(resident, needed, |b| std::cmp::Reverse(b.bytes))
            .into_iter()
            .map(|(id, _)| (id, VictimAction::ToDisk))
            .collect()
    }

    fn on_admission_failure(&mut self, _ctx: &CtrlCtx, _block: &BlockInfo) -> Admission {
        Admission::Disk
    }
}

fn workload(ctx: &Context) {
    // Mixed sizes: a bulky dataset reused every iteration, plus small keyed
    // aggregates that go stale after one iteration. A good policy evicts the
    // stale small blocks; evicting the bulky blocks forfeits their reuse.
    let bulky = ctx.parallelize((0..20_000u64).collect::<Vec<_>>(), 8).map(|x| vec![*x; 4]);
    bulky.cache();
    let mut keyed = ctx.parallelize((0..20_000u64).map(|i| (i % 4_000, i)).collect::<Vec<_>>(), 8);
    for _ in 0..8 {
        keyed = keyed.reduce_by_key(8, |a, b| a + b).map_values(|v| v + 1);
        keyed.cache();
        keyed.count().unwrap();
        bulky.count().unwrap(); // The bulky dataset is reused every round.
    }
}

fn run(name: &str, controller: Box<dyn CacheController>) {
    let cluster = Cluster::new(
        ClusterConfig {
            executors: 2,
            slots_per_executor: 2,
            memory_capacity: ByteSize::from_kib(320),
            ..Default::default()
        },
        controller,
    )
    .expect("valid config");
    let ctx = Context::new(cluster.clone());
    workload(&ctx);
    let m = cluster.metrics();
    println!(
        "{name:14} completion {:>7.3}s | evictions {:>4} | disk I/O {:>7.3}s | mem hits {}",
        m.completion_time.as_secs_f64(),
        m.evictions,
        m.accumulated.disk_io_for_caching().as_secs_f64(),
        m.mem_hits
    );
}

fn main() {
    run("LRU", Box::new(LruController::new(EvictMode::MemDisk)));
    run("BiggestFirst", Box::new(BiggestFirst));
}
