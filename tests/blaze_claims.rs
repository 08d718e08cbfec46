//! The paper's mechanism-level claims about Blaze, as executable tests on
//! crafted workloads (complementing `paper_shape.rs`, which checks the
//! evaluation-level shape).

use blaze::common::ByteSize;
use blaze::core::{extract_dependencies, BlazeConfig, BlazeController};
use blaze::dataflow::{Context, CostSpec};
use blaze::engine::{Cluster, ClusterConfig};
use blaze::workloads::SystemKind;

fn blaze_cluster(
    mem_kib: u64,
    profile_app: impl Fn(&Context) -> blaze::common::Result<()> + Copy,
) -> Cluster {
    let profile = extract_dependencies(move |ctx| profile_app(ctx), 0).unwrap();
    Cluster::new(
        ClusterConfig {
            executors: 1,
            slots_per_executor: 1,
            memory_capacity: ByteSize::from_kib(mem_kib),
            ..Default::default()
        },
        SystemKind::Blaze.make_controller(Some(profile)),
    )
    .unwrap()
}

/// Two reused datasets that cannot both fit: one is expensive to recover
/// (heavy compute), one is cheap. Blaze must keep the expensive one in
/// memory across all iterations.
fn expensive_vs_cheap(ctx: &Context) -> blaze::common::Result<()> {
    let expensive = ctx
        .parallelize((0..4_000u64).collect::<Vec<_>>(), 1)
        .map(|x| x + 1)
        .named("expensive")
        .with_cost(CostSpec::NARROW.scaled(500.0));
    expensive.cache();
    let cheap = ctx
        .parallelize((4_000..8_000u64).collect::<Vec<_>>(), 1)
        .map(|x| x + 1)
        .named("cheap")
        .with_cost(CostSpec::FREE);
    cheap.cache();
    for _ in 0..6 {
        // Both reused every iteration; produced in this order each time.
        expensive.count()?;
        cheap.count()?;
    }
    Ok(())
}

#[test]
fn blaze_protects_expensive_data_over_cheap_data() {
    // Memory fits only one of the two 32 KB datasets.
    let cluster = blaze_cluster(40, expensive_vs_cheap);
    let ctx = Context::new(cluster.clone());
    expensive_vs_cheap(&ctx).unwrap();
    let m = cluster.metrics();
    // The expensive dataset (produced first, then challenged by the cheap
    // one every iteration) must not be displaced: its re-reads are memory
    // hits, and total recomputation stays far below the no-cache worst case.
    assert!(m.mem_hits >= 5, "expected repeated hits on the protected data, got {}", m.mem_hits);
    // Recompute, if any, must be of the cheap dataset only: the expensive
    // map at 500x would contribute >10ms per miss.
    assert!(
        m.total_recompute_time().as_millis_f64() < 10.0,
        "expensive data was recomputed: {}",
        m.total_recompute_time()
    );
}

/// One dataset with tiny recompute cost but huge serialized size, another
/// with heavy recompute cost but identical size: on eviction, Blaze should
/// discard the first (recompute) and spill the second (disk), §4.2.
fn mixed_recovery(ctx: &Context) -> blaze::common::Result<()> {
    let recompute_friendly = ctx
        .parallelize((0..6_000u64).collect::<Vec<_>>(), 1)
        .map(|x| x + 1)
        .named("recompute_friendly")
        .with_cost(CostSpec::FREE);
    recompute_friendly.cache();
    let disk_friendly = ctx
        .parallelize((0..6_000u64).collect::<Vec<_>>(), 1)
        .map(|x| x + 2)
        .named("disk_friendly")
        .with_cost(CostSpec::NARROW.scaled(2_000.0));
    disk_friendly.cache();
    // A third, even more valuable dataset big enough to displace both.
    let vip = ctx
        .parallelize((0..14_000u64).collect::<Vec<_>>(), 1)
        .map(|x| x + 3)
        .named("vip")
        .with_cost(CostSpec::NARROW.scaled(4_000.0));
    vip.cache();
    for _ in 0..4 {
        recompute_friendly.count()?;
        disk_friendly.count()?;
        vip.count()?;
    }
    Ok(())
}

#[test]
fn blaze_chooses_eviction_state_per_partition() {
    // Memory fits the vip (112 KB) plus scraps: admitting it must displace
    // both 48 KB datasets.
    let cluster = blaze_cluster(144, mixed_recovery);
    let ctx = Context::new(cluster.clone());
    mixed_recovery(&ctx).unwrap();
    let m = cluster.metrics();
    // Something had to leave memory; the disk-friendly dataset's recovery
    // must have gone through disk (writes happened), while total disk
    // traffic stays bounded (the recompute-friendly one was discarded,
    // not spilled).
    assert!(
        m.disk_bytes_written > ByteSize::ZERO,
        "expected the expensive-to-recompute dataset on disk"
    );
    assert!(
        m.disk_bytes_written <= ByteSize::from_kib(120),
        "too much spilled — the cheap dataset should have been discarded, wrote {}",
        m.disk_bytes_written
    );
}

/// §5.6: data without future references is unpersisted at stage boundaries
/// even though the user annotated it.
#[test]
fn blaze_drops_annotated_data_without_future_use() {
    let app = |ctx: &Context| -> blaze::common::Result<()> {
        let junk =
            ctx.parallelize((0..4_000u64).collect::<Vec<_>>(), 1).map(|x| x * 3).named("junk");
        junk.cache(); // Annotated, never used again after this job.
        junk.count()?;
        let useful = ctx.parallelize((0..100u64).collect::<Vec<_>>(), 1).map(|x| x * 5);
        useful.cache();
        useful.count()?;
        useful.count()?;
        Ok(())
    };
    let cluster = blaze_cluster(256, app);
    let ctx = Context::new(cluster.clone());
    app(&ctx).unwrap();
    // After the run, the junk dataset is gone from every store.
    let used: u64 = cluster.memory_used().iter().map(|b| b.as_bytes()).sum();
    assert!(
        used < 10_000,
        "junk (32 KB) should have been auto-unpersisted; memory holds {used} bytes"
    );
    assert_eq!(cluster.metrics().evictions, 0, "dropping junk is unpersist, not eviction");
}

/// A job's action reads its target. The last job to touch a cached dataset
/// is such a read with no later reference behind it, and here it has a
/// (skipped) map stage ahead of its result stage: completing that stage
/// must not auto-unpersist what the result stage is about to read.
#[test]
fn the_last_read_of_a_cached_target_is_a_hit_behind_a_skipped_stage() {
    const PARTS: usize = 4;
    let app = |ctx: &Context| -> blaze::common::Result<()> {
        let a = ctx.parallelize((0..4_000u64).map(|i| (i % 97, i)).collect::<Vec<_>>(), PARTS);
        let b = a.reduce_by_key(PARTS, |x, y| x + y).map(|(k, v)| (*k, v + 1));
        b.cache();
        b.count()?;
        b.collect()?;
        Ok(())
    };
    let profile = extract_dependencies(app, 0).unwrap();
    let cluster = Cluster::new(
        ClusterConfig { executors: 2, slots_per_executor: 1, ..Default::default() },
        Box::new(BlazeController::new(BlazeConfig::full(), Some(profile))),
    )
    .unwrap();
    app(&Context::new(cluster.clone())).unwrap();
    let m = cluster.metrics();
    assert_eq!(m.stages_skipped, 1, "the second job's map stage is skipped");
    assert_eq!(m.recompute_misses, 0, "the cached target was dropped ahead of its own read");
    assert_eq!(m.mem_hits, PARTS as u64);
}
