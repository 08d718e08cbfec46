//! The headline claims of the paper's evaluation, as executable assertions.
//!
//! These are the "shape" checks: who wins, where the crossovers fall, and
//! which qualitative per-application observations of §7.2-§7.5 hold on the
//! reproduction. They run the evaluation-scale workloads, so they are
//! release-profile friendly but still complete in seconds in debug.

use blaze::workloads::{run_app, App, SystemKind};

fn act(app: App, system: SystemKind) -> f64 {
    run_app(app, system).unwrap().metrics.completion_time.as_secs_f64()
}

#[test]
fn blaze_beats_both_sparks_on_pagerank() {
    let blaze = act(App::PageRank, SystemKind::Blaze);
    let mem = act(App::PageRank, SystemKind::SparkMemOnly);
    let disk = act(App::PageRank, SystemKind::SparkMemDisk);
    assert!(blaze < disk, "Blaze {blaze} must beat MEM+DISK {disk}");
    assert!(blaze < mem, "Blaze {blaze} must beat MEM_ONLY {mem}");
}

#[test]
fn blaze_beats_both_sparks_on_svdpp() {
    let blaze = act(App::Svdpp, SystemKind::Blaze);
    let mem = act(App::Svdpp, SystemKind::SparkMemOnly);
    let disk = act(App::Svdpp, SystemKind::SparkMemDisk);
    assert!(blaze < disk && blaze < mem, "Blaze {blaze} vs MEM {mem} / MEM+DISK {disk}");
    // §7.2: SVD++ speedups are large on both sides (2.42x / 2.15x).
    assert!(mem / blaze > 1.5);
    assert!(disk / blaze > 1.5);
}

#[test]
fn lr_blaze_incurs_no_evictions_and_no_disk() {
    // §7.2/§7.4: Blaze captures that only one LR dataset is reused; the
    // working set then fits and no evictions or disk I/O occur at all.
    let out = run_app(App::LogisticRegression, SystemKind::Blaze).unwrap();
    assert_eq!(out.metrics.evictions, 0, "Blaze must not evict on LR");
    assert_eq!(out.metrics.disk_bytes_written.as_bytes(), 0);
    // While baselines evict continuously on the same workload.
    let spark = run_app(App::LogisticRegression, SystemKind::SparkMemDisk).unwrap();
    assert!(spark.metrics.evictions > 0);
}

#[test]
fn blaze_cuts_disk_volume_by_more_than_80_percent() {
    // §7.2: 81-100% reduction of cache data on disk across applications;
    // checked here on the two most disk-bound workloads.
    for app in [App::PageRank, App::Svdpp] {
        let spark = run_app(app, SystemKind::SparkMemDisk).unwrap();
        let blaze = run_app(app, SystemKind::Blaze).unwrap();
        let spark_avg = spark.metrics.disk_bytes_avg().as_bytes() as f64;
        let blaze_avg = blaze.metrics.disk_bytes_avg().as_bytes() as f64;
        assert!(
            blaze_avg < spark_avg * 0.2,
            "{app:?}: Blaze disk {blaze_avg} vs Spark {spark_avg}"
        );
    }
}

#[test]
fn mem_only_recomputation_grows_across_pagerank_iterations() {
    // Fig. 5: later iterations recompute more (longer lineages).
    let out = run_app(App::PageRank, SystemKind::SparkMemOnly).unwrap();
    let per_job = out.metrics.recompute_by_job();
    assert!(per_job.len() >= 6, "expected recomputation in most iterations");
    let times: Vec<f64> = per_job.iter().map(|(_, t)| t.as_secs_f64()).collect();
    let mid = times.len() / 2;
    let first: f64 = times[..mid].iter().sum();
    let second: f64 = times[mid..].iter().sum();
    assert!(second > first * 1.5, "growth missing: first {first} second {second}");
}

#[test]
fn pagerank_disk_io_dominates_mem_disk_spark() {
    // Fig. 4: PR has the largest disk share (>70% in the paper).
    let out = run_app(App::PageRank, SystemKind::SparkMemDisk).unwrap();
    let disk = out.metrics.accumulated.disk_io_for_caching().as_secs_f64();
    let comp = out.metrics.accumulated.computation_and_shuffle().as_secs_f64();
    assert!(disk / (disk + comp) > 0.5, "disk share {}", disk / (disk + comp));
}

#[test]
fn ablation_ladder_is_monotone_on_pagerank() {
    // Fig. 11: MEM+DISK -> +AutoCache -> +CostAware -> Blaze improves.
    let base = act(App::PageRank, SystemKind::SparkMemDisk);
    let auto = act(App::PageRank, SystemKind::AutoCache);
    let cost = act(App::PageRank, SystemKind::CostAware);
    let blaze = act(App::PageRank, SystemKind::Blaze);
    assert!(auto <= base * 1.02, "+AutoCache {auto} vs base {base}");
    assert!(cost <= auto * 1.02, "+CostAware {cost} vs +AutoCache {auto}");
    assert!(blaze <= cost * 1.02, "Blaze {blaze} vs +CostAware {cost}");
}

#[test]
fn profiling_helps_pagerank() {
    // Fig. 13: the dependency-extraction phase accelerates PR (0.61x
    // normalized in the paper, i.e. w/ profiling is faster).
    let with = act(App::PageRank, SystemKind::Blaze);
    let without = act(App::PageRank, SystemKind::BlazeNoProfile);
    assert!(with < without, "profiled {with} must beat unprofiled {without}");
}

#[test]
fn tinylfu_refuses_admission_on_pagerank() {
    // Why TinyLFU is kept beside LRU: its admission filter turns away every
    // block less popular than its would-be victim, so at evaluation memory
    // it evicts nothing on PR and finishes ahead of MEM+DISK Spark.
    let tinylfu = run_app(App::PageRank, SystemKind::TinyLfu).unwrap();
    assert_eq!(tinylfu.metrics.evictions, 0, "TinyLFU must refuse rather than evict");
    let tinylfu = tinylfu.metrics.completion_time.as_secs_f64();
    let disk = act(App::PageRank, SystemKind::SparkMemDisk);
    assert!(tinylfu < disk, "TinyLFU {tinylfu} must beat MEM+DISK {disk}");
}

#[test]
fn eviction_volumes_are_skewed_across_executors() {
    // Fig. 3: power-law partitions make eviction volumes uneven.
    let out = run_app(App::PageRank, SystemKind::SparkMemDisk).unwrap();
    let volumes: Vec<u64> =
        out.metrics.evicted_bytes_per_executor().values().map(|b| b.as_bytes()).collect();
    assert!(volumes.len() >= 2);
    let max = *volumes.iter().max().unwrap() as f64;
    let min = *volumes.iter().min().unwrap() as f64;
    assert!(max / min.max(1.0) > 1.15, "spread too uniform: {volumes:?}");
}
