//! End-to-end tests of the serialized in-memory tier (decision state `s`).
//!
//! Contracts pinned here:
//!
//! 1. **Off means off** — with `OptimizerConfig::ser_tier = false` (the
//!    default) the serialized-tier counters stay exactly zero: the decision
//!    path prices the same groups without the s option (the counters are
//!    the observable witness).
//! 2. **The tier engages** — under memory pressure with a
//!    serialization-heavy iterative workload, the multi-choice solver
//!    actually picks the s-state: `ser_transitions > 0`.
//! 3. **Golden determinism under duress** — with the tier on *and* an
//!    active fault plan, results, the full `Metrics` struct and the Chrome
//!    trace JSON are byte-identical across `worker_threads` {1, 2, 4}.
//! 4. **Certified runs agree** — certify mode inline-verifies every
//!    multi-choice decision certificate. (That the driver's retained state
//!    never changes a multi-choice decision is pinned, with the tier off
//!    too, by the warm-vs-cold trace identity in
//!    `tests/decision_incremental.rs`.)
//!
//! Random pipelines with the tier drawn on or off, under every fault
//! schedule, are `tests/differential.rs`'s; its coverage floor requires a
//! case that picks the s-state.

mod common;

use blaze::core::{extract_dependencies, BlazeConfig, BlazeController};
use blaze::dataflow::{Context, CostSpec};
use blaze::engine::{Cluster, ClusterConfig, FaultPlan, Metrics, TraceLog};
use common::small_cluster;

/// How expensive this workload's element type is to (de)serialize,
/// relative to the hardware model's baseline. High, like the paper's
/// SVD++/LR feature vectors: the spill/fetch path (which pays ser + disk
/// write + disk read + deser) is clearly worse than keeping packed bytes
/// in memory (which pays deser only).
const SER_FACTOR: f64 = 6.0;

/// A serialization-heavy iterative workload: two hot cached datasets,
/// reused every round, that cannot both sit unpacked in the 26 KiB store
/// (`a` is 20 KB + `b` is 12 KB per executor) — but one full plus one
/// packed form fits, so the multi-choice solver must use the s-state to
/// avoid recovery costs. `a` is cheap to (de)serialize but expensive to
/// recompute; `b` is the opposite, serialization-heavy like the paper's
/// SVD++/LR feature vectors. Cool-down rounds at the end leave `a` alone
/// so the solver can unpack it again (s -> m).
fn pipeline(ctx: &Context) -> Vec<(u64, u64)> {
    let hot = |range: std::ops::Range<u64>, name: &str, ser: f64, cost: f64| {
        let ds = ctx
            .parallelize(range.map(|i| (i % 193, i)).collect::<Vec<_>>(), 2)
            .map_values(|v| v.wrapping_mul(2654435761).wrapping_add(11))
            .named(name)
            .with_cost(CostSpec::NARROW.scaled(cost))
            .with_ser_factor(ser);
        ds.cache();
        ds
    };
    let a = hot(0..2_500, "hot-a", 1.0, 2_000.0);
    // Warm rounds: `a` alone fits unpacked and is admitted in full form.
    a.count().expect("warm a");
    a.count().expect("warm a");
    // `b` arrives: the only eviction-free layout is `a` packed + `b` full,
    // so the solver must repack the resident `a` in place (m -> s).
    let b = hot(2_500..4_000, "hot-b", SER_FACTOR, 150.0);
    for _ in 0..4 {
        a.count().expect("count a");
        b.count().expect("count b");
    }
    // A shuffle over both (so fetch faults have something to hit).
    let mut out = a
        .reduce_by_key(4, |x, y| x.wrapping_add(*y))
        .join(&b.reduce_by_key(4, |x, y| x.wrapping_add(*y)), 4)
        .map_values(|(x, y)| x ^ y)
        .collect()
        .expect("collect");
    // Cool-down rounds: `b` is done after the join, so its store space
    // frees up and the solver can unpack `a` again (s -> m).
    for _ in 0..4 {
        a.count().expect("cool a");
    }
    out.sort();
    out
}

/// The failure-free reference answer.
fn reference() -> Vec<(u64, u64)> {
    common::reference(pipeline)
}

/// Tight memory so the full-size residents cannot all fit but their packed
/// (`ser_footprint`-scaled) forms can: the regime where the s-state wins.
fn cluster_config(fault: FaultPlan) -> ClusterConfig {
    small_cluster(26, fault)
}

/// Runs [`pipeline`] under `cfg`, returning the sorted results, full metrics
/// and (when `tracing`) the event trace.
fn run(
    cfg: BlazeConfig,
    fault: FaultPlan,
    worker_threads: usize,
    tracing: bool,
) -> (Vec<(u64, u64)>, Metrics, Option<TraceLog>) {
    let config = ClusterConfig { worker_threads, tracing, ..cluster_config(fault) };
    let profile = extract_dependencies(
        |ctx| {
            pipeline(ctx);
            Ok(())
        },
        0,
    )
    .expect("profiling run");
    let cluster = Cluster::new(config, Box::new(BlazeController::new(cfg, Some(profile))))
        .expect("valid config");
    let ctx = Context::new(cluster.clone());
    let out = pipeline(&ctx);
    (out, cluster.metrics(), cluster.trace())
}

/// [`run`] traced, returning the Chrome trace JSON. The trace must pass its
/// own audit and fold to the metrics.
fn run_traced(
    cfg: BlazeConfig,
    fault: FaultPlan,
    worker_threads: usize,
) -> (Vec<(u64, u64)>, Metrics, String) {
    let (out, metrics, trace) = run(cfg, fault, worker_threads, true);
    let trace = trace.expect("tracing was enabled");
    let report = trace.validate();
    assert!(report.is_clean(), "trace audit failed: {:?}", report.diagnostics);
    assert_eq!(
        Metrics::from_events(trace.events()),
        metrics,
        "the metrics are the fold of the log"
    );
    (out, metrics, trace.chrome_json())
}

/// An active duress schedule for the golden test: stragglers and transient
/// fetch failures, all deterministically seeded.
fn duress() -> FaultPlan {
    FaultPlan {
        seed: 0x5E12,
        straggler_rate: 0.1,
        straggler_slowdown: 2.0,
        fetch_failure_rate: 0.2,
        ..FaultPlan::default()
    }
}

/// Contract 1: the default config never touches the serialized tier.
#[test]
fn ser_tier_off_keeps_the_ser_counters_at_zero() {
    let (out, m, trace) = run_traced(BlazeConfig::full(), FaultPlan::default(), 2);
    assert_eq!(out, reference());
    assert_eq!(m.ser_mem_hits, 0, "s-hits with the tier disabled");
    assert_eq!(m.ser_transitions, 0, "s-transitions with the tier disabled");
    for name in ["ser-in-mem", "deser-in-mem", "promote-to-ser", "hit-ser-mem"] {
        assert!(!trace.contains(name), "trace records `{name}` with the tier disabled");
    }
}

/// Contract 2: under pressure, the multi-choice solver picks the s-state
/// and the engine applies in-place transitions (and serves packed hits).
#[test]
fn ser_tier_engages_under_memory_pressure() {
    let (out, m, trace) = run_traced(BlazeConfig::full_ser_tier(), FaultPlan::default(), 2);
    assert_eq!(out, reference(), "the serialized tier must not change results");
    assert!(
        m.ser_transitions > 0,
        "an iterative workload under memory pressure must trigger s-state picks"
    );
    assert!(m.ser_mem_hits > 0, "packed residents must serve hits");
    assert!(m.ser_mem_hits <= m.mem_hits, "s-hits are a subset of memory hits");
    // All three tier transitions appear: the in-place repack of a resident
    // (m -> s), the later unpack when space frees up (s -> m), and the
    // packed promotion of a disk block (d -> s) — plus packed hits.
    for name in ["ser-in-mem", "deser-in-mem", "promote-to-ser", "hit-ser-mem"] {
        assert!(trace.contains(name), "expected `{name}` in the trace");
    }
    // The same events fold to the same metrics when they are not retained.
    let (_, untraced, _) = run(BlazeConfig::full_ser_tier(), FaultPlan::default(), 2, false);
    assert_eq!(m, untraced, "tracing changed the metrics");
}

/// Contract 3 (golden): results, metrics and the Chrome trace are
/// byte-identical across worker-thread counts with the tier on and a
/// fault plan active.
#[test]
fn ser_tier_golden_identity_across_worker_threads_under_duress() {
    let want = reference();
    let (r1, m1, t1) = run_traced(BlazeConfig::full_ser_tier(), duress(), 1);
    assert_eq!(r1, want, "duress must stay invisible in results");
    assert!(m1.ser_transitions > 0, "the golden run must actually exercise the tier");
    for threads in [2, 4] {
        let (r, m, t) = run_traced(BlazeConfig::full_ser_tier(), duress(), threads);
        assert_eq!(r, r1, "results diverge at {threads} worker threads");
        assert_eq!(m, m1, "metrics diverge at {threads} worker threads");
        assert_eq!(t, t1, "trace diverges at {threads} worker threads");
    }
}

/// Contract 4: certify mode inline-verifies every multi-choice decision
/// certificate; a verification failure aborts the job, so a completed run
/// with correct results is the assertion.
#[test]
fn ser_tier_certified_run_verifies_inline() {
    let cfg = BlazeConfig { certify: true, ..BlazeConfig::full_ser_tier() };
    let (out, m, _) = run_traced(cfg, FaultPlan::default(), 2);
    assert_eq!(out, reference(), "certified ser-tier run must compute the right answer");
    assert!(m.ser_transitions > 0, "certified run must exercise the multi-choice payloads");
}
