//! Property-based tests tying [`blaze::engine::Metrics`] to the structured
//! event trace.
//!
//! Strategy: generate random keyed pipelines (`tests/common`),
//! run them with tracing enabled — with and without deterministic fault
//! injection — and require that the trace's self-audit passes: spans nest
//! (BA401), trace-derived aggregates reproduce the metrics (BA402), and
//! every memory-cache removal pairs with an earlier admission (BA403) —
//! and that the same pipeline run untraced yields equal metrics (tracing
//! retains events, it must not change what they fold to).
//! A second property pins the determinism contract: the Chrome-trace
//! export is byte-identical across `worker_threads` settings.

mod common;

use blaze::common::ByteSize;
use blaze::dataflow::{Context, Dataset};
use blaze::engine::{Cluster, ClusterConfig, FaultPlan, Metrics, TraceLog};
use blaze::workloads::SystemKind;
use common::{apply, fault_variant, step_strategy, Step};
use proptest::prelude::*;

/// Runs a pipeline and returns its metrics and (when `tracing`) its trace.
fn run(
    elems: u64,
    steps: &[Step],
    capacity_kib: u64,
    system: SystemKind,
    worker_threads: usize,
    fault: FaultPlan,
    tracing: bool,
) -> (Metrics, Option<TraceLog>) {
    let cluster = Cluster::new(
        ClusterConfig {
            executors: 2,
            slots_per_executor: 2,
            memory_capacity: ByteSize::from_kib(capacity_kib),
            worker_threads,
            tracing,
            fault,
            ..Default::default()
        },
        system.make_controller(None),
    )
    .unwrap();
    let ctx = Context::new(cluster.clone());
    apply(&ctx, elems, 16, 4, steps).expect("pipeline run");
    (cluster.metrics(), cluster.trace())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// On random plans — with and without fault injection — the event
    /// trace must pass its own audit against the final metrics.
    #[test]
    fn trace_audit_is_clean_on_random_plans(
        elems in 100u64..1_000,
        steps in prop::collection::vec(step_strategy(), 1..5),
        capacity_kib in 1u64..48,
        system_pick in 0usize..5,
        fault_pick in 0usize..3,
        seed in 0u64..1_000,
    ) {
        // `BlazeSerTier` turns the serialized tier on, but without a profile
        // Blaze sees no future references in these aperiodic pipelines and
        // caches nothing; `tests/ser_tier.rs` runs the same generator
        // profiled and under memory pressure, where the tier does engage.
        let system = [
            SystemKind::SparkMemOnly,
            SystemKind::SparkMemDisk,
            SystemKind::Lrc,
            SystemKind::BlazeNoProfile,
            SystemKind::BlazeSerTier,
        ][system_pick];
        let fault = fault_variant(fault_pick, seed);
        let (metrics, trace) = run(elems, &steps, capacity_kib, system, 2, fault.clone(), true);
        let report = trace.expect("tracing was enabled").validate(&metrics);
        // Errors only: BA404 warnings are the policy's mispredictions (Blaze
        // without a profile guesses references), not the engine's bookkeeping.
        prop_assert!(report.passes(), "trace audit failed: {:?}", report.diagnostics);
        // The trace actually covers the run: one span per committed task.
        prop_assert!(metrics.tasks > 0);
        // Tracing off folds the same events without retaining them.
        let (untraced, none) = run(elems, &steps, capacity_kib, system, 2, fault, false);
        prop_assert!(none.is_none());
        prop_assert_eq!(metrics, untraced, "tracing changed the metrics");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The Chrome-trace export is byte-identical across worker-thread
    /// counts, faults included (the determinism contract of the tentpole).
    #[test]
    fn traces_are_byte_identical_across_thread_counts(
        elems in 100u64..600,
        steps in prop::collection::vec(step_strategy(), 1..4),
        capacity_kib in 2u64..32,
        fault_pick in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let mut baseline: Option<(String, String)> = None;
        for threads in [1usize, 2, 4] {
            let (metrics, trace) = run(
                elems,
                &steps,
                capacity_kib,
                SystemKind::SparkMemDisk,
                threads,
                fault_variant(fault_pick, seed),
                true,
            );
            let json = trace.expect("tracing was enabled").chrome_json();
            let dbg = format!("{metrics:?}");
            match &baseline {
                None => baseline = Some((json, dbg)),
                Some((json0, dbg0)) => {
                    prop_assert_eq!(json0, &json, "trace diverged at {} threads", threads);
                    prop_assert_eq!(dbg0, &dbg, "metrics diverged at {} threads", threads);
                }
            }
        }
    }
}

/// Regression for the `top_recompute_rdd` tie order: the answer (per job)
/// must be identical at 1, 2 and 4 worker threads. The two cached datasets
/// are deliberately symmetric (same shape, same compute cost), so their
/// per-job recompute times tie and the result is decided purely by the
/// documented tie-break. Before the fix the winner under ties depended on
/// hash-map iteration order, which made it a per-process lottery.
#[test]
fn top_recompute_rdd_is_thread_count_invariant() {
    let mut baseline: Option<Vec<Option<(u32, u64)>>> = None;
    for threads in [1usize, 2, 4] {
        let cluster = Cluster::new(
            ClusterConfig {
                executors: 2,
                slots_per_executor: 2,
                // Tiny store: the cached map outputs never fit, so every
                // reuse is a recomputation.
                memory_capacity: ByteSize::from_kib(2),
                worker_threads: threads,
                tracing: true,
                ..Default::default()
            },
            SystemKind::SparkMemOnly.make_controller(None),
        )
        .unwrap();
        let ctx = Context::new(cluster.clone());
        let base: Dataset<(u64, u64)> =
            ctx.parallelize((0..600u64).map(|i| (i % 16, i)).collect::<Vec<_>>(), 4);
        let a = base.map_values(|v| v.wrapping_add(1));
        a.cache();
        let b = base.map_values(|v| v.wrapping_add(2));
        b.cache();
        a.count().unwrap();
        b.count().unwrap();
        for _ in 0..2 {
            let joined = a.zip_partitions(&b, |x, _y| x.to_vec());
            joined.count().unwrap();
        }
        let metrics = cluster.metrics();
        let trace = cluster.trace().expect("tracing was enabled");
        assert!(trace.validate(&metrics).is_clean());

        let tops: Vec<Option<(u32, u64)>> = (0..metrics.jobs as u32)
            .map(|j| {
                metrics
                    .top_recompute_rdd(blaze::common::ids::AppId(0), blaze::common::ids::JobId(j))
                    .map(|(r, t)| (r.raw(), t.as_nanos()))
            })
            .collect();
        assert!(tops.iter().any(|t| t.is_some()), "expected recomputation under a 2 KiB store");
        match &baseline {
            None => baseline = Some(tops),
            Some(b) => assert_eq!(b, &tops, "top_recompute_rdd diverged at {threads} threads"),
        }
    }
}
