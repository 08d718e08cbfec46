//! Property-based tests over randomly generated dataflow programs.
//!
//! Strategy: generate a random pipeline of keyed transformations and a
//! random (tiny) memory capacity, run it under a caching engine and under
//! the cache-less reference runner, and require identical results. This
//! exercises the full caching/eviction/recovery surface with shapes no
//! hand-written test would cover.

mod common;

use blaze::common::ByteSize;
use blaze::dataflow::{runner::LocalRunner, Context};
use blaze::engine::{Cluster, ClusterConfig, FaultPlan};
use blaze::workloads::{run_spec_serial, App, AppSpec, SystemKind};
use common::{apply, step_strategy};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random pipelines produce identical results with and without caching,
    /// across random memory capacities, controllers and worker-thread counts
    /// (both backends run the same pipeline at the same thread count).
    #[test]
    fn caching_is_semantically_transparent(
        elems in 100u64..2_000,
        keys in 1u64..64,
        parts in 1usize..6,
        steps in prop::collection::vec(step_strategy(), 1..6),
        capacity_kib in 1u64..64,
        system_pick in 0usize..4,
        worker_threads in 1usize..5,
    ) {
        let reference = apply(
            &Context::new(LocalRunner::new().with_threads(worker_threads)),
            elems, keys, parts, &steps,
        ).expect("reference run");
        let system = [
            SystemKind::SparkMemOnly,
            SystemKind::SparkMemDisk,
            SystemKind::Lrc,
            SystemKind::BlazeNoProfile,
        ][system_pick];
        let cluster = Cluster::new(
            ClusterConfig {
                executors: 2,
                slots_per_executor: 1,
                memory_capacity: ByteSize::from_kib(capacity_kib),
                worker_threads,
                ..Default::default()
            },
            system.make_controller(None),
        ).unwrap();
        let got = apply(&Context::new(cluster), elems, keys, parts, &steps).expect("cluster run");
        prop_assert_eq!(got, reference);
    }

    /// Simulated time and task counts are positive and consistent.
    #[test]
    fn metrics_are_internally_consistent(
        elems in 100u64..1_000,
        steps in prop::collection::vec(step_strategy(), 1..4),
    ) {
        let cluster = Cluster::new(
            ClusterConfig {
                executors: 2,
                slots_per_executor: 2,
                memory_capacity: ByteSize::from_kib(32),
                ..Default::default()
            },
            SystemKind::SparkMemDisk.make_controller(None),
        ).unwrap();
        let ctx = Context::new(cluster.clone());
        apply(&ctx, elems, 16, 4, &steps).expect("pipeline run");
        let m = cluster.metrics();
        prop_assert!(m.tasks > 0);
        prop_assert!(m.jobs > 0);
        prop_assert!(m.completion_time.as_nanos() > 0);
        // Accumulated task time across slots cannot be less than the
        // longest single component of the ACT... but it must be at least
        // the ACT divided by total slots.
        let slots = 4.0;
        prop_assert!(
            m.accumulated.total().as_secs_f64() >= m.completion_time.as_secs_f64() / slots - 1e-9
        );
        // Eviction split adds up.
        prop_assert_eq!(m.evictions, m.evictions_discard + m.evictions_to_disk);
    }
}

/// The profiled Blaze variants: everything that decides from the extracted
/// references rather than from recency alone.
const PROFILED_BLAZE: [SystemKind; 5] = [
    SystemKind::Blaze,
    SystemKind::BlazeSerTier,
    SystemKind::AutoCache,
    SystemKind::CostAware,
    SystemKind::BlazeMemOnly,
];

/// **Free-memory dominance.** With memory that holds every annotated dataset
/// no decision is forced, so a reference-driven system has nothing to gain by
/// dropping data it will read again: profiled Blaze must recompute nothing
/// and finish exactly when MEM+DISK (which then never evicts) does.
///
/// ConnectedComponents is the one recorded exception, measured rather than
/// skipped: the real run converges at a different superstep than the sample
/// run, the profile diverges, and the relearned references unpersist
/// `pregel_edges` inside a job that then recomputes it (ROADMAP item 5). Its
/// arm asserts that the exception is still real, so a fix has to delete it.
#[test]
fn profiled_blaze_with_free_memory_matches_mem_disk() {
    for app in App::all() {
        let mut spec = AppSpec::evaluation(app);
        spec.memory_capacity = ByteSize::from_mib(256);
        let run = |system| run_spec_serial(&spec, system, FaultPlan::default(), false).unwrap();
        let base = run(SystemKind::SparkMemDisk);
        assert_eq!(base.metrics.evictions, 0, "{app:?}: 256 MiB must hold everything");
        for system in PROFILED_BLAZE {
            let out = run(system);
            let (act, misses) = (out.act(), out.metrics.recompute_misses);
            println!(
                "{:>6} {:<12} ACT {:.4}s misses {:>3}  (MEM+DISK {:.4}s, {})",
                app.label(),
                system.label(),
                act.as_secs_f64(),
                misses,
                base.act().as_secs_f64(),
                base.metrics.recompute_misses
            );
            if app == App::ConnectedComponents {
                assert!(
                    act > base.act() && misses > base.metrics.recompute_misses,
                    "CC under {system:?} now dominates MEM+DISK: delete this exception"
                );
                continue;
            }
            assert_eq!(misses, 0, "{app:?} under {system:?} recomputed cached data");
            assert_eq!(act, base.act(), "{app:?} under {system:?} vs MEM+DISK");
        }
    }
}
