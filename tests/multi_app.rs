//! Cross-crate invariants of the multi-app session layer.
//!
//! Three contracts, end to end:
//!
//! 1. **N = 1 is the legacy serial path** — running any of the six
//!    workloads through the session scheduler with one app produces
//!    byte-identical chrome traces (and metrics) to the pre-session serial
//!    runner (every system on random pipelines is contract 6 of
//!    `tests/differential.rs`).
//! 2. **Multi-app determinism** — a co-running session's trace is a pure
//!    function of (apps, policy, seed): byte-identical across
//!    `worker_threads` ∈ {1, 2, 4} and across repeated runs, for both
//!    scheduler policies.
//! 3. **Cross-app attribution** — when one app reads a block another app
//!    produced (via `Dataset::rebind` over the shared plan), the hit is
//!    counted as a cross-app hit of the *consuming* app.

use blaze::common::ids::AppId;
use blaze::common::ByteSize;
use blaze::dataflow::{Context, Plan};
use blaze::engine::{Cluster, ClusterConfig, FaultPlan, SchedPolicy, SchedulerConfig, Turnstile};
use blaze::policies::{EvictMode, LruController};
use blaze::workloads::{runner::run_spec_serial, App, AppSpec, Session, SystemKind};
use parking_lot::RwLock;
use std::sync::Arc;

/// One traced single-app run through the session scheduler.
fn session_trace(spec: &AppSpec, system: SystemKind) -> (String, blaze::engine::Metrics) {
    let out = Session::builder()
        .app(*spec)
        .system(system)
        .tracing(true)
        .run()
        .expect("session run failed");
    (out.trace.clone().expect("tracing was on").chrome_json(), out.metrics)
}

/// The same run on the legacy serial path (no scheduler layer).
fn serial_trace(spec: &AppSpec, system: SystemKind) -> (String, blaze::engine::Metrics) {
    let out = run_spec_serial(spec, system, FaultPlan::default(), true).expect("serial run failed");
    (out.trace.clone().expect("tracing was on").chrome_json(), out.metrics)
}

/// Golden: all six workloads, session vs legacy serial, byte-identical
/// chrome traces (the ISSUE's N=1 acceptance criterion).
#[test]
fn n1_session_traces_match_the_legacy_serial_path_for_all_six_workloads() {
    for app in App::all() {
        let spec = AppSpec::evaluation(app);
        let (legacy, legacy_m) = serial_trace(&spec, SystemKind::Blaze);
        let (session, session_m) = session_trace(&spec, SystemKind::Blaze);
        assert_eq!(legacy_m, session_m, "{app:?}: metrics diverged through the scheduler");
        assert_eq!(legacy, session, "{app:?}: chrome trace diverged through the scheduler");
    }
}

/// One traced co-run of PageRank + KMeans (scaled down to keep the sweep
/// fast) at the given thread count, policy and seed.
fn co_run_trace(threads: usize, policy: SchedPolicy, seed: u64) -> String {
    let out = Session::builder()
        .app(AppSpec::evaluation(App::PageRank).scaled(0.5).with_worker_threads(threads))
        .app(AppSpec::evaluation(App::KMeans).scaled(0.5).with_worker_threads(threads))
        .system(SystemKind::SparkMemDisk)
        .scheduler(SchedulerConfig { policy, seed })
        .tracing(true)
        .run()
        .expect("co-run failed");
    out.trace.expect("tracing was on").chrome_json()
}

/// Golden: the co-run schedule is a pure function of (policy, seed) — the
/// trace is byte-identical across worker-thread counts and repeated runs,
/// and the seed actually matters for round-robin rotation.
#[test]
fn multi_app_traces_are_byte_identical_across_worker_threads() {
    for policy in [SchedPolicy::RoundRobin, SchedPolicy::FairShare] {
        for seed in [1u64, 0xA5] {
            let reference = co_run_trace(1, policy, seed);
            assert!(!reference.is_empty());
            for threads in [2usize, 4, 1] {
                let trace = co_run_trace(threads, policy, seed);
                assert_eq!(
                    trace, reference,
                    "{policy:?}/seed={seed}: co-run trace diverged at worker_threads={threads}"
                );
            }
        }
    }
}

/// Cross-app hits: app 1 counts a dataset app 0 produced (rebound over the
/// shared plan); the shared store serves app 1 from app 0's blocks and the
/// hit lands in app 1's `cross_mem_hits`, not app 0's.
#[test]
fn rebound_dataset_reads_are_attributed_as_cross_app_hits() {
    let config = ClusterConfig {
        executors: 2,
        slots_per_executor: 2,
        memory_capacity: ByteSize::from_mib(64),
        ..ClusterConfig::default()
    };
    let cluster =
        Cluster::new(config, Box::new(LruController::new(EvictMode::MemDisk))).expect("cluster");
    let turnstile = Turnstile::new(SchedulerConfig { policy: SchedPolicy::FairShare, seed: 0 }, 2);
    let plan = Arc::new(RwLock::new(Plan::new()));
    let s0 = turnstile.session(AppId(0), cluster.clone());
    let s1 = turnstile.session(AppId(1), cluster.clone());
    let ctx0 = Context::with_plan(Arc::clone(&plan), s0.clone());
    let ctx1 = Context::with_plan(plan, s1.clone());

    // Both apps' lineage is declared up front on the shared plan; the
    // drivers then run on their own threads through the turnstile. Under
    // FairShare (both apps start uncharged) the tie-break grants app 0
    // first, so the producer materializes before the consumer reads.
    let shared = ctx0.parallelize((0..4096i64).collect(), 8).named("shared-input");
    shared.cache();
    let rebound = shared.rebind(&ctx1);

    std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            s0.start();
            // Two counts: the second hits the producer's own blocks — an
            // ordinary same-app hit, never a cross-app one.
            let r = shared.count().and_then(|_| shared.count());
            s0.finish();
            r
        });
        let consumer = scope.spawn(|| {
            s1.start();
            let r = rebound.count();
            s1.finish();
            r
        });
        producer.join().expect("producer thread").expect("producer counts");
        consumer.join().expect("consumer thread").expect("consumer count");
    });

    let m = cluster.metrics();
    let producer = m.per_app[&AppId(0)];
    let consumer = m.per_app[&AppId(1)];
    assert_eq!(producer.cross_mem_hits, 0, "producer read only its own blocks");
    assert!(producer.mem_hits > 0, "the recount must hit the producer's own cache");
    assert!(
        consumer.cross_mem_hits > 0,
        "the consumer's reads must be attributed as cross-app hits (got {consumer:?})"
    );
    assert_eq!(consumer.jobs, 1);
    assert_eq!(producer.jobs, 2);
}
