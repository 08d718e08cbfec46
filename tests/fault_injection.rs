//! Deterministic chaos testing of the fault-injection subsystem.
//!
//! Contracts pinned here on fixed schedules (see DESIGN.md "Failure
//! model"); random schedules and the `BLAZE_CHAOS_SEEDS` seed matrix go
//! through every check of `tests/differential.rs`:
//!
//! 1. **Zero cost when off** — a disabled `FaultPlan` (the default) leaves
//!    every metric byte-identical to a run with no plan at all.
//! 2. **Replay determinism** — a fixed-seed fault schedule produces the
//!    same results *and* the same `Metrics::recovery` on every run and at
//!    every `worker_threads` setting.
//! 3. **Lineage-driven recovery** — lost map outputs, corrupted spills and
//!    failed fetches are recovered, and the recovery is attributed.
//! 4. **Recoverability preflight** — an uncached lineage chain deeper than
//!    the plan's retry budget can replay aborts up front with BA301.

mod common;

use blaze::audit::DiagCode;
use blaze::common::{ByteSize, SimDuration, SimTime};
use blaze::dataflow::{runner::LocalRunner, Context};
use blaze::engine::{
    Cluster, ClusterConfig, ExecutorCrash, FaultPlan, Metrics, RecoveryMetrics, TraceEvent,
};
use blaze::workloads::{App, AppSpec, Session, SystemKind};

/// A small iterative pipeline (cache-and-reuse per round, like the
/// evaluation apps) used by the cluster-level chaos tests.
fn pipeline(ctx: &Context) -> Vec<(u64, u64)> {
    let mut data = ctx.parallelize((0..6_000u64).map(|i| (i % 97, i)).collect::<Vec<_>>(), 6);
    for _ in 0..3 {
        data = data.reduce_by_key(6, |a, b| a.wrapping_add(*b)).map_values(|v| v ^ 0x3C);
        data.cache();
        data.count().expect("count");
    }
    let mut out = data.collect().expect("collect");
    out.sort();
    out
}

fn cluster_config(fault: FaultPlan) -> ClusterConfig {
    common::small_cluster(64, fault)
}

/// Runs [`pipeline`] on a cluster under `system` with `fault`, returning
/// the sorted results and full metrics.
fn run_chaos(system: SystemKind, fault: FaultPlan) -> (Vec<(u64, u64)>, Metrics) {
    let cluster = Cluster::new(cluster_config(fault), system.make_controller(None))
        .expect("valid chaos config");
    let ctx = Context::new(cluster.clone());
    let out = pipeline(&ctx);
    (out, cluster.metrics())
}

/// The failure-free reference answer.
fn reference() -> Vec<(u64, u64)> {
    common::reference(pipeline)
}

/// A mid-run crash time for `system`: probe the clean simulated ACT once,
/// then schedule the crash at `frac` of it. Everything stays on the
/// simulated clock.
fn crash_mid_run(system: SystemKind, frac: f64) -> SimTime {
    let (_, clean) = run_chaos(system, FaultPlan::default());
    SimTime::ZERO + SimDuration::from_secs_f64(clean.completion_time.as_secs_f64() * frac)
}

// ---------------------------------------------------------------------------
// 1. Zero cost when off.
// ---------------------------------------------------------------------------

/// A seeded-but-disabled plan must not perturb a single metric, and the
/// recovery block must stay all-zero.
#[test]
fn disabled_fault_plan_changes_nothing() {
    let spec = AppSpec::evaluation(App::KMeans);
    let clean = Session::builder(spec).system(SystemKind::SparkMemDisk).run().expect("clean run");
    let seeded_but_off = FaultPlan { seed: 0xFEED, ..FaultPlan::default() };
    assert!(!seeded_but_off.enabled());
    let seeded = Session::builder(spec)
        .system(SystemKind::SparkMemDisk)
        .fault(seeded_but_off)
        .run()
        .expect("seeded run");
    assert_eq!(clean.metrics, seeded.metrics, "a disabled plan must be invisible");
    assert_eq!(seeded.metrics.recovery, RecoveryMetrics::default());
}

// ---------------------------------------------------------------------------
// 2. Replay determinism across runs and thread counts.
// ---------------------------------------------------------------------------

/// Golden: one fixed-seed schedule (transient failures + a mid-run crash +
/// shuffle loss) replays bit-identically — results, every counter, and the
/// whole `Metrics::recovery` block — across repeated runs and across
/// `worker_threads` ∈ {1, 4}, for both an LRU baseline and Blaze.
#[test]
fn fixed_seed_schedule_replays_identically() {
    // Inside every headline system's clean KMeans ACT (~0.10–0.32 s).
    let crash_at = SimTime::ZERO + SimDuration::from_secs_f64(0.05);
    let plan = FaultPlan {
        seed: 0xC4A05,
        task_failure_rate: 0.05,
        max_task_retries: 5,
        crashes: vec![ExecutorCrash { at: crash_at, executor: 1 }],
        map_output_loss_rate: 0.1,
        external_shuffle_service: false,
        ..FaultPlan::default()
    };
    for system in [SystemKind::SparkMemDisk, SystemKind::Blaze] {
        let runs: Vec<Metrics> = [1usize, 4, 1]
            .iter()
            .map(|&threads| {
                let spec = AppSpec::evaluation(App::KMeans).with_worker_threads(threads);
                Session::builder(spec)
                    .system(system)
                    .fault(plan.clone())
                    .run()
                    .expect("chaos run")
                    .metrics
            })
            .collect();
        assert_eq!(
            runs[0], runs[1],
            "{system:?}: faulted metrics diverged between 1 and 4 worker threads"
        );
        assert_eq!(runs[0], runs[2], "{system:?}: faulted metrics diverged between two runs");
        // The schedule really fired: every failure class left a trace.
        let rec = &runs[0].recovery;
        assert_eq!(rec.executor_crashes, 1, "{system:?}: the scheduled crash must fire once");
        assert!(rec.task_retries > 0, "{system:?}: transient failures must have fired");
        assert!(rec.blocks_lost > 0, "{system:?}: the crash must have destroyed blocks");
        assert!(
            rec.total_recovery_time() > SimDuration::ZERO,
            "{system:?}: recovery work must be attributed"
        );
    }
}

// ---------------------------------------------------------------------------
// 3. Lineage-driven recovery paths.
// ---------------------------------------------------------------------------

/// Map outputs lost between jobs (shuffle service off) force the parent
/// map stage to be resubmitted, Spark fetch-failure style — and the
/// resubmission is counted and recovers the outputs.
#[test]
fn lost_map_outputs_force_parent_stage_resubmission() {
    let plan = FaultPlan {
        seed: 9,
        map_output_loss_rate: 0.9,
        external_shuffle_service: false,
        ..FaultPlan::default()
    };
    let cluster =
        Cluster::new(cluster_config(plan), SystemKind::SparkMemOnly.make_controller(None))
            .expect("valid config");
    let ctx = Context::new(cluster.clone());
    let data = ctx.parallelize((0..4_000u64).map(|i| (i % 53, i)).collect::<Vec<_>>(), 8);
    // Not cached: the second job can only reuse the first job's shuffle
    // outputs, which the plan destroys at the second job's start.
    let reduced = data.reduce_by_key(4, |a, b| a.wrapping_add(*b));
    let mut first = reduced.collect().expect("first job");
    let mut second = reduced.collect().expect("second job");
    first.sort();
    second.sort();
    assert_eq!(first, second, "resubmitted stage changed the answer");
    let m = cluster.metrics();
    assert!(m.recovery.map_outputs_lost > 0, "the loss coins must have fired at rate 0.9");
    assert!(m.recovery.stages_resubmitted >= 1, "a lost shuffle must resubmit its map stage");
    assert!(m.recovery.map_outputs_recovered > 0, "resubmission must re-register the outputs");
}

// ---------------------------------------------------------------------------
// 4. BA301 recoverability preflight.
// ---------------------------------------------------------------------------

/// An uncached lineage chain deeper than the retry budget can replay is
/// rejected before any task runs; anchoring the chain with a `cache()`
/// clears the diagnostic.
#[test]
fn deep_uncached_lineage_fails_the_ba301_preflight() {
    // max_task_retries = 1 → recoverable depth = 32 * 2 = 64.
    let plan =
        FaultPlan { seed: 1, task_failure_rate: 0.01, max_task_retries: 1, ..FaultPlan::default() };
    let cluster =
        Cluster::new(cluster_config(plan), SystemKind::SparkMemOnly.make_controller(None))
            .expect("valid config");
    let ctx = Context::new(cluster);

    let mut deep = ctx.range(0..1_000, 2);
    for _ in 0..80 {
        deep = deep.map(|v| v.wrapping_add(1));
    }
    let err = deep.count().expect_err("an 81-deep uncached chain must fail preflight");
    let msg = err.to_string();
    assert!(msg.contains("BA301"), "expected a BA301 abort, got: {msg}");

    let mut anchored = ctx.range(0..1_000, 2);
    for i in 0..80 {
        anchored = anchored.map(|v| v.wrapping_add(1));
        if i == 40 {
            anchored.cache();
        }
    }
    anchored.count().expect("a cache() anchor inside the budget must clear BA301");
}

// ---------------------------------------------------------------------------
// 5. Graceful degradation under duress: stragglers + speculation, corrupted
//    spills and flaky fetches.
// ---------------------------------------------------------------------------

/// Runs [`pipeline`] with tracing on, returning results, metrics and the
/// rendered Chrome trace (the byte-identity witness across thread counts).
fn run_chaos_traced(
    system: SystemKind,
    fault: FaultPlan,
    threads: usize,
) -> (Vec<(u64, u64)>, Metrics, String) {
    let cluster = Cluster::new(
        ClusterConfig { worker_threads: threads, tracing: true, ..cluster_config(fault) },
        system.make_controller(None),
    )
    .expect("valid chaos config");
    let ctx = Context::new(cluster.clone());
    let out = pipeline(&ctx);
    let trace = cluster.trace().expect("tracing was enabled");
    (out, cluster.metrics(), trace.chrome_json())
}

/// Everything at once: transient failures, a mid-run crash, stragglers with
/// speculation, corrupted spills and flaky fetches. The run must still
/// compute the reference answer, and metrics *and* the full event trace
/// must be byte-identical across `worker_threads` ∈ {1, 2, 4}.
#[test]
fn duress_schedule_replays_identically_across_thread_counts() {
    let want = reference();
    for system in [SystemKind::SparkMemDisk, SystemKind::BlazeNoProfile] {
        let crash_at = crash_mid_run(system, 0.4);
        let plan = FaultPlan {
            seed: 0xD0_5E,
            task_failure_rate: 0.03,
            max_task_retries: 6,
            crashes: vec![ExecutorCrash { at: crash_at, executor: 1 }],
            map_output_loss_rate: 0.1,
            external_shuffle_service: false,
            straggler_rate: 0.3,
            straggler_slowdown: 6.0,
            spill_corruption_rate: 0.4,
            fetch_failure_rate: 0.4,
            max_fetch_retries: 3,
            ..FaultPlan::default()
        };
        let (r1, m1, t1) = run_chaos_traced(system, plan.clone(), 1);
        let (r2, m2, t2) = run_chaos_traced(system, plan.clone(), 2);
        let (r4, m4, t4) = run_chaos_traced(system, plan, 4);
        assert_eq!(r1, want, "{system:?}: duress run corrupted results");
        assert_eq!(r2, want);
        assert_eq!(r4, want);
        assert_eq!(m1, m2, "{system:?}: metrics diverged between 1 and 2 threads");
        assert_eq!(m1, m4, "{system:?}: metrics diverged between 1 and 4 threads");
        assert_eq!(t1, t2, "{system:?}: trace diverged between 1 and 2 threads");
        assert_eq!(t1, t4, "{system:?}: trace diverged between 1 and 4 threads");
        // The duress actually happened.
        assert!(m1.speculation.stragglers > 0, "{system:?}: straggler coins must fire at 0.3");
        assert!(m1.recovery.fetch_retries > 0, "{system:?}: fetch coins must fire at 0.4");
    }
}

/// Speculative execution earns its keep: under a straggler-heavy schedule
/// it wins races against slowed originals and brings the simulated
/// completion time down versus the same schedule with speculation off.
#[test]
fn speculation_reduces_straggler_inflated_makespan() {
    let want = reference();
    let base = FaultPlan {
        seed: 77,
        straggler_rate: 0.35,
        straggler_slowdown: 6.0,
        ..FaultPlan::default()
    };
    let (got_on, on) =
        run_chaos(SystemKind::SparkMemDisk, FaultPlan { speculation: true, ..base.clone() });
    let (got_off, off) =
        run_chaos(SystemKind::SparkMemDisk, FaultPlan { speculation: false, ..base });
    assert_eq!(got_on, want);
    assert_eq!(got_off, want);
    assert_eq!(on.speculation.stragglers, off.speculation.stragglers, "same straggler coins");
    assert!(on.speculation.launched > 0, "a 6x straggler must blow the quantile deadline");
    assert!(on.speculation.wins > 0, "a full-speed copy must beat a 6x-slowed original");
    assert!(on.speculation.wasted > SimDuration::ZERO, "the losing attempt is charged");
    assert_eq!(off.speculation.launched, 0, "speculation off may never launch a copy");
    assert!(
        on.completion_time < off.completion_time,
        "speculation must shorten the makespan: on = {}, off = {}",
        on.completion_time,
        off.completion_time
    );
}

/// A pipeline that caches far more than the memory tier holds, so blocks
/// spill to disk and a later job must read them back (the corruption
/// injection point). [`pipeline`]'s cached reductions are too small to
/// ever spill.
fn spill_pipeline(ctx: &Context) -> Vec<(u64, u64)> {
    let data = ctx.parallelize((0..20_000u64).map(|i| (i % 1_000, i)).collect::<Vec<_>>(), 8);
    let mapped = data.map_values(|v| v.wrapping_mul(3));
    mapped.cache();
    mapped.count().expect("materializing job");
    let mut out = mapped.collect().expect("re-reading job");
    out.sort();
    out
}

/// Corrupted disk spills are caught by checksum verification on read,
/// quarantined, and transparently recomputed through lineage — the answer
/// never changes.
#[test]
fn corrupted_spills_are_quarantined_and_recomputed() {
    let want = spill_pipeline(&Context::new(LocalRunner::new()));
    let plan = FaultPlan { seed: 5, spill_corruption_rate: 0.8, ..FaultPlan::default() };
    let cluster =
        Cluster::new(cluster_config(plan), SystemKind::SparkMemDisk.make_controller(None))
            .expect("valid config");
    let ctx = Context::new(cluster.clone());
    let got = spill_pipeline(&ctx);
    assert_eq!(got, want, "a corrupted spill must never surface in results");
    let m = cluster.metrics();
    assert!(m.recovery.spills_quarantined > 0, "corruption coins at 0.8 must hit a disk read");
    assert!(
        m.recovery.lineage_replay_time > SimDuration::ZERO,
        "quarantined blocks are recomputed through lineage, which must be attributed"
    );
}

/// Failed shuffle fetches retry with deterministic exponential backoff on
/// the simulated clock; once the retry budget is spent the fetch escalates
/// to regenerating the parent stage's map outputs.
#[test]
fn fetch_retries_back_off_then_escalate() {
    let want = reference();
    let plan = FaultPlan {
        seed: 3,
        fetch_failure_rate: 0.6,
        max_fetch_retries: 1,
        ..FaultPlan::default()
    };
    let (got, m) = run_chaos(SystemKind::SparkMemDisk, plan);
    assert_eq!(got, want, "fetch failures must stay invisible in results");
    assert!(m.recovery.fetch_retries > 0, "fetch coins at 0.6 must force retries");
    assert!(
        m.recovery.fetch_backoff_time > SimDuration::ZERO,
        "every retry waits a deterministic backoff first"
    );
    assert!(
        m.recovery.fetch_escalations > 0,
        "with a budget of 1 retry, a 0.6 rate must exhaust some fetch's budget"
    );
}

// ---------------------------------------------------------------------------
// 6. Mutation checks: each degradation diagnostic actually fires.
// ---------------------------------------------------------------------------

/// The audit-warning codes a traced 100-element count records under
/// `config`; the warnings never stop the job.
fn audit_warnings(config: ClusterConfig) -> Vec<DiagCode> {
    let config = ClusterConfig { tracing: true, ..config };
    let cluster =
        Cluster::new(config, SystemKind::SparkMemOnly.make_controller(None)).expect("valid config");
    let ctx = Context::new(cluster.clone());
    assert_eq!(ctx.range(0..100, 2).count().expect("a warning does not abort"), 100);
    let trace = cluster.trace().expect("tracing is on");
    let codes: Vec<DiagCode> = trace
        .events()
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::AuditWarning { code, .. } => Some(*code),
            _ => None,
        })
        .collect();
    assert_eq!(cluster.metrics().audit_warnings, codes.len() as u64);
    codes
}

/// BA302: stragglers beyond the slowdown budget with speculation disabled
/// leave an audit-warning record; enabling speculation clears it.
#[test]
fn over_budget_stragglers_without_speculation_fire_ba302() {
    let plan = FaultPlan {
        seed: 1,
        straggler_rate: 0.2,
        straggler_slowdown: 9.0, // > STRAGGLER_SLOWDOWN_BUDGET (8.0)
        speculation: false,
        ..FaultPlan::default()
    };
    let codes = audit_warnings(cluster_config(plan.clone()));
    assert_eq!(codes, [DiagCode::StragglerBudgetExceeded], "expected one BA302 record");

    let cleared = FaultPlan { speculation: true, ..plan };
    let codes = audit_warnings(cluster_config(cleared));
    assert!(codes.is_empty(), "speculation clears BA302, got {codes:?}");
}

/// BA303: a spill-corruption rate alongside a zero-capacity disk tier is
/// dead configuration and leaves an audit-warning record; a disk tier
/// clears it.
#[test]
fn corruption_without_a_disk_tier_fires_ba303() {
    let plan = FaultPlan { seed: 1, spill_corruption_rate: 0.3, ..FaultPlan::default() };
    let config = ClusterConfig { disk_capacity: ByteSize::ZERO, ..cluster_config(plan.clone()) };
    let codes = audit_warnings(config);
    assert_eq!(codes, [DiagCode::CorruptionWithoutDiskTier], "expected one BA303 record");

    let codes = audit_warnings(cluster_config(plan));
    assert!(codes.is_empty(), "a disk tier clears BA303, got {codes:?}");
}

/// BA008: `assume_partitioned` with a layout that does not hold fails
/// loudly (debug builds verify every produced block) instead of silently
/// corrupting keyed results; a layout that does hold passes.
#[test]
#[cfg(debug_assertions)]
fn false_assume_partitioned_fires_ba008() {
    let ctx = Context::new(LocalRunner::new());
    // Four copies of the same key across two partitions: whichever
    // partition the key does *not* hash to violates the claim.
    let data = vec![(7u64, 1u64), (7, 2), (7, 3), (7, 4)];
    let err = ctx
        .parallelize(data.clone(), 2)
        .assume_partitioned(2)
        .collect()
        .expect_err("a false partitioning claim must fail loudly");
    assert!(err.to_string().contains("BA008"), "expected BA008, got: {err}");
    // With a single partition every key trivially hashes to partition 0.
    let ok = ctx.parallelize(data, 1).assume_partitioned(1).collect().expect("claim holds");
    assert_eq!(ok.len(), 4);
}
