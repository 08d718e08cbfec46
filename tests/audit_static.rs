//! The plan-auditor test suite: one test per diagnostic code the per-job
//! preflight can emit, and its engine integration.
//!
//! Every plan here is built through the `Dataset` API on a `LocalRunner`
//! context; the audits read it statically, without running a job. The
//! plan's shape (forward references, partition counts, compute/dependency
//! agreement) is `Plan::add_node`'s to refuse and is tested there.

use blaze::audit::plan_audit::{audit_caching, audit_job, audit_values, AuditConfig};
use blaze::audit::{DiagCode, Severity};
use blaze::common::{BlazeError, ByteSize};
use blaze::dataflow::{runner::LocalRunner, Context, CostSpec, Dataset};
use blaze::engine::{Cluster, ClusterConfig, Metrics, TraceEvent};
use blaze::workloads::SystemKind;

/// A fresh context on the reference runner.
fn ctx() -> Context {
    Context::new(LocalRunner::new())
}

fn source(ctx: &Context, parts: usize) -> Dataset<(u64, u64)> {
    ctx.parallelize((0..32u64).map(|i| (i % 4, i)).collect(), parts)
}

/// True when the value checks over `ctx`'s plan report `code`.
fn values_have(ctx: &Context, code: DiagCode) -> bool {
    audit_values(&ctx.plan().read()).has(code)
}

fn values_clean(ctx: &Context) -> bool {
    audit_values(&ctx.plan().read()).is_clean()
}

// ---- BA0xx plan values -----------------------------------------------------

#[test]
fn ba005_partitioner_disagrees_with_partition_count() {
    let bad = ctx();
    let _ = source(&bad, 4).assume_partitioned(8);
    assert!(values_have(&bad, DiagCode::PartitionerMismatch));
    let ok = ctx();
    let _ = source(&ok, 4).assume_partitioned(4);
    assert!(values_clean(&ok));
}

#[test]
fn ba006_invalid_cost_spec() {
    for bad in [f64::NAN, f64::INFINITY, -1.0] {
        let c = ctx();
        let _ = source(&c, 1).with_cost(CostSpec { fixed_ns: bad, ..CostSpec::FREE });
        assert!(values_have(&c, DiagCode::InvalidCostSpec), "cost {bad} not flagged");
    }
    let ok = ctx();
    let _ = source(&ok, 1).with_cost(CostSpec::FREE);
    assert!(values_clean(&ok));
}

#[test]
fn ba009_negative_ser_factor() {
    for bad in [-1.0, -0.001, f64::NAN, f64::NEG_INFINITY] {
        let c = ctx();
        let _ = source(&c, 1).with_ser_factor(bad);
        assert!(values_have(&c, DiagCode::NegativeSerFactor), "ser_factor {bad} not flagged");
    }
    let ok = ctx();
    let _ = source(&ok, 1).with_ser_factor(0.0);
    assert!(values_clean(&ok));
}

// ---- BA1xx caching anti-patterns ------------------------------------------

/// The recompute-bomb shape: `m` feeds a shuffle and is also zipped
/// (narrow) with that shuffle's output, so the result stage re-walks `m`'s
/// lineage. Returns the zip, the job target.
fn bomb(ctx: &Context, cache: bool) -> Dataset<(u64, u64)> {
    let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i % 4, i)).collect();
    let m = ctx.parallelize(pairs, 2).map(|&(k, v)| (k, v + 1));
    if cache {
        m.cache();
    }
    let s = m.reduce_by_key(2, |a, b| a + b);
    m.zip_partitions(&s, |a, b| vec![(a.len() as u64, b.len() as u64)])
}

#[test]
fn ba101_recompute_bomb_fires_only_when_uncached() {
    let config = AuditConfig::default();
    let c = ctx();
    let t = bomb(&c, false).id();
    let report = audit_caching(&c.plan().read(), t, &[t], &config);
    assert!(report.has(DiagCode::RecomputeBomb));
    assert!(report.passes(), "warnings must not block");

    // Caching the multiply-consumed dataset silences the bomb entirely: it
    // is read back instead of recomputed, so its upstream lineage no longer
    // multiplies across stages either.
    let c = ctx();
    let t = bomb(&c, true).id();
    let report = audit_caching(&c.plan().read(), t, &[t], &config);
    assert!(!report.has(DiagCode::RecomputeBomb), "{:?}", report.diagnostics);
}

#[test]
fn ba102_cached_but_unreachable() {
    let c = ctx();
    let src = source(&c, 2);
    let used = src.map(|&(k, v)| (k, v + 1)).id();
    let dead = src.map(|&(k, v)| (k, v * 2));
    dead.cache(); // nothing consumes it, and it is not a target
    let dead = dead.id();
    let plan = c.plan().read();
    let config = AuditConfig::default();
    let report = audit_caching(&plan, used, &[used], &config);
    assert!(report.has(DiagCode::UnreachableCache));

    // Being a job target suppresses it (an action reads the cache).
    let report = audit_caching(&plan, dead, &[used, dead], &config);
    assert!(!report.has(DiagCode::UnreachableCache));
}

#[test]
fn ba103_overcommit_tiers_info_then_warning() {
    let c = ctx();
    let cached = source(&c, 2).map(|&(k, v)| (k, v + 1));
    cached.cache();
    let id = cached.id();
    let plan = c.plan().read();
    let mut config = AuditConfig {
        total_memory: Some(ByteSize::from_kib(64)),
        total_disk: Some(ByteSize::from_mib(1)),
        ..AuditConfig::default()
    };
    config.size_estimates.insert(id, ByteSize::from_kib(128));

    // Spill-backed overcommit (fits in memory + disk): informational; this
    // is the paper's normal operating regime.
    let report = audit_caching(&plan, id, &[id], &config);
    let over = report.diagnostics.iter().find(|d| d.code == DiagCode::CacheOvercommit).unwrap();
    assert_eq!(over.severity, Severity::Info);

    // Beyond memory + disk: a warning (silent drops and recompute storms).
    config.size_estimates.insert(id, ByteSize::from_mib(4));
    let report = audit_caching(&plan, id, &[id], &config);
    let over = report.diagnostics.iter().find(|d| d.code == DiagCode::CacheOvercommit).unwrap();
    assert_eq!(over.severity, Severity::Warning);

    // Unknown sizes: no claim is made.
    config.size_estimates.clear();
    assert!(!audit_caching(&plan, id, &[id], &config).has(DiagCode::CacheOvercommit));
}

// ---- Preflight integration -------------------------------------------------

/// Mutation test for the old silent clamp: a negative `ser_factor` set via
/// the user API must reach the plan verbatim and be rejected at preflight
/// with `BA009` (error severity, so it aborts the job), not be quietly
/// rounded up to zero.
#[test]
fn ba009_fires_through_engine_preflight() {
    let config = ClusterConfig { executors: 2, ..Default::default() };
    let cluster = Cluster::new(config, SystemKind::SparkMemOnly.make_controller(None)).unwrap();
    let ctx = Context::new(cluster);
    let ds = ctx.parallelize((0..16u64).collect::<Vec<_>>(), 2).with_ser_factor(-2.0);
    let err = ds.count().unwrap_err();
    match err {
        BlazeError::Audit { code, .. } => assert_eq!(code, "BA009"),
        other => panic!("expected a BA009 audit error, got {other}"),
    }
}

#[test]
fn engine_counts_preflight_warnings_in_metrics() {
    for tracing in [false, true] {
        let config = ClusterConfig { executors: 2, tracing, ..Default::default() };
        let cluster = Cluster::new(config, SystemKind::SparkMemOnly.make_controller(None)).unwrap();
        let ctx = Context::new(cluster.clone());
        bomb(&ctx, false).count().unwrap();
        let m = cluster.metrics();
        assert!(m.audit_warnings >= 1, "expected a BA101 warning, got {}", m.audit_warnings);
        if let Some(trace) = cluster.trace() {
            // The count is the fold of its records.
            let bombs = trace.events().iter().filter(|ev| {
                matches!(ev, TraceEvent::AuditWarning { code: DiagCode::RecomputeBomb, .. })
            });
            assert!(bombs.count() >= 1, "the BA101 warning must be a record");
            assert!(trace.validate().passes());
            assert_eq!(Metrics::from_events(trace.events()), m);
        }
    }

    // The cached variant of the same program is warning-free.
    let config = ClusterConfig { executors: 2, ..Default::default() };
    let cluster = Cluster::new(config, SystemKind::SparkMemOnly.make_controller(None)).unwrap();
    let ctx = Context::new(cluster.clone());
    bomb(&ctx, true).count().unwrap();
    assert_eq!(cluster.metrics().audit_warnings, 0);
}

#[test]
fn audit_job_passes_real_plans() {
    let ctx = ctx();
    let pairs: Vec<(u64, u64)> = (0..64).map(|i| (i % 8, i)).collect();
    let ds = ctx.parallelize(pairs, 4).map(|&(k, v)| (k, v * 2));
    ds.cache();
    let red = ds.reduce_by_key(2, |a, b| a + b);
    red.count().unwrap();
    let plan = ctx.plan().read();
    let report = audit_job(&plan, red.id(), &[red.id()], &AuditConfig::default());
    assert!(
        report.passes(),
        "constructor-built plan must have no errors: {:?}",
        report.diagnostics
    );
}
