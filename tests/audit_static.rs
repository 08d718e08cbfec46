//! The plan-auditor test suite: one test per diagnostic code, strict-mode
//! promotion, and the engine/runner preflight integration.
//!
//! Structural checks (`BA0xx`) are exercised on fabricated [`AuditNode`]
//! views — `Plan::add_node` would (rightly) refuse to build most of these
//! shapes, and the auditor exists precisely to guard plan sources the
//! constructor cannot.

use blaze::audit::plan_audit::{
    audit_caching, audit_job, audit_structure, extract, AuditConfig, AuditDep, AuditNode,
    ComputeKind,
};
use blaze::audit::{DiagCode, Severity};
use blaze::common::{BlazeError, ByteSize, RddId};
use blaze::dataflow::{runner::LocalRunner, Context, CostSpec};
use blaze::engine::{Cluster, ClusterConfig, TraceEvent};
use blaze::workloads::SystemKind;

fn node(id: u32, parts: usize, deps: Vec<AuditDep>, kind: ComputeKind) -> AuditNode {
    AuditNode {
        id: RddId(id),
        name: format!("n{id}"),
        num_partitions: parts,
        deps,
        kind,
        cost: CostSpec::FREE,
        ser_factor: 1.0,
        partitioner_partitions: None,
        cache_annotated: false,
        unpersist_requested: false,
    }
}

fn narrow(parent: u32) -> AuditDep {
    AuditDep { parent: RddId(parent), shuffle: false }
}

fn shuffle(parent: u32) -> AuditDep {
    AuditDep { parent: RddId(parent), shuffle: true }
}

// ---- BA0xx structural invariants ------------------------------------------

#[test]
fn ba001_forward_reference_is_a_cycle() {
    let nodes = vec![
        node(0, 2, vec![narrow(1)], ComputeKind::Narrow), // depends on a later id
        node(1, 2, vec![narrow(0)], ComputeKind::Narrow),
    ];
    let report = audit_structure(&nodes);
    assert!(report.has(DiagCode::CycleOrForwardRef));
    assert!(!report.passes());
}

#[test]
fn ba002_dangling_parent() {
    let nodes = vec![
        node(0, 2, vec![], ComputeKind::Source),
        node(1, 2, vec![narrow(9)], ComputeKind::Narrow),
    ];
    let report = audit_structure(&nodes);
    assert!(report.has(DiagCode::DanglingParent));
    assert_eq!(report.errors().count(), 1);
}

#[test]
fn ba003_zero_partitions() {
    let nodes = vec![node(0, 0, vec![], ComputeKind::Source)];
    assert!(audit_structure(&nodes).has(DiagCode::ZeroPartitions));
}

#[test]
fn ba004_narrow_partition_mismatch() {
    let nodes = vec![
        node(0, 4, vec![], ComputeKind::Source),
        node(1, 2, vec![narrow(0)], ComputeKind::Narrow), // 2 != 4
    ];
    let report = audit_structure(&nodes);
    assert!(report.has(DiagCode::NarrowPartitionMismatch));
    // A matching pair is clean.
    let ok = vec![
        node(0, 4, vec![], ComputeKind::Source),
        node(1, 4, vec![narrow(0)], ComputeKind::Narrow),
    ];
    assert!(audit_structure(&ok).is_clean());
}

#[test]
fn ba005_partitioner_disagrees_with_partition_count() {
    let mut n = node(0, 4, vec![], ComputeKind::Source);
    n.partitioner_partitions = Some(8);
    assert!(audit_structure(&[n]).has(DiagCode::PartitionerMismatch));
    let mut ok = node(0, 4, vec![], ComputeKind::Source);
    ok.partitioner_partitions = Some(4);
    assert!(audit_structure(&[ok]).is_clean());
}

#[test]
fn ba006_invalid_cost_spec() {
    for bad in [f64::NAN, f64::INFINITY, -1.0] {
        let mut n = node(0, 1, vec![], ComputeKind::Source);
        n.cost = CostSpec { fixed_ns: bad, ..CostSpec::FREE };
        assert!(audit_structure(&[n]).has(DiagCode::InvalidCostSpec), "cost {bad} not flagged");
    }
}

#[test]
fn ba007_compute_shape_mismatches() {
    // Source with a dependency.
    let nodes = vec![
        node(0, 1, vec![], ComputeKind::Source),
        node(1, 1, vec![narrow(0)], ComputeKind::Source),
    ];
    assert!(audit_structure(&nodes).has(DiagCode::ComputeShapeMismatch));
    // Operator with no dependency.
    assert!(audit_structure(&[node(0, 1, vec![], ComputeKind::Narrow)])
        .has(DiagCode::ComputeShapeMismatch));
    // Narrow compute reading a shuffle.
    let nodes = vec![
        node(0, 1, vec![], ComputeKind::Source),
        node(1, 1, vec![shuffle(0)], ComputeKind::Narrow),
    ];
    assert!(audit_structure(&nodes).has(DiagCode::ComputeShapeMismatch));
    // Shuffle aggregation with a narrow dependency.
    let nodes = vec![
        node(0, 1, vec![], ComputeKind::Source),
        node(1, 1, vec![narrow(0)], ComputeKind::ShuffleAgg),
    ];
    assert!(audit_structure(&nodes).has(DiagCode::ComputeShapeMismatch));
}

// ---- BA1xx caching anti-patterns ------------------------------------------

/// src -> m (map) -> s (shuffle agg); t consumes both m and s narrowly, so
/// m and src are members of two stages of t's job: the recompute bomb.
fn bomb_nodes(cache_m: bool) -> Vec<AuditNode> {
    let mut m = node(1, 2, vec![narrow(0)], ComputeKind::Narrow);
    m.cache_annotated = cache_m;
    vec![
        node(0, 2, vec![], ComputeKind::Source),
        m,
        node(2, 2, vec![shuffle(1)], ComputeKind::ShuffleAgg),
        node(3, 2, vec![narrow(1), narrow(2)], ComputeKind::Narrow),
    ]
}

#[test]
fn ba101_recompute_bomb_fires_only_when_uncached() {
    let config = AuditConfig::default();
    let report = audit_caching(&bomb_nodes(false), RddId(3), &[RddId(3)], &config);
    assert!(report.has(DiagCode::RecomputeBomb));
    assert!(report.passes(), "warnings must not block by default");

    // Caching the multiply-consumed dataset silences the bomb entirely: it
    // is read back instead of recomputed, so its upstream lineage no longer
    // multiplies across stages either.
    let report = audit_caching(&bomb_nodes(true), RddId(3), &[RddId(3)], &config);
    assert!(!report.has(DiagCode::RecomputeBomb), "{:?}", report.diagnostics);
}

#[test]
fn ba102_cached_but_unreachable() {
    let mut dead = node(2, 2, vec![narrow(0)], ComputeKind::Narrow);
    dead.cache_annotated = true; // nothing consumes node 2, and it is not a target
    let nodes = vec![
        node(0, 2, vec![], ComputeKind::Source),
        node(1, 2, vec![narrow(0)], ComputeKind::Narrow),
        dead,
    ];
    let config = AuditConfig::default();
    let report = audit_caching(&nodes, RddId(1), &[RddId(1)], &config);
    assert!(report.has(DiagCode::UnreachableCache));

    // Being a job target suppresses it (an action reads the cache).
    let report = audit_caching(&nodes, RddId(2), &[RddId(1), RddId(2)], &config);
    assert!(!report.has(DiagCode::UnreachableCache));
}

#[test]
fn ba103_overcommit_tiers_info_then_warning() {
    let mut cached = node(1, 2, vec![narrow(0)], ComputeKind::Narrow);
    cached.cache_annotated = true;
    let nodes = vec![node(0, 2, vec![], ComputeKind::Source), cached];
    let mut config = AuditConfig {
        total_memory: Some(ByteSize::from_kib(64)),
        total_disk: Some(ByteSize::from_mib(1)),
        ..AuditConfig::default()
    };
    config.size_estimates.insert(RddId(1), ByteSize::from_kib(128));

    // Spill-backed overcommit (fits in memory + disk): informational; this
    // is the paper's normal operating regime.
    let report = audit_caching(&nodes, RddId(1), &[RddId(1)], &config);
    let over = report.diagnostics.iter().find(|d| d.code == DiagCode::CacheOvercommit).unwrap();
    assert_eq!(over.severity, Severity::Info);

    // Beyond memory + disk: a warning (silent drops and recompute storms).
    config.size_estimates.insert(RddId(1), ByteSize::from_mib(4));
    let report = audit_caching(&nodes, RddId(1), &[RddId(1)], &config);
    let over = report.diagnostics.iter().find(|d| d.code == DiagCode::CacheOvercommit).unwrap();
    assert_eq!(over.severity, Severity::Warning);

    // Unknown sizes: no claim is made.
    config.size_estimates.clear();
    assert!(!audit_caching(&nodes, RddId(1), &[RddId(1)], &config).has(DiagCode::CacheOvercommit));
}

#[test]
fn strict_mode_promotes_warnings_to_errors() {
    let config = AuditConfig { strict: true, ..AuditConfig::default() };
    let report = audit_caching(&bomb_nodes(false), RddId(3), &[RddId(3)], &config);
    assert!(report.has(DiagCode::RecomputeBomb));
    assert!(!report.passes(), "strict mode must block on warnings");
}

// ---- Preflight integration -------------------------------------------------

/// Builds the recompute-bomb shape through the real dataflow API: `m` feeds
/// a shuffle and is also zipped (narrow) with that shuffle's output, so the
/// result stage re-walks `m`'s lineage.
fn drive_bomb(ctx: &Context, cache: bool) -> blaze::common::Result<u64> {
    let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i % 4, i)).collect();
    let m = ctx.parallelize(pairs, 2).map(|&(k, v)| (k, v + 1));
    if cache {
        m.cache();
    }
    let s = m.reduce_by_key(2, |a, b| a + b);
    let t = m.zip_partitions(&s, |a, b| vec![(a.len() as u64, b.len() as u64)]);
    t.count()
}

#[test]
fn ba009_negative_ser_factor() {
    for bad in [-1.0, -0.001, f64::NAN, f64::NEG_INFINITY] {
        let mut n = node(0, 1, vec![], ComputeKind::Source);
        n.ser_factor = bad;
        assert!(
            audit_structure(&[n]).has(DiagCode::NegativeSerFactor),
            "ser_factor {bad} not flagged"
        );
    }
    let mut ok = node(0, 1, vec![], ComputeKind::Source);
    ok.ser_factor = 0.0;
    assert!(audit_structure(&[ok]).is_clean());
}

/// Mutation test for the old silent clamp: a negative `ser_factor` set via
/// the user API must reach the plan verbatim and be rejected at preflight
/// with `BA009` (error severity, so it aborts even without strict mode),
/// not be quietly rounded up to zero.
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
        drive_bomb(&ctx, false).unwrap();
        let m = cluster.metrics();
        assert!(m.audit_warnings >= 1, "expected a BA101 warning, got {}", m.audit_warnings);
        if let Some(trace) = cluster.trace() {
            // The count is the fold of its records.
            let bombs = trace.events().iter().filter(|ev| {
                matches!(ev, TraceEvent::AuditWarning { code: DiagCode::RecomputeBomb, .. })
            });
            assert!(bombs.count() >= 1, "the BA101 warning must be a record");
            assert!(trace.validate(&m).passes());
        }
    }

    // The cached variant of the same program is warning-free.
    let config = ClusterConfig { executors: 2, ..Default::default() };
    let cluster = Cluster::new(config, SystemKind::SparkMemOnly.make_controller(None)).unwrap();
    let ctx = Context::new(cluster.clone());
    drive_bomb(&ctx, true).unwrap();
    assert_eq!(cluster.metrics().audit_warnings, 0);
}

#[test]
fn engine_strict_audit_aborts_on_warning() {
    let config = ClusterConfig { executors: 2, strict_audit: true, ..Default::default() };
    let cluster = Cluster::new(config, SystemKind::SparkMemOnly.make_controller(None)).unwrap();
    let ctx = Context::new(cluster);
    let err = drive_bomb(&ctx, false).unwrap_err();
    match err {
        BlazeError::Audit { code, .. } => assert_eq!(code, "BA101"),
        other => panic!("expected an audit error, got {other}"),
    }

    // The fixed program runs under strict mode.
    let config = ClusterConfig { executors: 2, strict_audit: true, ..Default::default() };
    let cluster = Cluster::new(config, SystemKind::SparkMemOnly.make_controller(None)).unwrap();
    let ctx = Context::new(cluster);
    assert!(drive_bomb(&ctx, true).is_ok());
}

#[test]
fn local_runner_preflight_hook_audits_jobs() {
    // Strict preflight on the reference runner rejects the bomb...
    let runner = LocalRunner::new().with_preflight(blaze::audit::preflight(true));
    let ctx = Context::new(runner);
    assert!(matches!(drive_bomb(&ctx, false), Err(BlazeError::Audit { .. })));

    // ...and passes clean programs; non-strict passes both.
    let runner = LocalRunner::new().with_preflight(blaze::audit::preflight(true));
    let ctx = Context::new(runner);
    assert!(drive_bomb(&ctx, true).is_ok());
    let runner = LocalRunner::new().with_preflight(blaze::audit::preflight(false));
    let ctx = Context::new(runner);
    assert!(drive_bomb(&ctx, false).is_ok());
}

#[test]
fn audit_job_passes_real_plans() {
    let ctx = Context::new(LocalRunner::new());
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
    // The extracted view mirrors the plan node-for-node.
    assert_eq!(extract(&plan).len(), plan.iter().count());
}
