//! Layer 1: the per-job preflight over a lineage [`Plan`].
//!
//! The auditor reads the plan it audits ([`Plan::nodes`], [`Plan::node`]):
//! no per-job copy, and every parent lookup is an index. The plan's shape —
//! parents defined before their children, at least one partition,
//! index-aligned narrow dependencies, compute kind agreeing with the
//! dependency kinds — is established once by `Plan::add_node` and not
//! re-checked here. Checks come in three groups:
//!
//! - **Value checks** (`BA005`, `BA006`, `BA009`, errors): the metadata the
//!   `Dataset` setters write after a node exists — partitioner agreement,
//!   finite non-negative cost specs and serialization factors.
//! - **Caching anti-patterns** (`BA1xx`, warnings): datasets consumed by
//!   two or more stages of a job but never cached (the LRC-style
//!   "recompute bomb"), cached datasets nothing can ever read back, and
//!   cache footprints that exceed store capacity.
//! - **Recoverability** (`BA3xx`, only under an active fault plan):
//!   uncached lineage deeper than bounded task retries can replay (error),
//!   and dead or foot-gun degradation knobs (warnings).

use crate::diagnostic::{AuditReport, DiagCode, Diagnostic, Severity};
use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::RddId;
use blaze_common::ByteSize;
use blaze_dataflow::plan::{Plan, RddNode};

/// Inputs of a capacity-aware audit.
#[derive(Debug, Clone, Default)]
pub struct AuditConfig {
    /// Total memory-store capacity across the cluster, when known.
    pub total_memory: Option<ByteSize>,
    /// Total disk-store capacity across the cluster, when known.
    pub total_disk: Option<ByteSize>,
    /// Estimated materialized size per dataset, when observed.
    pub size_estimates: FxHashMap<RddId, ByteSize>,
    /// Maximum uncached lineage depth the engine's bounded retries can
    /// replay under the configured fault plan (see
    /// `FaultPlan::max_recoverable_depth` in `blaze-engine`). `None`
    /// disables the BA301 recoverability check (no fault injection).
    pub recovery_depth_limit: Option<usize>,
    /// True when replaying lineage may have to cross shuffle boundaries
    /// (no external shuffle service: lost map outputs re-run the parent
    /// stage). With the default `false`, shuffle outputs persist and sever
    /// the replayed lineage.
    pub lineage_through_shuffles: bool,
    /// Graceful-degradation knobs of the configured fault plan, when one is
    /// active (`BA302`/`BA303` checks). `None` skips those checks.
    pub degradation: Option<DegradationAuditInput>,
}

/// The slice of an engine fault plan the degradation checks look at
/// (mirrored here so `blaze-audit` does not depend on `blaze-engine`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DegradationAuditInput {
    /// Per-task straggler probability.
    pub straggler_rate: f64,
    /// Charge multiplier applied to straggling tasks.
    pub straggler_slowdown: f64,
    /// Slowdown beyond which a plan without speculation is flagged.
    pub straggler_slowdown_budget: f64,
    /// Whether speculative execution is enabled.
    pub speculation: bool,
    /// Per-spill corruption probability.
    pub spill_corruption_rate: f64,
}

/// Checks the fault plan's degradation knobs for dead or foot-gun
/// configurations (`BA302`, `BA303` — warnings).
pub fn audit_degradation(config: &AuditConfig) -> AuditReport {
    let Some(deg) = &config.degradation else {
        return AuditReport::default();
    };
    let mut diags = Vec::new();
    if deg.straggler_rate > 0.0
        && !deg.speculation
        && deg.straggler_slowdown > deg.straggler_slowdown_budget
    {
        diags.push(Diagnostic::new(
            DiagCode::StragglerBudgetExceeded,
            None,
            format!(
                "stragglers are injected with a {}x slowdown (budget without speculation: \
                 {}x) but speculative execution is disabled",
                deg.straggler_slowdown, deg.straggler_slowdown_budget
            ),
            "enable FaultPlan::speculation or lower straggler_slowdown; tail latency grows \
             linearly with the slowdown"
                .into(),
        ));
    }
    if deg.spill_corruption_rate > 0.0 && config.total_disk == Some(ByteSize::ZERO) {
        diags.push(Diagnostic::new(
            DiagCode::CorruptionWithoutDiskTier,
            None,
            format!(
                "spill_corruption_rate = {} but the disk tier has zero capacity, so nothing \
                 can ever be spilled or corrupted",
                deg.spill_corruption_rate
            ),
            "raise disk_capacity or drop the corruption knob; it is dead configuration".into(),
        ));
    }
    AuditReport::new(diags)
}

/// Checks the values the `Dataset` metadata setters write after a node is
/// built (`BA005`, `BA006`, `BA009` — errors).
pub fn audit_values(plan: &Plan) -> AuditReport {
    let mut diags = Vec::new();
    for node in plan.nodes() {
        if let Some(parts) = node.partitioner.as_ref().map(|p| p.num_partitions()) {
            if parts != node.num_partitions {
                diags.push(Diagnostic::new(
                    DiagCode::PartitionerMismatch,
                    Some(node.id),
                    format!(
                        "dataset '{}' declares a {parts}-bucket partitioner but has {} partitions",
                        node.name, node.num_partitions
                    ),
                    "drop the partitioner claim or repartition; co-partitioned joins would \
                     misroute keys"
                        .into(),
                ));
            }
        }
        for (name, v) in [
            ("fixed_ns", node.cost.fixed_ns),
            ("ns_per_elem", node.cost.ns_per_elem),
            ("ns_per_byte", node.cost.ns_per_byte),
        ] {
            if !v.is_finite() || v < 0.0 {
                diags.push(Diagnostic::new(
                    DiagCode::InvalidCostSpec,
                    Some(node.id),
                    format!("dataset '{}' has {name} = {v}", node.name),
                    "cost components must be finite and non-negative; the cost model and the \
                     ILP objective would be poisoned"
                        .into(),
                ));
            }
        }
        if !node.ser_factor.is_finite() || node.ser_factor < 0.0 {
            diags.push(Diagnostic::new(
                DiagCode::NegativeSerFactor,
                Some(node.id),
                format!("dataset '{}' has ser_factor = {}", node.name, node.ser_factor),
                "serialization factors must be finite and non-negative; (de)serialization \
                 times scale linearly with the factor and would go negative"
                    .into(),
            ));
        }
    }
    AuditReport::new(diags)
}

/// A dataset's position in [`Plan::nodes`] (ids are assigned densely).
fn ix(id: RddId) -> usize {
    id.raw() as usize
}

/// True for a cache annotation that has not been unpersisted.
fn live_annotation(node: &RddNode) -> bool {
    node.cache_annotated && !node.unpersist_requested
}

/// How many stages of the job for `target` compute each dataset (indexed
/// by id), mirroring the planner's shuffle-boundary splitting.
///
/// Cache-annotated interior nodes terminate a stage's walk: a stage that
/// reads a cached dataset reads it back instead of recomputing its lineage,
/// so the lineage above the annotation does not multiply across consuming
/// stages. A cached *stage output* is still walked — it must be computed
/// once.
///
/// The annotation counts even when an unpersist was requested later:
/// unpersist is a temporal event (the data was resident while the jobs that
/// needed it ran), and this decomposition is also replayed retrospectively
/// over finished plans where every stale iteration has been unpersisted.
fn stage_counts(plan: &Plan, target: RddId) -> Vec<usize> {
    let nodes = plan.nodes();
    let mut counts = vec![0usize; nodes.len()];
    // The stage (numbered from 1) that last walked each dataset; 0 = none.
    let mut walked_by = vec![0usize; nodes.len()];
    let mut planned = vec![false; nodes.len()];
    let mut pending = vec![target];
    let mut stage = 0;
    while let Some(output) = pending.pop() {
        let Ok(out) = plan.node(output) else { continue };
        if std::mem::replace(&mut planned[ix(output)], true) {
            continue;
        }
        stage += 1;
        let mut stack = vec![out];
        while let Some(node) = stack.pop() {
            let i = ix(node.id);
            if std::mem::replace(&mut walked_by[i], stage) == stage {
                continue;
            }
            counts[i] += 1;
            if node.id != output && node.cache_annotated {
                continue;
            }
            for dep in &node.deps {
                if dep.is_shuffle() {
                    pending.push(dep.parent());
                } else {
                    stack.push(&nodes[ix(dep.parent())]);
                }
            }
        }
    }
    counts
}

/// Detects caching anti-patterns (`BA1xx`) for the job materializing
/// `target`.
///
/// `job_targets` is every action target submitted so far (including this
/// one); it suppresses the unreachable-cache check for datasets that jobs
/// read directly.
pub fn audit_caching(
    plan: &Plan,
    target: RddId,
    job_targets: &[RddId],
    config: &AuditConfig,
) -> AuditReport {
    let nodes = plan.nodes();
    let mut diags = Vec::new();

    // BA101 — recompute bomb: a dataset appearing in >= 2 stages of this
    // job is recomputed once per consuming stage unless cached (shuffle
    // outputs persist, so shuffle boundaries do not multiply work).
    for (node, count) in nodes.iter().zip(stage_counts(plan, target)) {
        if count < 2 || node.cache_annotated {
            continue;
        }
        diags.push(Diagnostic::new(
            DiagCode::RecomputeBomb,
            Some(node.id),
            format!(
                "dataset '{}' feeds {count} stages of the job for {target} but is not cached; \
                 each stage recomputes its lineage",
                node.name
            ),
            "cache() the dataset (or the nearest shuffle output above it)".into(),
        ));
    }

    // BA102 — cached but unreachable: an annotation nothing can read back.
    let mut consumed = vec![false; nodes.len()];
    for node in nodes {
        for dep in &node.deps {
            consumed[ix(dep.parent())] = true;
        }
    }
    for node in nodes {
        if live_annotation(node) && !consumed[ix(node.id)] && !job_targets.contains(&node.id) {
            diags.push(Diagnostic::new(
                DiagCode::UnreachableCache,
                Some(node.id),
                format!(
                    "dataset '{}' is cache-annotated but no operator or job reads it",
                    node.name
                ),
                "drop the cache() annotation or unpersist(); the entry only occupies store \
                 space"
                    .into(),
            ));
        }
    }

    // BA103 — cache overcommit: the live annotated footprint cannot fit.
    // Exceeding memory alone is the paper's normal (spill-backed) operating
    // regime and reports as info; exceeding memory + disk means silent
    // drops and recompute storms, and reports as a warning.
    if let Some(total_memory) = config.total_memory {
        let mut annotated_bytes = ByteSize::ZERO;
        let mut estimated_all = true;
        for node in nodes.iter().filter(|n| live_annotation(n)) {
            match config.size_estimates.get(&node.id) {
                Some(sz) => annotated_bytes += *sz,
                None => estimated_all = false,
            }
        }
        if estimated_all && annotated_bytes > total_memory {
            let beyond_disk =
                config.total_disk.is_some_and(|disk| annotated_bytes > total_memory + disk);
            let severity = if beyond_disk { Severity::Warning } else { Severity::Info };
            let mut d = Diagnostic::new(
                DiagCode::CacheOvercommit,
                None,
                format!(
                    "cache annotations request ~{annotated_bytes} but total memory-store \
                     capacity is {total_memory}{}",
                    if beyond_disk { " and the disk tier cannot absorb the spill" } else { "" }
                ),
                "unpersist() finished datasets or raise memory_capacity; admissions will \
                 spill or thrash"
                    .into(),
            );
            d.severity = severity;
            diags.push(d);
        }
    }

    AuditReport::new(diags)
}

/// Checks that every dataset the job for `target` touches can be rebuilt
/// within the fault plan's retry budget (`BA301`).
///
/// A task attempt replays lineage from the nearest anchor downward: cached
/// (annotated, not unpersisted) datasets and — with a surviving external
/// shuffle service — shuffle outputs both anchor the replay at depth zero.
/// The worst-case replay depth of each reachable dataset is a simple
/// recurrence over the id-ordered DAG; if it exceeds
/// [`AuditConfig::recovery_depth_limit`], one injected failure could strand
/// the job re-deriving more lineage than its retries can absorb.
pub fn audit_recovery(plan: &Plan, target: RddId, config: &AuditConfig) -> AuditReport {
    let Some(limit) = config.recovery_depth_limit else {
        return AuditReport::default();
    };
    let nodes = plan.nodes();

    // Depth recurrence in id order (parents always precede children).
    let mut depth = vec![0usize; nodes.len()];
    for node in nodes {
        let mut above = 0usize;
        for dep in &node.deps {
            if dep.is_shuffle() && !config.lineage_through_shuffles {
                continue; // Shuffle outputs persist: replay stops here.
            }
            let parent = ix(dep.parent());
            if live_annotation(&nodes[parent]) {
                continue; // Cached parent: read back, not re-derived.
            }
            above = above.max(depth[parent]);
        }
        depth[ix(node.id)] = above + 1;
    }

    // Restrict to datasets the job actually executes (the full lineage
    // cone of `target`, crossing every dependency kind).
    let mut reachable = vec![false; nodes.len()];
    let mut stack = vec![target];
    while let Some(cur) = stack.pop() {
        let Ok(node) = plan.node(cur) else { continue };
        if !std::mem::replace(&mut reachable[ix(cur)], true) {
            stack.extend(node.parent_ids());
        }
    }

    let mut worst: Option<&RddNode> = None;
    for node in nodes.iter().filter(|n| reachable[ix(n.id)]) {
        let d = depth[ix(node.id)];
        if d > limit && worst.is_none_or(|w| d > depth[ix(w.id)]) {
            worst = Some(node);
        }
    }
    let Some(node) = worst else {
        return AuditReport::default();
    };
    let (name, d) = (&node.name, depth[ix(node.id)]);
    AuditReport::new(vec![Diagnostic::new(
        DiagCode::UnrecoverableLineage,
        Some(node.id),
        format!(
            "dataset '{name}' has an uncached lineage replay depth of {d}, beyond the {limit} \
             the fault plan's bounded retries can recover"
        ),
        "cache() an intermediate dataset to anchor recovery, or raise max_task_retries".into(),
    )])
}

/// Full preflight for one job: value checks plus caching anti-patterns
/// (and, under an active fault plan, recoverability and the degradation
/// knobs).
pub fn audit_job(
    plan: &Plan,
    target: RddId,
    job_targets: &[RddId],
    config: &AuditConfig,
) -> AuditReport {
    let mut diags = audit_values(plan).diagnostics;
    diags.extend(audit_caching(plan, target, job_targets, config).diagnostics);
    diags.extend(audit_recovery(plan, target, config).diagnostics);
    diags.extend(audit_degradation(config).diagnostics);
    AuditReport::new(diags)
}

/// Retrospective whole-application audit: value checks plus caching
/// anti-patterns for every job target submitted over the application's
/// lifetime.
pub fn audit_application(plan: &Plan, job_targets: &[RddId], config: &AuditConfig) -> AuditReport {
    let mut diags = audit_values(plan).diagnostics;
    for &target in job_targets {
        for d in audit_caching(plan, target, job_targets, config)
            .diagnostics
            .into_iter()
            .chain(audit_recovery(plan, target, config).diagnostics)
        {
            if !diags.contains(&d) {
                diags.push(d);
            }
        }
    }
    AuditReport::new(diags)
}
