//! The CostLineage: the paper's central data structure (§5.3).
//!
//! A CostLineage mirrors the workload's lineage DAG with per-partition cost
//! metrics attached: the partition's size, the time to compute it from its
//! direct inputs (`cost_{k->i}` of Eq. 4), and its current state (memory,
//! disk, or nowhere). It is seeded by the dependency-extraction phase and
//! continuously updated with runtime observations; metrics for partitions
//! not yet observed are filled in by inductive regression over congruent
//! partitions of earlier iterations ([`crate::induct`]).
//!
//! On duplicate-RDD merging: in Spark, each iteration's job re-submits
//! overlapping RDD graphs and CostLineage merges duplicate datasets by id
//! (paper Fig. 8). Our dataflow layer allocates one node per logical RDD in
//! a single shared plan, so merging is inherent; the "merge" step here is
//! the incremental absorption of newly appended plan nodes at each job
//! submission. Because RDD ids are assigned in program order, a profiling
//! run that executes the same driver code path yields the *same ids*, which
//! is what lets profiled metrics align with the runtime plan.

use blaze_audit::{AuditReport, DiagCode, Diagnostic};
use blaze_common::ids::{BlockId, ExecutorId, JobId, RddId};
use blaze_common::{ByteSize, SimDuration};
use blaze_dataflow::Plan;
use blaze_engine::{Residency, StoreTier};
use std::collections::BTreeSet;

/// Where a partition currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionState {
    /// Not materialized anywhere persistent (recompute on access).
    #[default]
    None,
    /// Cached in an executor's memory store.
    Memory(ExecutorId),
    /// Cached in an executor's memory store in serialized (packed) form:
    /// smaller footprint, but every access pays a deserialization charge
    /// (the `s_i = 1` state of the enlarged m/s/d/u decision space).
    SerializedMemory(ExecutorId),
    /// Spilled to an executor's disk store.
    Disk(ExecutorId),
}

impl PartitionState {
    /// True if the partition occupies a memory store (deserialized `m_i = 1`
    /// or serialized `s_i = 1` — both consume memory-store capacity).
    pub fn in_memory(self) -> bool {
        matches!(self, PartitionState::Memory(_) | PartitionState::SerializedMemory(_))
    }

    /// True if the partition is in the serialized in-memory tier only.
    pub fn serialized(self) -> bool {
        matches!(self, PartitionState::SerializedMemory(_))
    }

    /// True if the partition is on disk (the `d_i = 1` state).
    pub fn on_disk(self) -> bool {
        matches!(self, PartitionState::Disk(_))
    }

    /// The executor holding the partition, if any.
    pub fn executor(self) -> Option<ExecutorId> {
        match self {
            PartitionState::None => None,
            PartitionState::Memory(e)
            | PartitionState::SerializedMemory(e)
            | PartitionState::Disk(e) => Some(e),
        }
    }
}

/// Observed (or inducted) metrics of one partition.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartitionMetrics {
    /// Materialized size, if ever observed.
    pub size: Option<ByteSize>,
    /// Time to compute from direct inputs (one lineage edge), if observed.
    pub edge_compute: Option<SimDuration>,
    /// Current state.
    pub state: PartitionState,
}

/// One dataset node in the CostLineage.
#[derive(Debug, Clone)]
pub struct LineageNode {
    /// The mirrored RDD.
    pub rdd: RddId,
    /// Operator name (for reports).
    pub name: String,
    /// Direct parents.
    pub parents: Vec<RddId>,
    /// True if this node reads a shuffle (recomputation re-fetches shuffle
    /// outputs instead of re-running the upstream stage).
    pub is_shuffle: bool,
    /// Serialization factor of the element type.
    pub ser_factor: f64,
    /// Per-partition metrics.
    pub parts: Vec<PartitionMetrics>,
    /// How many of `parts` are resident (in memory or on disk).
    resident: u32,
    /// Index of this node's partition 0 in the lineage's per-block flags.
    first_block: u32,
}

/// The cost-annotated lineage of the whole application.
///
/// Every table is indexed by the dense program-order ids: `nodes[i]` mirrors
/// `RddId(i)` and a block's metrics sit at `nodes[rdd].parts[partition]`.
#[derive(Debug, Default)]
pub struct CostLineage {
    nodes: Vec<LineageNode>,
    /// Submitted job targets, in order (profiled first, then observed).
    job_targets: Vec<RddId>,
    /// Index of the currently running job within `job_targets`.
    current_job: usize,
    /// True once the runtime diverged from a profiled job sequence.
    diverged: bool,
    /// Reverse lineage edges restricted to *narrow* children. `cost_r` of a
    /// shuffle child never recurses into its parents (it re-fetches shuffle
    /// outputs, Eq. 4), so a parent's metric/state change can only affect the
    /// recovery cost of its narrow descendants — and narrow dependencies are
    /// partition-aligned, so the change stays on the same partition index.
    /// Indexed by the parent's id, like `nodes`.
    narrow_children: Vec<Vec<RddId>>,
    /// Plan-length watermark: nodes at indices below this are absorbed, so
    /// [`Self::merge_plan`] only walks newly appended nodes (ids are dense
    /// and assigned in program order).
    absorbed: usize,
    /// Sorted residency index of all blocks in [`PartitionState::Memory`].
    in_memory: BTreeSet<BlockId>,
    /// Sorted residency index of all blocks in [`PartitionState::Disk`].
    on_disk: BTreeSet<BlockId>,
    /// RDDs with at least one resident block (a non-zero
    /// [`LineageNode`] resident count), in id order.
    resident_rdds: BTreeSet<RddId>,
    /// Blocks whose metrics or state changed since the last
    /// [`Self::take_dirty`] drain, in first-touched order.
    dirty: Vec<BlockId>,
    /// One flag per block, set while the block is listed in `dirty`. Every
    /// node's partitions are contiguous, from its `first_block`.
    listed: Vec<bool>,
    /// Bumped whenever any metric observation changes. Cached costs derived
    /// from *inducted* (unobserved) metrics may depend on congruent blocks
    /// anywhere in the lineage, so they are only valid within one revision.
    metrics_rev: u64,
}

impl CostLineage {
    /// Creates an empty CostLineage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs every node of `plan` not yet mirrored (duplicate merging is
    /// by-id: already-known nodes keep their accumulated metrics).
    ///
    /// Plans are append-only with dense program-order ids, so absorption is
    /// O(new nodes): everything below the watermark was merged by an earlier
    /// call (or seeded by profiling, which assigns the same ids).
    pub fn merge_plan(&mut self, plan: &Plan) {
        for node in plan.iter().skip(self.absorbed) {
            // Nodes at or above the watermark are either known from profiling
            // (same id) or the next id to mirror.
            if node.id.raw() as usize == self.nodes.len() {
                self.nodes.push(LineageNode {
                    rdd: node.id,
                    name: node.name.clone(),
                    parents: node.deps.iter().map(|d| d.parent()).collect(),
                    is_shuffle: node.is_shuffle(),
                    ser_factor: node.ser_factor,
                    parts: vec![PartitionMetrics::default(); node.num_partitions],
                    resident: 0,
                    first_block: self.listed.len() as u32,
                });
                self.narrow_children.push(Vec::new());
                self.listed.resize(self.listed.len() + node.num_partitions, false);
            }
            if !node.is_shuffle() {
                for dep in &node.deps {
                    let children = &mut self.narrow_children[dep.parent().raw() as usize];
                    if !children.contains(&node.id) {
                        children.push(node.id);
                    }
                }
            }
        }
        self.absorbed = self.absorbed.max(plan.len());
    }

    /// Records a submitted job target; returns its index in the sequence.
    ///
    /// If the target was already known from profiling (same id at the next
    /// position), the position simply advances.
    pub fn observe_job(&mut self, _job: JobId, target: RddId) -> usize {
        if self.current_job < self.job_targets.len() && self.job_targets[self.current_job] == target
        {
            let idx = self.current_job;
            self.current_job += 1;
            return idx;
        }
        // Diverged from (or ran past) the profiled sequence: truncate and
        // append the observed target.
        if self.current_job < self.job_targets.len() {
            self.diverged = true;
        }
        self.job_targets.truncate(self.current_job);
        self.job_targets.push(target);
        self.current_job += 1;
        self.current_job - 1
    }

    /// Seeds the job sequence from a dependency-extraction run (§5.1 ①).
    pub fn seed_job_targets(&mut self, targets: Vec<RddId>) {
        self.job_targets = targets;
        self.current_job = 0;
        self.diverged = false;
    }

    /// True once the runtime diverged from a profiled job sequence.
    pub fn diverged(&self) -> bool {
        self.diverged
    }

    /// The recorded/predicted job-target sequence.
    pub fn job_targets(&self) -> &[RddId] {
        &self.job_targets
    }

    /// Looks up a node.
    pub fn node(&self, rdd: RddId) -> Option<&LineageNode> {
        self.nodes.get(rdd.raw() as usize)
    }

    /// Number of mirrored datasets.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no datasets are mirrored.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over all nodes in id order (the order the plan assigned
    /// them, so parents come before their children).
    pub fn iter(&self) -> impl Iterator<Item = &LineageNode> {
        self.nodes.iter()
    }

    fn part_mut(&mut self, id: BlockId) -> Option<&mut PartitionMetrics> {
        self.nodes.get_mut(id.rdd.raw() as usize)?.parts.get_mut(id.partition as usize)
    }

    /// Index of a known block's flag in `listed`.
    fn flag(&self, id: BlockId) -> usize {
        self.nodes[id.rdd.raw() as usize].first_block as usize + id.partition as usize
    }

    fn mark_dirty(&mut self, id: BlockId) {
        let flag = self.flag(id);
        if !std::mem::replace(&mut self.listed[flag], true) {
            self.dirty.push(id);
        }
    }

    /// Records an observed partition size and edge-compute time.
    pub fn record_metrics(&mut self, id: BlockId, size: ByteSize, edge_compute: SimDuration) {
        if let Some(p) = self.part_mut(id) {
            if p.size == Some(size) && p.edge_compute == Some(edge_compute) {
                return;
            }
            p.size = Some(size);
            p.edge_compute = Some(edge_compute);
            self.metrics_rev += 1;
            self.mark_dirty(id);
        }
    }

    /// Updates a partition's state.
    pub fn set_state(&mut self, id: BlockId, state: PartitionState) {
        let Some(node) = self.nodes.get_mut(id.rdd.raw() as usize) else { return };
        let Some(p) = node.parts.get_mut(id.partition as usize) else { return };
        let old = std::mem::replace(&mut p.state, state);
        if old == state {
            return;
        }
        match (old, state) {
            (PartitionState::None, _) => {
                node.resident += 1;
                self.resident_rdds.insert(id.rdd);
            }
            (_, PartitionState::None) => {
                node.resident -= 1;
                if node.resident == 0 {
                    self.resident_rdds.remove(&id.rdd);
                }
            }
            _ => {}
        }
        if old.in_memory() {
            self.in_memory.remove(&id);
        } else if old.on_disk() {
            self.on_disk.remove(&id);
        }
        if state.in_memory() {
            self.in_memory.insert(id);
        } else if state.on_disk() {
            self.on_disk.insert(id);
        }
        self.mark_dirty(id);
    }

    /// Drains the set of blocks whose metrics or state changed since the
    /// last drain, in first-touched order. Cached recovery costs of these
    /// blocks *and their narrow descendants on the same partition* (see
    /// [`Self::narrow_children`]) are stale.
    pub fn take_dirty(&mut self) -> Vec<BlockId> {
        let dirty = std::mem::take(&mut self.dirty);
        for &id in &dirty {
            let flag = self.flag(id);
            self.listed[flag] = false;
        }
        dirty
    }

    /// Narrow (partition-aligned, non-shuffle) children of `rdd`, in plan
    /// order. Shuffle children are excluded because their recovery cost
    /// never recurses into parents.
    pub fn narrow_children(&self, rdd: RddId) -> &[RddId] {
        self.narrow_children.get(rdd.raw() as usize).map_or(&[], Vec::as_slice)
    }

    /// Revision counter bumped on every metric change; cached costs derived
    /// from inducted metrics are valid only within one revision.
    pub fn metrics_rev(&self) -> u64 {
        self.metrics_rev
    }

    /// Returns a partition's metrics, if the node is known.
    pub fn metrics(&self, id: BlockId) -> Option<&PartitionMetrics> {
        self.node(id.rdd)?.parts.get(id.partition as usize)
    }

    /// Returns a partition's current state (`None` when unknown).
    pub fn state(&self, id: BlockId) -> PartitionState {
        self.metrics(id).map(|m| m.state).unwrap_or_default()
    }

    /// Observed size of a partition, if any.
    pub fn observed_size(&self, id: BlockId) -> Option<ByteSize> {
        self.metrics(id).and_then(|m| m.size)
    }

    /// Observed edge-compute time of a partition, if any.
    pub fn observed_edge_compute(&self, id: BlockId) -> Option<SimDuration> {
        self.metrics(id).and_then(|m| m.edge_compute)
    }

    /// All blocks currently believed to be in memory, sorted by id.
    ///
    /// Served from a residency index maintained by [`Self::set_state`], so
    /// this is O(cached blocks) rather than a scan of every partition.
    pub fn blocks_in_memory(&self) -> Vec<(BlockId, ByteSize)> {
        self.in_memory.iter().map(|&id| (id, self.indexed_size(id))).collect()
    }

    fn indexed_size(&self, id: BlockId) -> ByteSize {
        self.observed_size(id).unwrap_or(ByteSize::ZERO)
    }

    /// Every RDD with a block in memory or on disk, in id order.
    ///
    /// Served from an index [`Self::set_state`] maintains with a per-RDD
    /// count of resident blocks, so this is O(resident RDDs).
    pub fn resident_rdds(&self) -> impl Iterator<Item = RddId> + '_ {
        self.resident_rdds.iter().copied()
    }

    /// Debug check: the residency indexes and the per-RDD resident counts
    /// must agree with a full scan of the per-partition states (used by the
    /// differential tests).
    pub fn residency_consistent(&self) -> bool {
        let held =
            |n: &LineageNode| n.parts.iter().filter(|p| p.state != PartitionState::None).count();
        let counts_agree = self.nodes.iter().all(|n| held(n) == n.resident as usize);
        let resident_rdds: BTreeSet<RddId> =
            self.nodes.iter().filter(|n| n.resident > 0).map(|n| n.rdd).collect();
        let scan = |class: fn(PartitionState) -> bool| -> BTreeSet<BlockId> {
            self.nodes
                .iter()
                .flat_map(|n| {
                    n.parts
                        .iter()
                        .enumerate()
                        .filter(move |(_, p)| class(p.state))
                        .map(move |(i, _)| BlockId::new(n.rdd, i as u32))
                })
                .collect()
        };
        counts_agree
            && resident_rdds == self.resident_rdds
            && scan(PartitionState::in_memory) == self.in_memory
            && scan(PartitionState::on_disk) == self.on_disk
    }

    /// Debug cross-check of the belief against the engine's stores: every
    /// block the stores hold must be believed in the tier a read finds it in
    /// (memory form included), and every block believed resident must be
    /// held. Returns the first few disagreements, or `None`.
    pub fn residency_mismatch(&self, stores: &Residency) -> Option<String> {
        let believed = |id| match self.state(id) {
            PartitionState::None => None,
            PartitionState::Memory(_) => Some(StoreTier::Memory),
            PartitionState::SerializedMemory(_) => Some(StoreTier::SerializedMemory),
            PartitionState::Disk(_) => Some(StoreTier::Disk),
        };
        let held = stores.iter().filter(|&(&id, &tier)| believed(id) != Some(tier));
        let phantom =
            self.in_memory.iter().chain(&self.on_disk).filter(|id| !stores.contains_key(id));
        let diffs: Vec<String> = held
            .map(|(&id, &tier)| format!("{id} held in {tier:?}, believed {:?}", self.state(id)))
            .chain(phantom.map(|&id| format!("{id} believed {:?}, not held", self.state(id))))
            .collect();
        (!diffs.is_empty()).then(|| {
            format!(
                "{} blocks disagree, first: {}",
                diffs.len(),
                diffs[..diffs.len().min(4)].join("; ")
            )
        })
    }

    /// Verifies that this CostLineage still mirrors `plan` (`BA201`): every
    /// node present in both must agree on parents and partition count.
    /// Disagreement means profiled metrics are being applied to the wrong
    /// lineage and every downstream cost estimate is suspect.
    ///
    /// Nodes only one side knows are fine in either direction: the runtime
    /// plan grows incrementally (absorption lags), and a profiled lineage
    /// mirrors the whole application before the runtime plan has appended
    /// later iterations' nodes.
    pub fn check_consistency(&self, plan: &Plan) -> AuditReport {
        let mut diags = Vec::new();
        for ln in &self.nodes {
            let Ok(node) = plan.node(ln.rdd) else { continue };
            let plan_parents: Vec<RddId> = node.deps.iter().map(|d| d.parent()).collect();
            if ln.parents != plan_parents {
                diags.push(Diagnostic::new(
                    DiagCode::LineageMismatch,
                    Some(ln.rdd),
                    format!(
                        "CostLineage parents of '{}' ({:?}) diverged from the plan ({:?})",
                        ln.name, ln.parents, plan_parents
                    ),
                    "profiled metrics no longer align; re-run dependency extraction".into(),
                ));
            }
            if ln.parts.len() != node.num_partitions {
                diags.push(Diagnostic::new(
                    DiagCode::LineageMismatch,
                    Some(ln.rdd),
                    format!(
                        "CostLineage tracks {} partitions of '{}' but the plan declares {}",
                        ln.parts.len(),
                        ln.name,
                        node.num_partitions
                    ),
                    "partition-level metrics are misaligned; re-seed the lineage".into(),
                ));
            }
        }
        AuditReport::new(diags)
    }

    /// All blocks currently believed to be on disk, sorted by id (served
    /// from the residency index, like [`Self::blocks_in_memory`]).
    pub fn blocks_on_disk(&self) -> Vec<(BlockId, ByteSize)> {
        self.on_disk.iter().map(|&id| (id, self.indexed_size(id))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_dataflow::{runner::LocalRunner, Context};

    fn small_plan() -> (Context, RddId, RddId) {
        let ctx = Context::new(LocalRunner::new());
        let a = ctx.parallelize((0..10u64).map(|i| (i % 2, i)).collect::<Vec<_>>(), 2);
        let b = a.reduce_by_key(2, |x, y| x + y);
        (ctx, a.id(), b.id())
    }

    #[test]
    fn merge_mirrors_plan_structure() {
        let (ctx, a, b) = small_plan();
        let mut cl = CostLineage::new();
        cl.merge_plan(&ctx.plan().read());
        assert_eq!(cl.len(), 2);
        let nb = cl.node(b).unwrap();
        assert_eq!(nb.parents, vec![a]);
        assert!(nb.is_shuffle);
        assert!(!cl.node(a).unwrap().is_shuffle);
        assert_eq!(cl.node(a).unwrap().parts.len(), 2);
    }

    #[test]
    fn merge_is_idempotent_and_preserves_metrics() {
        let (ctx, a, _b) = small_plan();
        let mut cl = CostLineage::new();
        cl.merge_plan(&ctx.plan().read());
        let id = BlockId::new(a, 0);
        cl.record_metrics(id, ByteSize::from_kib(3), SimDuration::from_millis(5));
        cl.merge_plan(&ctx.plan().read());
        assert_eq!(cl.observed_size(id), Some(ByteSize::from_kib(3)));
        assert_eq!(cl.observed_edge_compute(id), Some(SimDuration::from_millis(5)));
    }

    #[test]
    fn state_transitions_are_tracked() {
        let (ctx, a, _b) = small_plan();
        let mut cl = CostLineage::new();
        cl.merge_plan(&ctx.plan().read());
        let id = BlockId::new(a, 1);
        assert_eq!(cl.state(id), PartitionState::None);
        cl.set_state(id, PartitionState::Memory(ExecutorId(2)));
        assert!(cl.state(id).in_memory());
        assert_eq!(cl.state(id).executor(), Some(ExecutorId(2)));
        cl.set_state(id, PartitionState::Disk(ExecutorId(2)));
        assert!(cl.state(id).on_disk());
        cl.record_metrics(id, ByteSize::from_kib(1), SimDuration::ZERO);
        assert_eq!(cl.blocks_on_disk(), vec![(id, ByteSize::from_kib(1))]);
        assert!(cl.blocks_in_memory().is_empty());
    }

    #[test]
    fn serialized_memory_counts_as_memory_residency() {
        let (ctx, a, _b) = small_plan();
        let mut cl = CostLineage::new();
        cl.merge_plan(&ctx.plan().read());
        let id = BlockId::new(a, 0);
        cl.record_metrics(id, ByteSize::from_kib(2), SimDuration::ZERO);
        cl.set_state(id, PartitionState::SerializedMemory(ExecutorId(1)));
        assert!(cl.state(id).in_memory());
        assert!(cl.state(id).serialized());
        assert!(!cl.state(id).on_disk());
        assert_eq!(cl.state(id).executor(), Some(ExecutorId(1)));
        assert_eq!(cl.blocks_in_memory(), vec![(id, ByteSize::from_kib(2))]);
        assert!(cl.residency_consistent());
        cl.set_state(id, PartitionState::Memory(ExecutorId(1)));
        assert!(!cl.state(id).serialized());
        assert!(cl.residency_consistent());
    }

    /// One block walks Memory -> SerializedMemory -> Disk -> None beside a
    /// second block of the same RDD: the RDD stays in the resident index
    /// until its last block leaves, and the counts match a scan throughout.
    #[test]
    fn resident_rdd_index_follows_the_last_resident_block() {
        let (ctx, a, b) = small_plan();
        let mut cl = CostLineage::new();
        cl.merge_plan(&ctx.plan().read());
        let (walker, sibling) = (BlockId::new(a, 0), BlockId::new(a, 1));
        let resident = |cl: &CostLineage| cl.resident_rdds().collect::<Vec<_>>();
        assert!(resident(&cl).is_empty());

        cl.set_state(sibling, PartitionState::Memory(ExecutorId(1)));
        assert_eq!(resident(&cl), vec![a]);
        let e = ExecutorId(0);
        for state in [
            PartitionState::Memory(e),
            PartitionState::SerializedMemory(e),
            PartitionState::Disk(e),
            PartitionState::None,
        ] {
            cl.set_state(walker, state);
            assert_eq!(resident(&cl), vec![a], "after {state:?}");
            assert!(cl.residency_consistent(), "after {state:?}");
        }

        cl.set_state(BlockId::new(b, 1), PartitionState::Disk(e));
        assert_eq!(resident(&cl), vec![a, b]);
        cl.set_state(sibling, PartitionState::None);
        assert_eq!(resident(&cl), vec![b]);
        cl.set_state(walker, PartitionState::Disk(e));
        assert_eq!(resident(&cl), vec![a, b]);
        assert!(cl.residency_consistent());
    }

    #[test]
    fn take_dirty_drains_in_first_touched_order_once() {
        let (ctx, a, b) = small_plan();
        let mut cl = CostLineage::new();
        cl.merge_plan(&ctx.plan().read());
        let (x, y) = (BlockId::new(b, 1), BlockId::new(a, 0));
        cl.set_state(x, PartitionState::Memory(ExecutorId(0)));
        cl.record_metrics(y, ByteSize::from_kib(1), SimDuration::ZERO);
        cl.set_state(x, PartitionState::Disk(ExecutorId(0)));
        assert_eq!(cl.take_dirty(), vec![x, y]);
        assert!(cl.take_dirty().is_empty());
        cl.set_state(x, PartitionState::None);
        assert_eq!(cl.take_dirty(), vec![x], "a drained block is listed again");
    }

    #[test]
    fn consistency_check_accepts_a_mirrored_plan() {
        let (ctx, _a, _b) = small_plan();
        let mut cl = CostLineage::new();
        cl.merge_plan(&ctx.plan().read());
        assert!(cl.check_consistency(&ctx.plan().read()).is_clean());
    }

    #[test]
    fn consistency_check_flags_divergence() {
        use blaze_audit::DiagCode;
        let (ctx, a, b) = small_plan();
        let mut cl = CostLineage::new();
        cl.merge_plan(&ctx.plan().read());

        // Corrupt the mirrored parents of b.
        cl.nodes[b.raw() as usize].parents = vec![RddId(99)];
        let report = cl.check_consistency(&ctx.plan().read());
        assert!(report.has(DiagCode::LineageMismatch));
        assert!(!report.passes());

        // Corrupt the partition count of a.
        let mut cl2 = CostLineage::new();
        cl2.merge_plan(&ctx.plan().read());
        cl2.nodes[a.raw() as usize].parts.push(PartitionMetrics::default());
        assert!(cl2.check_consistency(&ctx.plan().read()).has(DiagCode::LineageMismatch));

        // A mirrored node the plan does not know yet is tolerated: profiled
        // lineages run ahead of the incrementally-grown runtime plan.
        let mut cl3 = CostLineage::new();
        cl3.merge_plan(&ctx.plan().read());
        let ahead = RddId(cl3.len() as u32);
        cl3.nodes.push(LineageNode {
            rdd: ahead,
            name: "profiled-ahead".into(),
            parents: vec![b],
            is_shuffle: false,
            ser_factor: 1.0,
            parts: vec![],
            resident: 0,
            first_block: 0,
        });
        assert!(cl3.check_consistency(&ctx.plan().read()).is_clean());
    }

    #[test]
    fn job_sequence_follows_profile_then_diverges() {
        let mut cl = CostLineage::new();
        cl.seed_job_targets(vec![RddId(5), RddId(9), RddId(13)]);
        assert_eq!(cl.observe_job(JobId(0), RddId(5)), 0);
        assert_eq!(cl.observe_job(JobId(1), RddId(9)), 1);
        // Diverge: runtime submits a different third job.
        assert_eq!(cl.observe_job(JobId(2), RddId(17)), 2);
        assert_eq!(cl.job_targets(), &[RddId(5), RddId(9), RddId(17)]);
    }

    #[test]
    fn unknown_partition_lookups_are_none() {
        let cl = CostLineage::new();
        let id = BlockId::new(RddId(1), 0);
        assert!(cl.metrics(id).is_none());
        assert_eq!(cl.state(id), PartitionState::None);
        assert!(cl.observed_size(id).is_none());
    }
}
