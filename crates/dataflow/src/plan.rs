//! The type-erased lineage plan.
//!
//! Every transformation appends an [`RddNode`] to the shared [`Plan`]. The
//! plan is the source of truth for lineage: the engine executes it, the
//! fault-tolerance path recomputes from it, and Blaze's `CostLineage`
//! mirrors it with cost metrics attached (paper §5.3).

use crate::block::Block;
use blaze_common::error::{BlazeError, Result};
use blaze_common::ids::RddId;
use std::sync::Arc;

/// The compute-time model of one operator.
///
/// The engine charges `fixed_ns + ns_per_elem * input_elements +
/// ns_per_byte * input_bytes` of simulated time per task of this operator
/// (sources use their output as "input"). Workloads override specs on heavy
/// operators (tree building, model updates) to shape computation realism;
/// the defaults below are calibrated for generic record processing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSpec {
    /// Fixed per-task setup cost in nanoseconds.
    pub fixed_ns: f64,
    /// Cost per input element in nanoseconds.
    pub ns_per_elem: f64,
    /// Cost per input byte in nanoseconds.
    pub ns_per_byte: f64,
}

impl CostSpec {
    /// A zero-cost spec (used by bookkeeping-only nodes).
    pub const FREE: CostSpec = CostSpec { fixed_ns: 0.0, ns_per_elem: 0.0, ns_per_byte: 0.0 };

    /// Default cost of reading/generating source data (input parsing).
    pub const SOURCE: CostSpec =
        CostSpec { fixed_ns: 50_000.0, ns_per_elem: 150.0, ns_per_byte: 0.5 };

    /// Default cost of an element-wise narrow operator (`map`, `filter`).
    /// Calibrated to JVM-era per-record costs (object churn, virtual calls).
    pub const NARROW: CostSpec =
        CostSpec { fixed_ns: 20_000.0, ns_per_elem: 120.0, ns_per_byte: 0.25 };

    /// Default cost of a shuffle aggregation (`reduce_by_key`, `group_by_key`).
    pub const SHUFFLE_AGG: CostSpec =
        CostSpec { fixed_ns: 50_000.0, ns_per_elem: 350.0, ns_per_byte: 0.6 };

    /// Creates a spec from its three components.
    pub const fn new(fixed_ns: f64, ns_per_elem: f64, ns_per_byte: f64) -> Self {
        Self { fixed_ns, ns_per_elem, ns_per_byte }
    }

    /// Returns a copy scaled by `factor` (e.g. a 10x heavier map).
    pub fn scaled(self, factor: f64) -> Self {
        Self {
            fixed_ns: self.fixed_ns * factor,
            ns_per_elem: self.ns_per_elem * factor,
            ns_per_byte: self.ns_per_byte * factor,
        }
    }

    /// Charges this spec for a task consuming `elems` elements / `bytes` bytes.
    pub fn charge_ns(&self, elems: u64, bytes: u64) -> f64 {
        self.fixed_ns + self.ns_per_elem * elems as f64 + self.ns_per_byte * bytes as f64
    }
}

impl Default for CostSpec {
    fn default() -> Self {
        Self::NARROW
    }
}

/// Map-side shuffle writer: splits one parent partition into `n` buckets.
pub type MapSideFn = Arc<dyn Fn(&Block, usize) -> Result<Vec<Block>> + Send + Sync>;

/// Generator of one source partition (receives the partition index).
pub type SourceFn = Arc<dyn Fn(usize) -> Result<Block> + Send + Sync>;

/// Narrow operator: combines the same-index partition of every narrow parent
/// (receives the partition index first).
pub type NarrowFn = Arc<dyn Fn(usize, &[Block]) -> Result<Block> + Send + Sync>;

/// Shuffle aggregator: for each shuffle dependency, receives the buckets
/// addressed to this reduce partition (one block per map task) and combines
/// them into the output partition (receives the partition index first).
pub type ShuffleAggFn = Arc<dyn Fn(usize, &[Vec<Block>]) -> Result<Block> + Send + Sync>;

/// How an RDD's partitions are computed.
#[derive(Clone)]
pub enum Compute {
    /// Leaf node: deterministically generates partition `i`.
    Source(SourceFn),
    /// Pipelined operator over the same-index partitions of narrow parents.
    Narrow(NarrowFn),
    /// Stage-boundary operator over shuffled buckets.
    ShuffleAgg(ShuffleAggFn),
}

impl std::fmt::Debug for Compute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Compute::Source(_) => f.write_str("Source"),
            Compute::Narrow(_) => f.write_str("Narrow"),
            Compute::ShuffleAgg(_) => f.write_str("ShuffleAgg"),
        }
    }
}

/// One dependency edge of an RDD.
#[derive(Clone)]
pub enum Dep {
    /// One-to-one partition dependency (stays within a stage).
    Narrow(RddId),
    /// All-to-all dependency (stage boundary). Carries the map-side writer
    /// that buckets parent partitions for the shuffle.
    Shuffle {
        /// The parent RDD whose partitions are shuffled.
        parent: RddId,
        /// Splits one parent partition into per-reducer buckets.
        map_side: MapSideFn,
    },
}

impl Dep {
    /// Returns the parent RDD of this dependency.
    pub fn parent(&self) -> RddId {
        match self {
            Dep::Narrow(p) => *p,
            Dep::Shuffle { parent, .. } => *parent,
        }
    }

    /// Returns true for shuffle dependencies.
    pub fn is_shuffle(&self) -> bool {
        matches!(self, Dep::Shuffle { .. })
    }
}

impl std::fmt::Debug for Dep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dep::Narrow(p) => write!(f, "Narrow({p})"),
            Dep::Shuffle { parent, .. } => write!(f, "Shuffle({parent})"),
        }
    }
}

/// One logical dataset in the lineage plan.
#[derive(Debug, Clone)]
pub struct RddNode {
    /// Unique id of this RDD within the plan.
    pub id: RddId,
    /// Human-readable operator name (for lineage displays and debugging).
    pub name: String,
    /// Number of partitions.
    pub num_partitions: usize,
    /// Dependencies on parent RDDs.
    pub deps: Vec<Dep>,
    /// How partitions are computed.
    pub compute: Compute,
    /// Compute-time model for this operator.
    pub cost: CostSpec,
    /// Relative serialization cost of this RDD's element type (1.0 = plain
    /// records; SVD++-style nested structures use 2.5–6.4, paper §7.2).
    pub ser_factor: f64,
    /// The partitioner this RDD's output is known to follow, if any.
    /// Co-partitioned datasets can be joined without another shuffle.
    pub partitioner: Option<crate::partitioner::HashPartitioner>,
    /// True if the user annotated this dataset with `cache()`.
    pub cache_annotated: bool,
    /// True once the user called `unpersist()` on this dataset.
    pub unpersist_requested: bool,
}

impl RddNode {
    /// Returns true if this node is a shuffle aggregation (stage root).
    pub fn is_shuffle(&self) -> bool {
        matches!(self.compute, Compute::ShuffleAgg(_))
    }

    /// Returns the parent ids of every dependency, in declaration order.
    pub fn parent_ids(&self) -> impl Iterator<Item = RddId> + '_ {
        self.deps.iter().map(Dep::parent)
    }
}

/// The shared lineage plan: an append-only DAG of [`RddNode`]s.
#[derive(Debug, Default)]
pub struct Plan {
    nodes: Vec<RddNode>,
}

impl Plan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a node built by `build` (which receives the assigned id).
    ///
    /// This is where the plan's structural invariants are established, and
    /// nothing re-checks them: the node carries the assigned id, has at least
    /// one partition, and depends only on nodes defined before it (so the
    /// plan is cycle-free by construction); a source has no dependencies and
    /// an operator at least one; a narrow operator reads only narrow
    /// dependencies with its own partition count, a shuffle aggregation only
    /// shuffle dependencies. `Plan::node_mut` is crate-private so that no
    /// caller can reshape a node after this check.
    pub fn add_node(&mut self, build: impl FnOnce(RddId) -> RddNode) -> Result<RddId> {
        let id = RddId(self.nodes.len() as u32);
        let node = build(id);
        if node.id != id {
            return Err(BlazeError::InvalidPlan(format!(
                "node built with id {} but assigned {id}",
                node.id
            )));
        }
        if node.num_partitions == 0 {
            return Err(BlazeError::InvalidPlan(format!("{id} has zero partitions")));
        }
        for dep in &node.deps {
            if dep.parent().raw() >= id.raw() {
                return Err(BlazeError::InvalidPlan(format!(
                    "{id} depends on not-yet-defined {}",
                    dep.parent()
                )));
            }
        }
        match (&node.compute, node.deps.is_empty()) {
            (Compute::Source(_), false) => {
                return Err(BlazeError::InvalidPlan(format!("{id}: source with deps")))
            }
            (Compute::Narrow(_), true) | (Compute::ShuffleAgg(_), true) => {
                return Err(BlazeError::InvalidPlan(format!("{id}: operator without deps")))
            }
            _ => {}
        }
        if matches!(node.compute, Compute::Narrow(_)) {
            for dep in &node.deps {
                if dep.is_shuffle() {
                    return Err(BlazeError::InvalidPlan(format!(
                        "{id}: narrow compute with shuffle dep"
                    )));
                }
                let parent = self.node(dep.parent())?;
                if parent.num_partitions != node.num_partitions {
                    return Err(BlazeError::InvalidPlan(format!(
                        "{id}: narrow dep on {} with {} partitions (self has {})",
                        parent.id, parent.num_partitions, node.num_partitions
                    )));
                }
            }
        }
        if matches!(node.compute, Compute::ShuffleAgg(_)) {
            for dep in &node.deps {
                if !dep.is_shuffle() {
                    return Err(BlazeError::InvalidPlan(format!(
                        "{id}: shuffle compute with narrow dep"
                    )));
                }
            }
        }
        self.nodes.push(node);
        Ok(id)
    }

    /// Looks up a node.
    pub fn node(&self, id: RddId) -> Result<&RddNode> {
        self.nodes.get(id.raw() as usize).ok_or_else(|| BlazeError::UnknownRdd(id.to_string()))
    }

    /// Looks up a node mutably (the `Dataset` metadata setters; they never
    /// touch the shape [`Plan::add_node`] checked).
    pub(crate) fn node_mut(&mut self, id: RddId) -> Result<&mut RddNode> {
        self.nodes.get_mut(id.raw() as usize).ok_or_else(|| BlazeError::UnknownRdd(id.to_string()))
    }

    /// Returns the number of nodes in the plan.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns true if the plan has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over all nodes in id order.
    pub fn iter(&self) -> impl Iterator<Item = &RddNode> {
        self.nodes.iter()
    }

    /// All nodes in id order, as a slice (plan-introspection accessor).
    pub fn nodes(&self) -> &[RddNode] {
        &self.nodes
    }

    /// Marks an RDD as cache-annotated (the `cache()` user API).
    pub fn mark_cached(&mut self, id: RddId) -> Result<()> {
        let node = self.node_mut(id)?;
        node.cache_annotated = true;
        node.unpersist_requested = false;
        Ok(())
    }

    /// Marks an RDD as unpersisted (the `unpersist()` user API).
    pub fn mark_unpersisted(&mut self, id: RddId) -> Result<()> {
        self.node_mut(id)?.unpersist_requested = true;
        Ok(())
    }

    /// Returns all ancestors of `id` (excluding itself), deduplicated, in
    /// reverse-topological discovery order.
    pub fn ancestors(&self, id: RddId) -> Result<Vec<RddId>> {
        let mut seen = vec![false; self.nodes.len()];
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            for dep in &self.node(cur)?.deps {
                let p = dep.parent();
                if !seen[p.raw() as usize] {
                    seen[p.raw() as usize] = true;
                    out.push(p);
                    stack.push(p);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source_node(id: RddId, parts: usize) -> RddNode {
        RddNode {
            id,
            name: "source".into(),
            num_partitions: parts,
            deps: vec![],
            compute: Compute::Source(Arc::new(|_| Ok(Block::from_vec(vec![0u64])))),
            cost: CostSpec::SOURCE,
            ser_factor: 1.0,
            partitioner: None,
            cache_annotated: false,
            unpersist_requested: false,
        }
    }

    fn narrow_node(id: RddId, parent: RddId, parts: usize) -> RddNode {
        RddNode {
            id,
            name: "map".into(),
            num_partitions: parts,
            deps: vec![Dep::Narrow(parent)],
            compute: Compute::Narrow(Arc::new(|_, blocks| Ok(blocks[0].clone()))),
            cost: CostSpec::NARROW,
            ser_factor: 1.0,
            partitioner: None,
            cache_annotated: false,
            unpersist_requested: false,
        }
    }

    #[test]
    fn builds_a_simple_chain() {
        let mut plan = Plan::new();
        let s = plan.add_node(|id| source_node(id, 4)).unwrap();
        let m = plan.add_node(|id| narrow_node(id, s, 4)).unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.node(m).unwrap().deps[0].parent(), s);
        assert_eq!(plan.ancestors(m).unwrap(), vec![s]);
    }

    #[test]
    fn rejects_forward_references() {
        let mut plan = Plan::new();
        let err = plan.add_node(|id| narrow_node(id, RddId(5), 4)).unwrap_err();
        assert!(matches!(err, BlazeError::InvalidPlan(_)));
    }

    #[test]
    fn rejects_partition_mismatch_on_narrow_dep() {
        let mut plan = Plan::new();
        let s = plan.add_node(|id| source_node(id, 4)).unwrap();
        let err = plan.add_node(|id| narrow_node(id, s, 8)).unwrap_err();
        assert!(matches!(err, BlazeError::InvalidPlan(_)));
    }

    #[test]
    fn rejects_zero_partitions() {
        let mut plan = Plan::new();
        let err = plan.add_node(|id| source_node(id, 0)).unwrap_err();
        assert!(matches!(err, BlazeError::InvalidPlan(_)));
    }

    fn shuffle_dep(parent: RddId) -> Dep {
        Dep::Shuffle { parent, map_side: Arc::new(|b, n| Ok(vec![b.clone(); n])) }
    }

    fn shuffle_node(id: RddId, dep: Dep, parts: usize) -> RddNode {
        RddNode {
            name: "reduce".into(),
            deps: vec![dep],
            compute: Compute::ShuffleAgg(Arc::new(|_, buckets| Ok(buckets[0][0].clone()))),
            cost: CostSpec::SHUFFLE_AGG,
            ..narrow_node(id, RddId(0), parts)
        }
    }

    fn assert_invalid(plan: &mut Plan, node: RddNode, what: &str) {
        let len = plan.len();
        let err = plan.add_node(move |_| node).unwrap_err();
        assert!(matches!(&err, BlazeError::InvalidPlan(m) if m.contains(what)), "{err}");
        assert_eq!(plan.len(), len, "a refused node must not be appended");
    }

    #[test]
    fn rejects_source_with_deps() {
        let mut plan = Plan::new();
        let s = plan.add_node(|id| source_node(id, 2)).unwrap();
        let bad = RddNode { deps: vec![Dep::Narrow(s)], ..source_node(RddId(1), 2) };
        assert_invalid(&mut plan, bad, "source with deps");
    }

    #[test]
    fn rejects_operators_without_deps() {
        let mut plan = Plan::new();
        plan.add_node(|id| source_node(id, 2)).unwrap();
        let narrow = RddNode { deps: vec![], ..narrow_node(RddId(1), RddId(0), 2) };
        assert_invalid(&mut plan, narrow, "operator without deps");
        let shuffle = RddNode { deps: vec![], ..shuffle_node(RddId(1), shuffle_dep(RddId(0)), 2) };
        assert_invalid(&mut plan, shuffle, "operator without deps");
    }

    #[test]
    fn rejects_narrow_compute_with_shuffle_dep() {
        let mut plan = Plan::new();
        let s = plan.add_node(|id| source_node(id, 2)).unwrap();
        let bad = RddNode { deps: vec![shuffle_dep(s)], ..narrow_node(RddId(1), s, 2) };
        assert_invalid(&mut plan, bad, "narrow compute with shuffle dep");
    }

    #[test]
    fn rejects_shuffle_aggregation_with_narrow_dep() {
        let mut plan = Plan::new();
        let s = plan.add_node(|id| source_node(id, 2)).unwrap();
        assert_invalid(&mut plan, shuffle_node(RddId(1), Dep::Narrow(s), 2), "shuffle compute");
        // The same node through a shuffle dependency is accepted, at any
        // partition count.
        plan.add_node(|id| shuffle_node(id, shuffle_dep(s), 3)).unwrap();
    }

    #[test]
    fn rejects_a_node_built_with_another_id() {
        let mut plan = Plan::new();
        plan.add_node(|id| source_node(id, 2)).unwrap();
        assert_invalid(&mut plan, source_node(RddId(7), 2), "built with id rdd-7");
    }

    #[test]
    fn cache_and_unpersist_flags() {
        let mut plan = Plan::new();
        let s = plan.add_node(|id| source_node(id, 1)).unwrap();
        plan.mark_cached(s).unwrap();
        assert!(plan.node(s).unwrap().cache_annotated);
        plan.mark_unpersisted(s).unwrap();
        assert!(plan.node(s).unwrap().unpersist_requested);
        // Re-caching clears the unpersist request.
        plan.mark_cached(s).unwrap();
        assert!(!plan.node(s).unwrap().unpersist_requested);
    }

    #[test]
    fn unknown_node_lookup_errors() {
        let plan = Plan::new();
        assert!(matches!(plan.node(RddId(3)), Err(BlazeError::UnknownRdd(_))));
    }

    #[test]
    fn cost_spec_charges_linearly() {
        let spec = CostSpec::new(100.0, 2.0, 0.5);
        assert_eq!(spec.charge_ns(10, 40), 100.0 + 20.0 + 20.0);
        let scaled = spec.scaled(2.0);
        assert_eq!(scaled.charge_ns(10, 40), 2.0 * (100.0 + 20.0 + 20.0));
    }

    #[test]
    fn introspection_accessors_expose_structure() {
        let mut plan = Plan::new();
        let s = plan.add_node(|id| source_node(id, 2)).unwrap();
        let a = plan.add_node(|id| narrow_node(id, s, 2)).unwrap();
        let b = plan.add_node(|id| narrow_node(id, s, 2)).unwrap();
        let mut join = narrow_node(RddId(3), a, 2);
        join.deps.push(Dep::Narrow(b));
        // A duplicate edge on the same parent is listed once per edge.
        join.deps.push(Dep::Narrow(a));
        let j = plan.add_node(move |_| join).unwrap();
        assert_eq!(plan.nodes().len(), 4);
        assert_eq!(plan.node(j).unwrap().parent_ids().collect::<Vec<_>>(), vec![a, b, a]);
    }

    #[test]
    fn ancestors_deduplicate_diamonds() {
        let mut plan = Plan::new();
        let s = plan.add_node(|id| source_node(id, 2)).unwrap();
        let a = plan.add_node(|id| narrow_node(id, s, 2)).unwrap();
        let b = plan.add_node(|id| narrow_node(id, s, 2)).unwrap();
        let mut join = narrow_node(RddId(3), a, 2);
        join.deps.push(Dep::Narrow(b));
        let j = plan.add_node(move |_| join).unwrap();
        let mut anc = plan.ancestors(j).unwrap();
        anc.sort();
        assert_eq!(anc, vec![s, a, b]);
    }
}
