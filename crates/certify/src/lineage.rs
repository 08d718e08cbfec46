//! Incremental-invalidation soundness: dirty-closure verification.
//!
//! The incremental optimizer keeps a per-block cost memo and, on each
//! change, drops the entries a dirty block can have priced: its own and those
//! of its *narrow forward closure* (same-partition reachability through
//! non-shuffle children — a shuffle child's recovery cost re-fetches shuffle
//! outputs and never recurses into its parents, see
//! `CostLineage::narrow_children`). An entry can only have been priced
//! through a block that was itself memoized (pricing a block memoizes every
//! parent it recurses into), so the closure only passes through entries the
//! memo held before the invalidation. For the invalidation to be sound it
//! must **over-approximate** that set: no retained memo entry may be
//! reachable from a dirty block through memoized blocks.
//!
//! This module checks exactly that, statically: it rebuilds the child
//! adjacency *independently* from the parent lists in a [`LineageView`]
//! snapshot (rather than trusting the optimizer's own `narrow_children`
//! index), walks the partition-aligned forward closure of the dirty set
//! through the previously memoized keys, and reports any retained entry
//! inside it as `BA505`.

use blaze_audit::diagnostic::{DiagCode, Diagnostic};
use blaze_common::ids::{BlockId, RddId};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// One lineage node as the verifier needs to see it: identity, parents,
/// and whether the node reads a shuffle.
#[derive(Debug, Clone)]
pub struct LineageNodeView {
    /// The dataset this node mirrors.
    pub rdd: RddId,
    /// Direct parents in the lineage DAG.
    pub parents: Vec<RddId>,
    /// True if this node reads a shuffle; shuffle edges stop cost
    /// propagation, so they are excluded from the closure.
    pub is_shuffle: bool,
}

/// A plain-data snapshot of the cost lineage graph, detached from
/// `blaze-core` so the verifier has no dependency on (and takes no hints
/// from) the optimizer it checks.
#[derive(Debug, Clone, Default)]
pub struct LineageView {
    /// Every node of the lineage, in any order.
    pub nodes: Vec<LineageNodeView>,
}

impl LineageView {
    /// Child adjacency rebuilt from the parent lists: `parent -> children`
    /// over non-shuffle edges only, in sorted order (deterministic walks).
    fn narrow_children_index(&self) -> BTreeMap<RddId, Vec<RddId>> {
        let mut index: BTreeMap<RddId, Vec<RddId>> = BTreeMap::new();
        for node in &self.nodes {
            if node.is_shuffle {
                continue;
            }
            for &parent in &node.parents {
                let children = index.entry(parent).or_default();
                if !children.contains(&node.rdd) {
                    children.push(node.rdd);
                }
            }
        }
        index
    }
}

/// Checks that `retained` (the memo keys that survived invalidation) is
/// disjoint from the partition-aligned narrow forward closure of `dirty`
/// through `memoized` (the memo keys before invalidation): a block is in the
/// closure if it is dirty or a narrow child of a closure member that was
/// memoized.
///
/// Every violation — a retained entry whose cost the dirty change can have
/// altered — is reported as a `BA505` diagnostic naming the stale block and
/// the dirty block it is reachable from.
pub fn check_dirty_closure(
    view: &LineageView,
    dirty: &[BlockId],
    memoized: &[BlockId],
    retained: &[BlockId],
) -> Vec<Diagnostic> {
    let children = view.narrow_children_index();
    let memoized: BTreeSet<BlockId> = memoized.iter().copied().collect();

    // Forward closure of the dirty set, remembering which dirty block each
    // member was reached from (for the report).
    let mut origin: BTreeMap<BlockId, BlockId> = BTreeMap::new();
    let mut stack: Vec<BlockId> = Vec::new();
    for &d in dirty {
        if let Entry::Vacant(e) = origin.entry(d) {
            e.insert(d);
            stack.push(d);
        }
    }
    while let Some(b) = stack.pop() {
        if !memoized.contains(&b) {
            // Nothing was priced through a block without an entry.
            continue;
        }
        let from = origin.get(&b).copied().unwrap_or(b);
        if let Some(kids) = children.get(&b.rdd) {
            for &child in kids {
                let cb = BlockId::new(child, b.partition);
                if let Entry::Vacant(e) = origin.entry(cb) {
                    e.insert(from);
                    stack.push(cb);
                }
            }
        }
    }

    let retained_set: BTreeSet<BlockId> = retained.iter().copied().collect();
    let mut findings = Vec::new();
    for (&block, &from) in &origin {
        if retained_set.contains(&block) {
            findings.push(Diagnostic::new(
                DiagCode::UnderApproximatedDirtyClosure,
                Some(block.rdd),
                format!(
                    "memo entry for {block} survived invalidation but is narrow-reachable \
                     from dirty block {from}"
                ),
                "widen the dirty closure (or flush the memo) before reusing costs".into(),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(rdd: u32, parents: &[u32], is_shuffle: bool) -> LineageNodeView {
        LineageNodeView {
            rdd: RddId(rdd),
            parents: parents.iter().map(|&p| RddId(p)).collect(),
            is_shuffle,
        }
    }

    fn b(rdd: u32, part: u32) -> BlockId {
        BlockId::new(RddId(rdd), part)
    }

    #[test]
    fn clean_when_closure_was_dropped() {
        // 0 -> 1 -> 2 (narrow chain); dirty {0[0]}; retained only 2[1]
        // (other partition) and an unrelated 3.
        let view = LineageView {
            nodes: vec![
                node(0, &[], false),
                node(1, &[0], false),
                node(2, &[1], false),
                node(3, &[], false),
            ],
        };
        let memoized = [b(0, 0), b(1, 0), b(2, 0), b(2, 1), b(3, 0)];
        let findings = check_dirty_closure(&view, &[b(0, 0)], &memoized, &[b(2, 1), b(3, 0)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    fn chain() -> LineageView {
        LineageView { nodes: vec![node(0, &[], false), node(1, &[0], false), node(2, &[1], false)] }
    }

    #[test]
    fn retained_descendant_fires_ba505() {
        let memoized = [b(0, 0), b(1, 0), b(2, 0)];
        let findings = check_dirty_closure(&chain(), &[b(0, 0)], &memoized, &[b(2, 0)]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, DiagCode::UnderApproximatedDirtyClosure);
        assert!(findings[0].message.contains("rdd-2[0]"));
    }

    /// A memoized grandchild behind an unmemoized child (a `Memory`-state
    /// grandchild costs nothing, so pricing it never recursed into the
    /// child): nothing priced through the dirty block reaches it, and
    /// retaining it is sound.
    #[test]
    fn an_unmemoized_block_shields_what_lies_below_it() {
        let findings = check_dirty_closure(&chain(), &[b(0, 0)], &[b(0, 0), b(2, 0)], &[b(2, 0)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn shuffle_edges_stop_the_closure() {
        // 0 -> 1 where 1 reads a shuffle: 1's cost never recurses into 0,
        // so retaining 1[0] across a change to 0[0] is sound.
        let view = LineageView { nodes: vec![node(0, &[], false), node(1, &[0], true)] };
        let memoized = [b(0, 0), b(1, 0)];
        let findings = check_dirty_closure(&view, &[b(0, 0)], &memoized, &[b(1, 0)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn dirty_block_itself_must_not_be_retained() {
        let view = LineageView { nodes: vec![node(0, &[], false)] };
        let findings = check_dirty_closure(&view, &[b(0, 2)], &[b(0, 2)], &[b(0, 2)]);
        assert_eq!(findings.len(), 1);
    }
}
