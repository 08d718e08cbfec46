//! Stage planning: splitting a job's lineage at shuffle boundaries.
//!
//! Mirrors Spark's `DAGScheduler` planning step (paper §2.2): a *job* is the
//! sub-DAG needed to materialize a target RDD; it is divided into *stages*,
//! each a pipeline of narrow operators, with stage boundaries at shuffle
//! dependencies. A stage whose output feeds a shuffle is a map stage; the
//! stage producing the job target is the result stage.

use crate::plan::{Dep, Plan};
use blaze_common::error::Result;
use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::RddId;

/// One planned stage.
#[derive(Debug, Clone)]
pub struct StagePlan {
    /// Index of this stage within its [`JobPlan`] (topological order).
    pub index: usize,
    /// The RDD whose partitions this stage materializes.
    pub output: RddId,
    /// Stages that must complete first (map stages of consumed shuffles).
    pub parent_stages: Vec<usize>,
    /// Every RDD whose compute runs inside this stage's tasks (the narrow
    /// pipeline ending at `output`, including shuffle *reads*).
    pub rdds: Vec<RddId>,
    /// Number of tasks (= partitions of `output`).
    pub num_partitions: usize,
}

/// The planned stages of one job, topologically ordered (parents first).
#[derive(Debug, Clone)]
pub struct JobPlan {
    /// The RDD the job materializes.
    pub target: RddId,
    /// All stages; the last entry is always the result stage.
    pub stages: Vec<StagePlan>,
}

impl JobPlan {
    /// Returns the result stage (the one producing the job target).
    pub fn result_stage(&self) -> &StagePlan {
        self.stages.last().expect("a job always has at least one stage")
    }
}

/// Plans the stages required to materialize `target`.
///
/// Stages are deduplicated: if two shuffles read the same parent RDD, they
/// share one map stage (Spark's shuffle-id dedup).
pub fn plan_job(plan: &Plan, target: RddId) -> Result<JobPlan> {
    let mut planner = Planner { plan, stages: Vec::new(), by_output: FxHashMap::default() };
    planner.stage_for(target)?;
    Ok(JobPlan { target, stages: planner.stages })
}

struct Planner<'a> {
    plan: &'a Plan,
    stages: Vec<StagePlan>,
    by_output: FxHashMap<RddId, usize>,
}

impl Planner<'_> {
    /// Returns the stage index whose output is `output`, creating it (and,
    /// recursively, its parents) if needed.
    fn stage_for(&mut self, output: RddId) -> Result<usize> {
        if let Some(&idx) = self.by_output.get(&output) {
            return Ok(idx);
        }
        // Walk the narrow pipeline of this stage, collecting in-stage RDDs
        // and the map stages feeding its shuffle reads.
        let mut rdds = Vec::new();
        let mut parents = Vec::new();
        let mut visited: FxHashMap<RddId, ()> = FxHashMap::default();
        let mut stack = vec![output];
        while let Some(cur) = stack.pop() {
            if visited.insert(cur, ()).is_some() {
                continue;
            }
            rdds.push(cur);
            for dep in &self.plan.node(cur)?.deps {
                match dep {
                    Dep::Narrow(p) => stack.push(*p),
                    Dep::Shuffle { parent, .. } => {
                        let parent_stage = self.stage_for(*parent)?;
                        if !parents.contains(&parent_stage) {
                            parents.push(parent_stage);
                        }
                    }
                }
            }
        }
        rdds.sort();
        let index = self.stages.len();
        self.stages.push(StagePlan {
            index,
            output,
            parent_stages: parents,
            rdds,
            num_partitions: self.plan.node(output)?.num_partitions,
        });
        self.by_output.insert(output, index);
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::plan::{Compute, CostSpec, RddNode};
    use std::sync::Arc;

    fn node(id: RddId, parts: usize, deps: Vec<Dep>, compute: Compute) -> RddNode {
        RddNode {
            id,
            name: format!("n{}", id.raw()),
            num_partitions: parts,
            deps,
            compute,
            cost: CostSpec::FREE,
            ser_factor: 1.0,
            partitioner: None,
            cache_annotated: false,
            unpersist_requested: false,
        }
    }

    fn source(plan: &mut Plan, parts: usize) -> RddId {
        plan.add_node(|id| {
            node(id, parts, vec![], Compute::Source(Arc::new(|_| Ok(Block::from_vec(vec![0u8])))))
        })
        .unwrap()
    }

    fn narrow(plan: &mut Plan, parent: RddId) -> RddId {
        let parts = plan.node(parent).unwrap().num_partitions;
        plan.add_node(|id| {
            node(
                id,
                parts,
                vec![Dep::Narrow(parent)],
                Compute::Narrow(Arc::new(|_, b| Ok(b[0].clone()))),
            )
        })
        .unwrap()
    }

    fn shuffle(plan: &mut Plan, parent: RddId, parts: usize) -> RddId {
        plan.add_node(|id| {
            node(
                id,
                parts,
                vec![Dep::Shuffle { parent, map_side: Arc::new(|b, n| Ok(vec![b.clone(); n])) }],
                Compute::ShuffleAgg(Arc::new(|_, _| Ok(Block::from_vec(vec![0u8])))),
            )
        })
        .unwrap()
    }

    #[test]
    fn single_stage_for_narrow_chain() {
        let mut plan = Plan::new();
        let s = source(&mut plan, 4);
        let a = narrow(&mut plan, s);
        let b = narrow(&mut plan, a);
        let jp = plan_job(&plan, b).unwrap();
        assert_eq!(jp.stages.len(), 1);
        assert_eq!(jp.result_stage().output, b);
        assert_eq!(jp.result_stage().rdds, vec![s, a, b]);
    }

    #[test]
    fn shuffle_splits_two_stages() {
        let mut plan = Plan::new();
        let s = source(&mut plan, 4);
        let m = narrow(&mut plan, s);
        let r = shuffle(&mut plan, m, 2);
        let f = narrow(&mut plan, r);
        let jp = plan_job(&plan, f).unwrap();
        assert_eq!(jp.stages.len(), 2);
        // Map stage first (topological order).
        assert_eq!(jp.stages[0].output, m);
        assert_eq!(jp.stages[0].rdds, vec![s, m]);
        assert!(jp.stages[0].parent_stages.is_empty());
        // Result stage contains the shuffle read and downstream narrow op.
        assert_eq!(jp.stages[1].output, f);
        assert_eq!(jp.stages[1].rdds, vec![r, f]);
        assert_eq!(jp.stages[1].parent_stages, vec![0]);
        assert_eq!(jp.stages[1].num_partitions, 2);
    }

    #[test]
    fn shared_map_stage_is_deduplicated() {
        let mut plan = Plan::new();
        let s = source(&mut plan, 4);
        let r1 = shuffle(&mut plan, s, 2);
        let r2 = shuffle(&mut plan, s, 2);
        // A narrow op joining two co-partitioned shuffle outputs.
        let j = plan
            .add_node(|id| {
                node(
                    id,
                    2,
                    vec![Dep::Narrow(r1), Dep::Narrow(r2)],
                    Compute::Narrow(Arc::new(|_, b| Ok(b[0].clone()))),
                )
            })
            .unwrap();
        let jp = plan_job(&plan, j).unwrap();
        // Stages: map(s) once, then the result stage with r1, r2, j.
        assert_eq!(jp.stages.len(), 2);
        assert_eq!(jp.stages[0].output, s);
        let result = jp.result_stage();
        assert_eq!(result.rdds, vec![r1, r2, j]);
        assert_eq!(result.parent_stages, vec![0]);
    }

    #[test]
    fn iterative_chain_produces_one_stage_per_shuffle() {
        let mut plan = Plan::new();
        let mut cur = source(&mut plan, 4);
        for _ in 0..3 {
            let m = narrow(&mut plan, cur);
            cur = shuffle(&mut plan, m, 4);
        }
        let jp = plan_job(&plan, cur).unwrap();
        assert_eq!(jp.stages.len(), 4); // 3 map stages + result stage chain
        for w in jp.stages.windows(2) {
            assert!(w[1].parent_stages.contains(&w[0].index));
        }
    }
}
