//! The execution backend interface, plus a reference in-process runner.
//!
//! The dataflow layer is execution-agnostic: actions submit jobs through the
//! [`JobRunner`] installed in the [`Context`](crate::Context). The simulated
//! cluster in `blaze-engine` is the production implementation; the
//! [`LocalRunner`] here is a minimal, cache-everything reference executor
//! used for functional tests of the operator semantics themselves. It runs
//! no plan audit: the engine's per-job preflight (`blaze-audit`) does.

use crate::block::{Block, Buckets};
use crate::plan::{Compute, Dep, Plan, RddNode};
use blaze_common::error::{BlazeError, Result};
// audit: allow(record-order) for the shuffle memo only: looked up, never iterated into a block
use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::RddId;
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// An execution backend able to materialize the partitions of a target RDD.
pub trait JobRunner: Send + Sync + 'static {
    /// Materializes all partitions of `target`, in partition order.
    fn run_job(&self, plan: &Arc<RwLock<Plan>>, target: RddId) -> Result<Vec<Block>>;

    /// Notification that the user unpersisted `rdd` (drop any cached blocks).
    fn on_unpersist(&self, _rdd: RddId) {}
}

/// A reference in-process executor.
///
/// Memoizes every materialized partition (an effectively infinite cache), so
/// it exercises operator correctness, not caching behaviour. A job's target
/// partitions run one after another on the calling thread.
pub struct LocalRunner {
    /// Per RDD (indexed by id), one slot per partition: its memoized block.
    blocks: Mutex<Vec<Vec<Option<Block>>>>,
    /// Per shuffle (consumer RDD, dep index), its map outputs.
    // audit: allow(record-order) lookup only: probed per shuffle, never iterated
    shuffles: Mutex<FxHashMap<(RddId, usize), MapOutputs>>,
}

/// One shuffle's map outputs, indexed by map task (`None`: not produced
/// yet); a reduce task reads its buckets from them in map order.
type MapOutputs = Vec<Option<Buckets>>;

impl Default for LocalRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalRunner {
    /// Creates a fresh runner with empty memo tables.
    pub fn new() -> Self {
        Self { blocks: Mutex::default(), shuffles: Mutex::default() }
    }

    fn compute(&self, plan: &Plan, rdd: RddId, part: usize) -> Result<Block> {
        let slot = rdd.raw() as usize;
        if let Some(b) = self.blocks.lock().get(slot).and_then(|parts| parts.get(part)?.as_ref()) {
            return Ok(b.clone());
        }
        let node = plan.node(rdd)?;
        let block = match &node.compute {
            Compute::Source(gen) => gen(part)?,
            Compute::Narrow(f) => {
                let mut inputs = Vec::with_capacity(node.deps.len());
                for dep in &node.deps {
                    inputs.push(self.compute(plan, dep.parent(), part)?);
                }
                f(part, &inputs)?
            }
            Compute::ShuffleAgg(agg) => {
                let per_dep = (0..node.deps.len())
                    .map(|dep_idx| self.gather(plan, node, (rdd, dep_idx), part))
                    .collect::<Result<Vec<_>>>()?;
                agg(part, &per_dep)?
            }
        };
        let mut blocks = self.blocks.lock();
        if blocks.len() <= slot {
            blocks.resize_with(slot + 1, Vec::new);
        }
        let parts = &mut blocks[slot];
        if parts.len() <= part {
            parts.resize_with(node.num_partitions.max(part + 1), || None);
        }
        parts[part] = Some(block.clone());
        Ok(block)
    }

    /// The non-empty buckets a reduce task of `node` reads through
    /// `shuffle`, in map order. Map outputs not yet produced are computed
    /// outside the lock (computing them takes it too); a race between two
    /// callers sharing the runner produces the same buckets, and the first
    /// one stays.
    fn gather(
        &self,
        plan: &Plan,
        node: &RddNode,
        shuffle: (RddId, usize),
        part: usize,
    ) -> Result<Vec<Block>> {
        let Dep::Shuffle { parent, map_side } = &node.deps[shuffle.1] else {
            return Err(BlazeError::InvalidPlan(format!(
                "{}: shuffle agg with narrow dep",
                shuffle.0
            )));
        };
        let num_maps = plan.node(*parent)?.num_partitions;
        let missing: Vec<usize> = {
            let shuffles = self.shuffles.lock();
            let outputs = shuffles.get(&shuffle);
            (0..num_maps).filter(|&m| outputs.is_none_or(|o| o[m].is_none())).collect()
        };
        let mut produced = Vec::with_capacity(missing.len());
        for m in missing {
            let input = self.compute(plan, *parent, m)?;
            produced.push((m, map_side(&input, node.num_partitions)?));
        }
        let mut shuffles = self.shuffles.lock();
        let outputs = shuffles.entry(shuffle).or_insert_with(|| vec![None; num_maps]);
        for (m, buckets) in produced {
            outputs[m].get_or_insert(buckets);
        }
        let mut incoming = Vec::new();
        for (m, buckets) in outputs.iter().enumerate() {
            if let Some(b) = buckets.as_ref().and_then(|b| b.get(part)) {
                // Sized at the first bucket addressed to the task: the maps
                // from here on bound the rest, and a task that receives none
                // allocates nothing.
                if incoming.is_empty() {
                    incoming.reserve_exact(num_maps - m);
                }
                incoming.push(b.clone());
            }
        }
        Ok(incoming)
    }
}

impl JobRunner for LocalRunner {
    fn run_job(&self, plan: &Arc<RwLock<Plan>>, target: RddId) -> Result<Vec<Block>> {
        let plan = plan.read();
        let parts = plan.node(target)?.num_partitions;
        (0..parts).map(|p| self.compute(&plan, target, p)).collect()
    }

    fn on_unpersist(&self, rdd: RddId) {
        if let Some(parts) = self.blocks.lock().get_mut(rdd.raw() as usize) {
            *parts = Vec::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CostSpec, RddNode};

    fn mk_plan() -> (Arc<RwLock<Plan>>, RddId) {
        // source(0..8 over 2 parts) -> map(x*2) -> shuffle(sum by parity)
        let mut plan = Plan::new();
        let src = plan
            .add_node(|id| RddNode {
                id,
                name: "src".into(),
                num_partitions: 2,
                deps: vec![],
                compute: Compute::Source(Arc::new(|p| {
                    let lo = p as u64 * 4;
                    Ok(Block::from_vec((lo..lo + 4).collect::<Vec<u64>>()))
                })),
                cost: CostSpec::FREE,
                ser_factor: 1.0,
                partitioner: None,
                cache_annotated: false,
                unpersist_requested: false,
            })
            .unwrap();
        let doubled = plan
            .add_node(|id| RddNode {
                id,
                name: "double".into(),
                num_partitions: 2,
                deps: vec![Dep::Narrow(src)],
                compute: Compute::Narrow(Arc::new(|_, inputs| {
                    let v: Vec<u64> =
                        inputs[0].as_slice::<u64>("t")?.iter().map(|x| x * 2).collect();
                    Ok(Block::from_vec(v))
                })),
                cost: CostSpec::FREE,
                ser_factor: 1.0,
                partitioner: None,
                cache_annotated: false,
                unpersist_requested: false,
            })
            .unwrap();
        let summed = plan
            .add_node(|id| RddNode {
                id,
                name: "sum_by_parity".into(),
                num_partitions: 2,
                deps: vec![Dep::Shuffle {
                    parent: doubled,
                    map_side: Arc::new(|block, n| {
                        let xs = block.as_slice::<u64>("t")?;
                        Buckets::new(
                            n,
                            (0..n).filter_map(|r| {
                                let bucket: Vec<u64> = xs
                                    .iter()
                                    .copied()
                                    .filter(|x| x % n as u64 == r as u64)
                                    .collect();
                                (!bucket.is_empty()).then(|| (r, Block::from_vec(bucket)))
                            }),
                        )
                    }),
                }],
                compute: Compute::ShuffleAgg(Arc::new(|_, per_dep| {
                    let mut sum = 0u64;
                    for b in &per_dep[0] {
                        sum += b.as_slice::<u64>("t")?.iter().sum::<u64>();
                    }
                    Ok(Block::from_vec(vec![sum]))
                })),
                cost: CostSpec::FREE,
                ser_factor: 1.0,
                partitioner: None,
                cache_annotated: false,
                unpersist_requested: false,
            })
            .unwrap();
        (Arc::new(RwLock::new(plan)), summed)
    }

    #[test]
    fn executes_shuffled_pipeline() {
        let (plan, target) = mk_plan();
        let runner = LocalRunner::new();
        let blocks = runner.run_job(&plan, target).unwrap();
        let total: u64 =
            blocks.iter().map(|b| b.as_slice::<u64>("t").unwrap().iter().sum::<u64>()).sum();
        // Doubled values are all even: 0+2+...+14 = 56, all in bucket 0.
        assert_eq!(total, 56);
        let bucket0 = blocks[0].as_slice::<u64>("t").unwrap()[0];
        assert_eq!(bucket0, 56);
    }

    #[test]
    fn map_side_runs_once_per_map_task() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (plan, target) = mk_plan();
        let calls = Arc::new(AtomicUsize::new(0));
        {
            let mut plan = plan.write();
            let Dep::Shuffle { map_side, .. } = &mut plan.node_mut(target).unwrap().deps[0] else {
                panic!("the target reads through a shuffle");
            };
            let (inner, calls) = (Arc::clone(map_side), Arc::clone(&calls));
            *map_side = Arc::new(move |block, n| {
                calls.fetch_add(1, Ordering::Relaxed);
                inner(block, n)
            });
        }
        LocalRunner::new().run_job(&plan, target).unwrap();
        // Two map tasks feed two reducers: the buckets are memoized across
        // reducers, so each map side runs once.
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_map_side_addressing_a_missing_reducer_fails_the_job() {
        let (plan, target) = mk_plan();
        {
            let mut plan = plan.write();
            let Dep::Shuffle { map_side, .. } = &mut plan.node_mut(target).unwrap().deps[0] else {
                panic!("the target reads through a shuffle");
            };
            *map_side = Arc::new(|block, n| Buckets::new(n, [(n, block.clone())]));
        }
        let err = LocalRunner::new().run_job(&plan, target).unwrap_err();
        assert!(matches!(err, BlazeError::Execution(msg) if msg.contains("reducer 2 of")));
    }

    /// The number of `rdd`'s partitions `runner` holds memoized.
    fn memoized(runner: &LocalRunner, rdd: RddId) -> usize {
        runner
            .blocks
            .lock()
            .get(rdd.raw() as usize)
            .map_or(0, |parts| parts.iter().flatten().count())
    }

    #[test]
    fn unpersist_drops_memoized_blocks() {
        let (plan, target) = mk_plan();
        let runner = LocalRunner::new();
        runner.run_job(&plan, target).unwrap();
        assert_eq!(memoized(&runner, target), 2);
        runner.on_unpersist(target);
        assert_eq!(memoized(&runner, target), 0);
    }

    #[test]
    fn unpersist_leaves_other_rdds_memoized() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (plan, target) = mk_plan();
        let (src, doubled) = (RddId(0), RddId(1));
        let calls = Arc::new(AtomicUsize::new(0));
        {
            let mut plan = plan.write();
            let Compute::Source(gen) = &mut plan.node_mut(src).unwrap().compute else {
                panic!("rdd 0 is the source");
            };
            let (inner, calls) = (Arc::clone(gen), Arc::clone(&calls));
            *gen = Arc::new(move |p| {
                calls.fetch_add(1, Ordering::Relaxed);
                inner(p)
            });
        }
        let runner = LocalRunner::new();
        runner.run_job(&plan, target).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        // Dropping `doubled` recomputes it from the source's memoized
        // partitions: the source runs no more.
        runner.on_unpersist(doubled);
        assert_eq!(memoized(&runner, doubled), 0);
        runner.run_job(&plan, doubled).unwrap();
        assert_eq!(memoized(&runner, doubled), 2);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        // Dropping the source makes the next read run it again.
        runner.on_unpersist(src);
        runner.run_job(&plan, src).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 4);
    }
}
