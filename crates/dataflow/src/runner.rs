//! The execution backend interface, plus a reference in-process runner.
//!
//! The dataflow layer is execution-agnostic: actions submit jobs through the
//! [`JobRunner`] installed in the [`Context`](crate::Context). The simulated
//! cluster in `blaze-engine` is the production implementation; the
//! [`LocalRunner`] here is a minimal, cache-everything reference executor
//! used for functional tests of the operator semantics themselves. It runs
//! no plan audit: the engine's per-job preflight (`blaze-audit`) does.

use crate::block::Block;
use crate::plan::{Compute, Dep, Plan};
use blaze_common::error::{BlazeError, Result};
use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::{BlockId, RddId};
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
/// it exercises operator correctness, not caching behaviour. Target
/// partitions of a job run on `threads` OS threads; since every partition is
/// a pure function of the plan and memoization is only an optimization,
/// results are identical at any thread count.
pub struct LocalRunner {
    blocks: Mutex<FxHashMap<BlockId, Block>>,
    /// Map-side shuffle buckets keyed by (consumer RDD, dep index, map task).
    buckets: Mutex<FxHashMap<(RddId, usize, usize), Vec<Block>>>,
    threads: usize,
}

impl Default for LocalRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalRunner {
    /// Creates a fresh single-threaded runner with empty memo tables.
    pub fn new() -> Self {
        Self { blocks: Mutex::default(), buckets: Mutex::default(), threads: 1 }
    }

    /// Sets the number of worker threads used per job (min 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    fn compute(&self, plan: &Plan, rdd: RddId, part: usize) -> Result<Block> {
        let key = BlockId::new(rdd, part as u32);
        if let Some(b) = self.blocks.lock().get(&key) {
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
                let mut per_dep = Vec::with_capacity(node.deps.len());
                for (dep_idx, dep) in node.deps.iter().enumerate() {
                    let Dep::Shuffle { parent, map_side } = dep else {
                        return Err(BlazeError::InvalidPlan(format!(
                            "{rdd}: shuffle agg with narrow dep"
                        )));
                    };
                    let num_maps = plan.node(*parent)?.num_partitions;
                    let mut incoming = Vec::with_capacity(num_maps);
                    for m in 0..num_maps {
                        let bucket_key = (rdd, dep_idx, m);
                        // Only this reduce task's bucket leaves the memo:
                        // every memoized vector holds `num_partitions` buckets.
                        let cached = self.buckets.lock().get(&bucket_key).map(|b| b[part].clone());
                        let bucket = match cached {
                            Some(bucket) => bucket,
                            None => {
                                let input = self.compute(plan, *parent, m)?;
                                let b = map_side(&input, node.num_partitions)?;
                                if b.len() != node.num_partitions {
                                    return Err(BlazeError::Execution(format!(
                                        "map-side for {rdd} produced {} buckets, expected {}",
                                        b.len(),
                                        node.num_partitions
                                    )));
                                }
                                let bucket = b[part].clone();
                                self.buckets.lock().insert(bucket_key, b);
                                bucket
                            }
                        };
                        incoming.push(bucket);
                    }
                    per_dep.push(incoming);
                }
                agg(part, &per_dep)?
            }
        };
        self.blocks.lock().insert(key, block.clone());
        Ok(block)
    }
}

impl JobRunner for LocalRunner {
    fn run_job(&self, plan: &Arc<RwLock<Plan>>, target: RddId) -> Result<Vec<Block>> {
        let plan = plan.read();
        let parts = plan.node(target)?.num_partitions;
        let workers = self.threads.min(parts);
        if workers <= 1 {
            return (0..parts).map(|p| self.compute(&plan, target, p)).collect();
        }

        // Scoped workers pull partition indices from a shared counter; two
        // workers may race to compute the same lineage block, but both
        // produce the same value, so the memo tables stay consistent.
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut ordered: Vec<Option<Result<Block>>> = Vec::with_capacity(parts);
        ordered.resize_with(parts, || None);
        let plan: &Plan = &plan;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let p = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if p >= parts {
                                break;
                            }
                            done.push((p, self.compute(plan, target, p)));
                        }
                        done
                    })
                })
                .collect();
            for handle in handles {
                for (p, result) in handle.join().expect("local worker panicked") {
                    ordered[p] = Some(result);
                }
            }
        });
        ordered.into_iter().map(|r| r.expect("every partition computed")).collect()
    }

    fn on_unpersist(&self, rdd: RddId) {
        self.blocks.lock().retain(|k, _| k.rdd != rdd);
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
                        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); n];
                        for &x in block.as_slice::<u64>("t")? {
                            buckets[(x % n as u64) as usize].push(x);
                        }
                        Ok(buckets.into_iter().map(Block::from_vec).collect())
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
    fn threaded_runner_matches_single_threaded() {
        let (plan, target) = mk_plan();
        let serial = LocalRunner::new().run_job(&plan, target).unwrap();
        for threads in [2, 4] {
            let runner = LocalRunner::new().with_threads(threads);
            let parallel = runner.run_job(&plan, target).unwrap();
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(
                    a.as_slice::<u64>("t").unwrap(),
                    b.as_slice::<u64>("t").unwrap(),
                    "diverged at {threads} threads"
                );
            }
        }
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
    fn unpersist_drops_memoized_blocks() {
        let (plan, target) = mk_plan();
        let runner = LocalRunner::new();
        runner.run_job(&plan, target).unwrap();
        assert!(!runner.blocks.lock().is_empty());
        runner.on_unpersist(target);
        assert!(runner.blocks.lock().keys().all(|k| k.rdd != target));
    }
}
