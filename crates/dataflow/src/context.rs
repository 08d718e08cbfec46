//! The driver-side context owning the lineage plan and the execution backend.

use crate::block::{Block, Data};
use crate::dataset::Dataset;
use crate::plan::{Compute, CostSpec, Plan, RddNode};
use crate::runner::JobRunner;
use blaze_common::error::Result;
use blaze_common::ids::RddId;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// The driver context: creates source datasets, owns the shared lineage
/// [`Plan`] and submits jobs to the installed [`JobRunner`].
///
/// Cloning a `Context` is cheap and shares the same plan and runner, exactly
/// like sharing a `SparkContext`.
#[derive(Clone)]
pub struct Context {
    inner: Arc<ContextInner>,
}

struct ContextInner {
    plan: Arc<RwLock<Plan>>,
    runner: Box<dyn JobRunner>,
    next_job: AtomicU32,
}

impl Context {
    /// Creates a context backed by `runner`.
    pub fn new(runner: impl JobRunner) -> Self {
        Self {
            inner: Arc::new(ContextInner {
                plan: Arc::new(RwLock::new(Plan::new())),
                runner: Box::new(runner),
                next_job: AtomicU32::new(0),
            }),
        }
    }

    /// Creates a context backed by `runner` that grows an *existing* shared
    /// plan instead of a fresh one.
    ///
    /// This is how several co-running applications share one lineage space
    /// (multi-app sessions): every context appends to the same plan, so
    /// `RddId`s are globally unique and the engine's shared cache can serve
    /// any app's blocks to any other.
    pub fn with_plan(plan: Arc<RwLock<Plan>>, runner: impl JobRunner) -> Self {
        Self {
            inner: Arc::new(ContextInner {
                plan,
                runner: Box::new(runner),
                next_job: AtomicU32::new(0),
            }),
        }
    }

    /// Returns the shared lineage plan.
    pub fn plan(&self) -> &Arc<RwLock<Plan>> {
        &self.inner.plan
    }

    /// Distributes an in-memory vector over `num_partitions` partitions.
    ///
    /// # Panics
    ///
    /// Panics if `num_partitions` is zero.
    pub fn parallelize<T: Data>(&self, data: Vec<T>, num_partitions: usize) -> Dataset<T> {
        assert!(num_partitions > 0, "parallelize needs at least one partition");
        let data = Arc::new(data);
        let n = data.len();
        self.generate(num_partitions, move |p| {
            // Even split: partition p gets the half-open range [lo, hi).
            let lo = p * n / num_partitions;
            let hi = (p + 1) * n / num_partitions;
            data[lo..hi].to_vec()
        })
        .named("parallelize")
    }

    /// Creates a source dataset whose partition `p` is generated by `gen(p)`.
    ///
    /// The generator must be deterministic: it is re-invoked on lineage
    /// recomputation, exactly like re-reading an input split.
    pub fn generate<T: Data>(
        &self,
        num_partitions: usize,
        gen: impl Fn(usize) -> Vec<T> + Send + Sync + 'static,
    ) -> Dataset<T> {
        let id = self.add_node(|id| RddNode {
            id,
            name: "generate".into(),
            num_partitions,
            deps: vec![],
            compute: Compute::Source(Arc::new(move |p| Ok(Block::from_vec(gen(p))))),
            cost: CostSpec::SOURCE,
            ser_factor: 1.0,
            partitioner: None,
            cache_annotated: false,
            unpersist_requested: false,
        });
        Dataset::new(self.clone(), id, num_partitions)
    }

    /// Creates a dataset of the numbers in `range`, split evenly.
    pub fn range(&self, range: std::ops::Range<u64>, num_partitions: usize) -> Dataset<u64> {
        let (start, end) = (range.start, range.end.max(range.start));
        let n = end - start;
        let parts = num_partitions as u64;
        self.generate(num_partitions, move |p| {
            let p = p as u64;
            let lo = start + p * n / parts;
            let hi = start + (p + 1) * n / parts;
            (lo..hi).collect()
        })
        .named("range")
    }

    /// Appends a node to the plan.
    ///
    /// # Panics
    ///
    /// Panics if the node is structurally invalid (mismatched partition
    /// counts, forward references). These are driver programming errors, the
    /// same class Spark surfaces as exceptions at graph-construction time.
    pub(crate) fn add_node(&self, build: impl FnOnce(RddId) -> RddNode) -> RddId {
        self.inner.plan.write().add_node(build).expect("invalid dataflow graph construction")
    }

    /// Runs a job materializing `target` and returns its partitions.
    pub fn run_job(&self, target: RddId) -> Result<Vec<Block>> {
        self.inner.next_job.fetch_add(1, Ordering::Relaxed);
        self.inner.runner.run_job(&self.inner.plan, target)
    }

    /// Returns the number of jobs submitted so far.
    pub fn jobs_submitted(&self) -> u32 {
        self.inner.next_job.load(Ordering::Relaxed)
    }

    /// Marks `rdd` as cache-annotated.
    pub(crate) fn mark_cached(&self, rdd: RddId) {
        self.inner.plan.write().mark_cached(rdd).expect("cache() on unknown RDD");
    }

    /// Marks `rdd` unpersisted and notifies the runner to drop its blocks.
    pub(crate) fn mark_unpersisted(&self, rdd: RddId) {
        self.inner.plan.write().mark_unpersisted(rdd).expect("unpersist() on unknown RDD");
        self.inner.runner.on_unpersist(rdd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::LocalRunner;

    #[test]
    fn parallelize_splits_evenly() {
        let ctx = Context::new(LocalRunner::new());
        let ds = ctx.parallelize((0..10u64).collect(), 3);
        assert_eq!(ds.num_partitions(), 3);
        let out = ds.collect().unwrap();
        assert_eq!(out, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn range_covers_exactly_once() {
        let ctx = Context::new(LocalRunner::new());
        let ds = ctx.range(5..25, 4);
        let mut out = ds.collect().unwrap();
        out.sort();
        assert_eq!(out, (5..25).collect::<Vec<u64>>());
    }

    #[test]
    fn job_counter_increments_per_action() {
        let ctx = Context::new(LocalRunner::new());
        let ds = ctx.range(0..10, 2);
        assert_eq!(ctx.jobs_submitted(), 0);
        ds.count().unwrap();
        ds.count().unwrap();
        assert_eq!(ctx.jobs_submitted(), 2);
    }

    #[test]
    fn clones_share_the_plan() {
        let ctx = Context::new(LocalRunner::new());
        let ctx2 = ctx.clone();
        let _ds = ctx.range(0..10, 2);
        assert_eq!(ctx2.plan().read().len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_is_a_driver_error() {
        let ctx = Context::new(LocalRunner::new());
        let _ = ctx.parallelize(vec![1u8], 0);
    }
}
