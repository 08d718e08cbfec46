//! The typed dataset handle and its core transformations and actions.

use crate::block::{Block, Data};
use crate::context::Context;
use crate::plan::{Compute, CostSpec, Dep, RddNode};
use blaze_common::error::Result;
use blaze_common::ids::RddId;
use std::marker::PhantomData;
use std::sync::Arc;

/// A typed handle to a logical dataset (RDD) in the lineage plan.
///
/// Transformations are lazy; actions (`collect`, `count`, `reduce`, ...)
/// submit jobs. Handles are cheap to clone and share the underlying plan.
pub struct Dataset<T> {
    ctx: Context,
    id: RddId,
    num_partitions: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for Dataset<T> {
    fn clone(&self) -> Self {
        Self {
            ctx: self.ctx.clone(),
            id: self.id,
            num_partitions: self.num_partitions,
            _marker: PhantomData,
        }
    }
}

impl<T: Data> Dataset<T> {
    pub(crate) fn new(ctx: Context, id: RddId, num_partitions: usize) -> Self {
        Self { ctx, id, num_partitions, _marker: PhantomData }
    }

    /// Returns the RDD id of this dataset in the lineage plan.
    pub fn id(&self) -> RddId {
        self.id
    }

    /// Returns the driver context.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Returns the number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    // ---- Metadata -------------------------------------------------------

    /// Sets the human-readable operator name (lineage displays, figures).
    pub fn named(self, name: &str) -> Self {
        self.ctx.plan().write().node_mut(self.id).expect("own id").name = name.to_string();
        self
    }

    /// Overrides the compute-cost model of this operator.
    pub fn with_cost(self, cost: CostSpec) -> Self {
        self.ctx.plan().write().node_mut(self.id).expect("own id").cost = cost;
        self
    }

    /// Sets the relative serialization cost of this dataset's element type.
    ///
    /// The value is stored verbatim: a negative or non-finite factor is a
    /// construction bug that the preflight audit rejects (`BA009`) instead of
    /// being silently clamped here.
    pub fn with_ser_factor(self, factor: f64) -> Self {
        self.ctx.plan().write().node_mut(self.id).expect("own id").ser_factor = factor;
        self
    }

    /// Annotates this dataset to be cached (the Spark `cache()` user API).
    ///
    /// Baseline systems obey the annotation; Blaze treats it as advisory and
    /// decides automatically (paper §5.6).
    pub fn cache(&self) -> &Self {
        self.ctx.mark_cached(self.id);
        self
    }

    /// Requests this dataset be dropped from cache storage (`unpersist()`).
    pub fn unpersist(&self) {
        self.ctx.mark_unpersisted(self.id);
    }

    // ---- Narrow transformations ----------------------------------------

    /// Appends a narrow node over `deps`; with `keep_partitioner` it carries
    /// this dataset's partitioner over.
    pub(crate) fn narrow_node<U: Data>(
        &self,
        name: &str,
        deps: Vec<RddId>,
        cost: CostSpec,
        keep_partitioner: bool,
        f: impl Fn(usize, &[Block]) -> Result<Block> + Send + Sync + 'static,
    ) -> Dataset<U> {
        let parts = self.num_partitions;
        let name = name.to_string();
        let partitioner = if keep_partitioner {
            self.ctx.plan().read().node(self.id).expect("own id").partitioner
        } else {
            None
        };
        let id = self.ctx.add_node(|id| RddNode {
            id,
            name,
            num_partitions: parts,
            deps: deps.into_iter().map(Dep::Narrow).collect(),
            compute: Compute::Narrow(Arc::new(f)),
            cost,
            ser_factor: 1.0,
            partitioner,
            cache_annotated: false,
            unpersist_requested: false,
        });
        Dataset::new(self.ctx.clone(), id, parts)
    }

    /// Applies `f` to every element.
    ///
    /// # Examples
    ///
    /// ```
    /// use blaze_dataflow::{Context, runner::LocalRunner};
    ///
    /// let ctx = Context::new(LocalRunner::new());
    /// let squares = ctx.range(0..5, 2).map(|x| x * x);
    /// assert_eq!(squares.collect().unwrap(), vec![0, 1, 4, 9, 16]);
    /// ```
    pub fn map<U: Data>(&self, f: impl Fn(&T) -> U + Send + Sync + 'static) -> Dataset<U> {
        let id = self.id;
        self.narrow_node("map", vec![id], CostSpec::NARROW, false, move |p, inputs| {
            let ctx = format!("map@{p}");
            let v: Vec<U> = inputs[0].as_slice::<T>(&ctx)?.iter().map(&f).collect();
            Ok(Block::from_vec(v))
        })
    }

    /// Keeps the elements for which `f` returns true.
    ///
    /// # Examples
    ///
    /// ```
    /// use blaze_dataflow::{Context, runner::LocalRunner};
    ///
    /// let ctx = Context::new(LocalRunner::new());
    /// let odds = ctx.range(0..10, 2).filter(|x| x % 2 == 1);
    /// assert_eq!(odds.count().unwrap(), 5);
    /// ```
    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync + 'static) -> Dataset<T> {
        let id = self.id;
        self.narrow_node("filter", vec![id], CostSpec::NARROW, true, move |p, inputs| {
            let ctx = format!("filter@{p}");
            let v: Vec<T> =
                inputs[0].as_slice::<T>(&ctx)?.iter().filter(|x| f(x)).cloned().collect();
            Ok(Block::from_vec(v))
        })
    }

    /// Applies `f` to every element and flattens the results.
    pub fn flat_map<U: Data, I>(&self, f: impl Fn(&T) -> I + Send + Sync + 'static) -> Dataset<U>
    where
        I: IntoIterator<Item = U>,
    {
        let id = self.id;
        self.narrow_node("flat_map", vec![id], CostSpec::NARROW, false, move |p, inputs| {
            let ctx = format!("flat_map@{p}");
            let v: Vec<U> = inputs[0].as_slice::<T>(&ctx)?.iter().flat_map(&f).collect();
            Ok(Block::from_vec(v))
        })
    }

    /// Applies `f` to each whole partition.
    pub fn map_partitions<U: Data>(
        &self,
        f: impl Fn(&[T]) -> Vec<U> + Send + Sync + 'static,
    ) -> Dataset<U> {
        self.map_partitions_idx(move |_, part| f(part))
    }

    /// Applies `f` to each whole partition, with its partition index.
    pub fn map_partitions_idx<U: Data>(
        &self,
        f: impl Fn(usize, &[T]) -> Vec<U> + Send + Sync + 'static,
    ) -> Dataset<U> {
        let id = self.id;
        self.narrow_node("map_partitions", vec![id], CostSpec::NARROW, false, move |p, inputs| {
            let ctx = format!("map_partitions@{p}");
            Ok(Block::from_vec(f(p, inputs[0].as_slice::<T>(&ctx)?)))
        })
    }

    /// Combines the same-index partitions of two co-partitioned datasets.
    ///
    /// # Panics
    ///
    /// Panics at graph construction if the partition counts differ.
    pub fn zip_partitions<U: Data, V: Data>(
        &self,
        other: &Dataset<U>,
        f: impl Fn(&[T], &[U]) -> Vec<V> + Send + Sync + 'static,
    ) -> Dataset<V> {
        assert_eq!(
            self.num_partitions, other.num_partitions,
            "zip_partitions requires equal partition counts"
        );
        let deps = vec![self.id, other.id];
        self.narrow_node("zip_partitions", deps, CostSpec::NARROW, false, move |p, inputs| {
            let ctx = format!("zip_partitions@{p}");
            let left = inputs[0].as_slice::<T>(&ctx)?;
            let right = inputs[1].as_slice::<U>(&ctx)?;
            Ok(Block::from_vec(f(left, right)))
        })
    }

    // ---- Actions --------------------------------------------------------

    /// Materializes the dataset and gathers all elements on the driver.
    pub fn collect(&self) -> Result<Vec<T>> {
        let blocks = self.ctx.run_job(self.id)?;
        let mut out = Vec::new();
        for (p, b) in blocks.iter().enumerate() {
            out.extend_from_slice(b.as_slice::<T>(&format!("collect {}[{p}]", self.id))?);
        }
        Ok(out)
    }

    /// Materializes the dataset and returns the total element count.
    pub fn count(&self) -> Result<u64> {
        let blocks = self.ctx.run_job(self.id)?;
        Ok(blocks.iter().map(|b| b.len() as u64).sum())
    }

    /// Reduces all elements with `f`; `None` for an empty dataset.
    pub fn reduce(&self, f: impl Fn(&T, &T) -> T + Send + Sync + 'static) -> Result<Option<T>> {
        // Partial-reduce inside each partition, final reduce on the driver,
        // exactly like Spark's `reduce`.
        let f = Arc::new(f);
        let task_f = Arc::clone(&f);
        let partials = self
            .map_partitions(move |part| {
                let mut it = part.iter();
                match it.next() {
                    None => Vec::new(),
                    Some(first) => {
                        vec![it.fold(first.clone(), |acc, x| task_f(&acc, x))]
                    }
                }
            })
            .named("reduce_partials");
        let partials = partials.collect()?;
        Ok(partials.into_iter().reduce(|a, b| f(&a, &b)))
    }

    /// Aggregates the dataset with a per-element `seq` function and a
    /// cross-partition `comb` function, starting from `zero`.
    pub fn aggregate<A: Data>(
        &self,
        zero: A,
        seq: impl Fn(A, &T) -> A + Send + Sync + 'static,
        comb: impl Fn(A, A) -> A + Send + Sync + 'static,
    ) -> Result<A> {
        let z = zero.clone();
        let partials = self
            .map_partitions(move |part| vec![part.iter().fold(z.clone(), &seq)])
            .named("aggregate_partials");
        let partials = partials.collect()?;
        Ok(partials.into_iter().fold(zero, comb))
    }

    /// Returns up to `n` elements from the start of the dataset.
    pub fn take(&self, n: usize) -> Result<Vec<T>> {
        let mut all = self.collect()?;
        all.truncate(n);
        Ok(all)
    }
}

impl<K, V> Dataset<(K, V)>
where
    K: Data + std::hash::Hash + Eq,
    V: Data,
{
    /// Declares that this dataset's records are hash-partitioned by key
    /// over `num_partitions` partitions (advanced API).
    ///
    /// Used by key-preserving operators whose construction guarantees the
    /// layout (e.g. the zip stage of a co-partitioned join), so downstream
    /// `partition_by` calls become no-ops. In debug builds every computed
    /// partition is verified against the declared layout: a key hashing to
    /// a different partition fails the task loudly with BA008 instead of
    /// silently corrupting keyed results. Release builds skip the check
    /// entirely (the declaration is trusted).
    pub fn assume_partitioned(self, num_partitions: usize) -> Self {
        let plan = self.ctx.plan();
        let mut guard = plan.write();
        let node = guard.node_mut(self.id).expect("own id");
        node.partitioner = Some(crate::partitioner::HashPartitioner::new(num_partitions));
        #[cfg(debug_assertions)]
        {
            let name = node.name.clone();
            let check = move |p: usize, block: &Block| -> Result<()> {
                verify_keyed_layout::<K, V>(&name, p, num_partitions, block)
            };
            node.compute = match node.compute.clone() {
                Compute::Source(f) => Compute::Source(Arc::new(move |p| {
                    let b = f(p)?;
                    check(p, &b)?;
                    Ok(b)
                })),
                Compute::Narrow(f) => Compute::Narrow(Arc::new(move |p, inputs| {
                    let b = f(p, inputs)?;
                    check(p, &b)?;
                    Ok(b)
                })),
                Compute::ShuffleAgg(f) => Compute::ShuffleAgg(Arc::new(move |p, buckets| {
                    let b = f(p, buckets)?;
                    check(p, &b)?;
                    Ok(b)
                })),
            };
        }
        drop(guard);
        self
    }
}

/// Debug-build enforcement of [`Dataset::assume_partitioned`]: every key in
/// the computed partition must hash to that partition under the declared
/// layout. A violation is the BA008 audit failure — an assumed partitioner
/// that does not hold silently corrupts every downstream keyed operator
/// that skips its shuffle on the strength of the declaration.
#[cfg(debug_assertions)]
fn verify_keyed_layout<K, V>(
    name: &str,
    part: usize,
    num_partitions: usize,
    block: &Block,
) -> Result<()>
where
    K: Data + std::hash::Hash + Eq,
    V: Data,
{
    let partitioner = crate::partitioner::HashPartitioner::new(num_partitions);
    let pairs = block.as_slice::<(K, V)>(&format!("assume_partitioned '{name}'@{part}"))?;
    for (k, _) in pairs {
        let want = partitioner.partition(k);
        if want != part {
            return Err(blaze_common::error::BlazeError::Audit {
                code: "BA008".into(),
                message: format!(
                    "assume_partitioned({num_partitions}) on '{name}' does not hold: partition \
                     {part} holds a key that hashes to partition {want}"
                ),
            });
        }
    }
    Ok(())
}

impl<T: Data> std::fmt::Debug for Dataset<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset")
            .field("id", &self.id)
            .field("num_partitions", &self.num_partitions)
            .finish()
    }
}
