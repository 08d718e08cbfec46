//! Additional dataset operators beyond the core set.
//!
//! These round out the Spark-style API surface: `union`, `coalesce`,
//! `sample`, `zip_with_index`, `sort_by_key`, `keys_count` and friends.
//! They compose from the core primitives where possible (which keeps the
//! lineage plan small and the engine untouched) and otherwise follow the
//! same type-erased narrow/shuffle node patterns as `dataset.rs`.

use crate::block::{Block, Data};
use crate::dataset::Dataset;
use crate::pair::write_buckets;
use crate::plan::{Compute, CostSpec, Dep, RddNode};
use blaze_common::rng::{derive_seed, seeded};
use rand::Rng;
use std::borrow::Cow;
use std::hash::Hash;
use std::sync::Arc;

impl<T: Data> Dataset<T> {
    /// Concatenates two datasets.
    ///
    /// Both inputs are repartitioned to `num_partitions` via a keyed
    /// round-robin pass; element order across the union is unspecified
    /// (as in Spark).
    pub fn union(&self, other: &Dataset<T>, num_partitions: usize) -> Dataset<T> {
        let left = self.map_partitions_idx(|p, part| {
            part.iter().enumerate().map(|(i, x)| ((p + 2 * i) as u64, x.clone())).collect()
        });
        let right = other.map_partitions_idx(|p, part| {
            part.iter().enumerate().map(|(i, x)| ((p + 2 * i + 1) as u64, x.clone())).collect()
        });
        // Repartition both sides by the synthetic key, then merge.
        let l = left.partition_by(num_partitions);
        let r = right.partition_by(num_partitions);
        l.zip_partitions(&r, |a: &[(u64, T)], b: &[(u64, T)]| {
            a.iter().chain(b).map(|(_, x)| x.clone()).collect::<Vec<T>>()
        })
        .named("union")
    }

    /// Reduces the partition count by concatenating ranges of partitions
    /// (a shuffle-free `coalesce` is not expressible in our planner, so
    /// this performs one round-robin shuffle like `repartition`).
    pub fn coalesce(&self, num_partitions: usize) -> Dataset<T> {
        let keyed = self.map_partitions_idx(|p, part| {
            part.iter().enumerate().map(|(i, x)| ((p + i) as u64, x.clone())).collect()
        });
        keyed.partition_by(num_partitions).map(|(_, x)| x.clone()).named("coalesce")
    }

    /// Bernoulli-samples elements with probability `fraction`,
    /// deterministically in `seed`.
    pub fn sample(&self, fraction: f64, seed: u64) -> Dataset<T> {
        let fraction = fraction.clamp(0.0, 1.0);
        self.map_partitions_idx(move |p, part| {
            let mut rng = seeded(derive_seed(seed, p as u64));
            part.iter().filter(|_| rng.gen::<f64>() < fraction).cloned().collect()
        })
        .named("sample")
    }

    /// Pairs every element with a unique, dense index.
    ///
    /// Like Spark's `zipWithIndex`, this needs the sizes of all partitions
    /// before assigning offsets, which costs one extra job (a count pass).
    pub fn zip_with_index(&self) -> blaze_common::Result<Dataset<(T, u64)>> {
        let counts: Vec<u64> = self
            .map_partitions(|part| vec![part.len() as u64])
            .named("zip_with_index_counts")
            .collect()?;
        let offsets: Arc<Vec<u64>> = Arc::new(
            counts
                .iter()
                .scan(0u64, |acc, &c| {
                    let off = *acc;
                    *acc += c;
                    Some(off)
                })
                .collect(),
        );
        Ok(self
            .map_partitions_idx(move |p, part| {
                let base = offsets.get(p).copied().unwrap_or(0);
                part.iter().enumerate().map(|(i, x)| (x.clone(), base + i as u64)).collect()
            })
            .named("zip_with_index"))
    }

    /// Returns the first `n` elements under the given total order,
    /// computed with per-partition top-n pruning before the driver merge.
    pub fn top_by<F>(&self, n: usize, cmp: F) -> blaze_common::Result<Vec<T>>
    where
        F: Fn(&T, &T) -> std::cmp::Ordering + Send + Sync + Clone + 'static,
    {
        let per_part = cmp.clone();
        let partials = self
            .map_partitions(move |part| {
                let mut v: Vec<T> = part.to_vec();
                v.sort_by(|a, b| per_part(a, b));
                v.truncate(n);
                v
            })
            .named("top_partials");
        let mut all = partials.collect()?;
        all.sort_by(|a, b| cmp(a, b));
        all.truncate(n);
        Ok(all)
    }
}

impl<K, V> Dataset<(K, V)>
where
    K: Data + Hash + Eq + Ord,
    V: Data,
{
    /// Globally sorts the dataset by key.
    ///
    /// Implemented like Spark's `sortByKey`: a sampling job first picks
    /// *global* split points (Spark's `RangePartitioner` does the same
    /// hidden job), then a range shuffle routes keys and each partition
    /// sorts locally — partition `i` holds keys entirely below partition
    /// `i + 1`, so concatenating partitions yields the global order.
    ///
    /// # Errors
    ///
    /// Propagates failures of the sampling job.
    pub fn sort_by_key(&self, num_partitions: usize) -> blaze_common::Result<Dataset<(K, V)>> {
        // The sampling pass: global split points from a deterministic
        // sample of the keys.
        let mut sample: Vec<K> = self.keys().sample(0.1, 0x5EED).named("sort_sample").collect()?;
        if sample.is_empty() {
            sample = self.keys().take(4096)?;
        }
        sample.sort();
        let splits: Arc<Vec<K>> = Arc::new(
            (1..num_partitions)
                .map(|i| sample[(i * sample.len() / num_partitions).min(sample.len() - 1)].clone())
                .collect(),
        );

        let parent = self.id();
        let name = "sort_by_key".to_string();
        let map_splits = Arc::clone(&splits);
        let map_side: crate::plan::MapSideFn = Arc::new(move |block, n| {
            let pairs = block.as_slice::<(K, V)>("sort_by_key map-side")?;
            Ok(write_buckets(Cow::Borrowed(pairs), n, |(k, _)| {
                map_splits.partition_point(|s| s <= k).min(n - 1)
            }))
        });
        let agg: crate::plan::ShuffleAggFn = Arc::new(move |p, per_dep| {
            let ctx = format!("sort_by_key agg@{p}");
            let mut out: Vec<(K, V)> = Vec::new();
            for block in &per_dep[0] {
                out.extend_from_slice(block.as_slice::<(K, V)>(&ctx)?);
            }
            out.sort_by(|a, b| a.0.cmp(&b.0));
            Ok(Block::from_vec(out))
        });
        let id = self.context().add_node(|id| RddNode {
            id,
            name,
            num_partitions,
            deps: vec![Dep::Shuffle { parent, map_side }],
            compute: Compute::ShuffleAgg(agg),
            cost: CostSpec::SHUFFLE_AGG,
            ser_factor: 1.0,
            partitioner: None, // Range-partitioned, not hash-partitioned.
            cache_annotated: false,
            unpersist_requested: false,
        });
        Ok(Dataset::new(self.context().clone(), id, num_partitions))
    }
}

#[cfg(test)]
mod tests {
    use crate::context::Context;
    use crate::runner::LocalRunner;

    fn ctx() -> Context {
        Context::new(LocalRunner::new())
    }

    #[test]
    fn union_keeps_every_element() {
        let ctx = ctx();
        let a = ctx.parallelize((0..50u64).collect::<Vec<_>>(), 3);
        let b = ctx.parallelize((50..80u64).collect::<Vec<_>>(), 2);
        let mut out = a.union(&b, 4).collect().unwrap();
        out.sort();
        assert_eq!(out, (0..80).collect::<Vec<u64>>());
    }

    #[test]
    fn coalesce_changes_partitions_not_content() {
        let ctx = ctx();
        let a = ctx.parallelize((0..100u64).collect::<Vec<_>>(), 8);
        let c = a.coalesce(2);
        assert_eq!(c.num_partitions(), 2);
        let mut out = c.collect().unwrap();
        out.sort();
        assert_eq!(out, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn sample_is_deterministic_and_proportional() {
        let ctx = ctx();
        let a = ctx.parallelize((0..10_000u64).collect::<Vec<_>>(), 4);
        let s1 = a.sample(0.1, 7).collect().unwrap();
        let s2 = a.sample(0.1, 7).collect().unwrap();
        assert_eq!(s1, s2);
        assert!(s1.len() > 700 && s1.len() < 1_300, "got {}", s1.len());
        let none = a.sample(0.0, 7).collect().unwrap();
        assert!(none.is_empty());
        let all = a.sample(1.0, 7).collect().unwrap();
        assert_eq!(all.len(), 10_000);
    }

    #[test]
    fn zip_with_index_is_dense_and_unique() {
        let ctx = ctx();
        let a = ctx.parallelize((100..200u64).collect::<Vec<_>>(), 7);
        let indexed = a.zip_with_index().unwrap();
        let out = indexed.collect().unwrap();
        let mut indices: Vec<u64> = out.iter().map(|(_, i)| *i).collect();
        indices.sort();
        assert_eq!(indices, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn sort_by_key_orders_globally() {
        let ctx = ctx();
        let data: Vec<(u64, u64)> = (0..500u64).map(|i| ((i * 7919) % 1000, i)).collect();
        let sorted = ctx.parallelize(data.clone(), 5).sort_by_key(4).unwrap();
        let out = sorted.collect().unwrap();
        // collect() concatenates partitions in order; range partitioning
        // makes the concatenation globally sorted.
        let keys: Vec<u64> = out.iter().map(|(k, _)| *k).collect();
        let mut expected = keys.clone();
        expected.sort();
        assert_eq!(keys, expected);
        assert_eq!(out.len(), data.len());
    }

    #[test]
    fn sort_by_key_balances_partitions_reasonably() {
        let ctx = ctx();
        let data: Vec<(u64, u64)> = (0..4_000u64).map(|i| (i, i)).collect();
        let sorted = ctx.parallelize(data, 4).sort_by_key(4).unwrap();
        // Inspect per-partition sizes via map_partitions.
        let sizes = sorted.map_partitions(|part| vec![part.len() as u64]).collect().unwrap();
        assert_eq!(sizes.iter().sum::<u64>(), 4_000);
        assert!(sizes.iter().all(|&s| s > 400), "unbalanced: {sizes:?}");
    }

    #[test]
    fn top_by_returns_global_extremes() {
        let ctx = ctx();
        let a = ctx.parallelize((0..1_000u64).collect::<Vec<_>>(), 8);
        let top = a.top_by(5, |x, y| y.cmp(x)).unwrap();
        assert_eq!(top, vec![999, 998, 997, 996, 995]);
        let bottom = a.top_by(3, |x, y| x.cmp(y)).unwrap();
        assert_eq!(bottom, vec![0, 1, 2]);
    }
}
