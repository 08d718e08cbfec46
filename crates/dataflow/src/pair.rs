//! Key-value operations: shuffles and joins.
//!
//! These are the operators that create stage boundaries (paper §2.2): the
//! map side buckets records by key hash, and reduce tasks aggregate the
//! buckets addressed to them. Joins of co-partitioned datasets are planned
//! as narrow `zip_partitions`, like Spark's co-partitioned joins, so
//! `partition_by` + iterate produces one shuffle per iteration rather than
//! two.

use crate::block::{Block, Buckets, Data};
use crate::dataset::Dataset;
use crate::partitioner::HashPartitioner;
use crate::plan::{Compute, CostSpec, Dep, MapSideFn, RddNode, ShuffleAggFn};
use blaze_common::error::{BlazeError, Result};
// audit: allow(record-order) for `ProbeIndex` only: a lookup table, never a block
use blaze_common::fxhash::{hash_one, FxHashMap};
use std::borrow::Cow;
use std::hash::Hash;
use std::sync::Arc;

/// The map side of every shuffle: splits one partition's records into
/// buckets for `n` reducers, `dest` naming each record's reducer, and
/// returns the buckets that hold records.
///
/// Records keep their relative order within a bucket. Owned records are
/// moved, borrowed ones cloned. Only a bucket that receives a record is
/// allocated, once and at its exact size: the outer capacity of a block is
/// memory no size estimate sees.
fn write_buckets<T: Data>(
    records: Cow<'_, [T]>,
    n: usize,
    dest: impl Fn(&T) -> usize,
) -> Result<Buckets> {
    let buckets = split_sparse(records, n, dest)?;
    Buckets::new(n, buckets.into_iter().map(|(r, bucket)| (r, Block::from_vec(bucket))))
}

/// The records of every non-empty bucket, in ascending reducer order.
fn split_sparse<T: Clone>(
    records: Cow<'_, [T]>,
    n: usize,
    dest: impl Fn(&T) -> usize,
) -> Result<Vec<(usize, Vec<T>)>> {
    let dests: Vec<usize> = records.iter().map(dest).collect();
    // Per reducer, its record count; then, for a non-empty one, its slot.
    let mut slot_of = vec![0usize; n];
    for &d in &dests {
        let count = slot_of
            .get_mut(d)
            .ok_or_else(|| BlazeError::Execution(format!("record routed to reducer {d} of {n}")))?;
        *count += 1;
    }
    let mut buckets = Vec::with_capacity(slot_of.iter().filter(|&&c| c > 0).count());
    for (r, slot) in slot_of.iter_mut().enumerate() {
        if *slot > 0 {
            buckets.push((r, Vec::with_capacity(*slot)));
            *slot = buckets.len() - 1;
        }
    }
    match records {
        Cow::Borrowed(records) => {
            for (record, d) in records.iter().zip(dests) {
                buckets[slot_of[d]].1.push(record.clone());
            }
        }
        Cow::Owned(records) => {
            for (record, d) in records.into_iter().zip(dests) {
                buckets[slot_of[d]].1.push(record);
            }
        }
    }
    Ok(buckets)
}

/// Splits a partition of pairs into buckets for `n` reducers by key hash.
fn hash_buckets<K: Data + Hash, V: Data>(pairs: Cow<'_, [(K, V)]>, n: usize) -> Result<Buckets> {
    let partitioner = HashPartitioner::new(n);
    write_buckets(pairs, n, |(k, _)| partitioner.partition(k))
}

/// The one keyed accumulator, behind `reduce_by_key` and `group_by_key`: one
/// entry per key in **first-occurrence order**, found through an
/// open-addressing table of `index + 1` (0 = free).
///
/// `entries` is the operator's output, so record order inside a block is a
/// rule — keys in the order the input first shows them, a reduce task reading
/// its buckets in map order — and not the layout of somebody's hash table.
/// The table is sized once from the number of input records (load <= 0.5):
/// there is no growth path, and an empty input allocates nothing.
struct KeyedFold<K, C> {
    entries: Vec<(K, C)>,
    slots: Vec<u32>,
}

impl<K: Hash + Eq + Clone, C> KeyedFold<K, C> {
    /// A fold that takes at most `records` calls of [`Self::upsert`].
    fn for_records(records: usize) -> Result<Self> {
        if u32::try_from(records).is_err() {
            return Err(BlazeError::Execution(format!(
                "keyed operator over {records} records in one task; entries are indexed by u32"
            )));
        }
        let slots = if records == 0 { 0 } else { (2 * records).next_power_of_two() };
        Ok(Self { entries: Vec::new(), slots: vec![0; slots] })
    }

    /// The slot a key's probe sequence starts at. Both halves of the hash
    /// are folded in: the top bits of Fx alone cluster dense integer keys,
    /// and the low bits alone are what the partitioner took `% n` of, so the
    /// keys of one reduce task reach only one slot in `gcd(n, slots)`.
    fn home(&self, key: &K) -> usize {
        let h = hash_one(key);
        (h ^ (h >> 32)) as usize & (self.slots.len() - 1)
    }

    /// Applies `update` to `key`'s accumulator, or on its first occurrence
    /// appends the one `insert` makes (the only time the key is cloned).
    fn upsert(&mut self, key: &K, insert: impl FnOnce() -> C, update: impl FnOnce(&mut C)) {
        let mut slot = self.home(key);
        loop {
            match self.slots[slot] {
                0 => {
                    assert!(2 * self.entries.len() < self.slots.len(), "more keys than records");
                    self.entries.push((key.clone(), insert()));
                    self.slots[slot] = self.entries.len() as u32;
                    return;
                }
                taken => {
                    let (k, acc) = &mut self.entries[taken as usize - 1];
                    if k == key {
                        return update(acc);
                    }
                }
            }
            slot = (slot + 1) & (self.slots.len() - 1);
        }
    }
}

/// A fold's entries as a block, less the spare capacity `push` left them:
/// outer capacity is memory no size estimate sees.
fn exact_block<T: Data>(mut entries: Vec<T>) -> Block {
    entries.shrink_to_fit();
    Block::from_vec(entries)
}

/// The fold of a reduce task, sized for every record in its buckets.
fn fold_over<K: Hash + Eq + Clone, C>(buckets: &[Block]) -> Result<KeyedFold<K, C>> {
    KeyedFold::for_records(buckets.iter().map(Block::len).sum())
}

/// A group holding `v`, built with the calls `or_default().push(v)` makes: a
/// one-value group then has the capacity `push` gives it, not `vec![v]`'s 1,
/// and nested capacity is part of a block's size.
#[allow(clippy::vec_init_then_push)]
fn group_of<V: Clone>(v: &V) -> Vec<V> {
    let mut group = Vec::new();
    group.push(v.clone());
    group
}

/// A borrowed probe index over the right side of a co-partitioned join: the
/// first position of every key and, per position, the next one holding the
/// same key. Probing yields a key's values in right-side order and allocates
/// nothing per key.
struct ProbeIndex<'a, K, W> {
    right: &'a [(K, W)],
    // audit: allow(record-order) lookup only: probed per left record, never iterated
    first: FxHashMap<&'a K, usize>,
    /// `next[i]` follows `i` in its key's chain; `right.len()` ends it.
    next: Vec<usize>,
}

impl<'a, K: Hash + Eq, W> ProbeIndex<'a, K, W> {
    fn new(right: &'a [(K, W)]) -> Self {
        let end = right.len();
        // audit: allow(record-order) lookup only
        let mut first = FxHashMap::with_capacity_and_hasher(end, Default::default());
        let mut next = vec![end; end];
        // Back to front, so every chain runs forward from the first position.
        for (i, (k, _)) in right.iter().enumerate().rev() {
            if let Some(later) = first.insert(k, i) {
                next[i] = later;
            }
        }
        Self { right, first, next }
    }

    fn matches(&self, key: &K) -> impl Iterator<Item = &'a W> + '_ {
        let right = self.right;
        std::iter::successors(self.first.get(key).copied(), move |&i| {
            Some(self.next[i]).filter(|&j| j < right.len())
        })
        .map(move |i| &right[i].1)
    }
}

impl<K, V> Dataset<(K, V)>
where
    K: Data + Hash + Eq,
    V: Data,
{
    fn shuffle_node<U: Data>(
        &self,
        name: &str,
        num_partitions: usize,
        map_side: MapSideFn,
        agg: ShuffleAggFn,
    ) -> Dataset<U> {
        let parent = self.id();
        let name = name.to_string();
        let id = self.context().add_node(|id| RddNode {
            id,
            name,
            num_partitions,
            deps: vec![Dep::Shuffle { parent, map_side }],
            compute: Compute::ShuffleAgg(agg),
            cost: CostSpec::SHUFFLE_AGG,
            ser_factor: 1.0,
            partitioner: Some(HashPartitioner::new(num_partitions)),
            cache_annotated: false,
            unpersist_requested: false,
        });
        Dataset::new(self.context().clone(), id, num_partitions)
    }

    /// Merges values per key with `f`, shuffling into `num_partitions`
    /// hash partitions. Performs map-side combining like Spark.
    ///
    /// # Examples
    ///
    /// ```
    /// use blaze_dataflow::{Context, runner::LocalRunner};
    ///
    /// let ctx = Context::new(LocalRunner::new());
    /// let pairs = ctx.parallelize(vec![("a", 1u32), ("b", 2), ("a", 3)], 2);
    /// let mut sums = pairs.reduce_by_key(2, |x, y| x + y).collect().unwrap();
    /// sums.sort();
    /// assert_eq!(sums, vec![("a", 4), ("b", 2)]);
    /// ```
    pub fn reduce_by_key(
        &self,
        num_partitions: usize,
        f: impl Fn(&V, &V) -> V + Send + Sync + 'static,
    ) -> Dataset<(K, V)> {
        let f = Arc::new(f);
        let map_f = Arc::clone(&f);
        let map_side: MapSideFn = Arc::new(move |block, n| {
            let pairs = block.as_slice::<(K, V)>("reduce_by_key map-side")?;
            // Map-side combine: one value per key per map task.
            let mut combined = KeyedFold::for_records(pairs.len())?;
            for (k, v) in pairs {
                combined.upsert(k, || v.clone(), |acc| *acc = map_f(acc, v));
            }
            hash_buckets(Cow::Owned(combined.entries), n)
        });
        let agg_f = Arc::clone(&f);
        let agg: ShuffleAggFn = Arc::new(move |p, per_dep| {
            let mut merged = fold_over(&per_dep[0])?;
            for block in &per_dep[0] {
                for (k, v) in block.as_slice::<(K, V)>(format_args!("reduce_by_key agg@{p}"))? {
                    merged.upsert(k, || v.clone(), |acc| *acc = agg_f(acc, v));
                }
            }
            Ok(exact_block(merged.entries))
        });
        self.shuffle_node("reduce_by_key", num_partitions, map_side, agg)
    }

    /// Groups all values per key, shuffling into `num_partitions` hash
    /// partitions.
    pub fn group_by_key(&self, num_partitions: usize) -> Dataset<(K, Vec<V>)> {
        let map_side: MapSideFn = Arc::new(move |block, n| {
            let pairs = block.as_slice::<(K, V)>("group_by_key map-side")?;
            hash_buckets(Cow::Borrowed(pairs), n)
        });
        let agg: ShuffleAggFn = Arc::new(move |p, per_dep| {
            let mut groups = fold_over(&per_dep[0])?;
            for block in &per_dep[0] {
                for (k, v) in block.as_slice::<(K, V)>(format_args!("group_by_key agg@{p}"))? {
                    groups.upsert(k, || group_of(v), |group| group.push(v.clone()));
                }
            }
            Ok(exact_block(groups.entries))
        });
        self.shuffle_node("group_by_key", num_partitions, map_side, agg)
    }

    /// Hash-partitions the dataset by key into `num_partitions` partitions.
    ///
    /// A no-op (returns a clone of `self`) when the dataset is already
    /// partitioned this way, so repeated calls do not add shuffles.
    pub fn partition_by(&self, num_partitions: usize) -> Dataset<(K, V)> {
        let existing = self.context().plan().read().node(self.id()).expect("own id").partitioner;
        if existing == Some(HashPartitioner::new(num_partitions)) {
            return self.clone();
        }
        let map_side: MapSideFn = Arc::new(move |block, n| {
            let pairs = block.as_slice::<(K, V)>("partition_by map-side")?;
            hash_buckets(Cow::Borrowed(pairs), n)
        });
        let agg: ShuffleAggFn = Arc::new(move |p, per_dep| {
            let mut out: Vec<(K, V)> = Vec::new();
            for block in &per_dep[0] {
                out.extend_from_slice(
                    block.as_slice::<(K, V)>(format_args!("partition_by agg@{p}"))?,
                );
            }
            Ok(Block::from_vec(out))
        });
        self.shuffle_node("partition_by", num_partitions, map_side, agg)
    }

    /// Applies `f` to every value, keeping keys (and partitioning).
    pub fn map_values<W: Data>(
        &self,
        f: impl Fn(&V) -> W + Send + Sync + 'static,
    ) -> Dataset<(K, W)> {
        let id = self.id();
        self.narrow_node("map_values", vec![id], CostSpec::NARROW, true, move |p, inputs| {
            let v: Vec<(K, W)> = inputs[0]
                .as_slice::<(K, V)>(format_args!("map_values@{p}"))?
                .iter()
                .map(|(k, v)| (k.clone(), f(v)))
                .collect();
            Ok(Block::from_vec(v))
        })
    }

    /// Returns the keys.
    pub fn keys(&self) -> Dataset<K> {
        self.map(|(k, _)| k.clone()).named("keys")
    }

    /// Inner join on key, shuffling both sides into `num_partitions`
    /// co-partitioned partitions (no shuffle for already-partitioned sides).
    pub fn join<W: Data>(
        &self,
        other: &Dataset<(K, W)>,
        num_partitions: usize,
    ) -> Dataset<(K, (V, W))> {
        let left = self.partition_by(num_partitions);
        let right = other.partition_by(num_partitions);
        left.zip_partitions(&right, |l: &[(K, V)], r: &[(K, W)]| {
            let index = ProbeIndex::new(r);
            let mut out = Vec::with_capacity(l.len());
            for (k, v) in l {
                for w in index.matches(k) {
                    out.push((k.clone(), (v.clone(), w.clone())));
                }
            }
            out
        })
        .named("join")
        .assume_partitioned(num_partitions)
    }

    /// Left outer join on key.
    pub fn left_outer_join<W: Data>(
        &self,
        other: &Dataset<(K, W)>,
        num_partitions: usize,
    ) -> Dataset<(K, (V, Option<W>))> {
        let left = self.partition_by(num_partitions);
        let right = other.partition_by(num_partitions);
        left.zip_partitions(&right, |l: &[(K, V)], r: &[(K, W)]| {
            let index = ProbeIndex::new(r);
            let mut out = Vec::with_capacity(l.len());
            for (k, v) in l {
                let mut ws = index.matches(k).peekable();
                if ws.peek().is_none() {
                    out.push((k.clone(), (v.clone(), None)));
                }
                for w in ws {
                    out.push((k.clone(), (v.clone(), Some(w.clone()))));
                }
            }
            out
        })
        .named("left_outer_join")
        .assume_partitioned(num_partitions)
    }
}

impl<T> Dataset<T>
where
    T: Data + Hash + Eq,
{
    /// Removes duplicate elements, shuffling into `num_partitions`.
    pub fn distinct(&self, num_partitions: usize) -> Dataset<T> {
        self.map(|t| (t.clone(), ()))
            .reduce_by_key(num_partitions, |_, _| ())
            .map(|(t, ())| t.clone())
            .named("distinct")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::runner::LocalRunner;

    fn ctx() -> Context {
        Context::new(LocalRunner::new())
    }

    #[test]
    fn reduce_by_key_sums_per_key() {
        let ctx = ctx();
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i % 5, 1u64)).collect();
        let ds = ctx.parallelize(pairs, 4).reduce_by_key(3, |a, b| a + b);
        let mut out = ds.collect().unwrap();
        out.sort();
        assert_eq!(out, (0..5).map(|k| (k, 20u64)).collect::<Vec<_>>());
    }

    #[test]
    fn group_by_key_collects_all_values() {
        let ctx = ctx();
        let pairs = vec![(1u32, 10u32), (2, 20), (1, 11), (2, 21), (1, 12)];
        let ds = ctx.parallelize(pairs, 2).group_by_key(2);
        let mut out = ds.collect().unwrap();
        out.sort();
        for (_, vs) in out.iter_mut() {
            vs.sort();
        }
        assert_eq!(out, vec![(1, vec![10, 11, 12]), (2, vec![20, 21])]);
    }

    #[test]
    fn partition_by_is_idempotent_in_the_plan() {
        let ctx = ctx();
        let ds = ctx.parallelize(vec![(1u32, 1u32)], 2);
        let p1 = ds.partition_by(4);
        let before = ctx.plan().read().len();
        let p2 = p1.partition_by(4);
        assert_eq!(ctx.plan().read().len(), before, "no new node expected");
        assert_eq!(p1.id(), p2.id());
        // A different partition count still shuffles.
        let p3 = p2.partition_by(8);
        assert_ne!(p3.id(), p2.id());
    }

    #[test]
    fn join_matches_per_key() {
        let ctx = ctx();
        let left = ctx.parallelize(vec![(1u32, "a"), (2, "b"), (3, "c")], 2);
        let right = ctx.parallelize(vec![(1u32, 10u64), (2, 20), (2, 21), (4, 40)], 2);
        let mut out = left.map_values(|s| s.to_string()).join(&right, 3).collect().unwrap();
        out.sort();
        assert_eq!(
            out,
            vec![
                (1, ("a".to_string(), 10)),
                (2, ("b".to_string(), 20)),
                (2, ("b".to_string(), 21)),
            ]
        );
    }

    #[test]
    fn left_outer_join_keeps_unmatched_left() {
        let ctx = ctx();
        let left = ctx.parallelize(vec![(1u32, 1u8), (9, 9)], 2);
        let right = ctx.parallelize(vec![(1u32, 5u8)], 2);
        let mut out = left.left_outer_join(&right, 2).collect().unwrap();
        out.sort();
        assert_eq!(out, vec![(1, (1, Some(5))), (9, (9, None))]);
    }

    #[test]
    fn distinct_deduplicates() {
        let ctx = ctx();
        let ds = ctx.parallelize(vec![1u32, 2, 2, 3, 3, 3], 3).distinct(2);
        let mut out = ds.collect().unwrap();
        out.sort();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn keys_project() {
        let ctx = ctx();
        let ds = ctx.parallelize(vec![(1u32, 10u32), (2, 20)], 1);
        let mut ks = ds.keys().collect().unwrap();
        ks.sort();
        assert_eq!(ks, vec![1, 2]);
    }

    #[test]
    fn bucket_writer_is_stable_exact_and_complete() {
        // (bucket, sequence number): the sequence must survive per bucket.
        let records: Vec<(usize, u32)> = (0..40u32).map(|i| ((i as usize * 7) % 5, i)).collect();
        let n = 8; // buckets 5..8 stay empty
        let borrowed = split_sparse(Cow::Borrowed(&records[..]), n, |r| r.0).unwrap();
        let owned = split_sparse(Cow::Owned(records.clone()), n, |r| r.0).unwrap();
        assert_eq!(borrowed, owned);
        assert_eq!(owned.iter().map(|b| b.0).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        for (b, bucket) in &owned {
            assert_eq!(bucket.capacity(), bucket.len(), "bucket {b} over-allocated");
            let want: Vec<(usize, u32)> = records.iter().filter(|r| r.0 == *b).copied().collect();
            assert_eq!(bucket, &want, "bucket {b} lost or reordered records");
        }
        let blocks = write_buckets(Cow::Owned(records), n, |r| r.0).unwrap();
        let lens: Vec<(usize, usize)> = blocks.iter().map(|(r, b)| (r, b.len())).collect();
        assert_eq!(lens, owned.iter().map(|(r, v)| (*r, v.len())).collect::<Vec<_>>());
        assert!((5..n).all(|r| blocks.get(r).is_none()));
    }

    #[test]
    fn a_record_routed_past_the_last_reducer_is_an_error() {
        let err = write_buckets(Cow::Owned(vec![1usize, 9]), 4, |&r| r).unwrap_err();
        assert_eq!(err, BlazeError::Execution("record routed to reducer 9 of 4".into()));
    }

    /// Nested vectors are sized with their spare capacity, so block sizes —
    /// and through them admissions and simulated time — depend on *which
    /// calls* build them: `group_by_key` grows its groups by `push` from
    /// empty, the joins `clone` them to exact capacity. The literals were
    /// taken by running this body on the hash-map kernels; a kernel that
    /// builds nested values some other way moves them. The accumulator that
    /// *finds* a key's group is free: record order is not in any size.
    #[test]
    fn nested_vector_block_sizes_are_pinned() {
        let ctx = ctx();
        let nested = |i: u64| (0..=i % 5).collect::<Vec<u64>>();
        let left = (0..60u64).map(|i| ((i % 7) as u32, nested(i))).collect();
        let right = (0..30u64).map(|i| ((i % 5) as u32 + 4, nested(i + 3))).collect();
        let grouped = ctx.parallelize::<(u32, Vec<u64>)>(left, 3).group_by_key(4);
        let right = ctx.parallelize::<(u32, Vec<u64>)>(right, 2);
        let sizes = |blocks: Vec<Block>| -> Vec<u64> {
            blocks.iter().map(|b| b.bytes().as_bytes()).collect()
        };
        assert_eq!(sizes(ctx.run_job(grouped.id()).unwrap()), [1048, 1024, 1040, 636]);
        let joined = grouped.join(&right, 4);
        assert_eq!(sizes(ctx.run_job(joined.id()).unwrap()), [2904, 2856, 2568, 0]);
        let outer = grouped.left_outer_join(&right, 4);
        assert_eq!(sizes(ctx.run_job(outer.id()).unwrap()), [3380, 3324, 3068, 492]);
        // 46 of 53 keys occur once: a group built as `vec![v]` (capacity 1,
        // not `push`'s 4) passes the cases above and fails this one.
        let sparse = (0..60u64).map(|i| ((i * 7 % 53) as u32, nested(i))).collect();
        let sparse = ctx.parallelize::<(u32, Vec<u64>)>(sparse, 3).group_by_key(4);
        assert_eq!(sizes(ctx.run_job(sparse.id()).unwrap()), [2104, 1964, 1972, 1972]);
    }

    impl<K: Hash + Eq + Clone, C> KeyedFold<K, C> {
        /// Slots inspected to find `key`, which must be present.
        fn probes(&self, key: &K) -> usize {
            let mask = self.slots.len() - 1;
            let found = |slot: &usize| self.entries[self.slots[*slot] as usize - 1].0 == *key;
            1 + (0..).map(|i| (self.home(key) + i) & mask).position(|slot| found(&slot)).unwrap()
        }
    }

    /// Folds `records` as a task would and returns the mean probes per
    /// record at the load the sizing rule gives.
    fn mean_probes(records: &[u64]) -> f64 {
        let mut fold = KeyedFold::for_records(records.len()).unwrap();
        for k in records {
            fold.upsert(k, || 1u32, |n| *n += 1);
        }
        assert_eq!(fold.entries.iter().map(|e| e.1 as usize).sum::<usize>(), records.len());
        records.iter().map(|k| fold.probes(k)).sum::<usize>() as f64 / records.len() as f64
    }

    /// The two slot functions that were tried first fail exactly here: the
    /// top bits of Fx cluster dense keys, and its low bits leave most of the
    /// table unreachable for the keys of one reduce partition.
    #[test]
    fn probe_sequences_stay_short_on_the_keys_tasks_see() {
        use rand::Rng;
        let check = |what: &str, records: Vec<u64>| {
            let mean = mean_probes(&records);
            assert!(mean <= 1.5, "{what}: {mean:.2} probes per record");
        };
        check("dense", (0..14_500).collect());
        for parts in [16, 10] {
            let partitioner = HashPartitioner::new(parts);
            for p in [0, parts - 1] {
                let mine = (0..60_000).filter(|k| partitioner.partition(k) == p).collect();
                check(&format!("partition {p} of {parts}"), mine);
            }
        }
        // What a `pr_*` map side folds: 43 500 contributions whose
        // destinations are a product of three uniforms over 60 000 vertices.
        let mut rng = blaze_common::rng::seeded(42);
        let mut uniform = || rng.gen::<f64>();
        let skewed =
            (0..43_500).map(|_| (uniform() * uniform() * uniform() * 60_000.0) as u64).collect();
        check("skewed", skewed);
    }

    #[test]
    fn upsert_matches_an_ordered_map_and_keeps_first_occurrence_order() {
        use rand::Rng;
        use std::collections::BTreeMap;
        let mut rng = blaze_common::rng::seeded(7);
        for case in 0..200 {
            let len = rng.gen_range(1..300usize);
            let keys = rng.gen_range(1..len as u64 + 1);
            let records: Vec<(u64, u64)> =
                (0..len).map(|_| (rng.gen_range(0..keys) * 0x10001, rng.gen())).collect();
            let mut fold = KeyedFold::for_records(len).unwrap();
            let (mut model, mut order) = (BTreeMap::new(), Vec::new());
            for (k, v) in &records {
                fold.upsert(k, || vec![*v], |seen| seen.push(*v));
                model.entry(*k).or_insert_with(|| (order.push(*k), Vec::new()).1).push(*v);
            }
            let want: Vec<(u64, Vec<u64>)> = order.iter().map(|k| (*k, model[k].clone())).collect();
            assert_eq!(fold.entries, want, "case {case}");
            assert_eq!(fold.slots.len(), (2 * len).next_power_of_two());
        }
    }

    #[test]
    fn an_empty_fold_allocates_nothing_and_an_oversized_one_is_an_error() {
        // `km_tiny_tasks` runs thousands of map sides over empty partitions.
        let empty = KeyedFold::<u64, u64>::for_records(0).unwrap();
        assert_eq!((empty.slots.capacity(), empty.entries.capacity()), (0, 0));
        // Entry indices are `u32`: one more record than they can count is
        // refused before anything is allocated, not wrapped.
        let err = KeyedFold::<u64, u64>::for_records(u32::MAX as usize + 1).err();
        assert!(matches!(err, Some(BlazeError::Execution(msg)) if msg.contains("4294967296")));
    }

    #[test]
    fn map_values_preserves_partitioner() {
        let ctx = ctx();
        let ds = ctx.parallelize(vec![(1u32, 1u32)], 2).partition_by(4);
        let mapped = ds.map_values(|v| v + 1);
        let plan = ctx.plan().read();
        assert_eq!(plan.node(mapped.id()).unwrap().partitioner, Some(HashPartitioner::new(4)));
    }
}
