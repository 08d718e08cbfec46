//! Record order of the keyed operators against a linear-scan reference.
//!
//! The rule: a keyed operator emits its keys in the order its input first
//! shows them, and merges later occurrences into that record in input order;
//! a reduce task reads the map outputs in map order. Block sizes do not
//! depend on record order, but every `f64` sum downstream and the allocation
//! order of nested values do, so partitions are compared exactly, not sorted.
//! The reference below shares nothing with the kernels' index table: it finds
//! a key by scanning what it has emitted so far.
//!
//! A map task writes only its non-empty buckets; the last property holds the
//! sparse outputs and the reduce tasks that read them to a dense reference.

use blaze_common::ids::RddId;
use blaze_dataflow::plan::{MapSideFn, ShuffleAggFn};
use blaze_dataflow::runner::LocalRunner;
use blaze_dataflow::{Block, Compute, Context, Data, Dataset, Dep, HashPartitioner};
use proptest::prelude::*;
use std::hash::Hash;

/// The records of every partition, in partition order.
fn partitions<T: Data>(ds: &Dataset<T>) -> Vec<Vec<T>> {
    ds.map_partitions(|part| vec![part.to_vec()]).collect().unwrap()
}

/// First occurrence appends `init(v)`, later occurrences `merge` in place.
fn scan<K: Eq, V, C>(
    records: impl IntoIterator<Item = (K, V)>,
    init: impl Fn(V) -> C,
    merge: impl Fn(&mut C, V),
) -> Vec<(K, C)> {
    let mut out: Vec<(K, C)> = Vec::new();
    for (k, v) in records {
        match out.iter_mut().find(|(seen, _)| *seen == k) {
            Some((_, acc)) => merge(acc, v),
            None => out.push((k, init(v))),
        }
    }
    out
}

/// What reduce task `p` of `parts` reads: its keys' records from every map
/// output, in map order.
fn fetched<K: Hash + Clone, C: Clone>(maps: &[Vec<(K, C)>], parts: usize, p: usize) -> Vec<(K, C)> {
    let partitioner = HashPartitioner::new(parts);
    maps.iter().flatten().filter(|(k, _)| partitioner.partition(k) == p).cloned().collect()
}

/// Order-sensitive on purpose: merging in any other order changes the value.
fn mix(a: &u32, b: &u32) -> u32 {
    a.wrapping_mul(31).wrapping_add(*b)
}

fn check<K: Data + Hash + Eq + std::fmt::Debug>(
    records: Vec<(K, u32)>,
    in_parts: usize,
    parts: usize,
) -> Result<(), TestCaseError> {
    let ctx = Context::new(LocalRunner::new());
    let input = ctx.parallelize(records, in_parts);
    let maps = partitions(&input);

    // partition_by: reduce task `p` holds its keys' records in map order.
    let routed: Vec<Vec<(K, u32)>> = (0..parts).map(|p| fetched(&maps, parts, p)).collect();
    prop_assert_eq!(partitions(&input.partition_by(parts)), routed.clone());

    // reduce_by_key and distinct: combined per map task, then per reduce task.
    let combined: Vec<Vec<(K, u32)>> =
        maps.iter().map(|m| scan(m.clone(), |v| v, |acc, v| *acc = mix(acc, &v))).collect();
    let reduced: Vec<Vec<(K, u32)>> = (0..parts)
        .map(|p| scan(fetched(&combined, parts, p), |v| v, |acc, v| *acc = mix(acc, &v)))
        .collect();
    prop_assert_eq!(partitions(&input.reduce_by_key(parts, mix)), reduced.clone());
    let keys: Vec<Vec<K>> =
        reduced.iter().map(|part| part.iter().map(|(k, _)| k.clone()).collect()).collect();
    prop_assert_eq!(partitions(&input.keys().distinct(parts)), keys);

    // group_by_key: no map-side combine, so a reduce task sees every record.
    let grouped: Vec<Vec<(K, Vec<u32>)>> =
        routed.into_iter().map(|task| scan(task, |v| vec![v], |acc, v| acc.push(v))).collect();
    prop_assert_eq!(partitions(&input.group_by_key(parts)), grouped);
    Ok(())
}

/// Up to 12 distinct keys over up to 60 records: most keys repeat, within a
/// map task and across them, and with up to 9 output partitions some stay
/// empty; with up to 5 input partitions and as few as no records, so do some
/// map tasks.
fn records() -> impl Strategy<Value = Vec<(u8, u32)>> {
    prop::collection::vec((0u8..12, 0u32..1000), 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn keyed_operators_emit_first_occurrence_order(
        records in records(),
        in_parts in 1usize..6,
        parts in 1usize..10,
    ) {
        let wide = records.iter().map(|&(k, v)| (k as u64 * 977, v)).collect();
        check::<u64>(wide, in_parts, parts)?;
        let named = records.iter().map(|&(k, v)| (format!("key-{k}"), v)).collect();
        check::<String>(named, in_parts, parts)?;
    }
}

/// The map side and the reduce side of shuffle node `id`, read off the plan.
fn sides(ctx: &Context, id: RddId) -> (MapSideFn, ShuffleAggFn) {
    let plan = ctx.plan().read();
    let node = plan.node(id).unwrap();
    let (Dep::Shuffle { map_side, .. }, Compute::ShuffleAgg(agg)) = (&node.deps[0], &node.compute)
    else {
        panic!("{id} is not a shuffle node");
    };
    (map_side.clone(), agg.clone())
}

/// Checks one shuffle of `out` (into `n` partitions, over `input`) against
/// a dense reference: `routed(map_records, r)` is what map task `m` writes
/// for reducer `r`, and every reduce task also runs on one block per map
/// task, the empty ones included.
fn check_sparse<T: Data + PartialEq + std::fmt::Debug, U: Data + PartialEq + std::fmt::Debug>(
    input: &Dataset<(u64, u32)>,
    out: &Dataset<U>,
    n: usize,
    routed: impl Fn(&[(u64, u32)], usize) -> Vec<T>,
) -> Result<(), TestCaseError> {
    let ctx = input.context();
    let (map_side, agg) = sides(ctx, out.id());
    let mut dense: Vec<Vec<Block>> = Vec::new();
    for (m, block) in ctx.run_job(input.id()).unwrap().iter().enumerate() {
        let sparse = map_side(block, n).unwrap();
        let records = block.as_slice::<(u64, u32)>("input").unwrap();
        let mut buckets = Vec::with_capacity(n);
        for r in 0..n {
            let want = routed(records, r);
            let got = sparse.get(r).map(|b| b.to_vec::<T>("bucket").unwrap());
            // Absent means empty, and no empty bucket is written.
            prop_assert_eq!(
                got.clone().unwrap_or_default(),
                want.clone(),
                "map {} reducer {}",
                m,
                r
            );
            prop_assert_eq!(got.is_some(), !want.is_empty(), "map {} reducer {}", m, r);
            buckets.push(Block::from_vec(want));
        }
        dense.push(buckets);
    }
    for (p, got) in ctx.run_job(out.id()).unwrap().iter().enumerate() {
        let all: Vec<Block> = dense.iter().map(|buckets| buckets[p].clone()).collect();
        let want = agg(p, &[all]).unwrap();
        prop_assert_eq!(got.to_vec::<U>("got").unwrap(), want.to_vec::<U>("want").unwrap());
        prop_assert_eq!(got.bytes(), want.bytes(), "reduce task {}", p);
    }
    Ok(())
}

/// Up to 200 reducers over fewer records than three per reducer: from every
/// bucket full down to nearly all of them empty.
fn sparse_cases() -> impl Strategy<Value = (usize, usize, Vec<(u64, u32)>)> {
    (1usize..201, 1usize..5).prop_flat_map(|(n, in_parts)| {
        let records = prop::collection::vec((0u64..400, 0u32..1000), 0..3 * n);
        (Just(n), Just(in_parts), records)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn sparse_map_outputs_match_a_dense_reference(case in sparse_cases()) {
        let (n, in_parts, records) = case;
        let ctx = Context::new(LocalRunner::new());
        let input = ctx.parallelize(records, in_parts);
        let partitioner = HashPartitioner::new(n);
        // Borrowed records are cloned into their buckets.
        let route = |records: &[(u64, u32)], r: usize| -> Vec<(u64, u32)> {
            records.iter().filter(|(k, _)| partitioner.partition(k) == r).copied().collect()
        };
        check_sparse(&input, &input.partition_by(n), n, route)?;
        check_sparse(&input, &input.group_by_key(n), n, route)?;
        // Owned records (the map-side combine's) are moved.
        let combined = |records: &[(u64, u32)], r: usize| {
            let merged = scan(records.iter().copied(), |v| v, |acc, v| *acc = mix(acc, &v));
            route(&merged, r)
        };
        check_sparse(&input, &input.reduce_by_key(n, mix), n, combined)?;
    }
}
