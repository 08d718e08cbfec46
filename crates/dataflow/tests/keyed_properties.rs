//! Record order of the keyed operators against a linear-scan reference.
//!
//! The rule: a keyed operator emits its keys in the order its input first
//! shows them, and merges later occurrences into that record in input order;
//! a reduce task reads the map outputs in map order. Block sizes do not
//! depend on record order, but every `f64` sum downstream and the allocation
//! order of nested values do, so partitions are compared exactly, not sorted.
//! The reference below shares nothing with the kernels' index table: it finds
//! a key by scanning what it has emitted so far.

use blaze_dataflow::runner::LocalRunner;
use blaze_dataflow::{Context, Data, Dataset, HashPartitioner};
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
    left: Vec<(K, u32)>,
    right: Vec<(K, u32)>,
    in_parts: usize,
    parts: usize,
) -> Result<(), TestCaseError> {
    let ctx = Context::new(LocalRunner::new());
    let input = ctx.parallelize(left, in_parts);
    let maps = partitions(&input);
    let reduce_tasks = |maps: &[Vec<(K, Vec<u32>)>]| -> Vec<Vec<(K, Vec<u32>)>> {
        (0..parts)
            .map(|p| scan(fetched(maps, parts, p), |c| c, |acc: &mut Vec<u32>, c| acc.extend(c)))
            .collect()
    };

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

    // combine_by_key: the same two levels with by-value merges.
    let listed: Vec<Vec<(K, Vec<u32>)>> =
        maps.iter().map(|m| scan(m.clone(), |v| vec![v], |acc, v| acc.push(v))).collect();
    let lists = input.combine_by_key(
        parts,
        |v| vec![*v],
        |mut acc, v| {
            acc.push(*v);
            acc
        },
        |mut a, b| {
            a.extend(b);
            a
        },
    );
    prop_assert_eq!(partitions(&lists), reduce_tasks(&listed));

    // group_by_key: no map-side combine, so a reduce task sees every record.
    let single: Vec<Vec<(K, Vec<u32>)>> =
        maps.iter().map(|m| m.iter().map(|(k, v)| (k.clone(), vec![*v])).collect()).collect();
    prop_assert_eq!(partitions(&input.group_by_key(parts)), reduce_tasks(&single));

    // cogroup: per aligned partition, the left records and then the right.
    let l = input.partition_by(parts);
    let r = ctx.parallelize(right, 2).partition_by(parts);
    let cogrouped: Vec<_> = partitions(&l)
        .into_iter()
        .zip(partitions(&r))
        .map(|(lp, rp)| {
            let sides = lp
                .into_iter()
                .map(|(k, v)| (k, (Some(v), None)))
                .chain(rp.into_iter().map(|(k, w)| (k, (None, Some(w)))));
            scan(
                sides,
                |(v, w): (Option<u32>, Option<u32>)| (Vec::from_iter(v), Vec::from_iter(w)),
                |acc, (v, w)| {
                    acc.0.extend(v);
                    acc.1.extend(w);
                },
            )
        })
        .collect();
    prop_assert_eq!(partitions(&l.cogroup(&r, parts)), cogrouped);
    Ok(())
}

/// Up to 12 distinct keys over up to 60 records: most keys repeat, within a
/// map task and across them, and with up to 9 output partitions some stay
/// empty; with up to 5 input partitions and as few as no records, so do some
/// map tasks.
fn side() -> impl Strategy<Value = Vec<(u8, u32)>> {
    prop::collection::vec((0u8..12, 0u32..1000), 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn keyed_operators_emit_first_occurrence_order(
        left in side(),
        right in side(),
        in_parts in 1usize..6,
        parts in 1usize..10,
    ) {
        let wide = |side: &[(u8, u32)]| side.iter().map(|&(k, v)| (k as u64 * 977, v)).collect();
        check::<u64>(wide(&left), wide(&right), in_parts, parts)?;
        let named = |side: &[(u8, u32)]| side.iter().map(|&(k, v)| (format!("key-{k}"), v)).collect();
        check::<String>(named(&left), named(&right), in_parts, parts)?;
    }
}
