//! `join` and `left_outer_join` against a nested-loop reference.
//!
//! Every other correctness check in the repository compares the engine with
//! `LocalRunner`, and both run the same join kernels — a wrong kernel passes
//! them all. The reference here shares nothing with the kernels: for each
//! left record in order, every matching right record in right order. Record
//! order inside a partition is part of the contract (block sizes and traces
//! depend on it), so partitions are compared exactly, not sorted.

use blaze_dataflow::runner::LocalRunner;
use blaze_dataflow::{Context, Data, Dataset};
use proptest::prelude::*;

type Pairs = Vec<(u8, u32)>;

/// The records of every partition, in partition order.
fn partitions<T: Data>(ds: &Dataset<T>) -> Vec<Vec<T>> {
    ds.map_partitions(|part| vec![part.to_vec()]).collect().unwrap()
}

/// Few distinct keys, so both sides repeat them; the key ranges overlap only
/// in `4..8`, so both sides also hold keys the other lacks.
fn side(keys: std::ops::Range<u8>) -> impl Strategy<Value = Pairs> {
    prop::collection::vec((keys, 0u32..1000), 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn joins_equal_the_nested_loop_reference(
        left in side(0..8),
        right in side(4..12),
        parts in 1usize..7,
    ) {
        let ctx = Context::new(LocalRunner::new());
        // Already partitioned, so the joins below zip exactly these
        // partitions (with up to 12 keys over up to 6 partitions, some of
        // them empty).
        let l = ctx.parallelize(left, 3).partition_by(parts);
        let r = ctx.parallelize(right, 2).partition_by(parts);
        let (l_parts, r_parts) = (partitions(&l), partitions(&r));
        prop_assert_eq!(l_parts.len(), parts);

        let mut inner = Vec::new();
        let mut outer = Vec::new();
        for (lp, rp) in l_parts.iter().zip(&r_parts) {
            let (mut inner_p, mut outer_p) = (Vec::new(), Vec::new());
            for &(k, v) in lp {
                let before = inner_p.len();
                for &(rk, w) in rp {
                    if rk == k {
                        inner_p.push((k, (v, w)));
                        outer_p.push((k, (v, Some(w))));
                    }
                }
                if inner_p.len() == before {
                    outer_p.push((k, (v, None)));
                }
            }
            inner.push(inner_p);
            outer.push(outer_p);
        }

        prop_assert_eq!(partitions(&l.join(&r, parts)), inner);
        prop_assert_eq!(partitions(&l.left_outer_join(&r, parts)), outer);
    }
}
