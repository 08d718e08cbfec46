//! Key partitioners for shuffle operations.
//!
//! A partitioner assigns each record key to one of `n` reduce partitions.
//! Datasets shuffled with the same partitioner and partition count are
//! *co-partitioned*, which lets `join`/`left_outer_join` run as narrow (in-stage)
//! operators over aligned partitions — the same optimization Spark applies.

use blaze_common::fxhash::hash_one;
use std::hash::Hash;

/// Deterministic hash partitioner.
///
/// # Examples
///
/// ```
/// use blaze_dataflow::HashPartitioner;
///
/// let p = HashPartitioner::new(8);
/// let b = p.partition(&"some-key");
/// assert!(b < 8);
/// assert_eq!(b, p.partition(&"some-key"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashPartitioner {
    num_partitions: usize,
}

impl HashPartitioner {
    /// Creates a partitioner over `num_partitions` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `num_partitions` is zero.
    pub fn new(num_partitions: usize) -> Self {
        assert!(num_partitions > 0, "partitioner needs at least one partition");
        Self { num_partitions }
    }

    /// Returns the number of buckets.
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Returns the bucket for `key`.
    pub fn partition<K: Hash>(&self, key: &K) -> usize {
        (hash_one(key) % self.num_partitions as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_deterministic_and_in_range() {
        let p = HashPartitioner::new(7);
        for k in 0u64..1000 {
            let b = p.partition(&k);
            assert!(b < 7);
            assert_eq!(b, p.partition(&k));
        }
    }

    #[test]
    fn same_n_means_co_partitioned() {
        let a = HashPartitioner::new(5);
        let b = HashPartitioner::new(5);
        for k in 0u64..100 {
            assert_eq!(a.partition(&k), b.partition(&k));
        }
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_panics() {
        HashPartitioner::new(0);
    }

    #[test]
    fn distributes_keys_reasonably() {
        let p = HashPartitioner::new(10);
        let mut counts = [0usize; 10];
        for k in 0u64..10_000 {
            counts[p.partition(&k)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 500), "skewed: {counts:?}");
    }
}
