//! The shuffle store.
//!
//! Map tasks write per-reducer buckets; reduce tasks fetch the buckets
//! addressed to them. Like Spark's shuffle files, outputs persist for the
//! lifetime of the application and are *not* subject to cache eviction —
//! which is why recomputing an RDD with a shuffle dependency re-reads
//! shuffle data instead of re-running the whole upstream stage.
//!
//! Under fault injection the store also models shuffle-output *loss*: each
//! output remembers the executor that produced it, so an executor crash
//! without an external shuffle service drops exactly that executor's
//! outputs, and the `lost` set remembers what disappeared so the recovery
//! work that regenerates it can be attributed (see `crate::fault`).

use blaze_common::fxhash::{FxHashMap, FxHashSet};
use blaze_common::ids::{ExecutorId, RddId};
use blaze_dataflow::Block;

/// Identifies one shuffle: the consuming RDD and the index of the shuffle
/// dependency within its dependency list.
pub type ShuffleId = (RddId, usize);

/// One registered map output: the per-reducer buckets and the executor
/// whose (simulated) local disk holds them.
#[derive(Debug)]
struct MapOutput {
    buckets: Vec<Block>,
    producer: ExecutorId,
}

/// Global store of map-side shuffle outputs.
#[derive(Debug, Default)]
pub struct ShuffleStore {
    /// (shuffle, map task) -> per-reducer buckets.
    outputs: FxHashMap<(ShuffleId, usize), MapOutput>,
    /// Outputs that were registered once and then destroyed by a fault;
    /// cleared per entry when the output is regenerated. Drives recovery
    /// attribution, never correctness.
    lost: FxHashSet<(ShuffleId, usize)>,
}

impl ShuffleStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns true if map task `map_part` of `shuffle` has registered output.
    pub fn has_map_output(&self, shuffle: ShuffleId, map_part: usize) -> bool {
        self.outputs.contains_key(&(shuffle, map_part))
    }

    /// Returns true if all `num_maps` map outputs of `shuffle` exist.
    pub fn is_complete(&self, shuffle: ShuffleId, num_maps: usize) -> bool {
        (0..num_maps).all(|m| self.has_map_output(shuffle, m))
    }

    /// Registers the buckets produced by one map task on `producer`.
    pub fn put_map_output(
        &mut self,
        shuffle: ShuffleId,
        map_part: usize,
        buckets: Vec<Block>,
        producer: ExecutorId,
    ) {
        self.outputs.insert((shuffle, map_part), MapOutput { buckets, producer });
    }

    /// Fetches the bucket addressed to `reduce_part` from one map task.
    pub fn fetch(&self, shuffle: ShuffleId, map_part: usize, reduce_part: usize) -> Option<Block> {
        self.outputs.get(&(shuffle, map_part)).and_then(|o| o.buckets.get(reduce_part)).cloned()
    }

    /// Number of registered map outputs.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// Returns true if no map outputs are registered.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    // ---- Fault-injection surface -------------------------------------------

    /// Every registered output key, sorted. Fault injection iterates this
    /// (never the hash map directly) so loss draws are order-independent.
    pub fn keys_sorted(&self) -> Vec<(ShuffleId, usize)> {
        let mut keys: Vec<_> = self.outputs.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Drops one map output, remembering it as lost. Returns true if the
    /// output existed.
    pub fn drop_map_output(&mut self, shuffle: ShuffleId, map_part: usize) -> bool {
        if self.outputs.remove(&(shuffle, map_part)).is_some() {
            self.lost.insert((shuffle, map_part));
            true
        } else {
            false
        }
    }

    /// Drops every output produced by `exec` (the no-external-shuffle-service
    /// crash path). Returns the destroyed keys, sorted.
    pub fn drop_by_producer(&mut self, exec: ExecutorId) -> Vec<(ShuffleId, usize)> {
        let mut dropped: Vec<(ShuffleId, usize)> =
            self.outputs.iter().filter(|(_, o)| o.producer == exec).map(|(&k, _)| k).collect();
        dropped.sort_unstable();
        for key in &dropped {
            self.outputs.remove(key);
            self.lost.insert(*key);
        }
        dropped
    }

    /// True if this exact output was destroyed by a fault and has not been
    /// regenerated yet.
    pub fn was_lost(&self, shuffle: ShuffleId, map_part: usize) -> bool {
        self.lost.contains(&(shuffle, map_part))
    }

    /// True if any map output of `shuffle` is currently lost.
    pub fn any_lost(&self, shuffle: ShuffleId) -> bool {
        self.lost.iter().any(|&(s, _)| s == shuffle)
    }

    /// Clears the lost marker after regeneration. Returns true if the
    /// output had been marked lost.
    pub fn mark_recovered(&mut self, shuffle: ShuffleId, map_part: usize) -> bool {
        self.lost.remove(&(shuffle, map_part))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buckets(n: usize, elems_each: usize) -> Vec<Block> {
        (0..n).map(|_| Block::from_vec(vec![0u64; elems_each])).collect()
    }

    const E0: ExecutorId = ExecutorId(0);
    const E1: ExecutorId = ExecutorId(1);

    #[test]
    fn put_and_fetch_round_trip() {
        let mut s = ShuffleStore::new();
        let sh: ShuffleId = (RddId(5), 0);
        assert!(!s.has_map_output(sh, 0));
        s.put_map_output(sh, 0, buckets(3, 2), E0);
        s.put_map_output(sh, 1, buckets(3, 2), E1);
        assert!(s.has_map_output(sh, 0));
        assert!(s.is_complete(sh, 2));
        assert!(!s.is_complete(sh, 3));
        let b = s.fetch(sh, 1, 2).unwrap();
        assert_eq!(b.len(), 2);
        assert!(s.fetch(sh, 9, 0).is_none());
    }

    #[test]
    fn producer_crash_drops_only_its_outputs() {
        let mut s = ShuffleStore::new();
        let sh: ShuffleId = (RddId(2), 0);
        s.put_map_output(sh, 0, buckets(2, 1), E0);
        s.put_map_output(sh, 1, buckets(2, 1), E1);
        assert_eq!(s.drop_by_producer(E0), vec![(sh, 0)]);
        assert!(!s.has_map_output(sh, 0));
        assert!(s.has_map_output(sh, 1));
        assert!(s.was_lost(sh, 0));
        assert!(!s.was_lost(sh, 1));
        assert!(s.any_lost(sh));
        // Regeneration clears the lost marker.
        s.put_map_output(sh, 0, buckets(2, 1), E1);
        assert!(s.mark_recovered(sh, 0));
        assert!(!s.any_lost(sh));
        assert!(!s.mark_recovered(sh, 0));
    }

    #[test]
    fn targeted_drop_and_sorted_keys() {
        let mut s = ShuffleStore::new();
        let a: ShuffleId = (RddId(3), 0);
        let b: ShuffleId = (RddId(1), 1);
        s.put_map_output(a, 1, buckets(1, 1), E0);
        s.put_map_output(b, 0, buckets(1, 1), E0);
        assert_eq!(s.keys_sorted(), vec![(b, 0), (a, 1)]);
        assert!(s.drop_map_output(a, 1));
        assert!(!s.drop_map_output(a, 1));
        assert!(s.was_lost(a, 1));
        assert_eq!(s.len(), 1);
    }
}
