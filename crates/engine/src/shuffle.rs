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
use blaze_dataflow::Buckets;

/// Identifies one shuffle: the consuming RDD and the index of the shuffle
/// dependency within its dependency list.
pub type ShuffleId = (RddId, usize);

/// One registered map output: the buckets that hold records and the
/// executor whose (simulated) local disk holds them.
#[derive(Debug)]
pub struct MapOutput {
    buckets: Buckets,
    producer: ExecutorId,
}

impl MapOutput {
    /// The buckets the map task wrote.
    pub fn buckets(&self) -> &Buckets {
        &self.buckets
    }
}

/// Global store of map-side shuffle outputs.
#[derive(Debug, Default)]
pub struct ShuffleStore {
    /// Per shuffle, its map outputs indexed by map task (`None`: not
    /// produced yet, or lost).
    outputs: FxHashMap<ShuffleId, Vec<Option<MapOutput>>>,
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

    /// The map outputs of `shuffle`, indexed by map task; shorter than the
    /// number of map tasks (or empty) while the last ones are missing.
    pub fn outputs(&self, shuffle: ShuffleId) -> &[Option<MapOutput>] {
        self.outputs.get(&shuffle).map_or(&[], Vec::as_slice)
    }

    /// Returns true if map task `map_part` of `shuffle` has registered output.
    pub fn has_map_output(&self, shuffle: ShuffleId, map_part: usize) -> bool {
        self.outputs(shuffle).get(map_part).is_some_and(Option::is_some)
    }

    /// Returns true if all `num_maps` map outputs of `shuffle` exist.
    pub fn is_complete(&self, shuffle: ShuffleId, num_maps: usize) -> bool {
        let outputs = self.outputs(shuffle);
        outputs.len() >= num_maps && outputs[..num_maps].iter().all(Option::is_some)
    }

    /// Registers the buckets produced by one map task on `producer`.
    pub fn put_map_output(
        &mut self,
        shuffle: ShuffleId,
        map_part: usize,
        buckets: Buckets,
        producer: ExecutorId,
    ) {
        let outputs = self.outputs.entry(shuffle).or_default();
        if outputs.len() <= map_part {
            outputs.resize_with(map_part + 1, || None);
        }
        outputs[map_part] = Some(MapOutput { buckets, producer });
    }

    // ---- Fault-injection surface -------------------------------------------

    /// Every registered output key, sorted. Fault injection iterates this
    /// (never the hash map directly) so loss draws are order-independent.
    pub fn keys_sorted(&self) -> Vec<(ShuffleId, usize)> {
        self.sorted_keys(|_| true)
    }

    /// The registered outputs `keep` selects, sorted by key.
    fn sorted_keys(&self, keep: impl Fn(&MapOutput) -> bool) -> Vec<(ShuffleId, usize)> {
        let keep = &keep;
        let mut keys: Vec<_> =
            self.outputs
                .iter()
                .flat_map(|(&shuffle, outputs)| {
                    outputs.iter().enumerate().filter_map(move |(m, o)| {
                        o.as_ref().filter(|o| keep(o)).map(|_| (shuffle, m))
                    })
                })
                .collect();
        keys.sort_unstable();
        keys
    }

    /// Takes one map output out of the table, if it is registered.
    fn take(&mut self, shuffle: ShuffleId, map_part: usize) -> Option<MapOutput> {
        self.outputs.get_mut(&shuffle)?.get_mut(map_part)?.take()
    }

    /// Drops one map output, remembering it as lost. Returns true if the
    /// output existed.
    pub fn drop_map_output(&mut self, shuffle: ShuffleId, map_part: usize) -> bool {
        if self.take(shuffle, map_part).is_some() {
            self.lost.insert((shuffle, map_part));
            true
        } else {
            false
        }
    }

    /// Drops every output produced by `exec` (the no-external-shuffle-service
    /// crash path). Returns the destroyed keys, sorted.
    pub fn drop_by_producer(&mut self, exec: ExecutorId) -> Vec<(ShuffleId, usize)> {
        let dropped = self.sorted_keys(|o| o.producer == exec);
        for &(shuffle, map_part) in &dropped {
            self.take(shuffle, map_part);
            self.lost.insert((shuffle, map_part));
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
    use blaze_dataflow::Block;

    fn buckets(n: usize, elems_each: usize) -> Buckets {
        Buckets::new(n, (0..n).map(|r| (r, Block::from_vec(vec![0u64; elems_each])))).unwrap()
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
        let b = s.outputs(sh)[1].as_ref().unwrap().buckets().get(2).unwrap();
        assert_eq!(b.len(), 2);
        assert!(s.outputs(sh).get(9).is_none());
        assert!(s.outputs((RddId(6), 0)).is_empty());
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
        assert_eq!(s.keys_sorted(), vec![(b, 0)]);
    }
}
