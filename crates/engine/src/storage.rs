//! Per-executor block stores.
//!
//! Each executor owns a bounded memory store and a disk store — both are
//! [`BlockStore`]s (paper
//! Fig. 2). Stores only hold data and account bytes; *which* blocks move
//! where is decided by the installed cache controller, and the engine
//! charges the corresponding simulated I/O time.

use blaze_common::ids::{BlockId, RddId};
use blaze_common::rng::hash_coords;
use blaze_common::{fxhash::FxHashMap, ByteSize};
use blaze_dataflow::Block;
use std::collections::BTreeSet;

/// A block at rest in a store, with the metadata needed to price moving it.
#[derive(Debug, Clone)]
pub struct StoredBlock {
    /// The materialized data.
    pub block: Block,
    /// Logical (deserialized) size; the basis for disk/serialization costs.
    pub logical_bytes: ByteSize,
    /// Bytes charged against this store's capacity (may be smaller than
    /// `logical_bytes` in serialized-in-memory stores such as Alluxio).
    pub stored_bytes: ByteSize,
    /// Serialization cost factor of the element type.
    pub ser_factor: f64,
    /// True when this memory-resident block is individually held in
    /// serialized form (the decision layer's s-state, `ser_tier`):
    /// `stored_bytes` is the footprint-scaled size and every access pays a
    /// deserialization. Distinct from store-global serialized-in-memory
    /// modes (Alluxio), which keep this `false` and shrink footprints via
    /// the controller's `memory_footprint_factor`. Always `false` on disk.
    pub serialized: bool,
    /// Integrity checksum stamped when the block was written to the disk
    /// tier (see [`spill_checksum`]). `None` for memory-resident blocks and
    /// whenever spill-corruption injection is off — reads only verify
    /// stamped blocks, keeping the fault-free path zero-cost.
    pub checksum: Option<u64>,
}

/// The FxHash-based integrity checksum stamped on every block written to
/// the disk tier while spill-corruption injection is on.
///
/// Blocks are type-erased at this layer, so the checksum covers the block's
/// identity and pricing metadata — a simulated content hash: any seeded
/// bit-flip ([`crate::fault::FaultPlan::corruption_bit`]) is detected on
/// the next read exactly as a real content checksum would detect real disk
/// corruption.
pub fn spill_checksum(id: BlockId, logical_bytes: ByteSize, ser_factor: f64) -> u64 {
    hash_coords(
        0x5_b111_c4ec,
        &[
            u64::from(id.rdd.raw()),
            u64::from(id.partition),
            logical_bytes.as_bytes(),
            ser_factor.to_bits(),
        ],
    )
}

/// A bounded store of blocks (used for both the memory and disk tiers).
#[derive(Debug, Default)]
pub struct BlockStore {
    blocks: FxHashMap<BlockId, StoredBlock>,
    /// Resident partitions per RDD (sorted): makes [`Self::remove_rdd`]
    /// O(blocks of that RDD) instead of a scan of the whole store, with a
    /// deterministic (id-ordered) removal order.
    by_rdd: FxHashMap<RddId, BTreeSet<u32>>,
    used: ByteSize,
    capacity: ByteSize,
}

impl BlockStore {
    /// Creates a store with the given capacity.
    pub fn new(capacity: ByteSize) -> Self {
        Self {
            blocks: FxHashMap::default(),
            by_rdd: FxHashMap::default(),
            used: ByteSize::ZERO,
            capacity,
        }
    }

    /// Returns the capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Returns the bytes currently charged.
    pub fn used(&self) -> ByteSize {
        self.used
    }

    /// Returns the free space.
    pub fn free(&self) -> ByteSize {
        self.capacity.saturating_sub(self.used)
    }

    /// Returns true if a block with `id` is present.
    pub fn contains(&self, id: BlockId) -> bool {
        self.blocks.contains_key(&id)
    }

    /// Returns true if `bytes` more would fit right now.
    pub fn fits(&self, bytes: ByteSize) -> bool {
        self.used + bytes <= self.capacity
    }

    /// Looks up a block.
    pub fn get(&self, id: BlockId) -> Option<&StoredBlock> {
        self.blocks.get(&id)
    }

    /// Inserts a block; returns false (and stores nothing) if it would
    /// exceed capacity. Re-inserting an existing id replaces it.
    pub fn insert(&mut self, id: BlockId, stored: StoredBlock) -> bool {
        if let Some(old) = self.blocks.get(&id) {
            let new_used = self.used - old.stored_bytes + stored.stored_bytes;
            if new_used > self.capacity {
                return false;
            }
            self.used = new_used;
            self.blocks.insert(id, stored);
            return true;
        }
        if !self.fits(stored.stored_bytes) {
            return false;
        }
        self.used += stored.stored_bytes;
        self.blocks.insert(id, stored);
        self.by_rdd.entry(id.rdd).or_default().insert(id.partition);
        true
    }

    /// Removes a block, returning it if present.
    pub fn remove(&mut self, id: BlockId) -> Option<StoredBlock> {
        let removed = self.blocks.remove(&id);
        if let Some(sb) = &removed {
            self.used -= sb.stored_bytes;
            if let Some(parts) = self.by_rdd.get_mut(&id.rdd) {
                parts.remove(&id.partition);
                if parts.is_empty() {
                    self.by_rdd.remove(&id.rdd);
                }
            }
        }
        removed
    }

    /// Removes every block of the given RDD, returning the removed entries
    /// in ascending partition order. Served from the per-RDD index, so the
    /// cost scales with the blocks of that RDD, not the store size.
    pub fn remove_rdd(&mut self, rdd: RddId) -> Vec<(BlockId, StoredBlock)> {
        let Some(parts) = self.by_rdd.remove(&rdd) else { return Vec::new() };
        parts
            .into_iter()
            .filter_map(|part| {
                let id = BlockId::new(rdd, part);
                let sb = self.blocks.remove(&id)?;
                self.used -= sb.stored_bytes;
                Some((id, sb))
            })
            .collect()
    }

    /// Total logical bytes of `rdd`'s resident blocks, or `None` when none
    /// is resident. Served from the per-RDD index.
    pub fn rdd_logical_bytes(&self, rdd: RddId) -> Option<ByteSize> {
        let parts = self.by_rdd.get(&rdd)?;
        Some(parts.iter().map(|&p| self.blocks[&BlockId::new(rdd, p)].logical_bytes).sum())
    }

    /// Iterates over resident blocks.
    pub fn iter(&self) -> impl Iterator<Item = (&BlockId, &StoredBlock)> {
        self.blocks.iter()
    }

    /// True when the incremental `used` counter equals the sum of the
    /// resident blocks' stored bytes AND the per-RDD index exactly mirrors
    /// the resident block set (shadow accounting; checked by the engine
    /// after every commit phase in debug builds).
    pub fn accounting_consistent(&self) -> bool {
        if self.used != self.blocks.values().map(|sb| sb.stored_bytes).sum() {
            return false;
        }
        let indexed: usize = self.by_rdd.values().map(BTreeSet::len).sum();
        indexed == self.blocks.len()
            && self.by_rdd.iter().all(|(rdd, parts)| {
                parts.iter().all(|&p| self.blocks.contains_key(&BlockId::new(*rdd, p)))
            })
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns true if the store holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_common::ids::RddId;

    fn sb(kib: u64) -> StoredBlock {
        StoredBlock {
            block: Block::from_vec(vec![0u8; (kib * 1024) as usize]),
            logical_bytes: ByteSize::from_kib(kib),
            stored_bytes: ByteSize::from_kib(kib),
            ser_factor: 1.0,
            serialized: false,
            checksum: None,
        }
    }

    fn id(rdd: u32, part: u32) -> BlockId {
        BlockId::new(RddId(rdd), part)
    }

    #[test]
    fn inserts_until_capacity() {
        let mut s = BlockStore::new(ByteSize::from_kib(10));
        assert!(s.insert(id(1, 0), sb(4)));
        assert!(s.insert(id(1, 1), sb(4)));
        assert!(!s.insert(id(1, 2), sb(4)), "third 4KiB must not fit in 10KiB");
        assert_eq!(s.used(), ByteSize::from_kib(8));
        assert_eq!(s.free(), ByteSize::from_kib(2));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn remove_releases_space() {
        let mut s = BlockStore::new(ByteSize::from_kib(8));
        assert!(s.insert(id(1, 0), sb(8)));
        assert!(!s.fits(ByteSize::from_kib(1)));
        assert!(s.remove(id(1, 0)).is_some());
        assert_eq!(s.used(), ByteSize::ZERO);
        assert!(s.remove(id(1, 0)).is_none());
    }

    #[test]
    fn reinsert_replaces_and_reaccounts() {
        let mut s = BlockStore::new(ByteSize::from_kib(10));
        assert!(s.insert(id(1, 0), sb(4)));
        assert!(s.insert(id(1, 0), sb(6)));
        assert_eq!(s.used(), ByteSize::from_kib(6));
        // Replacement that would overflow is rejected and keeps the old one.
        assert!(!s.insert(id(1, 0), sb(11)));
        assert_eq!(s.used(), ByteSize::from_kib(6));
        assert!(s.contains(id(1, 0)));
    }

    #[test]
    fn accounting_stays_consistent_through_churn() {
        let mut s = BlockStore::new(ByteSize::from_kib(10));
        assert!(s.accounting_consistent());
        s.insert(id(1, 0), sb(4));
        s.insert(id(1, 1), sb(4));
        s.insert(id(1, 0), sb(2)); // replacement re-accounts
        s.remove(id(1, 1));
        assert!(s.accounting_consistent());
        assert_eq!(s.used(), ByteSize::from_kib(2));
    }

    #[test]
    fn remove_rdd_clears_all_partitions() {
        let mut s = BlockStore::new(ByteSize::from_kib(100));
        s.insert(id(1, 0), sb(1));
        s.insert(id(1, 1), sb(1));
        s.insert(id(2, 0), sb(1));
        let removed = s.remove_rdd(RddId(1));
        assert_eq!(removed.len(), 2);
        assert_eq!(s.len(), 1);
        assert!(s.contains(id(2, 0)));
        assert_eq!(s.used(), ByteSize::from_kib(1));
        assert!(s.accounting_consistent());
    }

    #[test]
    fn remove_rdd_returns_partitions_in_ascending_order() {
        let mut s = BlockStore::new(ByteSize::from_kib(100));
        for part in [7u32, 2, 9, 0, 4] {
            s.insert(id(3, part), sb(1));
        }
        let removed = s.remove_rdd(RddId(3));
        let parts: Vec<u32> = removed.iter().map(|(b, _)| b.partition).collect();
        assert_eq!(parts, vec![0, 2, 4, 7, 9]);
        assert!(s.remove_rdd(RddId(3)).is_empty(), "second removal finds nothing");
        assert!(s.is_empty());
        assert!(s.accounting_consistent());
    }

    #[test]
    fn rdd_logical_bytes_sums_one_rdd_and_none_when_absent() {
        let mut s = BlockStore::new(ByteSize::from_kib(100));
        s.insert(id(1, 0), sb(4));
        s.insert(id(1, 3), StoredBlock { stored_bytes: ByteSize::from_kib(1), ..sb(6) });
        s.insert(id(2, 0), sb(5));
        // Logical bytes, not the stored footprint, and only rdd-1's blocks.
        assert_eq!(s.rdd_logical_bytes(RddId(1)), Some(ByteSize::from_kib(10)));
        assert_eq!(s.rdd_logical_bytes(RddId(2)), Some(ByteSize::from_kib(5)));
        assert_eq!(s.rdd_logical_bytes(RddId(9)), None);
        s.remove(id(2, 0));
        assert_eq!(s.rdd_logical_bytes(RddId(2)), None, "a removed rdd is not resident");
    }

    #[test]
    fn spill_checksum_is_deterministic_and_metadata_sensitive() {
        let a = spill_checksum(id(1, 0), ByteSize::from_kib(4), 1.0);
        assert_eq!(a, spill_checksum(id(1, 0), ByteSize::from_kib(4), 1.0));
        assert_ne!(a, spill_checksum(id(1, 1), ByteSize::from_kib(4), 1.0));
        assert_ne!(a, spill_checksum(id(2, 0), ByteSize::from_kib(4), 1.0));
        assert_ne!(a, spill_checksum(id(1, 0), ByteSize::from_kib(8), 1.0));
        assert_ne!(a, spill_checksum(id(1, 0), ByteSize::from_kib(4), 2.0));
        // A single flipped bit is always detected.
        for bit in 0..64 {
            assert_ne!(a, a ^ (1u64 << bit));
        }
    }

    #[test]
    fn rdd_index_survives_replacement_and_mixed_churn() {
        let mut s = BlockStore::new(ByteSize::from_kib(100));
        s.insert(id(1, 0), sb(4));
        s.insert(id(1, 0), sb(2)); // replacement keeps one index entry
        s.insert(id(1, 1), sb(1));
        s.remove(id(1, 1));
        s.insert(id(2, 0), sb(1));
        assert!(s.accounting_consistent());
        assert_eq!(s.remove_rdd(RddId(1)).len(), 1);
        assert!(s.accounting_consistent());
        assert_eq!(s.len(), 1);
    }
}
