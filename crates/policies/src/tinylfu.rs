//! TinyLFU-style frequency-based admission and eviction.
//!
//! TinyLFU (Einziger et al., ToS '17) keeps an approximate frequency sketch
//! over a sliding window and *declines admission* for blocks that are less
//! popular than the would-be victim. We implement the two core pieces: a
//! count-min sketch with periodic halving (the "reset" aging mechanism) and
//! the frequency-comparison admission filter, on top of LRU ordering for
//! same-frequency ties.

use crate::mode::EvictMode;
use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::{BlockId, ExecutorId};
use blaze_common::ByteSize;
use blaze_engine::{
    victims_by_key, Admission, BlockInfo, CacheController, CtrlCtx, StoreTier, VictimAction,
};

/// A count-min sketch over block ids with periodic halving.
#[derive(Debug, Clone)]
pub struct FrequencySketch {
    rows: Vec<Vec<u32>>,
    width: usize,
    additions: u64,
    reset_after: u64,
}

impl FrequencySketch {
    /// Creates a sketch with `width` counters per row, halved every
    /// `reset_after` increments.
    pub fn new(width: usize, reset_after: u64) -> Self {
        Self {
            rows: (0..4).map(|_| vec![0u32; width.max(16)]).collect(),
            width: width.max(16),
            additions: 0,
            reset_after: reset_after.max(1),
        }
    }

    fn indices(&self, id: BlockId) -> [usize; 4] {
        // Derive four hash functions from one 64-bit hash by remixing.
        let h = blaze_common::fxhash::hash_one(&(id.rdd.raw(), id.partition));
        let mut out = [0usize; 4];
        let mut x = h;
        for slot in &mut out {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(27) ^ h;
            *slot = (x % self.width as u64) as usize;
        }
        out
    }

    /// Records one access.
    pub fn increment(&mut self, id: BlockId) {
        let indices = self.indices(id);
        for (row, &i) in self.rows.iter_mut().zip(indices.iter()) {
            row[i] = row[i].saturating_add(1);
        }
        self.additions += 1;
        if self.additions >= self.reset_after {
            self.additions = 0;
            for row in &mut self.rows {
                for c in row.iter_mut() {
                    *c /= 2;
                }
            }
        }
    }

    /// Estimates the access frequency of `id`.
    pub fn estimate(&self, id: BlockId) -> u32 {
        self.rows.iter().zip(self.indices(id).iter()).map(|(row, &i)| row[i]).min().unwrap_or(0)
    }
}

/// TinyLFU cache controller, obeying user cache annotations.
#[derive(Debug)]
pub struct TinyLfuController {
    mode: EvictMode,
    sketch: FrequencySketch,
    tick: u64,
    last_access: FxHashMap<BlockId, u64>,
}

impl TinyLfuController {
    /// Creates a TinyLFU controller with the given eviction mode.
    pub fn new(mode: EvictMode) -> Self {
        Self {
            mode,
            sketch: FrequencySketch::new(1024, 8192),
            tick: 0,
            last_access: FxHashMap::default(),
        }
    }

    fn touch(&mut self, id: BlockId) {
        self.tick += 1;
        self.last_access.insert(id, self.tick);
        self.sketch.increment(id);
    }
}

impl CacheController for TinyLfuController {
    fn name(&self) -> String {
        format!("TinyLFU ({})", self.mode.label())
    }

    fn choose_victims(
        &mut self,
        _ctx: &CtrlCtx,
        _exec: ExecutorId,
        needed: ByteSize,
        incoming: &BlockInfo,
        resident: &[BlockInfo],
    ) -> Vec<(BlockId, VictimAction)> {
        // Order candidates by (frequency, recency): the classic W-TinyLFU
        // victim is the least-frequent, least-recent block.
        let victims = victims_by_key(resident, needed, |b| {
            (self.sketch.estimate(b.id), self.last_access.get(&b.id).copied().unwrap_or(0))
        });
        // Admission filter: if the incoming block is no more popular than
        // the best victim, decline admission (return no victims; the engine
        // falls back to on_admission_failure).
        if let Some(&(_, (victim_freq, _))) = victims.first() {
            if self.sketch.estimate(incoming.id) <= victim_freq {
                return Vec::new();
            }
        }
        let action = self.mode.victim_action();
        victims.into_iter().map(|(id, _)| (id, action)).collect()
    }

    fn on_admission_failure(&mut self, _ctx: &CtrlCtx, _block: &BlockInfo) -> Admission {
        self.mode.admission_fallback()
    }

    fn on_access(&mut self, _ctx: &CtrlCtx, id: BlockId) {
        self.touch(id);
    }

    fn on_inserted(&mut self, _ctx: &CtrlCtx, info: &BlockInfo, tier: StoreTier) {
        if tier.in_memory() {
            self.touch(info.id);
        }
    }

    fn on_evicted(&mut self, _ctx: &CtrlCtx, id: BlockId) {
        self.last_access.remove(&id);
    }

    fn explain_block(&self, id: BlockId) -> Option<String> {
        self.last_access
            .get(&id)
            .map(|t| format!("tinylfu: freq ~{}, last access tick {t}", self.sketch.estimate(id)))
    }

    fn on_partition_computed(&mut self, _ctx: &CtrlCtx, event: &blaze_engine::PartitionEvent) {
        // Misses (recomputations) still count as demand for the block.
        if event.recomputed {
            self.sketch.increment(event.info.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_common::ids::RddId;
    use blaze_engine::HardwareModel;

    fn ctx() -> CtrlCtx {
        CtrlCtx { hardware: HardwareModel::default(), memory_capacity: ByteSize::from_mib(1) }
    }

    fn info(rdd: u32, kib: u64) -> BlockInfo {
        BlockInfo {
            id: BlockId::new(RddId(rdd), 0),
            bytes: ByteSize::from_kib(kib),
            ser_factor: 1.0,
            executor: ExecutorId(0),
        }
    }

    #[test]
    fn sketch_counts_and_ages() {
        let mut s = FrequencySketch::new(64, 1_000_000);
        let id = BlockId::new(RddId(1), 0);
        for _ in 0..10 {
            s.increment(id);
        }
        assert!(s.estimate(id) >= 10);
        assert_eq!(s.estimate(BlockId::new(RddId(2), 7)), 0);
    }

    #[test]
    fn sketch_halves_on_reset() {
        let mut s = FrequencySketch::new(64, 10);
        let id = BlockId::new(RddId(1), 0);
        for _ in 0..10 {
            s.increment(id);
        }
        // The 10th addition triggers halving.
        assert!(s.estimate(id) <= 5);
    }

    #[test]
    fn declines_admission_of_unpopular_blocks() {
        let c = ctx();
        let mut tl = TinyLfuController::new(EvictMode::MemOnly);
        let hot = info(1, 4);
        tl.on_inserted(&c, &hot, StoreTier::Memory);
        for _ in 0..5 {
            tl.on_access(&c, hot.id);
        }
        let cold = info(2, 4);
        let victims = tl.choose_victims(&c, ExecutorId(0), ByteSize::from_kib(4), &cold, &[hot]);
        assert!(victims.is_empty(), "cold block must not displace hot block");
    }

    #[test]
    fn admits_popular_blocks_over_cold_residents() {
        let c = ctx();
        let mut tl = TinyLfuController::new(EvictMode::MemOnly);
        let cold = info(1, 4);
        tl.on_inserted(&c, &cold, StoreTier::Memory);
        let hot = info(2, 4);
        for _ in 0..5 {
            tl.sketch.increment(hot.id);
        }
        let victims = tl.choose_victims(&c, ExecutorId(0), ByteSize::from_kib(4), &hot, &[cold]);
        assert_eq!(victims, vec![(cold.id, VictimAction::Discard)]);
    }
}
