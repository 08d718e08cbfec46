//! Least-recently-used eviction: Spark's default policy.
//!
//! With [`EvictMode::MemOnly`] this controller *is* the paper's "Spark (MEM)"
//! baseline; with [`EvictMode::MemDisk`] it is "Spark (MEM+DISK)" (§7.1).

use crate::mode::EvictMode;
use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::{BlockId, ExecutorId};
use blaze_common::ByteSize;
use blaze_engine::{
    victims_by_key, Admission, BlockInfo, CacheController, CtrlCtx, StoreTier, VictimAction,
};

/// LRU cache controller, obeying user cache annotations.
#[derive(Debug)]
pub struct LruController {
    mode: EvictMode,
    /// Logical access clock; higher = more recent.
    tick: u64,
    last_access: FxHashMap<BlockId, u64>,
}

impl LruController {
    /// Creates an LRU controller with the given eviction mode.
    pub fn new(mode: EvictMode) -> Self {
        Self { mode, tick: 0, last_access: FxHashMap::default() }
    }

    fn touch(&mut self, id: BlockId) {
        self.tick += 1;
        self.last_access.insert(id, self.tick);
    }
}

impl CacheController for LruController {
    fn name(&self) -> String {
        format!("Spark ({})", self.mode.label())
    }

    fn choose_victims(
        &mut self,
        _ctx: &CtrlCtx,
        _exec: ExecutorId,
        needed: ByteSize,
        _incoming: &BlockInfo,
        resident: &[BlockInfo],
    ) -> Vec<(BlockId, VictimAction)> {
        let action = self.mode.victim_action();
        victims_by_key(resident, needed, |b| self.last_access.get(&b.id).copied().unwrap_or(0))
            .into_iter()
            .map(|(id, _)| (id, action))
            .collect()
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
        self.last_access.get(&id).map(|t| format!("lru: last access tick {t} of {}", self.tick))
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

    fn info(rdd: u32, part: u32, kib: u64) -> BlockInfo {
        BlockInfo {
            id: BlockId::new(RddId(rdd), part),
            bytes: ByteSize::from_kib(kib),
            ser_factor: 1.0,
            executor: ExecutorId(0),
        }
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let c = ctx();
        let mut lru = LruController::new(EvictMode::MemOnly);
        let a = info(1, 0, 4);
        let b = info(2, 0, 4);
        let d = info(3, 0, 4);
        lru.on_inserted(&c, &a, StoreTier::Memory);
        lru.on_inserted(&c, &b, StoreTier::Memory);
        lru.on_inserted(&c, &d, StoreTier::Memory);
        lru.on_access(&c, a.id); // a becomes most recent
        let victims = lru.choose_victims(
            &c,
            ExecutorId(0),
            ByteSize::from_kib(4),
            &info(9, 0, 4),
            &[a, b, d],
        );
        assert_eq!(victims, vec![(b.id, VictimAction::Discard)]);
    }

    #[test]
    fn evicts_enough_for_larger_requests() {
        let c = ctx();
        let mut lru = LruController::new(EvictMode::MemDisk);
        let blocks: Vec<BlockInfo> = (0..4).map(|i| info(i, 0, 4)).collect();
        for b in &blocks {
            lru.on_inserted(&c, b, StoreTier::Memory);
        }
        let victims =
            lru.choose_victims(&c, ExecutorId(0), ByteSize::from_kib(10), &info(9, 0, 10), &blocks);
        assert_eq!(victims.len(), 3);
        assert!(victims.iter().all(|(_, a)| *a == VictimAction::ToDisk));
    }

    #[test]
    fn mode_controls_admission_fallback_and_name() {
        let c = ctx();
        let b = info(1, 0, 1);
        let mut mem_only = LruController::new(EvictMode::MemOnly);
        let mut mem_disk = LruController::new(EvictMode::MemDisk);
        assert_eq!(mem_only.on_admission_failure(&c, &b), Admission::Skip);
        assert_eq!(mem_disk.on_admission_failure(&c, &b), Admission::Disk);
        assert_eq!(mem_only.name(), "Spark (MEM_ONLY)");
        assert_eq!(mem_disk.name(), "Spark (MEM+DISK)");
    }

    #[test]
    fn eviction_forgets_recency() {
        let c = ctx();
        let mut lru = LruController::new(EvictMode::MemOnly);
        let a = info(1, 0, 4);
        lru.on_inserted(&c, &a, StoreTier::Memory);
        lru.on_access(&c, a.id);
        lru.on_evicted(&c, a.id);
        assert!(lru.last_access.is_empty());
    }
}
