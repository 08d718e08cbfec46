//! Least-frequently-used eviction, with optional dynamic aging (LFUDA).
//!
//! Plain LFU suffers from cache pollution: blocks popular long ago keep high
//! counts forever. LFUDA (Arlitt et al.) adds a global age `L` to each
//! block's priority at access time, so stale-but-once-popular blocks
//! eventually become evictable. Both variants are among the paper's
//! considered conventional policies (§7.1).

use crate::mode::EvictMode;
use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::{BlockId, ExecutorId};
use blaze_common::ByteSize;
use blaze_engine::{
    victims_by_key, Admission, BlockInfo, CacheController, CtrlCtx, StoreTier, VictimAction,
};

/// LFU / LFUDA cache controller, obeying user cache annotations.
#[derive(Debug)]
pub struct LfuController {
    mode: EvictMode,
    /// Dynamic aging on (LFUDA) or off (plain LFU).
    aging: bool,
    /// Global age: the priority of the last evicted block.
    age: u64,
    /// Priority = access count (+ age at last access when aging).
    priority: FxHashMap<BlockId, u64>,
}

impl LfuController {
    /// Creates a plain LFU controller.
    pub fn new(mode: EvictMode) -> Self {
        Self { mode, aging: false, age: 0, priority: FxHashMap::default() }
    }

    /// Creates an LFUDA controller (LFU with dynamic aging).
    pub fn with_dynamic_aging(mode: EvictMode) -> Self {
        Self { mode, aging: true, age: 0, priority: FxHashMap::default() }
    }

    fn bump(&mut self, id: BlockId) {
        let base = if self.aging { self.age } else { 0 };
        let p = self.priority.entry(id).or_insert(base);
        *p = (*p).max(base) + 1;
    }
}

impl CacheController for LfuController {
    fn name(&self) -> String {
        let alg = if self.aging { "LFUDA" } else { "LFU" };
        format!("{alg} ({})", self.mode.label())
    }

    fn choose_victims(
        &mut self,
        _ctx: &CtrlCtx,
        _exec: ExecutorId,
        needed: ByteSize,
        _incoming: &BlockInfo,
        resident: &[BlockInfo],
    ) -> Vec<(BlockId, VictimAction)> {
        let victims =
            victims_by_key(resident, needed, |b| self.priority.get(&b.id).copied().unwrap_or(0));
        if self.aging {
            if let Some(&(_, p)) = victims.first() {
                self.age = self.age.max(p);
            }
        }
        let action = self.mode.victim_action();
        victims.into_iter().map(|(id, _)| (id, action)).collect()
    }

    fn on_admission_failure(&mut self, _ctx: &CtrlCtx, _block: &BlockInfo) -> Admission {
        self.mode.admission_fallback()
    }

    fn on_access(&mut self, _ctx: &CtrlCtx, id: BlockId) {
        self.bump(id);
    }

    fn on_inserted(&mut self, _ctx: &CtrlCtx, info: &BlockInfo, tier: StoreTier) {
        if tier.in_memory() {
            self.bump(info.id);
        }
    }

    fn on_evicted(&mut self, _ctx: &CtrlCtx, id: BlockId) {
        self.priority.remove(&id);
    }

    fn explain_block(&self, id: BlockId) -> Option<String> {
        self.priority.get(&id).map(|p| format!("lfu: priority {p}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_common::ids::{AppId, RddId};
    use blaze_engine::HardwareModel;

    fn ctx() -> CtrlCtx {
        CtrlCtx {
            hardware: HardwareModel::default(),
            memory_capacity: ByteSize::from_mib(1),
            app: AppId(0),
        }
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
    fn evicts_least_frequent() {
        let c = ctx();
        let mut lfu = LfuController::new(EvictMode::MemOnly);
        let a = info(1, 4);
        let b = info(2, 4);
        lfu.on_inserted(&c, &a, StoreTier::Memory);
        lfu.on_inserted(&c, &b, StoreTier::Memory);
        lfu.on_access(&c, a.id);
        lfu.on_access(&c, a.id);
        lfu.on_access(&c, b.id);
        let victims =
            lfu.choose_victims(&c, ExecutorId(0), ByteSize::from_kib(4), &info(9, 4), &[a, b]);
        assert_eq!(victims, vec![(b.id, VictimAction::Discard)]);
    }

    #[test]
    fn aging_lets_new_blocks_displace_stale_popular_ones() {
        let c = ctx();
        let mut lfuda = LfuController::with_dynamic_aging(EvictMode::MemOnly);
        let old = info(1, 4);
        lfuda.on_inserted(&c, &old, StoreTier::Memory);
        for _ in 0..10 {
            lfuda.on_access(&c, old.id);
        }
        // Evicting something with priority p sets age = p; newcomers then
        // start at age + 1 and are no longer auto-victims.
        let mid = info(2, 4);
        lfuda.on_inserted(&c, &mid, StoreTier::Memory);
        let victims = lfuda.choose_victims(
            &c,
            ExecutorId(0),
            ByteSize::from_kib(4),
            &info(9, 4),
            &[old, mid],
        );
        assert_eq!(victims[0].0, mid.id);
        lfuda.on_evicted(&c, mid.id);
        // age bumped to mid's priority (1)... newcomers keep climbing with
        // repeated evictions; after evicting `old`'s rivals the age rises.
        let newcomer = info(3, 4);
        lfuda.on_inserted(&c, &newcomer, StoreTier::Memory);
        assert!(lfuda.priority[&newcomer.id] >= 2, "aging should lift new priorities");
    }
}
