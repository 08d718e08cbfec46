//! LeCaR: learning cache replacement.
//!
//! LeCaR (Vietri et al., HotStorage '18) treats LRU and LFU as two experts
//! and learns, by regret on ghost-list hits, which expert to follow for each
//! eviction. One of the paper's considered learning-based policies (§7.1).
//!
//! Determinism note: the original samples the expert from a distribution;
//! we derive the sample from a deterministic hash of the decision counter so
//! runs are reproducible.

use crate::mode::EvictMode;
use blaze_common::fxhash::{hash_one, FxHashMap, FxHashSet};
use blaze_common::ids::{BlockId, ExecutorId};
use blaze_common::ByteSize;
use blaze_engine::{
    victims_by_key, Admission, BlockInfo, CacheController, CtrlCtx, StoreTier, VictimAction,
};
use std::collections::VecDeque;

const GHOST_CAPACITY: usize = 256;
const LEARNING_RATE: f64 = 0.45;
const DISCOUNT: f64 = 0.995;

#[derive(Debug, Default)]
struct GhostList {
    order: VecDeque<BlockId>,
    set: FxHashSet<BlockId>,
}

impl GhostList {
    fn push(&mut self, id: BlockId) {
        if self.set.insert(id) {
            self.order.push_back(id);
            if self.order.len() > GHOST_CAPACITY {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
        }
    }

    fn take(&mut self, id: BlockId) -> bool {
        if self.set.remove(&id) {
            self.order.retain(|&x| x != id);
            true
        } else {
            false
        }
    }
}

/// LeCaR cache controller, obeying user cache annotations.
#[derive(Debug)]
pub struct LeCaRController {
    mode: EvictMode,
    w_lru: f64,
    w_lfu: f64,
    tick: u64,
    decisions: u64,
    last_access: FxHashMap<BlockId, u64>,
    freq: FxHashMap<BlockId, u64>,
    ghost_lru: GhostList,
    ghost_lfu: GhostList,
}

impl LeCaRController {
    /// Creates a LeCaR controller with the given eviction mode.
    pub fn new(mode: EvictMode) -> Self {
        Self {
            mode,
            w_lru: 0.5,
            w_lfu: 0.5,
            tick: 0,
            decisions: 0,
            last_access: FxHashMap::default(),
            freq: FxHashMap::default(),
            ghost_lru: GhostList::default(),
            ghost_lfu: GhostList::default(),
        }
    }

    /// Current probability of following the LRU expert.
    pub fn lru_weight(&self) -> f64 {
        self.w_lru / (self.w_lru + self.w_lfu)
    }

    fn touch(&mut self, id: BlockId) {
        self.tick += 1;
        self.last_access.insert(id, self.tick);
        *self.freq.entry(id).or_insert(0) += 1;
    }

    /// Regret update on a miss for a block present in a ghost list: the
    /// expert that evicted it made a mistake, so its weight decays.
    fn learn_from_miss(&mut self, id: BlockId) {
        if self.ghost_lru.take(id) {
            self.w_lru *= DISCOUNT * (-LEARNING_RATE).exp();
        } else if self.ghost_lfu.take(id) {
            self.w_lfu *= DISCOUNT * (-LEARNING_RATE).exp();
        }
        // Renormalize to avoid underflow over long runs.
        let total = self.w_lru + self.w_lfu;
        if total > 0.0 {
            self.w_lru /= total;
            self.w_lfu /= total;
        } else {
            self.w_lru = 0.5;
            self.w_lfu = 0.5;
        }
    }

    /// Deterministically samples which expert to follow.
    fn follow_lru(&mut self) -> bool {
        self.decisions += 1;
        let u = (hash_one(&self.decisions) % 1_000_000) as f64 / 1_000_000.0;
        u < self.lru_weight()
    }
}

impl CacheController for LeCaRController {
    fn name(&self) -> String {
        format!("LeCaR ({})", self.mode.label())
    }

    fn choose_victims(
        &mut self,
        _ctx: &CtrlCtx,
        _exec: ExecutorId,
        needed: ByteSize,
        _incoming: &BlockInfo,
        resident: &[BlockInfo],
    ) -> Vec<(BlockId, VictimAction)> {
        let use_lru = self.follow_lru();
        let expert = if use_lru { &self.last_access } else { &self.freq };
        let picked = victims_by_key(resident, needed, |b| expert.get(&b.id).copied().unwrap_or(0));
        let action = self.mode.victim_action();
        for (id, _) in &picked {
            if use_lru {
                self.ghost_lru.push(*id);
            } else {
                self.ghost_lfu.push(*id);
            }
        }
        picked.into_iter().map(|(id, _)| (id, action)).collect()
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
        let t = self.last_access.get(&id)?;
        let f = self.freq.get(&id).copied().unwrap_or(0);
        Some(format!("lecar: last access tick {t}, freq {f}, w_lru {:.3}", self.lru_weight()))
    }

    fn on_partition_computed(&mut self, _ctx: &CtrlCtx, event: &blaze_engine::PartitionEvent) {
        if event.recomputed {
            self.learn_from_miss(event.info.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_common::ids::RddId;
    use blaze_common::SimDuration;
    use blaze_engine::{HardwareModel, PartitionEvent};

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
    fn weights_start_balanced_and_stay_normalized() {
        let lecar = LeCaRController::new(EvictMode::MemOnly);
        assert!((lecar.lru_weight() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ghost_hit_penalizes_the_guilty_expert() {
        let c = ctx();
        let mut lecar = LeCaRController::new(EvictMode::MemOnly);
        let a = info(1, 4);
        lecar.on_inserted(&c, &a, StoreTier::Memory);
        // Force an LRU-expert eviction by monkeying with weights.
        lecar.w_lru = 1.0;
        lecar.w_lfu = 1e-9;
        let victims =
            lecar.choose_victims(&c, ExecutorId(0), ByteSize::from_kib(4), &info(9, 4), &[a]);
        assert_eq!(victims[0].0, a.id);
        let before = lecar.lru_weight();
        // A recomputation of the evicted block = regret against LRU.
        let event = PartitionEvent {
            info: a,
            edge_compute: SimDuration::from_millis(1),
            job: blaze_common::ids::JobId(0),
            recomputed: true,
        };
        lecar.on_partition_computed(&c, &event);
        assert!(lecar.lru_weight() < before, "LRU weight must drop after its mistake");
    }

    #[test]
    fn ghost_lists_are_bounded() {
        let mut g = GhostList::default();
        for i in 0..(GHOST_CAPACITY as u32 + 50) {
            g.push(BlockId::new(RddId(i), 0));
        }
        assert_eq!(g.order.len(), GHOST_CAPACITY);
        assert_eq!(g.set.len(), GHOST_CAPACITY);
        // Oldest entries fell off.
        assert!(!g.set.contains(&BlockId::new(RddId(0), 0)));
    }
}
