//! First-in-first-out eviction.
//!
//! One of the conventional policies the paper considers (§7.1). Evicts in
//! insertion order regardless of reuse.

use crate::mode::EvictMode;
use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::{BlockId, ExecutorId};
use blaze_common::ByteSize;
use blaze_engine::{
    victims_by_key, Admission, BlockInfo, CacheController, CtrlCtx, StoreTier, VictimAction,
};

/// FIFO cache controller, obeying user cache annotations.
#[derive(Debug)]
pub struct FifoController {
    mode: EvictMode,
    counter: u64,
    inserted_at: FxHashMap<BlockId, u64>,
}

impl FifoController {
    /// Creates a FIFO controller with the given eviction mode.
    pub fn new(mode: EvictMode) -> Self {
        Self { mode, counter: 0, inserted_at: FxHashMap::default() }
    }
}

impl CacheController for FifoController {
    fn name(&self) -> String {
        format!("FIFO ({})", self.mode.label())
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
        victims_by_key(resident, needed, |b| self.inserted_at.get(&b.id).copied().unwrap_or(0))
            .into_iter()
            .map(|(id, _)| (id, action))
            .collect()
    }

    fn on_admission_failure(&mut self, _ctx: &CtrlCtx, _block: &BlockInfo) -> Admission {
        self.mode.admission_fallback()
    }

    fn on_inserted(&mut self, _ctx: &CtrlCtx, info: &BlockInfo, tier: StoreTier) {
        if tier.in_memory() {
            self.counter += 1;
            self.inserted_at.insert(info.id, self.counter);
        }
    }

    fn on_evicted(&mut self, _ctx: &CtrlCtx, id: BlockId) {
        self.inserted_at.remove(&id);
    }

    fn explain_block(&self, id: BlockId) -> Option<String> {
        self.inserted_at.get(&id).map(|t| format!("fifo: inserted at tick {t} of {}", self.counter))
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
    fn evicts_in_insertion_order_ignoring_access() {
        let c = ctx();
        let mut fifo = FifoController::new(EvictMode::MemOnly);
        let a = info(1, 4);
        let b = info(2, 4);
        fifo.on_inserted(&c, &a, StoreTier::Memory);
        fifo.on_inserted(&c, &b, StoreTier::Memory);
        fifo.on_access(&c, a.id); // FIFO ignores this
        let victims =
            fifo.choose_victims(&c, ExecutorId(0), ByteSize::from_kib(4), &info(9, 4), &[a, b]);
        assert_eq!(victims, vec![(a.id, VictimAction::Discard)]);
    }
}
