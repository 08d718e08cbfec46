//! GreedyDual-style cost-aware eviction (the GDWheel family).
//!
//! GDWheel (Li & Cox, EuroSys '15) brings the classic GreedyDual algorithm
//! to key-value caches: every block carries a priority `H = L + cost/size`,
//! where `L` is a global inflation value set to the priority of the last
//! victim; eviction takes the minimum-priority block. The "wheel" is an
//! O(1) data structure for the priority queue — at our scale a sorted scan
//! is fine, so we implement the GreedyDual-Size-Frequency variant directly
//! (cost = estimated disk fetch time of the block, weighted by access
//! frequency). One of the paper's considered cost-aware baselines (§7.1).

use crate::mode::EvictMode;
use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::{BlockId, ExecutorId};
use blaze_common::ByteSize;
use blaze_engine::{
    victims_by_key, Admission, BlockInfo, CacheController, CtrlCtx, StoreTier, VictimAction,
};

/// GreedyDual-Size-Frequency cache controller (GDWheel-style), obeying user
/// cache annotations.
#[derive(Debug)]
pub struct GdWheelController {
    mode: EvictMode,
    /// Global inflation value (the priority of the last victim).
    inflation: f64,
    /// Per-block access frequency since insertion.
    freq: FxHashMap<BlockId, u32>,
    /// Per-block base priority at (re-)insertion time.
    base: FxHashMap<BlockId, f64>,
}

impl GdWheelController {
    /// Creates a GDWheel-style controller with the given eviction mode.
    pub fn new(mode: EvictMode) -> Self {
        Self { mode, inflation: 0.0, freq: FxHashMap::default(), base: FxHashMap::default() }
    }

    /// The priority of a block: inflation base + frequency-weighted
    /// cost/size ratio, where cost is the block's disk fetch time.
    fn priority(&self, ctx: &CtrlCtx, b: &BlockInfo) -> f64 {
        let cost = ctx.hardware.fetch_from_disk_time(b.bytes, b.ser_factor).as_secs_f64();
        let size = b.bytes.as_bytes().max(1) as f64;
        let f = self.freq.get(&b.id).copied().unwrap_or(1) as f64;
        let base = self.base.get(&b.id).copied().unwrap_or(self.inflation);
        base + f * cost / size * 1e9
    }
}

impl CacheController for GdWheelController {
    fn name(&self) -> String {
        format!("GDWheel ({})", self.mode.label())
    }

    fn choose_victims(
        &mut self,
        ctx: &CtrlCtx,
        _exec: ExecutorId,
        needed: ByteSize,
        _incoming: &BlockInfo,
        resident: &[BlockInfo],
    ) -> Vec<(BlockId, VictimAction)> {
        let picked = victims_by_key(resident, needed, |b| self.priority(ctx, b));
        // GreedyDual: inflate the clock to the highest evicted priority.
        if let Some(&(_, priority)) = picked.last() {
            self.inflation = self.inflation.max(priority);
        }
        let action = self.mode.victim_action();
        picked.into_iter().map(|(id, _)| (id, action)).collect()
    }

    fn on_admission_failure(&mut self, _ctx: &CtrlCtx, _block: &BlockInfo) -> Admission {
        self.mode.admission_fallback()
    }

    fn on_access(&mut self, _ctx: &CtrlCtx, id: BlockId) {
        *self.freq.entry(id).or_insert(0) += 1;
    }

    fn on_inserted(&mut self, _ctx: &CtrlCtx, info: &BlockInfo, tier: StoreTier) {
        if tier.in_memory() {
            self.freq.insert(info.id, 1);
            self.base.insert(info.id, self.inflation);
        }
    }

    fn on_evicted(&mut self, _ctx: &CtrlCtx, id: BlockId) {
        self.freq.remove(&id);
        self.base.remove(&id);
    }

    fn explain_block(&self, id: BlockId) -> Option<String> {
        let base = self.base.get(&id)?;
        let freq = self.freq.get(&id).copied().unwrap_or(1);
        Some(format!("gdwheel: freq {freq}, base {base:.4}, inflation {:.4}", self.inflation))
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

    fn info(rdd: u32, kib: u64, ser: f64) -> BlockInfo {
        BlockInfo {
            id: BlockId::new(RddId(rdd), 0),
            bytes: ByteSize::from_kib(kib),
            ser_factor: ser,
            executor: ExecutorId(0),
        }
    }

    #[test]
    fn cheap_to_refetch_blocks_are_evicted_first() {
        let c = ctx();
        let mut gd = GdWheelController::new(EvictMode::MemDisk);
        // Same size, but one serializes 4x slower (dearer to refetch).
        let cheap = info(1, 64, 1.0);
        let dear = info(2, 64, 4.0);
        gd.on_inserted(&c, &cheap, StoreTier::Memory);
        gd.on_inserted(&c, &dear, StoreTier::Memory);
        let victims = gd.choose_victims(
            &c,
            ExecutorId(0),
            ByteSize::from_kib(64),
            &info(9, 64, 1.0),
            &[cheap, dear],
        );
        assert_eq!(victims[0].0, cheap.id);
    }

    #[test]
    fn frequency_protects_hot_blocks() {
        let c = ctx();
        let mut gd = GdWheelController::new(EvictMode::MemOnly);
        let hot = info(1, 64, 1.0);
        let cold = info(2, 64, 1.0);
        gd.on_inserted(&c, &hot, StoreTier::Memory);
        gd.on_inserted(&c, &cold, StoreTier::Memory);
        for _ in 0..5 {
            gd.on_access(&c, hot.id);
        }
        let victims = gd.choose_victims(
            &c,
            ExecutorId(0),
            ByteSize::from_kib(64),
            &info(9, 64, 1.0),
            &[hot, cold],
        );
        assert_eq!(victims[0].0, cold.id);
        assert_eq!(victims[0].1, VictimAction::Discard);
    }

    #[test]
    fn inflation_ages_out_once_hot_blocks() {
        let c = ctx();
        let mut gd = GdWheelController::new(EvictMode::MemOnly);
        let old_hot = info(1, 64, 1.0);
        gd.on_inserted(&c, &old_hot, StoreTier::Memory);
        for _ in 0..10 {
            gd.on_access(&c, old_hot.id);
        }
        // Several eviction rounds of newcomers raise the inflation clock.
        for round in 0..20u32 {
            let newcomer = info(100 + round, 64, 1.0);
            gd.on_inserted(&c, &newcomer, StoreTier::Memory);
            let victims = gd.choose_victims(
                &c,
                ExecutorId(0),
                ByteSize::from_kib(64),
                &info(9, 64, 1.0),
                &[old_hot, newcomer],
            );
            for (id, _) in victims {
                gd.on_evicted(&c, id);
            }
        }
        // Eventually the stale hot block's fixed priority falls below the
        // inflated base of fresh blocks.
        let fresh = info(200, 64, 1.0);
        gd.on_inserted(&c, &fresh, StoreTier::Memory);
        let victims = gd.choose_victims(
            &c,
            ExecutorId(0),
            ByteSize::from_kib(64),
            &info(9, 64, 1.0),
            &[old_hot, fresh],
        );
        assert_eq!(victims[0].0, old_hot.id, "aging failed to displace stale block");
    }
}
