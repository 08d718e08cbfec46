//! An Alluxio-style external tiered cache store.
//!
//! Alluxio (§7.1) sits between Spark and storage: all cached data is written
//! to and read from the external store in *serialized* form, even on the
//! memory tier. That shrinks the in-memory footprint (more blocks fit) but
//! charges (de)serialization on every access — which is why Spark+Alluxio
//! loses to plain MEM+DISK Spark on serialization-light workloads like LR
//! (§7.2). Tier management itself is LRU with spill-to-disk. The engine
//! stores each block at the cluster's serialized footprint,
//! `HardwareModel::ser_footprint` (0.6 by default).

use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::{BlockId, ExecutorId};
use blaze_common::ByteSize;
use blaze_engine::{
    victims_by_key, Admission, BlockInfo, CacheController, CtrlCtx, StoreTier, VictimAction,
};

/// Alluxio-style tiered store controller, obeying user cache annotations.
#[derive(Debug)]
pub struct AlluxioController {
    tick: u64,
    last_access: FxHashMap<BlockId, u64>,
}

impl AlluxioController {
    /// Creates the controller with an empty access history.
    pub fn new() -> Self {
        Self { tick: 0, last_access: FxHashMap::default() }
    }

    fn touch(&mut self, id: BlockId) {
        self.tick += 1;
        self.last_access.insert(id, self.tick);
    }
}

impl Default for AlluxioController {
    fn default() -> Self {
        Self::new()
    }
}

impl CacheController for AlluxioController {
    fn name(&self) -> String {
        "Spark+Alluxio".into()
    }

    fn serialized_in_memory(&self) -> bool {
        true
    }

    fn choose_victims(
        &mut self,
        ctx: &CtrlCtx,
        _exec: ExecutorId,
        needed: ByteSize,
        _incoming: &BlockInfo,
        resident: &[BlockInfo],
    ) -> Vec<(BlockId, VictimAction)> {
        // `needed` is a *stored-bytes* shortfall: the engine charges the
        // memory store footprint-scaled sizes under `serialized_in_memory`.
        // Victims therefore free `bytes × footprint`, not their logical
        // size — covering with logical bytes under-evicts whenever the
        // footprint is < 1 and the admission still fails.
        let stored: Vec<BlockInfo> = resident
            .iter()
            .map(|b| BlockInfo { bytes: b.bytes.scale(ctx.hardware.ser_footprint), ..*b })
            .collect();
        victims_by_key(&stored, needed, |b| self.last_access.get(&b.id).copied().unwrap_or(0))
            .into_iter()
            .map(|(id, _)| (id, VictimAction::ToDisk))
            .collect()
    }

    fn on_admission_failure(&mut self, _ctx: &CtrlCtx, _block: &BlockInfo) -> Admission {
        Admission::Disk
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
            .map(|t| format!("alluxio: lru tier, last access tick {t} of {}", self.tick))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_common::ids::RddId;
    use blaze_dataflow::{Block, Context};
    use blaze_engine::{Cluster, ClusterConfig, HardwareModel};

    fn ctx() -> CtrlCtx {
        CtrlCtx { hardware: HardwareModel::default(), memory_capacity: ByteSize::from_mib(1) }
    }

    #[test]
    fn serializes_in_memory() {
        let a = AlluxioController::new();
        assert!(a.serialized_in_memory());
        assert_eq!(a.name(), "Spark+Alluxio");
    }

    /// The memory tier stores a cached block at the cluster's serialized
    /// footprint: `ser_footprint` × the block's logical bytes.
    #[test]
    fn memory_tier_follows_the_cluster_footprint() {
        let data: Vec<u64> = (0..4096).collect();
        let logical = Block::from_vec(data.clone()).bytes();
        for footprint in [0.5, 1.0] {
            let config = ClusterConfig {
                executors: 1,
                hardware: HardwareModel { ser_footprint: footprint, ..Default::default() },
                ..Default::default()
            };
            let cluster = Cluster::new(config, Box::new(AlluxioController::new())).unwrap();
            let ctx = Context::new(cluster.clone());
            ctx.parallelize(data.clone(), 1).cache().count().unwrap();
            assert_eq!(cluster.memory_used(), [logical.scale(footprint)], "{footprint}");
        }
    }

    #[test]
    fn spills_victims_to_disk_tier() {
        let c = ctx();
        let mut a = AlluxioController::new();
        let b = BlockInfo {
            id: BlockId::new(RddId(1), 0),
            bytes: ByteSize::from_kib(4),
            ser_factor: 1.0,
            executor: ExecutorId(0),
        };
        a.on_inserted(&c, &b, StoreTier::Memory);
        let victims = a.choose_victims(
            &c,
            ExecutorId(0),
            ByteSize::from_kib(4),
            &BlockInfo { id: BlockId::new(RddId(2), 0), ..b },
            &[b],
        );
        assert_eq!(victims, vec![(b.id, VictimAction::ToDisk)]);
        assert_eq!(a.on_admission_failure(&c, &b), Admission::Disk);
    }

    #[test]
    fn victim_coverage_uses_stored_not_logical_bytes() {
        // Three 10-KiB blocks at footprint 0.5 each free only 5 KiB of
        // stored space. To cover a 12-KiB stored shortfall the controller
        // must pick three victims (15 KiB stored); counting logical bytes
        // would stop after two (20 KiB logical but only 10 KiB stored) and
        // leave the admission failing — the pre-fix under-eviction.
        let c = CtrlCtx {
            hardware: HardwareModel { ser_footprint: 0.5, ..Default::default() },
            ..ctx()
        };
        let mut a = AlluxioController::new();
        let resident: Vec<BlockInfo> = (0..3)
            .map(|p| BlockInfo {
                id: BlockId::new(RddId(1), p),
                bytes: ByteSize::from_kib(10),
                ser_factor: 1.0,
                executor: ExecutorId(0),
            })
            .collect();
        for b in &resident {
            a.on_inserted(&c, b, StoreTier::Memory);
        }
        let incoming = BlockInfo { id: BlockId::new(RddId(2), 0), ..resident[0] };
        let victims =
            a.choose_victims(&c, ExecutorId(0), ByteSize::from_kib(12), &incoming, &resident);
        let freed: ByteSize = victims
            .iter()
            .map(|(id, _)| resident.iter().find(|b| b.id == *id).unwrap().bytes.scale(0.5))
            .sum();
        assert_eq!(victims.len(), 3, "footprint-scaled coverage needs all three victims");
        assert!(freed >= ByteSize::from_kib(12), "victims must cover the stored shortfall");
    }
}
