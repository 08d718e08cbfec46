//! Statically partitioned per-app LRU: the isolation baseline.
//!
//! Multi-tenant clusters that do *not* share a holistic cache typically give
//! each application a fixed slice of the store (YARN-style static executor
//! partitioning, or one Alluxio namespace quota per tenant). This controller
//! models that world over our single shared [`blaze_engine`] store: memory is
//! split evenly across a fixed number of applications, every app runs plain
//! LRU inside its own slice, and no app may evict — or even see — another
//! app's blocks. It is the "isolated per-app LRU partitions" baseline the
//! multi-app benchmarks compare shared-cache Blaze against: isolation wastes
//! any capacity an idle tenant is not using and recomputes blocks a
//! neighbouring app already holds.

use crate::mode::EvictMode;
use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::{AppId, BlockId, ExecutorId};
use blaze_common::ByteSize;
use blaze_engine::{
    victims_by_key, Admission, BlockInfo, CacheController, CtrlCtx, StoreTier, VictimAction,
};

/// Per-app LRU over an evenly partitioned store (no cross-app eviction).
#[derive(Debug)]
pub struct IsolatedLruController {
    mode: EvictMode,
    /// Number of partitions the store is split into (fixed at admission).
    apps: u32,
    /// Logical access clock; higher = more recent.
    tick: u64,
    last_access: FxHashMap<BlockId, u64>,
    /// Which app's slice each in-memory block charges against, and for how
    /// many bytes (recorded at insertion; eviction only reports the id).
    owner: FxHashMap<BlockId, (AppId, ByteSize)>,
    /// In-memory bytes currently charged to each app's slice.
    used: FxHashMap<AppId, ByteSize>,
}

impl IsolatedLruController {
    /// Creates an isolated-LRU controller splitting memory across `apps`
    /// equal slices.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is zero.
    pub fn new(mode: EvictMode, apps: u32) -> Self {
        assert!(apps > 0, "partitioning requires at least one app");
        Self {
            mode,
            apps,
            tick: 0,
            last_access: FxHashMap::default(),
            owner: FxHashMap::default(),
            used: FxHashMap::default(),
        }
    }

    fn share(&self, capacity: ByteSize) -> ByteSize {
        ByteSize::from_bytes(capacity.as_bytes() / u64::from(self.apps))
    }

    fn touch(&mut self, id: BlockId) {
        self.tick += 1;
        self.last_access.insert(id, self.tick);
    }
}

impl CacheController for IsolatedLruController {
    fn name(&self) -> String {
        format!("IsolatedLRU/{} ({})", self.apps, self.mode.label())
    }

    fn should_cache(&mut self, ctx: &CtrlCtx, block: &BlockInfo, annotated: bool) -> bool {
        // Annotation-driven like every baseline, but capped to the slice:
        // a block that cannot fit the app's partition even after evicting
        // everything the app holds is never admitted (the slice is the
        // app's whole world — free space elsewhere belongs to other
        // tenants).
        annotated && block.bytes <= self.share(ctx.memory_capacity)
    }

    fn choose_victims(
        &mut self,
        ctx: &CtrlCtx,
        _exec: ExecutorId,
        needed: ByteSize,
        incoming: &BlockInfo,
        resident: &[BlockInfo],
    ) -> Vec<(BlockId, VictimAction)> {
        let app = ctx.app;
        // Isolation: only the requester's own blocks are candidates.
        let own: Vec<BlockInfo> = resident
            .iter()
            .filter(|b| self.owner.get(&b.id).is_some_and(|&(o, _)| o == app))
            .copied()
            .collect();
        // Free whichever is larger: what the store needs globally, or what
        // the slice needs to stay under its share with `incoming` added.
        let used = self.used.get(&app).copied().unwrap_or(ByteSize::ZERO);
        let over_share = (used + incoming.bytes).saturating_sub(self.share(ctx.memory_capacity));
        let target = if over_share > needed { over_share } else { needed };
        let action = self.mode.victim_action();
        victims_by_key(&own, target, |b| self.last_access.get(&b.id).copied().unwrap_or(0))
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

    fn on_inserted(&mut self, ctx: &CtrlCtx, info: &BlockInfo, tier: StoreTier) {
        if tier.in_memory() {
            self.touch(info.id);
            let app = ctx.app;
            if let Some((prev, bytes)) = self.owner.insert(info.id, (app, info.bytes)) {
                // Reinsert (e.g. disk readmit): drop the stale charge first.
                if let Some(u) = self.used.get_mut(&prev) {
                    *u = u.saturating_sub(bytes);
                }
            }
            *self.used.entry(app).or_insert(ByteSize::ZERO) += info.bytes;
        }
    }

    fn on_evicted(&mut self, _ctx: &CtrlCtx, id: BlockId) {
        self.last_access.remove(&id);
        if let Some((app, bytes)) = self.owner.remove(&id) {
            if let Some(u) = self.used.get_mut(&app) {
                *u = u.saturating_sub(bytes);
            }
        }
    }

    fn explain_block(&self, id: BlockId) -> Option<String> {
        let &(app, _) = self.owner.get(&id)?;
        Some(format!(
            "isolated-lru: owned by app-{}, slice used {} B",
            app.raw(),
            self.used.get(&app).copied().unwrap_or(ByteSize::ZERO).as_bytes()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_common::ids::RddId;
    use blaze_common::SimTime;
    use blaze_engine::HardwareModel;

    fn ctx(app: u32) -> CtrlCtx {
        CtrlCtx {
            now: SimTime::ZERO,
            hardware: HardwareModel::default(),
            memory_capacity: ByteSize::from_kib(16),
            disk_capacity: ByteSize::from_gib(1),
            executors: 1,
            app: AppId(app),
        }
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
    fn victims_never_cross_the_partition_boundary() {
        let mut c = IsolatedLruController::new(EvictMode::MemOnly, 2);
        let mine = info(1, 0, 4);
        let theirs = info(2, 0, 4);
        c.on_inserted(&ctx(0), &mine, StoreTier::Memory);
        c.on_inserted(&ctx(1), &theirs, StoreTier::Memory);
        let victims = c.choose_victims(
            &ctx(0),
            ExecutorId(0),
            ByteSize::from_kib(4),
            &info(9, 0, 4),
            &[mine, theirs],
        );
        assert_eq!(victims, vec![(mine.id, VictimAction::Discard)]);
        // The other tenant sees only its own block too.
        let victims = c.choose_victims(
            &ctx(1),
            ExecutorId(0),
            ByteSize::from_kib(4),
            &info(9, 0, 4),
            &[mine, theirs],
        );
        assert_eq!(victims, vec![(theirs.id, VictimAction::Discard)]);
    }

    #[test]
    fn over_share_insert_evicts_from_the_own_slice() {
        // 16 KiB / 2 apps = 8 KiB slice. App 0 holds 6 KiB; a 4 KiB insert
        // must free 2 KiB from its own slice even though the engine only
        // asked for 1 KiB of global space.
        let mut c = IsolatedLruController::new(EvictMode::MemOnly, 2);
        let a = info(1, 0, 3);
        let b = info(2, 0, 3);
        c.on_inserted(&ctx(0), &a, StoreTier::Memory);
        c.on_inserted(&ctx(0), &b, StoreTier::Memory);
        let victims = c.choose_victims(
            &ctx(0),
            ExecutorId(0),
            ByteSize::from_kib(1),
            &info(9, 0, 4),
            &[a, b],
        );
        assert_eq!(victims, vec![(a.id, VictimAction::Discard)]);
    }

    #[test]
    fn blocks_larger_than_the_slice_are_never_cached() {
        let mut c = IsolatedLruController::new(EvictMode::MemOnly, 2);
        assert!(c.should_cache(&ctx(0), &info(1, 0, 8), true));
        assert!(!c.should_cache(&ctx(0), &info(1, 0, 9), true));
        assert!(!c.should_cache(&ctx(0), &info(1, 0, 1), false), "annotations still rule");
    }

    #[test]
    fn eviction_releases_the_slice_charge() {
        let mut c = IsolatedLruController::new(EvictMode::MemDisk, 2);
        let a = info(1, 0, 4);
        c.on_inserted(&ctx(0), &a, StoreTier::Memory);
        assert_eq!(c.used.get(&AppId(0)).copied(), Some(ByteSize::from_kib(4)));
        c.on_evicted(&ctx(0), a.id);
        assert_eq!(c.used.get(&AppId(0)).copied(), Some(ByteSize::ZERO));
        assert!(c.owner.is_empty());
        assert_eq!(c.name(), "IsolatedLRU/2 (MEM+DISK)");
    }
}
