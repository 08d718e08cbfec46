//! Store operations: the block-residency state and every way the engine
//! changes it on a controller's say-so — admission with eviction, spill,
//! promotion, in-place (de)serialization, unpersist — plus the application of
//! off-task [`StateCommand`]s. Serial phases only (commit, job submit, stage
//! completion); the execute phase reads [`Stores`] through a shared borrow.

use crate::cluster::ClusterState;
use crate::config::ClusterConfig;
use crate::controller::{Admission, BlockInfo, StateCommand, StoreTier, VictimAction};
use crate::metrics::TaskCharge;
use crate::shuffle::ShuffleStore;
use crate::storage::{spill_checksum, BlockStore, StoredBlock};
use crate::tracing::{CacheDecision, TraceEvent};
use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::{BlockId, ExecutorId, RddId};
use blaze_common::{ByteSize, SimTime};
use blaze_dataflow::Block;

/// What the engine remembers about one block besides where it is resident.
/// One record per block ever produced; fields are looked up by key only.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BlockMeta {
    /// Last executor that produced/cached the block (locality + remote reads).
    pub(crate) home: Option<ExecutorId>,
    /// Materialized at least once (recomputation detection).
    pub(crate) materialized: bool,
    /// Destroyed by an executor loss and not yet re-produced. Purely
    /// attribution state: work done to re-produce the block is recovery
    /// work ([`crate::metrics::RecoveryMetrics`]). Never set on a
    /// failure-free run.
    pub(crate) lost: bool,
    /// Spills so far, the sequence number of the corruption coin stream
    /// ([`crate::fault::FaultPlan::spill_corruption_rate`]); only counted
    /// while corruption injection is on, so a respilled block draws a
    /// fresh coin. Bumped exclusively in the serial commit phase.
    pub(crate) spill_seq: u64,
}

/// The block-residency state of the cluster: everything a task needs to
/// *read* to resolve hits and recompute lineage. Read-shared (immutably) by
/// the execute phase; mutated only by the serial plan/commit phases.
pub(crate) struct Stores {
    pub(crate) mem: Vec<BlockStore>,
    pub(crate) disk: Vec<BlockStore>,
    pub(crate) shuffle: ShuffleStore,
    blocks: FxHashMap<BlockId, BlockMeta>,
}

impl Stores {
    pub(crate) fn new(config: &ClusterConfig) -> Self {
        let tier = |capacity| (0..config.executors).map(|_| BlockStore::new(capacity)).collect();
        Self {
            mem: tier(config.memory_capacity),
            disk: tier(config.disk_capacity),
            shuffle: ShuffleStore::new(),
            blocks: FxHashMap::default(),
        }
    }

    /// The block's record (all-default for a block never produced).
    pub(crate) fn meta(&self, id: BlockId) -> BlockMeta {
        self.blocks.get(&id).copied().unwrap_or_default()
    }

    pub(crate) fn meta_mut(&mut self, id: BlockId) -> &mut BlockMeta {
        self.blocks.entry(id).or_default()
    }

    /// The lowest-indexed executor whose store in `tier` (`mem` or `disk`)
    /// holds `id`.
    pub(crate) fn holder(tier: &[BlockStore], id: BlockId) -> Option<usize> {
        tier.iter().position(|store| store.contains(id))
    }

    /// The copy of `id` that [`Self::residency`] reports: the lowest-indexed
    /// memory copy (in its form), else the lowest-indexed disk copy.
    fn first_copy(&self, id: BlockId) -> Option<(BlockInfo, StoreTier)> {
        let copy = |tier: &[BlockStore]| {
            tier.iter().enumerate().find_map(|(e, store)| {
                let sb = store.get(id)?;
                let executor = ExecutorId(e as u32);
                Some((
                    BlockInfo { id, bytes: sb.logical_bytes, ser_factor: sb.ser_factor, executor },
                    sb.serialized,
                ))
            })
        };
        match copy(&self.mem) {
            Some((info, true)) => Some((info, StoreTier::SerializedMemory)),
            Some((info, false)) => Some((info, StoreTier::Memory)),
            None => copy(&self.disk).map(|(info, _)| (info, StoreTier::Disk)),
        }
    }

    /// Where a read finds each cached block: the lowest-indexed memory copy
    /// (in its form), else disk. Debug cross-checks only: it scans every
    /// store.
    #[cfg(debug_assertions)]
    pub(crate) fn residency(&self) -> crate::controller::Residency {
        let mut out = crate::controller::Residency::new();
        for (id, _) in self.disk.iter().flat_map(BlockStore::iter) {
            out.insert(*id, StoreTier::Disk);
        }
        for (id, sb) in self.mem.iter().rev().flat_map(BlockStore::iter) {
            let form = if sb.serialized { StoreTier::SerializedMemory } else { StoreTier::Memory };
            out.insert(*id, form);
        }
        out
    }
}

impl ClusterState {
    /// Reports a store mutation of `id` to the controller, once the stores
    /// hold its result: `Some((info, tier))` — the block is now in `tier` on
    /// `info.executor` — or `None` — it left the tier it was in. The one way
    /// store mutations reach the controller. When another executor's copy
    /// makes the stores' [`Residency`](crate::controller::Residency) of the
    /// block differ from that report (a removal leaves a copy behind, a disk
    /// write lands beside a memory copy), the copy a read finds first is
    /// restated, so a belief folded from the reports equals the stores.
    pub(crate) fn report_residency(&mut self, id: BlockId, now: Option<(&BlockInfo, StoreTier)>) {
        let ctx = self.ctrl_ctx();
        match now {
            Some((info, tier)) => self.controller.on_inserted(&ctx, info, tier),
            None => self.controller.on_evicted(&ctx, id),
        }
        let first = self.stores.first_copy(id);
        if first.map(|(_, tier)| tier) != now.map(|(_, tier)| tier) {
            match first {
                Some((copy, tier)) => self.controller.on_inserted(&ctx, &copy, tier),
                None => self.controller.on_evicted(&ctx, id),
            }
        }
    }

    // ---- Cache placement --------------------------------------------------

    /// Tries to place `block` in the memory store of `info.executor`,
    /// running the controller's eviction path if space is needed. Returns
    /// true on success; on failure consults `on_admission_failure`.
    /// `trace_at` and `decision` stamp the emitted record (admission vs.
    /// promotion).
    pub(crate) fn try_cache_memory(
        &mut self,
        info: &BlockInfo,
        block: Block,
        charge: &mut TaskCharge,
        trace_at: SimTime,
        decision: CacheDecision,
    ) -> bool {
        let exec = info.executor;
        let e = exec.raw() as usize;
        let serialized = self.controller.serialized_in_memory();
        let footprint = if serialized {
            info.bytes.scale(self.config.hardware.ser_footprint)
        } else {
            info.bytes
        };

        if !self.stores.mem[e].fits(footprint) {
            self.evict_for(info, footprint, charge, trace_at);
        }

        if !self.stores.mem[e].fits(footprint) {
            let ctx = self.ctrl_ctx();
            if self.controller.on_admission_failure(&ctx, info) == Admission::Disk {
                self.spill_to_disk(info, block, charge, trace_at);
            }
            return false;
        }
        if serialized {
            // Writing through a serialized external store costs
            // serialization even on the memory tier (§7.1 Alluxio).
            charge.external_store_io += self.config.hardware.ser_time(info.bytes, info.ser_factor);
        }
        // A re-admission (several tasks regenerating the same block in
        // one stage) replaces the resident entry; only a fresh insert
        // is a trace-worthy decision, keeping admit/evict pairs exact.
        let fresh = !self.stores.mem[e].contains(info.id);
        let ok = self.stores.mem[e].insert(
            info.id,
            StoredBlock {
                block,
                logical_bytes: info.bytes,
                stored_bytes: footprint,
                ser_factor: info.ser_factor,
                // Fresh productions always land deserialized (state m);
                // state s is entered only via solver commands.
                serialized: false,
                checksum: None,
            },
        );
        debug_assert!(ok);
        self.stores.meta_mut(info.id).home = Some(exec);
        self.report_residency(info.id, Some((info, StoreTier::Memory)));
        if fresh {
            let why = if self.acct.trace().is_some() {
                self.controller.explain_block(info.id)
            } else {
                None
            };
            self.acct.emit_cache(trace_at, exec, info.id, info.bytes, decision, why);
        }
        self.memory_grew(trace_at);
        true
    }

    /// Records a new memory high-water mark if the memory stores together
    /// now hold more than ever before. Called after every change that can
    /// grow a memory store: admission, promotion and in-place
    /// (de)serialization.
    fn memory_grew(&mut self, at: SimTime) {
        let bytes: ByteSize = self.stores.mem.iter().map(BlockStore::used).sum();
        if bytes > self.acct.metrics().memory_bytes_peak {
            self.acct.emit(TraceEvent::MemoryPeak { at, bytes });
        }
    }

    /// Asks the controller for victims to make `footprint` bytes fit beside
    /// the residents of `incoming.executor`, and evicts them in its order
    /// until the block fits.
    fn evict_for(
        &mut self,
        incoming: &BlockInfo,
        footprint: ByteSize,
        charge: &mut TaskCharge,
        trace_at: SimTime,
    ) {
        let exec = incoming.executor;
        let e = exec.raw() as usize;
        let needed = footprint.saturating_sub(self.stores.mem[e].free());
        // Candidates exclude the incoming block's own RDD (Spark rule).
        let resident: Vec<BlockInfo> = self.stores.mem[e]
            .iter()
            .filter(|(bid, _)| bid.rdd != incoming.id.rdd)
            .map(|(bid, sb)| BlockInfo {
                id: *bid,
                bytes: sb.logical_bytes,
                ser_factor: sb.ser_factor,
                executor: exec,
            })
            .collect();
        let ctx = self.ctrl_ctx();
        let victims = self.controller.choose_victims(&ctx, exec, needed, incoming, &resident);
        for (vid, action) in victims {
            if vid.rdd == incoming.id.rdd {
                continue;
            }
            if self.stores.mem[e].fits(footprint) {
                break;
            }
            self.evict_one(exec, vid, action, charge, trace_at);
        }
    }

    /// Evicts one memory-resident block with the given action. The evicting
    /// policy's rationale is captured *before* the decision is applied (its
    /// belief about the victim at decision time).
    pub(crate) fn evict_one(
        &mut self,
        exec: ExecutorId,
        vid: BlockId,
        action: VictimAction,
        charge: &mut TaskCharge,
        trace_at: SimTime,
    ) {
        let e = exec.raw() as usize;
        let why =
            if self.acct.trace().is_some() { self.controller.explain_block(vid) } else { None };
        let Some(sb) = self.stores.mem[e].remove(vid) else { return };
        let decision = if action == VictimAction::ToDisk {
            CacheDecision::EvictToDisk
        } else {
            CacheDecision::EvictDiscard
        };
        self.acct.emit_cache(trace_at, exec, vid, sb.logical_bytes, decision, why);
        self.report_residency(vid, None);
        if action == VictimAction::ToDisk {
            // An s-state victim is already in serialized form: spilling it
            // pays only the raw disk write, not a second serialization.
            charge.disk_cache_write += if sb.serialized {
                self.config.hardware.disk_write_time(sb.logical_bytes)
            } else {
                self.config.hardware.spill_time(sb.logical_bytes, sb.ser_factor)
            };
            let logical = sb.logical_bytes;
            let checksum = self.stamp_spill(vid, logical, sb.ser_factor);
            let inserted = self.stores.disk[e].insert(
                vid,
                StoredBlock { stored_bytes: logical, serialized: false, checksum, ..sb },
            );
            if inserted {
                let info = BlockInfo { id: vid, bytes: logical, ser_factor: 1.0, executor: exec };
                self.report_residency(vid, Some((&info, StoreTier::Disk)));
            } else {
                let refused = CacheDecision::SpillRefused;
                self.acct.emit_cache(trace_at, exec, vid, logical, refused, None);
            }
        }
    }

    /// Writes a block straight to the disk store of `info.executor`
    /// (admission or spill).
    pub(crate) fn spill_to_disk(
        &mut self,
        info: &BlockInfo,
        block: Block,
        charge: &mut TaskCharge,
        trace_at: SimTime,
    ) {
        let exec = info.executor;
        let e = exec.raw() as usize;
        if self.stores.disk[e].contains(info.id) {
            return;
        }
        let stored = StoredBlock {
            block,
            logical_bytes: info.bytes,
            stored_bytes: info.bytes,
            ser_factor: info.ser_factor,
            serialized: false,
            checksum: self.stamp_spill(info.id, info.bytes, info.ser_factor),
        };
        if self.stores.disk[e].insert(info.id, stored) {
            charge.disk_cache_write += self.config.hardware.spill_time(info.bytes, info.ser_factor);
            self.stores.meta_mut(info.id).home = Some(exec);
            self.report_residency(info.id, Some((info, StoreTier::Disk)));
            let admit = CacheDecision::AdmitDisk;
            self.acct.emit_cache(trace_at, exec, info.id, info.bytes, admit, None);
        }
    }

    // ---- Off-task state transitions ----------------------------------------

    /// Applies controller-requested state transitions. Data movement charges
    /// disk I/O time and occupies one executor slot, like a small task.
    /// `at` stamps the trace records (the hook's simulated time).
    pub(crate) fn apply_commands(&mut self, at: SimTime, cmds: Vec<StateCommand>) {
        for cmd in cmds {
            match cmd {
                StateCommand::UnpersistRdd(rdd) => self.unpersist_rdd(rdd, at),
                StateCommand::UnpersistBlock(id) => self.unpersist_block(id, at),
                StateCommand::SpillToDisk(id) => {
                    let Some(e) = Stores::holder(&self.stores.mem, id) else { continue };
                    let exec = ExecutorId(e as u32);
                    let mut charge = TaskCharge::default();
                    self.evict_one(exec, id, VictimAction::ToDisk, &mut charge, at);
                    self.charge_migration(exec, charge, at);
                }
                StateCommand::PromoteToMemory(id) => self.promote(id, at, false),
                StateCommand::SerializeInMemory(id) => self.reserialize(id, at, true),
                StateCommand::DeserializeInMemory(id) => self.reserialize(id, at, false),
                StateCommand::PromoteToSerializedMemory(id) => self.promote(id, at, true),
            }
        }
    }

    /// Changes a memory-resident block's form in place: compaction to
    /// serialized bytes (m -> s) or expansion back (s -> m). The block stays
    /// resident; only its stored footprint changes.
    fn reserialize(&mut self, id: BlockId, at: SimTime, serialize: bool) {
        let Some(e) = Stores::holder(&self.stores.mem, id) else { return };
        let Some(sb) = self.stores.mem[e].get(id).cloned() else { return };
        if sb.serialized == serialize {
            return;
        }
        let hw = self.config.hardware;
        let logical = sb.logical_bytes;
        let (stored_bytes, io, tier, decision) = if serialize {
            // Shrinking never fails the capacity check.
            let scaled = logical.scale(hw.ser_footprint);
            let io = hw.ser_time(logical, sb.ser_factor);
            (scaled, io, StoreTier::SerializedMemory, CacheDecision::SerializeInMemory)
        } else {
            // Best effort: expanding back to the full footprint must fit
            // (the replacement frees the scaled bytes first).
            if self.stores.mem[e].free() + sb.stored_bytes < logical {
                return;
            }
            let io = hw.deser_time(logical, sb.ser_factor);
            (logical, io, StoreTier::Memory, CacheDecision::DeserializeInMemory)
        };
        let ser_factor = sb.ser_factor;
        let ok = self.stores.mem[e]
            .insert(id, StoredBlock { stored_bytes, serialized: serialize, ..sb });
        debug_assert!(ok);
        let exec = ExecutorId(e as u32);
        let info = BlockInfo { id, bytes: logical, ser_factor, executor: exec };
        self.report_residency(id, Some((&info, tier)));
        self.acct.emit_cache(at, exec, id, logical, decision, None);
        self.memory_grew(at);
        self.charge_migration(exec, TaskCharge { external_store_io: io, ..Default::default() }, at);
    }

    /// Moves a disk-resident block into its executor's memory, best effort
    /// (only into free space): deserialized (d -> m), or — `serialized` — as
    /// the already-serialized bytes (d -> s), a raw disk read without the
    /// deserialization leg.
    fn promote(&mut self, id: BlockId, at: SimTime, serialized: bool) {
        let Some(e) = Stores::holder(&self.stores.disk, id) else { return };
        let Some(sb) = self.stores.disk[e].get(id).cloned() else { return };
        let exec = ExecutorId(e as u32);
        // A corrupt spill must not be laundered into memory: quarantine it
        // here and let lineage re-produce it.
        if sb.checksum.is_some_and(|ck| ck != spill_checksum(id, sb.logical_bytes, sb.ser_factor)) {
            self.quarantine_spill(exec, id, sb.logical_bytes, at);
            return;
        }
        let hw = &self.config.hardware;
        let (stored_bytes, read, tier, decision) = if serialized {
            (
                sb.logical_bytes.scale(hw.ser_footprint),
                hw.disk_read_time(sb.logical_bytes),
                StoreTier::SerializedMemory,
                CacheDecision::PromoteToSerializedMemory,
            )
        } else {
            (
                sb.stored_bytes,
                hw.fetch_from_disk_time(sb.logical_bytes, sb.ser_factor),
                StoreTier::Memory,
                CacheDecision::PromoteToMemory,
            )
        };
        if !self.stores.mem[e].fits(stored_bytes) {
            return;
        }
        self.stores.disk[e].remove(id);
        let info =
            BlockInfo { id, bytes: sb.logical_bytes, ser_factor: sb.ser_factor, executor: exec };
        // A block already memory-resident here (regenerated by two tasks of
        // one stage: spilled, then admitted) is replaced, not admitted: no
        // record, and the d -> s transition count follows the record.
        let fresh = !self.stores.mem[e].contains(id);
        let ok = self.stores.mem[e]
            .insert(id, StoredBlock { stored_bytes, serialized, checksum: None, ..sb });
        debug_assert!(ok);
        self.report_residency(id, Some((&info, tier)));
        if fresh {
            self.acct.emit_cache(at, exec, id, info.bytes, decision, None);
        }
        self.memory_grew(at);
        // Prefetch overlaps with computation (MRD's design): record the I/O
        // but do not block a slot.
        let charge = TaskCharge { disk_cache_read: read, ..Default::default() };
        self.acct.emit(TraceEvent::OffTaskCharge { at, executor: exec, charge });
    }

    /// Charges a data-movement operation to the executor's least-loaded slot
    /// and records it.
    fn charge_migration(&mut self, exec: ExecutorId, charge: TaskCharge, at: SimTime) {
        let e = exec.raw() as usize;
        let slot = Self::earliest_slot(&self.slots[e]);
        self.slots[e][slot] = self.slots[e][slot].max(self.clock_floor) + charge.total();
        self.acct.emit(TraceEvent::OffTaskCharge { at, executor: exec, charge });
    }

    /// Drops every block of `rdd` everywhere (the `unpersist()` API, or a
    /// controller's `UnpersistRdd`); `at` stamps the records.
    pub(crate) fn unpersist_rdd(&mut self, rdd: RddId, at: SimTime) {
        let removed = (0..self.config.executors)
            .map(|e| [self.stores.mem[e].remove_rdd(rdd), self.stores.disk[e].remove_rdd(rdd)])
            .collect();
        self.dropped(at, removed);
    }

    /// Drops one block wherever it is (a controller's `UnpersistBlock`).
    fn unpersist_block(&mut self, id: BlockId, at: SimTime) {
        let removed = (0..self.config.executors)
            .map(|e| {
                [&mut self.stores.mem[e], &mut self.stores.disk[e]]
                    .map(|store| store.remove(id).map(|sb| (id, sb)).into_iter().collect())
            })
            .collect();
        self.dropped(at, removed);
    }

    /// Reports what an unpersist took out of every executor's memory and disk
    /// store, once it is gone from all of them: one eviction notification
    /// and one record per removal, in executor order, memory first.
    fn dropped(&mut self, at: SimTime, removed: Vec<[Vec<(BlockId, StoredBlock)>; 2]>) {
        for (e, [from_memory, from_disk]) in removed.into_iter().enumerate() {
            let exec = ExecutorId(e as u32);
            let from_memory = from_memory.into_iter().map(|r| (r, CacheDecision::UnpersistMemory));
            let from_disk = from_disk.into_iter().map(|r| (r, CacheDecision::UnpersistDisk));
            for ((id, sb), unpersist) in from_memory.chain(from_disk) {
                self.report_residency(id, None);
                self.acct.emit_cache(at, exec, id, sb.logical_bytes, unpersist, None);
            }
        }
    }
}
