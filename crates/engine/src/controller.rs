//! The cache-controller interface: the engine's unified integration surface
//! for caching, eviction and recovery decisions.
//!
//! Existing systems split these decisions across three independent layers
//! (paper §3); this trait deliberately exposes *all* of them to a single
//! implementation so that baselines (LRU & friends, which only implement
//! the eviction hook meaningfully) and Blaze (which implements the unified
//! decision layer, §5.6) plug into the same engine.

use crate::config::HardwareModel;
use blaze_common::ids::{BlockId, ExecutorId, JobId, RddId};
use blaze_common::{ByteSize, SimDuration};
use blaze_dataflow::{JobPlan, Plan};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};

/// Metadata of one materialized partition, as seen by controllers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockInfo {
    /// Which partition.
    pub id: BlockId,
    /// Logical (deserialized) size.
    pub bytes: ByteSize,
    /// Serialization cost factor of the element type.
    pub ser_factor: f64,
    /// Executor the partition lives on / was produced on.
    pub executor: ExecutorId,
}

/// A partition-computation event (one lineage edge executed).
///
/// This is the profiling feed of the paper's §5.3: the compute time is the
/// edge cost `cost_{k->i}`, and size/location are the partition metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionEvent {
    /// The produced partition.
    pub info: BlockInfo,
    /// Time to compute this partition from its direct inputs (one edge, not
    /// the recursive lineage).
    pub edge_compute: SimDuration,
    /// Job during which the computation happened.
    pub job: JobId,
    /// True if this partition had been materialized before (recomputation).
    pub recomputed: bool,
}

/// Where to place a block the controller admitted for caching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Store in the executor's memory store.
    Memory,
    /// Store in the executor's disk store (serialize + write).
    Disk,
    /// Do not cache.
    Skip,
}

/// What to do with an eviction victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimAction {
    /// Drop the data (state m -> u); later access recomputes.
    Discard,
    /// Spill to the disk store (state m -> d); later access reads it back.
    ToDisk,
}

/// A state transition requested by the controller outside the task path
/// (applied by the engine after stage completion / job submission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateCommand {
    /// Drop every cached block of this RDD (auto-unpersist, §5.6).
    UnpersistRdd(RddId),
    /// Drop one cached block wherever it is.
    UnpersistBlock(BlockId),
    /// Move one memory-resident block to disk (m -> d).
    SpillToDisk(BlockId),
    /// Move one disk-resident block into memory if it fits (d -> m).
    PromoteToMemory(BlockId),
    /// Serialize a memory-resident block in place (m -> s): the block stays
    /// in the memory store at its footprint-scaled size, and later accesses
    /// pay a deserialization. Emitted only by serialized-tier decision
    /// paths (`ser_tier`).
    SerializeInMemory(BlockId),
    /// Deserialize a serialized-memory block in place if the full size fits
    /// (s -> m).
    DeserializeInMemory(BlockId),
    /// Move one disk-resident block into memory in serialized form if its
    /// footprint fits (d -> s); pays a disk read but no deserialization.
    PromoteToSerializedMemory(BlockId),
}

/// Which tier of an executor's store a block is in, as reported to
/// [`CacheController::on_inserted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreTier {
    /// The memory store, deserialized (full logical footprint).
    Memory,
    /// The memory store, serialized (footprint-scaled size; accesses pay a
    /// deserialization).
    SerializedMemory,
    /// The disk store.
    Disk,
}

impl StoreTier {
    /// True for both memory tiers (they share the memory store's capacity).
    pub fn in_memory(self) -> bool {
        matches!(self, StoreTier::Memory | StoreTier::SerializedMemory)
    }
}

/// Every cached block and the tier a read finds it in: a memory store (in
/// that copy's form) if any executor's memory holds it, else a disk store.
/// What [`CacheController::residency_mismatch`] checks a belief against.
pub type Residency = BTreeMap<BlockId, StoreTier>;

/// The payload of [`CacheController::take_degradation`]. Nothing in the
/// workspace produces or reads one: it is kept only because the
/// repository benchmark's forwarding controller names it, and goes when
/// that forwarder does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationNote {
    /// A short label.
    pub rung: &'static str,
    /// A count of per-executor instances.
    pub degraded: u64,
    /// A count of per-executor instances.
    pub passthrough: u64,
}

/// Read-only context handed to controller callbacks.
#[derive(Debug, Clone, Copy)]
pub struct CtrlCtx {
    /// Hardware model (for disk-cost estimation, Eq. 3).
    pub hardware: HardwareModel,
    /// Per-executor memory-store capacity.
    pub memory_capacity: ByteSize,
}

/// The unified decision interface for caching, eviction and recovery.
///
/// All methods have conservative defaults so that simple policies only
/// override what they care about. The engine guarantees:
///
/// - `choose_victims` candidates never include blocks of the same RDD as the
///   incoming block (Spark never evicts the RDD being written);
/// - commands returned from `on_stage_complete` / `on_job_submit` are applied
///   best-effort (e.g. a promotion that no longer fits is skipped);
/// - every store mutation that changes where a block is — admission, spill,
///   promotion, in-place (de)serialization, unpersist, quarantine, executor
///   loss, including those triggered by [`StateCommand`]s — is reported via
///   `on_inserted` (the block is now in that tier) or `on_evicted` (it left
///   the memory or the disk tier), so a controller's residency belief can be
///   a fold of those two calls (checked in debug builds through
///   [`CacheController::residency_mismatch`]).
pub trait CacheController: Send {
    /// Short system name used in reports (e.g. `"Spark (MEM_ONLY)"`).
    fn name(&self) -> String;

    /// Whether a freshly materialized partition should be considered for
    /// caching. `annotated` reflects the user's `cache()` call on the RDD.
    /// Baselines return `annotated`; auto-caching systems decide themselves.
    fn should_cache(&mut self, _ctx: &CtrlCtx, _block: &BlockInfo, annotated: bool) -> bool {
        annotated
    }

    /// Chooses the tier for an admitted block. Defaults to memory.
    fn admit(&mut self, _ctx: &CtrlCtx, _block: &BlockInfo) -> Admission {
        Admission::Memory
    }

    /// Chooses victims (in eviction order) to free at least `needed` bytes
    /// of memory on `exec`. `resident` lists the candidate blocks currently
    /// in that executor's memory store. Returning fewer bytes than `needed`
    /// makes the engine fall back to [`CacheController::on_admission_failure`].
    fn choose_victims(
        &mut self,
        _ctx: &CtrlCtx,
        _exec: ExecutorId,
        _needed: ByteSize,
        _incoming: &BlockInfo,
        _resident: &[BlockInfo],
    ) -> Vec<(BlockId, VictimAction)> {
        Vec::new()
    }

    /// Placement when memory admission failed even after eviction.
    /// MEM_ONLY-style systems skip; MEM+DISK-style systems spill.
    fn on_admission_failure(&mut self, _ctx: &CtrlCtx, _block: &BlockInfo) -> Admission {
        Admission::Skip
    }

    /// Placement after a block was recovered from disk on a cache miss.
    /// Returning `Memory` promotes it (subject to the usual eviction path);
    /// the default leaves it on disk.
    fn readmit_after_disk_read(&mut self, _ctx: &CtrlCtx, _block: &BlockInfo) -> Admission {
        Admission::Disk
    }

    /// If true, memory-resident cached data is kept serialized (an external
    /// store such as Alluxio): every memory hit pays (de)serialization, and
    /// the stored footprint shrinks to
    /// [`HardwareModel::ser_footprint`](crate::HardwareModel::ser_footprint)
    /// of the logical size.
    fn serialized_in_memory(&self) -> bool {
        false
    }

    /// No caller: the engine scales a serialized-in-memory store by
    /// [`HardwareModel::ser_footprint`](crate::HardwareModel::ser_footprint),
    /// and no controller in the workspace overrides it. Kept with its
    /// default body only because the repository benchmark's forwarding
    /// controller overrides it by name; it goes when that forwarder does.
    fn memory_footprint_factor(&self) -> f64 {
        1.0
    }

    /// A cached block was read (memory or disk hit).
    fn on_access(&mut self, _ctx: &CtrlCtx, _id: BlockId) {}

    /// The policy's current belief about `id`, as a short human-readable
    /// rationale (e.g. `"lru: last access at t+1.2s"`, `"lrc: refcount=2"`).
    /// Captured by the event trace *before* a decision is applied, so
    /// "why was this block evicted?" is answerable from the trace alone.
    /// Only called when tracing is enabled; the default knows nothing.
    fn explain_block(&self, _id: BlockId) -> Option<String> {
        None
    }

    /// A block is now in the given tier of `info.executor`'s stores: it
    /// entered it, or changed form in place within memory (m ↔ s).
    fn on_inserted(&mut self, _ctx: &CtrlCtx, _info: &BlockInfo, _tier: StoreTier) {}

    /// A block left the memory tier (evicted, spilled or unpersisted) or the
    /// disk tier (unpersisted, quarantined or lost). A spill reports the
    /// disk insert next; a promotion out of disk is one `on_inserted`.
    fn on_evicted(&mut self, _ctx: &CtrlCtx, _id: BlockId) {}

    /// Debug builds only: called at every stage completion with the stores'
    /// [`Residency`]. A controller that keeps a residency belief returns how
    /// it disagrees, and the engine panics with that; the default keeps none.
    fn residency_mismatch(&self, _stores: &Residency) -> Option<String> {
        None
    }

    /// A partition was computed (the profiling feed; called for *every*
    /// materialized partition, cached or not).
    fn on_partition_computed(&mut self, _ctx: &CtrlCtx, _event: &PartitionEvent) {}

    /// A job is about to run. Returning commands lets cost-aware systems
    /// restate partitions ahead of the job (Blaze triggers its ILP here,
    /// §5.6). `plan` is the full lineage known so far.
    fn on_job_submit(
        &mut self,
        _ctx: &CtrlCtx,
        _job: JobId,
        _job_plan: &JobPlan,
        _plan: &Plan,
    ) -> Vec<StateCommand> {
        Vec::new()
    }

    /// A stage finished. Blaze runs auto-caching/auto-unpersist here (§5.6);
    /// MRD uses it to prefetch.
    fn on_stage_complete(
        &mut self,
        _ctx: &CtrlCtx,
        _stage_output: RddId,
        _job: JobId,
        _plan: &Plan,
    ) -> Vec<StateCommand> {
        Vec::new()
    }

    /// No caller: the engine never drains it and no controller in the
    /// workspace overrides it. Kept with its default body only because the
    /// repository benchmark's forwarding controller overrides it by name;
    /// it goes when that forwarder does.
    fn take_degradation(&mut self) -> Option<DegradationNote> {
        None
    }

    /// No caller: the engine's preflight audit does not read it and no
    /// controller in the workspace overrides it. Kept with its default body
    /// only because the repository benchmark's forwarding controller
    /// overrides it by name; it goes when that forwarder does.
    fn preflight_diagnostics(&self) -> Vec<blaze_audit::Diagnostic> {
        Vec::new()
    }
}

/// The victim-selection routine behind every ranking policy's
/// [`CacheController::choose_victims`]: keys each candidate once, orders them
/// by ascending key (`partial_cmp`, then block id — so `f64` keys work and
/// ties are deterministic) and returns the shortest prefix that covers
/// `needed`, each victim with its key.
///
/// An eviction takes a victim or two out of dozens of residents, so the
/// prefix is selected, not sorted: the candidates are heapified in O(n) and
/// popped until enough is freed. Block ids are unique, which makes the order
/// strict and the popped prefix the one a full sort would give.
///
/// A victim frees its [`BlockInfo::bytes`]; a controller whose store charges
/// a different footprint passes candidates with `bytes` already scaled.
/// Anything else a policy does around the ranking (aging, ghost lists, an
/// admission filter, declining the eviction) stays at its call site.
pub fn victims_by_key<K: PartialOrd>(
    candidates: &[BlockInfo],
    needed: ByteSize,
    mut key: impl FnMut(&BlockInfo) -> K,
) -> Vec<(BlockId, K)> {
    let mut heap: BinaryHeap<Reverse<Ranked<K>>> = candidates
        .iter()
        .map(|b| Reverse(Ranked { key: key(b), id: b.id, bytes: b.bytes }))
        .collect();
    let mut freed = ByteSize::ZERO;
    let mut victims = Vec::new();
    while freed < needed {
        let Some(Reverse(next)) = heap.pop() else { break };
        freed += next.bytes;
        victims.push((next.id, next.key));
    }
    victims
}

/// One keyed candidate of [`victims_by_key`], ordered by `(key, id)`.
struct Ranked<K> {
    key: K,
    id: BlockId,
    bytes: ByteSize,
}

impl<K: PartialOrd> Ord for Ranked<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.partial_cmp(&other.key).unwrap_or(Ordering::Equal).then(self.id.cmp(&other.id))
    }
}

impl<K: PartialOrd> PartialOrd for Ranked<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: PartialOrd> PartialEq for Ranked<K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<K: PartialOrd> Eq for Ranked<K> {}

/// A controller that never caches anything (for engine tests and as the
/// degenerate baseline: every reuse recomputes from lineage).
#[derive(Debug, Default, Clone)]
pub struct NoCacheController;

impl CacheController for NoCacheController {
    fn name(&self) -> String {
        "NoCache".into()
    }

    fn should_cache(&mut self, _ctx: &CtrlCtx, _block: &BlockInfo, _annotated: bool) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`victims_by_key`] as it was before it selected lazily: sort every
    /// candidate by `(key, id)`, take the covering prefix.
    fn victims_by_full_sort<K: PartialOrd>(
        candidates: &[BlockInfo],
        needed: ByteSize,
        mut key: impl FnMut(&BlockInfo) -> K,
    ) -> Vec<(BlockId, K)> {
        let mut ranked: Vec<(K, BlockId, ByteSize)> =
            candidates.iter().map(|b| (key(b), b.id, b.bytes)).collect();
        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal).then(a.1.cmp(&b.1)));
        let mut freed = ByteSize::ZERO;
        let mut victims = Vec::new();
        for (key, id, bytes) in ranked {
            if freed >= needed {
                break;
            }
            freed += bytes;
            victims.push((id, key));
        }
        victims
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The heap-selected prefix is the sorted prefix, ties included:
        /// keys come from a handful of values so most candidates tie, and
        /// `needed` runs from nothing to more than everything.
        #[test]
        fn lazy_selection_equals_the_full_sort(
            blocks in prop::collection::vec((0u32..4, 0u32..4, 0u64..5), 0..40),
            needed_pct in 0u64..130,
        ) {
            // Ids are unique by construction, in shuffled key order.
            let candidates: Vec<BlockInfo> = blocks
                .iter()
                .enumerate()
                .map(|(i, &(rdd, _, kib))| BlockInfo {
                    id: BlockId::new(RddId(rdd), i as u32),
                    bytes: ByteSize::from_kib(kib),
                    ser_factor: 1.0,
                    executor: ExecutorId(0),
                })
                .collect();
            let key = |b: &BlockInfo| f64::from(blocks[b.id.partition as usize].1) * 0.5;
            let total: u64 = candidates.iter().map(|b| b.bytes.as_bytes()).sum();
            let needed = ByteSize::from_bytes(total * needed_pct / 100);
            prop_assert_eq!(
                victims_by_key(&candidates, needed, key),
                victims_by_full_sort(&candidates, needed, key)
            );
        }
    }

    #[test]
    fn defaults_are_conservative() {
        let mut c = NoCacheController;
        let hw = HardwareModel::default();
        let ctx = CtrlCtx { hardware: hw, memory_capacity: ByteSize::from_mib(1) };
        let info = BlockInfo {
            id: BlockId::new(RddId(1), 0),
            bytes: ByteSize::from_kib(1),
            ser_factor: 1.0,
            executor: ExecutorId(0),
        };
        assert!(!c.should_cache(&ctx, &info, true));
        assert_eq!(c.admit(&ctx, &info), Admission::Memory);
        assert_eq!(c.on_admission_failure(&ctx, &info), Admission::Skip);
        assert_eq!(c.readmit_after_disk_read(&ctx, &info), Admission::Disk);
        assert!(!c.serialized_in_memory());
        assert_eq!(c.memory_footprint_factor(), 1.0);
        assert!(c
            .choose_victims(&ctx, ExecutorId(0), ByteSize::from_kib(1), &info, &[])
            .is_empty());
        assert!(c.take_degradation().is_none());
        assert!(c.preflight_diagnostics().is_empty());
        assert!(c.residency_mismatch(&Residency::new()).is_none());
    }
}
