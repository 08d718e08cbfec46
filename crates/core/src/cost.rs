//! Potential recovery cost estimation (paper §5.4, Eq. 2–4).
//!
//! For a partition `p_i` not resident in memory at access time:
//!
//! - the **disk cost** `cost_d(p_i, t)` is the time to move the partition
//!   through the disk: serialization + write + read + deserialization.
//!   Eq. 3 writes this as `size / throughput_disk`; Fig. 4 clarifies that
//!   "data (de)serialization is included in the disk I/O time", so we charge
//!   the full spill + fetch path from the hardware model;
//! - the **recomputation cost** `cost_r(p_i, t)` (Eq. 4) recurses through
//!   the lineage: the most expensive uncached ancestor chain, where a
//!   memory-resident ancestor terminates the recursion (`(1 - m_k)` term)
//!   and a shuffle boundary terminates it too, because shuffle outputs
//!   persist like Spark shuffle files (re-fetch, not re-execute);
//! - the **potential recovery cost** (Eq. 2) is the minimum of the two,
//!   assuming abundant disk, since Blaze will pick the cheaper recovery.
//!
//! Unobserved metrics are inducted ([`crate::induct`]); both costs are pure
//! functions of the CostLineage snapshot and evaluate in microseconds (the
//! paper reports milliseconds on cluster-sized lineages, §5.4).

use crate::costlineage::CostLineage;
use crate::induct::{induct_edge_compute, induct_size};
use crate::pattern::IterationPattern;
use blaze_common::ids::{BlockId, RddId};
use blaze_common::{ByteSize, SimDuration};
use blaze_engine::HardwareModel;

/// Memoized costs for one lineage snapshot, two per block: the Eq. 4
/// *recovery* value of a block in its current state (what pricing a child
/// charges for it) and its Eq. 2 *admission price* (what
/// [`CostModel::cost`] returns when admissions rank it). An entry is
/// *inducted* when any metric feeding it was inducted rather than observed;
/// recovery entries carry that flag, because the prices and recovery values
/// priced through them inherit it. Inducted values depend on congruent
/// blocks elsewhere in the lineage, so they are only valid while
/// [`CostLineage::metrics_rev`] and the iteration pattern are unchanged;
/// the others survive until a block in their recursion support is dirtied.
///
/// Pricing a block in state `None` prices — and so memoizes — every parent
/// it recurses into: a memoized `None`-state block always has its narrow
/// parents' recovery entries. So does an admission price of a block not on
/// disk, unless it is a shuffle block, whose price reads only its own
/// metrics. Invalidation relies on that (see [`crate::incremental`]).
/// Flagged keys are also listed as they are inserted, so a flush visits
/// them without scanning the memo.
///
/// The entries sit in one slot per block, at `rows[rdd][partition]` (RDD
/// ids and partition indexes are dense). A row is allocated once, at its
/// RDD's partition count, the first time one of its blocks is memoized.
#[derive(Debug, Default)]
pub struct CostMemo {
    rows: Vec<Vec<Slot>>,
    inducted: Vec<BlockId>,
}

/// One block's memoized recovery value and admission price, each valid only
/// while its bit in `held` is set: a pair of `Option`s would take a third
/// more memory, and on `wide_decide` the memo holds ≈ 15 k slots.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    recovery: SimDuration,
    price: SimDuration,
    held: u8,
}

impl Slot {
    const RECOVERY: u8 = 1;
    /// The recovery value was priced from inducted metrics.
    const INDUCTED: u8 = 2;
    const PRICE: u8 = 4;
}

impl CostMemo {
    fn slot(&self, id: BlockId) -> Option<&Slot> {
        self.rows.get(id.rdd.raw() as usize)?.get(id.partition as usize)
    }

    /// `id`'s slot, allocating its row at `parts` slots (or enough to hold
    /// `id`) if this is the row's first entry.
    fn slot_mut(&mut self, id: BlockId, parts: usize) -> &mut Slot {
        let (rdd, part) = (id.rdd.raw() as usize, id.partition as usize);
        if self.rows.len() <= rdd {
            self.rows.resize_with(rdd + 1, Vec::new);
        }
        let row = &mut self.rows[rdd];
        if row.len() <= part {
            row.resize(parts.max(part + 1), Slot::default());
        }
        &mut row[part]
    }

    fn get(&self, id: BlockId) -> Option<(SimDuration, bool)> {
        let s = self.slot(id)?;
        (s.held & Slot::RECOVERY != 0).then_some((s.recovery, s.held & Slot::INDUCTED != 0))
    }

    fn insert(&mut self, id: BlockId, parts: usize, value: (SimDuration, bool)) {
        if value.1 {
            self.inducted.push(id);
        }
        let s = self.slot_mut(id, parts);
        s.recovery = value.0;
        s.held = (s.held & Slot::PRICE) | Slot::RECOVERY | if value.1 { Slot::INDUCTED } else { 0 };
    }

    /// `id`'s memoized admission price, if any.
    pub(crate) fn price(&self, id: BlockId) -> Option<SimDuration> {
        let s = self.slot(id)?;
        (s.held & Slot::PRICE != 0).then_some(s.price)
    }

    fn insert_price(&mut self, id: BlockId, parts: usize, price: SimDuration, inducted: bool) {
        if inducted {
            self.inducted.push(id);
        }
        let s = self.slot_mut(id, parts);
        s.price = price;
        s.held |= Slot::PRICE;
    }

    /// Drops both of `id`'s entries; returns whether it had a recovery
    /// entry and whether it had an admission price.
    pub(crate) fn remove(&mut self, id: BlockId) -> (bool, bool) {
        let row = self.rows.get_mut(id.rdd.raw() as usize);
        let held = row
            .and_then(|r| r.get_mut(id.partition as usize))
            .map_or(0, |s| std::mem::take(&mut s.held));
        (held & Slot::RECOVERY != 0, held & Slot::PRICE != 0)
    }

    /// Takes the list of keys inserted with the inducted flag since the last
    /// call (some may have been removed or re-priced since).
    pub(crate) fn take_inducted(&mut self) -> Vec<BlockId> {
        std::mem::take(&mut self.inducted)
    }

    /// The memoized blocks, in id order: a block with a recovery entry, then
    /// again if it has an admission price (a block with both comes twice).
    pub(crate) fn keys(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.rows.iter().enumerate().flat_map(|(rdd, row)| {
            row.iter().enumerate().flat_map(move |(part, slot)| {
                let id = BlockId::new(RddId(rdd as u32), part as u32);
                let has = |bit| (slot.held & bit != 0).then_some(id);
                has(Slot::RECOVERY).into_iter().chain(has(Slot::PRICE))
            })
        })
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
        self.inducted.clear();
    }
}

/// The potential-recovery-cost estimator.
pub struct CostModel<'a> {
    lineage: &'a CostLineage,
    hardware: &'a HardwareModel,
    pattern: Option<IterationPattern>,
    /// Memoized Eq. 4 recovery values and Eq. 2 admission prices for the
    /// current snapshot.
    memo: CostMemo,
}

/// Recursion guard: lineage chains longer than this are priced as already
/// maximal (they only occur on degenerate unbounded lineages).
const MAX_DEPTH: usize = 512;

impl<'a> CostModel<'a> {
    /// Creates a cost model over a lineage snapshot.
    pub fn new(
        lineage: &'a CostLineage,
        hardware: &'a HardwareModel,
        pattern: Option<IterationPattern>,
    ) -> Self {
        Self::with_memo(lineage, hardware, pattern, CostMemo::default())
    }

    /// Creates a cost model seeded with a memo from an earlier snapshot.
    ///
    /// The caller owns the invalidation contract: every entry whose value
    /// could have changed since it was computed (dirty blocks and their
    /// narrow descendants; all flagged entries on a metrics revision or
    /// pattern change) must have been removed. The incremental decision path
    /// ([`crate::incremental`]) maintains exactly that.
    pub fn with_memo(
        lineage: &'a CostLineage,
        hardware: &'a HardwareModel,
        pattern: Option<IterationPattern>,
        memo: CostMemo,
    ) -> Self {
        Self { lineage, hardware, pattern, memo }
    }

    /// Consumes the model, returning the memo for reuse against a later
    /// snapshot (see [`Self::with_memo`]).
    pub fn into_memo(self) -> CostMemo {
        self.memo
    }

    /// Estimated size of a partition (observed or inducted).
    pub fn size(&self, id: BlockId) -> ByteSize {
        induct_size(self.lineage, self.pattern, id).unwrap_or(ByteSize::ZERO)
    }

    /// Estimated single-edge compute time of a partition.
    pub fn edge_compute(&self, id: BlockId) -> SimDuration {
        induct_edge_compute(self.lineage, self.pattern, id).unwrap_or(SimDuration::ZERO)
    }

    /// Like [`Self::size`], with a flag marking an inducted (metrics-rev
    /// dependent) value.
    fn size_tracked(&self, id: BlockId) -> (ByteSize, bool) {
        match self.lineage.observed_size(id) {
            Some(s) => (s, false),
            None => (self.size(id), true),
        }
    }

    fn edge_tracked(&self, id: BlockId) -> (SimDuration, bool) {
        match self.lineage.observed_edge_compute(id) {
            Some(e) => (e, false),
            None => (self.edge_compute(id), true),
        }
    }

    /// The partition count of `id`'s RDD (0 when unknown): the length a
    /// memo row is allocated at.
    fn parts(&self, id: BlockId) -> usize {
        self.lineage.node(id.rdd).map_or(0, |n| n.parts.len())
    }

    /// The serialization factor of `id`'s RDD (1.0 when unknown).
    fn ser_factor(&self, id: BlockId) -> f64 {
        self.lineage.node(id.rdd).map(|n| n.ser_factor).unwrap_or(1.0)
    }

    /// Eq. 3: the potential disk access cost of `p_i`.
    pub fn cost_d(&self, id: BlockId) -> SimDuration {
        self.disk_round_trip(id, self.size(id))
    }

    /// Eq. 3 for a partition of `id`'s RDD of the given size.
    fn disk_round_trip(&self, id: BlockId, size: ByteSize) -> SimDuration {
        let ser = self.ser_factor(id);
        self.hardware.spill_time(size, ser) + self.hardware.fetch_from_disk_time(size, ser)
    }

    /// Eq. 4: the potential recomputation cost of `p_i`.
    pub fn cost_r(&mut self, id: BlockId) -> SimDuration {
        self.cost_r_inner(id, 0).0
    }

    /// The per-access cost of keeping `p_i` serialized in memory (the
    /// s-state of the enlarged m/s/d/u space, §7.2's Alluxio regime): every
    /// read deserializes the packed bytes. The footprint side of the
    /// trade-off — the block occupies only `size × ser_footprint` of the
    /// memory store — enters the decision as the s-option's knapsack weight,
    /// not as a time charge here.
    pub fn cost_s(&self, id: BlockId) -> SimDuration {
        let size = self.size(id);
        let ser = self.ser_factor(id);
        self.hardware.deser_time(size, ser)
    }

    fn cost_r_inner(&mut self, id: BlockId, depth: usize) -> (SimDuration, bool) {
        // `node` borrows the lineage for `'a`, not `self`, so its parents
        // can be walked while the recursion below takes `&mut self`.
        let lineage = self.lineage;
        let Some(node) = lineage.node(id.rdd) else {
            return (SimDuration::ZERO, false);
        };
        if depth > MAX_DEPTH {
            return (SimDuration::from_secs(3600), false);
        }
        let (edge, edge_inducted) = self.edge_tracked(id);
        if node.is_shuffle {
            // Shuffle outputs persist: recomputation re-fetches them over
            // the network (plus deserialization) and re-runs only the
            // aggregation edge.
            let parent_ser =
                node.parents.first().and_then(|p| self.lineage.node(*p)).map(|n| n.ser_factor);
            let (size, size_inducted) = self.size_tracked(id);
            let fetch = self.hardware.network_time(size)
                + self.hardware.deser_time(size, parent_ser.unwrap_or(1.0));
            return (edge + fetch, edge_inducted || size_inducted);
        }
        // Eq. 4 takes the max over ancestor chains (parallel recovery); our
        // engine recovers the inputs of one task serially, so the faithful
        // prediction here is the *sum* over parents (documented deviation).
        let mut total = SimDuration::ZERO;
        let mut inducted = edge_inducted;
        for &parent in &node.parents {
            let pid = BlockId::new(parent, id.partition);
            let (c, i) = self.recovery_inner(pid, depth + 1);
            total += c;
            inducted |= i;
        }
        (total + edge, inducted)
    }

    /// The cost of using a partition right now, given its *current* state
    /// (the `(1 - m_k) · cost(p_k, t)` term of Eq. 4): free from memory, a
    /// disk read when spilled, a recursive recomputation otherwise.
    fn recovery_inner(&mut self, id: BlockId, depth: usize) -> (SimDuration, bool) {
        if let Some(c) = self.memo.get(id) {
            return c;
        }
        let c = match self.lineage.state(id) {
            crate::costlineage::PartitionState::Memory(_) => (SimDuration::ZERO, false),
            crate::costlineage::PartitionState::SerializedMemory(_) => {
                // Resident but packed: using it costs one deserialization.
                let (size, inducted) = self.size_tracked(id);
                let ser = self.ser_factor(id);
                (self.hardware.deser_time(size, ser), inducted)
            }
            crate::costlineage::PartitionState::Disk(_) => {
                let (size, inducted) = self.size_tracked(id);
                let ser = self.ser_factor(id);
                (self.hardware.fetch_from_disk_time(size, ser), inducted)
            }
            crate::costlineage::PartitionState::None => self.cost_r_inner(id, depth),
        };
        self.memo.insert(id, self.parts(id), c);
        c
    }

    /// Eq. 2: the potential recovery cost of `p_i` if it is not kept in
    /// memory. For an already-spilled partition only the read remains; for
    /// anything else Blaze is free to pick the cheaper of disk and
    /// recomputation.
    ///
    /// Memoized as the block's admission price until the block, or a block
    /// its recovery recursion read, changes (or, for an inducted price, the
    /// metrics revision or pattern moves).
    pub fn cost(&mut self, id: BlockId) -> SimDuration {
        if let Some(c) = self.memo.price(id) {
            return c;
        }
        let (size, size_inducted) = self.size_tracked(id);
        let (price, inducted) = if self.lineage.state(id).on_disk() {
            (self.hardware.fetch_from_disk_time(size, self.ser_factor(id)), size_inducted)
        } else {
            let (r, r_inducted) = self.cost_r_inner(id, 0);
            (self.disk_round_trip(id, size).min(r), size_inducted || r_inducted)
        };
        self.memo.insert_price(id, self.parts(id), price, inducted);
        price
    }

    /// The recovery state Blaze would pick for an out-of-memory partition:
    /// true = keep on disk (`d_i`), false = discard (`u_i`) (§4.2).
    pub fn prefers_disk(&mut self, id: BlockId) -> bool {
        self.cost_d(id) < self.cost_r(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costlineage::PartitionState;
    use blaze_common::ids::ExecutorId;
    use blaze_dataflow::{runner::LocalRunner, Context};

    /// chain: src(0) -> m1(1) -> m2(2) -> m3(3), 1 partition each.
    fn chain_lineage() -> CostLineage {
        let ctx = Context::new(LocalRunner::new());
        let src = ctx.parallelize(vec![0u64; 16], 1);
        let m1 = src.map(|x| x + 1);
        let m2 = m1.map(|x| x + 1);
        let _m3 = m2.map(|x| x + 1);
        let mut cl = CostLineage::new();
        cl.merge_plan(&ctx.plan().read());
        cl
    }

    fn record(cl: &mut CostLineage, rdd: u32, kib: u64, ms: u64) {
        cl.record_metrics(
            BlockId::new(RddId(rdd), 0),
            ByteSize::from_kib(kib),
            SimDuration::from_millis(ms),
        );
    }

    #[test]
    fn disk_cost_scales_with_size_and_ser_factor() {
        let mut cl = chain_lineage();
        record(&mut cl, 1, 1024, 10);
        record(&mut cl, 2, 2048, 10);
        let hw = HardwareModel::default();
        let m = CostModel::new(&cl, &hw, None);
        let small = m.cost_d(BlockId::new(RddId(1), 0));
        let large = m.cost_d(BlockId::new(RddId(2), 0));
        assert!(large > small);
        assert!(large.as_secs_f64() / small.as_secs_f64() > 1.9);
    }

    #[test]
    fn recompute_cost_accumulates_down_uncached_chains() {
        let mut cl = chain_lineage();
        for rdd in 0..4 {
            record(&mut cl, rdd, 1, 10); // Tiny data: recompute beats disk.
        }
        let hw = HardwareModel::default();
        let mut m = CostModel::new(&cl, &hw, None);
        // Nothing cached: recomputing m3 re-runs src, m1, m2, m3 = 40 ms.
        let c3 = m.cost_r(BlockId::new(RddId(3), 0));
        assert!((c3.as_millis_f64() - 40.0).abs() < 1.0, "got {c3}");
    }

    #[test]
    fn memory_resident_ancestor_cuts_the_recursion() {
        let mut cl = chain_lineage();
        for rdd in 0..4 {
            record(&mut cl, rdd, 1, 10);
        }
        cl.set_state(BlockId::new(RddId(2), 0), PartitionState::Memory(ExecutorId(0)));
        let hw = HardwareModel::default();
        let mut m = CostModel::new(&cl, &hw, None);
        // m2 cached: recomputing m3 costs only its own edge (10 ms).
        let c3 = m.cost_r(BlockId::new(RddId(3), 0));
        assert!((c3.as_millis_f64() - 10.0).abs() < 1.0, "got {c3}");
    }

    #[test]
    fn disk_resident_ancestor_costs_a_disk_read() {
        let mut cl = chain_lineage();
        for rdd in 0..4 {
            record(&mut cl, rdd, 10_000, 1); // Large data, cheap compute.
        }
        cl.set_state(BlockId::new(RddId(2), 0), PartitionState::Disk(ExecutorId(0)));
        let hw = HardwareModel::default();
        let mut m = CostModel::new(&cl, &hw, None);
        let c2 = m.cost(BlockId::new(RddId(2), 0));
        // On disk: recovery = read + deser only.
        let expected = hw.fetch_from_disk_time(ByteSize::from_kib(10_000), 1.0);
        assert_eq!(c2, expected);
    }

    #[test]
    fn eq2_picks_the_cheaper_recovery() {
        let mut cl = chain_lineage();
        // Big partition, cheap compute: recompute wins.
        for rdd in 0..4 {
            record(&mut cl, rdd, 100_000, 1);
        }
        let hw = HardwareModel::default();
        let mut m = CostModel::new(&cl, &hw, None);
        let id = BlockId::new(RddId(3), 0);
        assert!(!m.prefers_disk(id));
        assert_eq!(m.cost(id), m.cost_r(id));

        // Small partition, expensive compute: disk wins.
        let mut cl2 = chain_lineage();
        for rdd in 0..4 {
            record(&mut cl2, rdd, 1, 2_000);
        }
        let mut m2 = CostModel::new(&cl2, &hw, None);
        let id = BlockId::new(RddId(3), 0);
        assert!(m2.prefers_disk(id));
        assert_eq!(m2.cost(id), m2.cost_d(id));
    }

    #[test]
    fn shuffle_nodes_stop_recursion_at_the_boundary() {
        let ctx = Context::new(LocalRunner::new());
        let src = ctx.parallelize((0..64u64).map(|i| (i % 4, i)).collect::<Vec<_>>(), 2);
        let red = src.reduce_by_key(2, |a, b| a + b);
        let mapped = red.map_values(|v| v + 1);
        let mut cl = CostLineage::new();
        cl.merge_plan(&ctx.plan().read());
        // Expensive source; the shuffle must hide it.
        cl.record_metrics(
            BlockId::new(src.id(), 0),
            ByteSize::from_kib(1),
            SimDuration::from_secs(100),
        );
        cl.record_metrics(
            BlockId::new(red.id(), 0),
            ByteSize::from_kib(1),
            SimDuration::from_millis(5),
        );
        cl.record_metrics(
            BlockId::new(mapped.id(), 0),
            ByteSize::from_kib(1),
            SimDuration::from_millis(5),
        );
        let hw = HardwareModel::default();
        let mut m = CostModel::new(&cl, &hw, None);
        let c = m.cost_r(BlockId::new(mapped.id(), 0));
        // Recomputation = re-fetch shuffle + red edge + mapped edge,
        // nowhere near the 100 s source.
        assert!(c < SimDuration::from_secs(1), "got {c}");
        assert!(c >= SimDuration::from_millis(10));
    }

    #[test]
    fn serialized_memory_ancestor_costs_a_deserialization() {
        let mut cl = chain_lineage();
        for rdd in 0..4 {
            record(&mut cl, rdd, 10_000, 1);
        }
        cl.set_state(BlockId::new(RddId(2), 0), PartitionState::SerializedMemory(ExecutorId(0)));
        let hw = HardwareModel::default();
        let mut m = CostModel::new(&cl, &hw, None);
        // Recomputing m3 reads m2 from the serialized tier: one deser + edge.
        let c3 = m.cost_r(BlockId::new(RddId(3), 0));
        let deser = hw.deser_time(ByteSize::from_kib(10_000), 1.0);
        let edge = SimDuration::from_millis(1);
        assert_eq!(c3, deser + edge);
        assert_eq!(m.cost_s(BlockId::new(RddId(2), 0)), deser);
        // A deser charge is strictly cheaper than the full disk round trip.
        assert!(m.cost_s(BlockId::new(RddId(2), 0)) < m.cost_d(BlockId::new(RddId(2), 0)));
    }

    /// `keys()` lists exactly the live entries, in id order, whatever ids
    /// they carry: a profiled lineage runs ahead of the plan, so the memo
    /// holds blocks of RDDs the plan has not reached, and of RDDs no lineage
    /// knows (their rows are sized to hold the block).
    #[test]
    fn memo_keys_are_exactly_the_live_entries() {
        let ms = SimDuration::from_millis;
        let mut memo = CostMemo::default();
        let a = BlockId::new(RddId(2), 1);
        let b = BlockId::new(RddId(2), 3);
        let far = BlockId::new(RddId(900), 40);
        memo.insert(a, 4, (ms(1), false));
        memo.insert_price(a, 4, ms(2), true);
        memo.insert_price(b, 4, ms(3), false);
        memo.insert(far, 0, (ms(4), true));
        let keys = |m: &CostMemo| m.keys().collect::<Vec<_>>();
        assert_eq!(keys(&memo), vec![a, a, b, far]);
        assert_eq!((memo.get(a), memo.price(a)), (Some((ms(1), false)), Some(ms(2))));

        assert_eq!(memo.remove(a), (true, true));
        assert_eq!(memo.remove(a), (false, false));
        assert_eq!(memo.remove(BlockId::new(RddId(5000), 0)), (false, false));
        assert_eq!(keys(&memo), vec![b, far]);
        assert_eq!(memo.get(far), Some((ms(4), true)));
        memo.insert(b, 4, (ms(6), false));
        assert_eq!((memo.get(b), memo.price(b)), (Some((ms(6), false)), Some(ms(3))));
        assert_eq!(memo.take_inducted(), vec![a, far], "flagged keys are listed as inserted");

        memo.clear();
        assert!(keys(&memo).is_empty());
        assert_eq!((memo.price(b), memo.get(b), memo.get(far)), (None, None, None));
        memo.insert_price(far, 0, ms(5), false);
        assert_eq!(keys(&memo), vec![far]);
    }

    #[test]
    fn memoization_is_consistent() {
        let mut cl = chain_lineage();
        for rdd in 0..4 {
            record(&mut cl, rdd, 64, 10);
        }
        let hw = HardwareModel::default();
        let mut m = CostModel::new(&cl, &hw, None);
        let id = BlockId::new(RddId(3), 0);
        let a = m.cost(id);
        let b = m.cost(id);
        assert_eq!(a, b);
    }
}
