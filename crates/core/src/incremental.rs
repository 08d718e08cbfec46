//! The decision driver: one loop over executors → solve → command emission,
//! run at every job submission (§5.5).
//!
//! The loop runs in the engine's *serial* plan/commit phase, so its latency
//! directly caps parallel speedup. Re-deriving every cached partition's
//! recovery cost and re-solving every executor's state program each time is
//! O(everything); the driver instead keeps its decision state alive between
//! submissions and re-derives only what a change could have affected:
//!
//! - **Cost memo** — the memo of Eq. 4 recovery values and Eq. 2 admission
//!   prices ([`crate::cost::CostMemo`]) is the controller's only one:
//!   retained across solves and lent to every admission through
//!   [`IncrementalOptimizer::checkout_memo`]. [`CostLineage`] marks blocks
//!   dirty on every metric/state change; a dirty block invalidates its own
//!   entries and, through every block that actually lost one, those of its
//!   *narrow descendants on the same partition index* (shuffle children
//!   re-fetch their own outputs and never recurse into parents, narrow
//!   dependencies are partition-aligned — see
//!   [`CostLineage::narrow_children`] — and a memoized `None`-state block,
//!   like a priced narrow block not on disk, always has its parents'
//!   recovery entries, so a block without an entry shields everything below
//!   it). Entries that consumed *inducted* metrics are additionally flushed
//!   whenever [`CostLineage::metrics_rev`] or the iteration pattern changes,
//!   because induction reads congruent blocks anywhere in the lineage.
//! - **Solution reuse** — per executor, if the candidate vector (ids, sizes,
//!   costs, reference counts, states) and capacity are unchanged, the
//!   previous picks are returned without solving: the solvers are
//!   deterministic functions of exactly that data. Any other instance is
//!   solved from scratch (`optimize::solve_instance`).
//!
//! None of the retained state may influence a decision. The reference that
//! pins this is *the same driver with nothing retained*
//! ([`IncrementalOptimizer::reset`] before every call; at controller level
//! `BlazeController::forget_decision_state`): the differential and
//! golden-trace tests require byte-identical command streams and traces
//! against it.

use crate::cost::{CostMemo, CostModel};
use crate::costlineage::CostLineage;
use crate::optimize::{emit_commands, gather_candidates, solve_instance, Candidate, Pick, Tiers};
use crate::pattern::IterationPattern;
use crate::refs::JobRefs;
use blaze_certify::{
    check_dirty_closure, verify_instance, InstanceCertificate, InstancePayload, LineageNodeView,
    LineageView,
};
// audit: allow(decision-hash) keyed lookups only; every iteration below sorts keys first
use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::{BlockId, ExecutorId};
use blaze_common::ByteSize;
use blaze_engine::{HardwareModel, StateCommand};

/// Counters describing how much work the driver did and avoided; the
/// repository benchmark reports them as its `core.*` counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecisionStats {
    /// Executor instances solved (not answered by solution reuse).
    pub solves: u64,
    /// Executor instances whose previous solution was reused outright.
    pub reused: u64,
    /// Dirty blocks drained from the lineage.
    pub dirty_drained: u64,
    /// Eq. 4 recovery entries invalidated, by dirty-set propagation and by
    /// flushes of inducted entries. Admission prices dropped alongside are
    /// not counted.
    pub invalidated: u64,
    /// Decision certificates emitted and inline-verified (certify mode).
    pub certified: u64,
    /// The most candidates one job submission gathered, over all executors.
    pub peak_candidates: u64,
}

/// One executor's retained solve: the instance it answered and the answer.
#[derive(Debug, Clone)]
struct PrevSolve {
    capacity: ByteSize,
    /// The states the solve could choose: an answer must never be reused
    /// for an instance priced with other tiers.
    tiers: Tiers,
    candidates: Vec<Candidate>,
    picks: Vec<Pick>,
}

/// The decision driver and the state it retains between submissions.
///
/// It sees every lineage mutation implicitly (it drains
/// [`CostLineage::take_dirty`]); call [`Self::optimize`] at each job
/// submission.
#[derive(Debug, Default)]
pub struct IncrementalOptimizer {
    memo: CostMemo,
    /// Pattern and metrics revision the *flagged* memo entries were computed
    /// under (see [`crate::cost::CostMemo`]).
    pattern: Option<IterationPattern>,
    metrics_rev: u64,
    // audit: allow(decision-hash) keyed per-executor lookup, retained/drained by sorted key
    prev: FxHashMap<ExecutorId, PrevSolve>,
    stats: DecisionStats,
    /// Certify mode: emit a decision certificate for every actual solve,
    /// verify it inline (panicking on any finding), and check each job
    /// submission's dirty invalidation for BA505 soundness. A debugging harness —
    /// certified solvers return byte-identical answers, so flipping this
    /// cannot change decisions, only validate them.
    certify: bool,
}

impl IncrementalOptimizer {
    /// Creates a driver with no retained state (the first call prices and
    /// solves everything cold).
    pub fn new() -> Self {
        Self::default()
    }

    /// Work-avoidance counters accumulated so far.
    pub fn stats(&self) -> DecisionStats {
        self.stats
    }

    /// Drops all retained state (counters excepted); the next call prices
    /// and solves everything cold.
    pub fn reset(&mut self) {
        self.memo.clear();
        self.prev.clear();
    }

    /// Enables or disables certify mode (see the `certify` field).
    pub fn set_certify(&mut self, on: bool) {
        self.certify = on;
    }

    /// Lends the retained memo out, brought up to date with `lineage`. Every
    /// pricing the controller does — job submission and admissions alike —
    /// goes through this one step: drain the dirty set; on a metrics-revision
    /// or pattern change, flush the inducted entries; invalidate. Hand the
    /// memo back with [`Self::checkin_memo`].
    ///
    /// Certify mode checks the invalidation (BA505) at job submissions only:
    /// its independent closure costs a lineage snapshot, too much for every
    /// admission. Admissions are checked in debug builds instead, each price
    /// against a model priced afresh.
    pub fn checkout_memo(
        &mut self,
        lineage: &mut CostLineage,
        pattern: Option<IterationPattern>,
    ) -> CostMemo {
        self.checkout(lineage, pattern, false)
    }

    fn checkout(
        &mut self,
        lineage: &mut CostLineage,
        pattern: Option<IterationPattern>,
        certify: bool,
    ) -> CostMemo {
        let dirty = lineage.take_dirty();
        self.stats.dirty_drained += dirty.len() as u64;
        // Induction-dependent entries are only valid within one metrics
        // revision and pattern; flush them when either moved.
        if pattern != self.pattern || lineage.metrics_rev() != self.metrics_rev {
            let inducted = self.memo.take_inducted();
            self.invalidate(lineage, &inducted);
            self.pattern = pattern;
            self.metrics_rev = lineage.metrics_rev();
        }
        let memoized = certify.then(|| self.memo.keys().collect::<Vec<_>>());
        self.invalidate(lineage, &dirty);
        if let Some(memoized) = memoized {
            self.check_invalidation_soundness(lineage, &dirty, &memoized);
        }
        std::mem::take(&mut self.memo)
    }

    /// Takes back the memo [`Self::checkout_memo`] lent out, with whatever
    /// the pricing added to it.
    pub fn checkin_memo(&mut self, memo: CostMemo) {
        self.memo = memo;
    }

    /// Removes the memo entries a change to `seeds` could have altered: a
    /// seed's own entries and, through every block that actually lost one,
    /// those of its narrow children on the same partition. The walk goes on
    /// only through removed entries: a memoized block in state `None`, and
    /// an admission price of a narrow block not on disk, always has its
    /// parents' recovery entries ([`CostMemo`]), so no entry below a block
    /// without one was priced through it.
    fn invalidate(&mut self, lineage: &CostLineage, seeds: &[BlockId]) {
        let mut stack = seeds.to_vec();
        while let Some(b) = stack.pop() {
            let (recovery, price) = self.memo.remove(b);
            if recovery {
                self.stats.invalidated += 1;
            } else if !price {
                continue;
            }
            stack.extend(
                lineage.narrow_children(b.rdd).iter().map(|&c| BlockId::new(c, b.partition)),
            );
        }
    }

    /// BA505: after [`Self::invalidate`], no retained memo entry may be
    /// reachable from a dirty block through entries `memoized` before it.
    /// The closure is recomputed by `blaze-certify` from a plain-data
    /// lineage snapshot (independent of [`CostLineage::narrow_children`]),
    /// so an under-approximating invalidation cannot vouch for itself.
    fn check_invalidation_soundness(
        &self,
        lineage: &CostLineage,
        dirty: &[BlockId],
        memoized: &[BlockId],
    ) {
        let view = LineageView {
            nodes: lineage
                .iter()
                .map(|n| LineageNodeView {
                    rdd: n.rdd,
                    parents: n.parents.clone(),
                    is_shuffle: n.is_shuffle,
                })
                .collect(),
        };
        let mut retained: Vec<BlockId> = self.memo.keys().collect();
        retained.sort();
        let findings = check_dirty_closure(&view, dirty, memoized, &retained);
        assert!(findings.is_empty(), "dirty-closure certification failed (BA505): {findings:?}");
    }

    /// Computes the state commands that move the cluster's cached
    /// partitions to the cost-optimal configuration for the upcoming window.
    ///
    /// `current_job` is the index of the job being submitted within the job
    /// sequence. Commands are ordered so that space is freed (spills and
    /// unpersists) before promotions consume it.
    #[allow(clippy::too_many_arguments)]
    pub fn optimize(
        &mut self,
        lineage: &mut CostLineage,
        refs: &JobRefs,
        pattern: Option<IterationPattern>,
        hardware: &HardwareModel,
        memory_capacity: ByteSize,
        current_job: usize,
        tiers: Tiers,
    ) -> Vec<StateCommand> {
        let memo = self.checkout(lineage, pattern, self.certify);
        let mut model = CostModel::with_memo(lineage, hardware, pattern, memo);
        let mut per_exec = gather_candidates(lineage, refs, hardware, current_job, &mut model);
        self.checkin_memo(model.into_memo());
        let gathered = per_exec.values().map(Vec::len).sum::<usize>() as u64;
        self.stats.peak_candidates = self.stats.peak_candidates.max(gathered);

        let mut execs: Vec<ExecutorId> = per_exec.keys().copied().collect();
        execs.sort();
        // Executors with no cached blocks have no instance; drop their
        // retained solutions so the map stays bounded by live executors.
        self.prev.retain(|e, _| per_exec.contains_key(e));

        let mut solved = Vec::with_capacity(execs.len());
        for exec in execs {
            let candidates = per_exec.remove(&exec).unwrap_or_default();
            let picks = self.solve_with_reuse(exec, candidates.clone(), memory_capacity, tiers);
            solved.push((exec, candidates, picks));
        }
        emit_commands(&solved)
    }

    /// Solves one executor's instance, reusing the previous solution when
    /// the instance is unchanged.
    fn solve_with_reuse(
        &mut self,
        exec: ExecutorId,
        candidates: Vec<Candidate>,
        capacity: ByteSize,
        tiers: Tiers,
    ) -> Vec<Pick> {
        if let Some(p) = self.prev.get(&exec) {
            if p.capacity == capacity && p.tiers == tiers && p.candidates == candidates {
                // Identical instance: the solver is a deterministic function
                // of (candidates, capacity, tiers), so the previous
                // answer *is* the answer.
                self.stats.reused += 1;
                return p.picks.clone();
            }
        }
        self.stats.solves += 1;
        let solved = solve_instance(&candidates, capacity, tiers, self.certify);
        if let Some(payload) = solved.payload {
            self.verify_inline(exec, payload);
        }
        self.prev
            .insert(exec, PrevSolve { capacity, tiers, candidates, picks: solved.picks.clone() });
        solved.picks
    }

    /// Certify-mode enforcement: verifies one emitted certificate and
    /// panics with the findings on any failure (a debugging harness — the
    /// solver's own answer never depends on this running).
    fn verify_inline(&mut self, executor: ExecutorId, payload: InstancePayload) {
        let cert = InstanceCertificate { executor, payload };
        let findings = verify_instance(&cert);
        assert!(
            findings.is_empty(),
            "decision certificate for {executor:?} failed verification: {findings:?}"
        );
        self.stats.certified += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costlineage::PartitionState;
    use blaze_common::ids::RddId;
    use blaze_common::SimDuration;
    use blaze_dataflow::{runner::LocalRunner, Context};

    /// A cached iterative chain on two executors with metrics recorded.
    fn world(iters: usize) -> (CostLineage, JobRefs) {
        let ctx = Context::new(LocalRunner::new());
        let mut cur = ctx.parallelize((0..64u64).collect::<Vec<_>>(), 2);
        let mut targets = Vec::new();
        for _ in 0..iters {
            cur = cur.map(|x| x + 1);
            targets.push(cur.id());
        }
        let plan = ctx.plan().read();
        let mut cl = CostLineage::new();
        cl.merge_plan(&plan);
        cl.seed_job_targets(targets.clone());
        let refs = JobRefs::build(&plan, &targets);
        for rdd in 0..cl.len() as u32 {
            for part in 0..2u32 {
                let id = BlockId::new(RddId(rdd), part);
                cl.record_metrics(
                    id,
                    blaze_common::ByteSize::from_kib(64 + u64::from(rdd)),
                    SimDuration::from_millis(5 + u64::from(rdd)),
                );
                cl.set_state(id, PartitionState::Memory(ExecutorId(part)));
            }
        }
        (cl, refs)
    }

    /// The cold reference: the same driver with nothing retained. Runs after
    /// the warm driver, which has already drained the lineage's dirty set (a
    /// driver with an empty memo has nothing to invalidate).
    fn cold(
        cl: &mut CostLineage,
        refs: &JobRefs,
        cap: ByteSize,
        job: usize,
        tiers: Tiers,
    ) -> (Vec<StateCommand>, IncrementalOptimizer) {
        let mut fresh = IncrementalOptimizer::new();
        let cmds = fresh.optimize(cl, refs, None, &HardwareModel::default(), cap, job, tiers);
        (cmds, fresh)
    }

    #[test]
    fn matches_cold_reference_over_churn() {
        let (mut cl, refs) = world(6);
        let hw = HardwareModel::default();
        let cap = blaze_common::ByteSize::from_kib(200);
        let tiers = Tiers::default();
        let mut inc = IncrementalOptimizer::new();
        for job in 0..6 {
            // Perturb: flip a state and a metric each round.
            let id = BlockId::new(RddId(job as u32), 0);
            cl.set_state(
                id,
                if job % 2 == 0 {
                    PartitionState::Disk(ExecutorId(0))
                } else {
                    PartitionState::Memory(ExecutorId(0))
                },
            );
            cl.record_metrics(
                BlockId::new(RddId(job as u32), 1),
                blaze_common::ByteSize::from_kib(32 * (job as u64 + 1)),
                SimDuration::from_millis(7),
            );
            let fast = inc.optimize(&mut cl, &refs, None, &hw, cap, job, tiers);
            let (slow, fresh) = cold(&mut cl, &refs, cap, job, tiers);
            assert_eq!(fast, slow, "diverged at job {job}");
            assert_eq!(fresh.stats().reused, 0, "the cold reference has nothing to reuse");
        }
        assert!(inc.stats().solves + inc.stats().reused > 0);
    }

    /// Checks the retained memo out against `cl`, prices `id` through it
    /// and through a fresh model, and checks it back in. Returns whether the
    /// checked-out memo still held `id`'s admission price, and the price.
    fn price_through(
        inc: &mut IncrementalOptimizer,
        cl: &mut CostLineage,
        id: BlockId,
    ) -> (bool, SimDuration) {
        let hw = HardwareModel::default();
        let memo = inc.checkout_memo(cl, None);
        let retained = memo.price(id).is_some();
        let mut model = CostModel::with_memo(cl, &hw, None, memo);
        let price = model.cost(id);
        assert_eq!(price, CostModel::new(cl, &hw, None).cost(id), "retained price of {id} stale");
        inc.checkin_memo(model.into_memo());
        (retained, price)
    }

    /// Re-records every block of `cl` with `kib` KiB and `ms` of compute.
    fn record_all(cl: &mut CostLineage, kib: u64, ms: u64) {
        for rdd in 0..cl.len() as u32 {
            for part in 0..2u32 {
                let id = BlockId::new(RddId(rdd), part);
                cl.record_metrics(id, ByteSize::from_kib(kib), SimDuration::from_millis(ms));
            }
        }
    }

    #[test]
    fn admission_price_is_dropped_when_the_block_spills() {
        let (mut cl, _) = world(3);
        record_all(&mut cl, 1, 2_000); // Tiny data, dear compute: disk wins.
        let mut inc = IncrementalOptimizer::new();
        let id = BlockId::new(RddId(3), 0);
        let (_, in_memory) = price_through(&mut inc, &mut cl, id);
        assert!(price_through(&mut inc, &mut cl, id).0, "an unchanged block keeps its price");

        cl.set_state(id, PartitionState::Disk(ExecutorId(0)));
        let (retained, on_disk) = price_through(&mut inc, &mut cl, id);
        assert!(!retained, "the spill must drop the price");
        let ser = cl.node(id.rdd).unwrap().ser_factor;
        let read = HardwareModel::default().fetch_from_disk_time(ByteSize::from_kib(1), ser);
        assert_eq!(on_disk, read);
        assert!(on_disk < in_memory, "{on_disk} is not below the round trip {in_memory}");
    }

    #[test]
    fn admission_price_rises_when_a_narrow_parent_leaves_memory() {
        let (mut cl, _) = world(3);
        record_all(&mut cl, 100 * 1024, 1); // Large data, cheap compute: recompute wins.
        let mut inc = IncrementalOptimizer::new();
        let id = BlockId::new(RddId(3), 0);
        let (_, before) = price_through(&mut inc, &mut cl, id);

        cl.set_state(BlockId::new(RddId(2), 0), PartitionState::None);
        let (retained, after) = price_through(&mut inc, &mut cl, id);
        assert!(!retained, "the parent's eviction must drop the child's price");
        assert!(after > before, "{after} is not above {before}");
    }

    #[test]
    fn shuffle_child_price_survives_a_parent_state_change() {
        let ctx = Context::new(LocalRunner::new());
        let pairs = ctx.parallelize((0..64u64).map(|i| (i % 4, i)).collect::<Vec<_>>(), 2);
        let red = pairs.reduce_by_key(2, |a, b| a + b);
        let mut cl = CostLineage::new();
        cl.merge_plan(&ctx.plan().read());
        record_all(&mut cl, 64, 5);
        for rdd in [pairs.id(), red.id()] {
            cl.set_state(BlockId::new(rdd, 0), PartitionState::Memory(ExecutorId(0)));
        }
        let mut inc = IncrementalOptimizer::new();
        let id = BlockId::new(red.id(), 0);
        let (_, before) = price_through(&mut inc, &mut cl, id);

        cl.set_state(BlockId::new(pairs.id(), 0), PartitionState::Disk(ExecutorId(0)));
        let (retained, after) = price_through(&mut inc, &mut cl, id);
        assert!(retained, "a shuffle block's price reads none of its parent's state");
        assert_eq!(after, before);
    }

    #[test]
    fn inducted_price_is_flushed_on_a_metrics_revision() {
        let ctx = Context::new(LocalRunner::new());
        let src = ctx.parallelize((0..64u64).collect::<Vec<_>>(), 2);
        let last = src.map(|x| x + 1).map(|x| x + 1);
        let mut cl = CostLineage::new();
        cl.merge_plan(&ctx.plan().read());
        for rdd in 0..last.id().0 {
            let id = BlockId::new(RddId(rdd), 0);
            cl.record_metrics(id, ByteSize::from_kib(64), SimDuration::from_millis(5));
        }
        let mut inc = IncrementalOptimizer::new();
        // Never observed: its size and edge are inducted.
        let id = BlockId::new(last.id(), 0);
        price_through(&mut inc, &mut cl, id);
        assert!(price_through(&mut inc, &mut cl, id).0, "no revision moved: the price stays");

        // A metric on the other partition: the walk from it reaches no
        // priced block, only the revision moves.
        cl.record_metrics(BlockId::new(src.id(), 1), ByteSize::from_kib(1), SimDuration::ZERO);
        let (retained, _) = price_through(&mut inc, &mut cl, id);
        assert!(!retained, "the revision bump must flush the inducted price");
    }

    #[test]
    fn reset_empties_both_maps() {
        let (mut cl, refs) = world(3);
        let mut inc = IncrementalOptimizer::new();
        let hw = HardwareModel::default();
        let tiers = Tiers::default();
        inc.optimize(&mut cl, &refs, None, &hw, ByteSize::from_kib(200), 0, tiers);
        let id = BlockId::new(RddId(3), 0);
        price_through(&mut inc, &mut cl, id);

        inc.reset();
        let memo = inc.checkout_memo(&mut cl, None);
        assert_eq!(memo.keys().count(), 0, "reset left entries behind");
        assert!(memo.price(id).is_none());
        inc.checkin_memo(memo);
        assert!(!price_through(&mut inc, &mut cl, id).0);
    }

    #[test]
    fn unchanged_instances_are_reused() {
        let (mut cl, refs) = world(4);
        let hw = HardwareModel::default();
        let cap = blaze_common::ByteSize::from_mib(64);
        let tiers = Tiers::default();
        let mut inc = IncrementalOptimizer::new();
        let a = inc.optimize(&mut cl, &refs, None, &hw, cap, 0, tiers);
        let b = inc.optimize(&mut cl, &refs, None, &hw, cap, 0, tiers);
        assert_eq!(a, b);
        assert!(inc.stats().reused > 0, "second solve should reuse: {:?}", inc.stats());
    }
}
