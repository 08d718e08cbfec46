//! The Blaze cache controller: the unified decision layer (§5.6, §4).
//!
//! One implementation covers the full system and the paper's cumulative §7.3
//! ablation ladder, selected by [`BlazeConfig::level`] ([`BlazeLevel`]);
//! [`BlazeConfig::full_mem_only`] is Blaze restricted to memory states (the
//! Fig. 12 configuration).

use crate::cost::{CostMemo, CostModel};
use crate::costlineage::{CostLineage, PartitionState};
use crate::incremental::{DecisionStats, IncrementalOptimizer};
use crate::optimize::Tiers;
use crate::pattern::{detect, IterationPattern};
use crate::profiler::ProfileResult;
use crate::refs::JobRefs;
use blaze_common::fxhash::{FxHashMap, FxHashSet};
use blaze_common::ids::{BlockId, ExecutorId, JobId, RddId};
use blaze_common::{ByteSize, SimDuration};
use blaze_dataflow::{JobPlan, Plan};
use blaze_engine::{
    victims_by_key, Admission, BlockInfo, CacheController, CtrlCtx, HardwareModel, PartitionEvent,
    Residency, StateCommand, StoreTier, VictimAction,
};

/// How much of the decision layer is on: the paper's §7.3 ablation ladder.
/// Each level includes the ones before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlazeLevel {
    /// **+AutoCache**: automatic caching and unpersisting of partitions by
    /// future references (§5.6), on top of MEM+DISK behaviour with
    /// cost-agnostic (LRU) eviction.
    AutoCache,
    /// **+CostAware**: additionally selects eviction victims by their
    /// potential disk cost (smallest first, §4.2), always spilling them to
    /// disk (no recompute option, no ILP).
    CostAware,
    /// **Blaze**: the unified decision layer with the admission comparison
    /// of §4.1, the per-victim m→d vs m→u state choice of §4.2, and the ILP
    /// re-optimization of §5.5 at every job submission.
    Unified,
}

/// How many future jobs an induced iteration pattern extends the
/// reference window by when running without profiling.
const INDUCE_HORIZON: usize = 4;

/// Configuration of the Blaze controller.
#[derive(Debug, Clone, Copy)]
pub struct BlazeConfig {
    /// The ablation level.
    pub level: BlazeLevel,
    /// The states the decisions may choose besides `m` and `u`: the
    /// serialized in-memory tier ([`Tiers::ser`]) and the disk
    /// ([`Tiers::disk`], off in Fig. 12 mode).
    pub tiers: Tiers,
    /// Certify mode: every solver emits a machine-checkable decision
    /// certificate, verified inline by `blaze-certify` at each job
    /// submission (the BA5xx codes; any finding panics). Decision-identical by
    /// construction — certified solvers only append to side vectors — so
    /// this is a debugging harness, not a production setting.
    pub certify: bool,
}

impl BlazeConfig {
    /// Full Blaze.
    pub fn full() -> Self {
        Self { level: BlazeLevel::Unified, tiers: Tiers::default(), certify: false }
    }

    /// Full Blaze with the serialized in-memory tier enabled.
    pub fn full_ser_tier() -> Self {
        let mut cfg = Self::full();
        cfg.tiers.ser = true;
        cfg
    }

    /// Full Blaze without disk support (the Fig. 12 configuration).
    pub fn full_mem_only() -> Self {
        let mut cfg = Self::full();
        cfg.tiers.disk = false;
        cfg
    }

    /// The +AutoCache ablation (§7.3).
    pub fn auto_cache_only() -> Self {
        Self { level: BlazeLevel::AutoCache, ..Self::full() }
    }

    /// The +CostAware ablation (§7.3).
    pub fn cost_aware() -> Self {
        Self { level: BlazeLevel::CostAware, ..Self::full() }
    }
}

/// The Blaze cache controller.
pub struct BlazeController {
    cfg: BlazeConfig,
    lineage: CostLineage,
    refs: JobRefs,
    pattern: Option<IterationPattern>,
    /// True while the profiled structure is trusted (no divergence).
    profiled: bool,
    /// Index of the currently running job in the job sequence.
    current_idx: usize,
    /// Remaining (unconsumed) references per RDD within the current job,
    /// indexed by RDD id; decremented as stages complete, the way the
    /// paper's anticipated future references shrink during execution
    /// (§5.6). `None` marks an RDD the job does not reference at all, which
    /// [`Self::ensure_ancestors`] tells apart from a count consumed to 0.
    remaining: Vec<Option<i64>>,
    /// (stage output, RDD one of whose in-job references that stage
    /// consumes), one pair per reference.
    consumed_by_stage: Vec<(RddId, RddId)>,
    /// LRU clock for the cost-agnostic eviction of +AutoCache, the one level
    /// that reads it (the others never write it).
    tick: u64,
    recency: FxHashMap<BlockId, u64>,
    /// The decision driver and its retained state (memo + previous
    /// solutions).
    incr: IncrementalOptimizer,
    /// Incoming RDD -> its lineage ancestors that hold an in-job reference
    /// ([`bounded_ancestors`] keeping the RDDs with an entry in `remaining`),
    /// built on the first admission of that RDD's partitions in a job.
    /// Lineage and the key set of `remaining` only change at job submission,
    /// which drops every set.
    ancestors: FxHashMap<RddId, Vec<RddId>>,
}

/// Distinct RDDs after which the ancestor walk gives up. The walk keeps a
/// visited set, so fan-in lineage that reaches a shared ancestor along many
/// paths spends one pop on it, and the guard only cuts off ancestors of
/// lineage more than this many RDDs deep.
const ANCESTOR_WALK_POPS: usize = 1024;

/// The RDDs satisfying `keep` that the bounded depth-first walk up from
/// `desc` compares against — the parents of the first
/// [`ANCESTOR_WALK_POPS`] distinct nodes it pops — sorted, without
/// duplicates.
///
/// The visited set is a bitmap over the lineage's dense ids. A parent
/// already visited is not pushed again: its pop would be skipped, so the
/// pop order is unchanged. Only `desc` can be missing from the lineage
/// (parents always are mirrored), and it has no parents to walk.
fn bounded_ancestors(
    lineage: &CostLineage,
    desc: RddId,
    keep: impl Fn(RddId) -> bool,
) -> Vec<RddId> {
    let mut found = Vec::new();
    let mut visited = vec![false; lineage.len()];
    let mut pops = 0;
    let mut stack = vec![desc];
    while pops < ANCESTOR_WALK_POPS {
        let Some(cur) = stack.pop() else { break };
        let Some(node) = lineage.node(cur) else { continue };
        if std::mem::replace(&mut visited[cur.raw() as usize], true) {
            continue;
        }
        pops += 1;
        for &p in &node.parents {
            if keep(p) {
                found.push(p);
            }
            if !visited[p.raw() as usize] {
                stack.push(p);
            }
        }
    }
    found.sort_unstable();
    found.dedup();
    found
}

/// The per-query walk [`bounded_ancestors`] replaced: true if `anc` is
/// compared against before the pop guard fires. Kept as the reference the
/// maintained sets are checked against on every lookup in debug builds.
fn walk_finds_ancestor(lineage: &CostLineage, anc: RddId, desc: RddId) -> bool {
    let mut stack = vec![desc];
    let mut visited = FxHashSet::default();
    while let Some(cur) = stack.pop() {
        if !visited.insert(cur) {
            continue;
        }
        if visited.len() > ANCESTOR_WALK_POPS {
            return false;
        }
        let Some(node) = lineage.node(cur) else { continue };
        for &p in &node.parents {
            if p == anc {
                return true;
            }
            stack.push(p);
        }
    }
    false
}

/// An admission's pricing: the controller's one retained memo, checked out
/// for the call. Debug builds price every block a second time through a
/// per-call model with an empty memo — the pricing the retained memo
/// replaced — and panic on any difference.
struct AdmissionPrices<'a> {
    model: CostModel<'a>,
    #[cfg(debug_assertions)]
    fresh: CostModel<'a>,
}

impl<'a> AdmissionPrices<'a> {
    fn new(
        lineage: &'a CostLineage,
        hw: &'a HardwareModel,
        pattern: Option<IterationPattern>,
        memo: CostMemo,
    ) -> Self {
        Self {
            model: CostModel::with_memo(lineage, hw, pattern, memo),
            #[cfg(debug_assertions)]
            fresh: CostModel::new(lineage, hw, pattern),
        }
    }

    fn cost(&mut self, id: BlockId) -> SimDuration {
        let cost = self.model.cost(id);
        #[cfg(debug_assertions)]
        assert_eq!(cost, self.fresh.cost(id), "retained memo priced {id} stale");
        cost
    }

    fn prefers_disk(&mut self, id: BlockId) -> bool {
        let to_disk = self.model.prefers_disk(id);
        #[cfg(debug_assertions)]
        assert_eq!(to_disk, self.fresh.prefers_disk(id), "retained memo priced {id} stale");
        to_disk
    }

    fn into_memo(self) -> CostMemo {
        self.model.into_memo()
    }
}

impl BlazeController {
    /// Creates a controller, optionally seeded by a dependency-extraction
    /// run ([`crate::profiler::extract_dependencies`]).
    pub fn new(cfg: BlazeConfig, profile: Option<ProfileResult>) -> Self {
        let mut incr = IncrementalOptimizer::new();
        incr.set_certify(cfg.certify);
        let (lineage, refs, pattern, profiled) = match profile {
            Some(p) => (p.lineage, p.refs, p.pattern, true),
            None => (CostLineage::new(), JobRefs::default(), None, false),
        };
        Self {
            cfg,
            lineage,
            refs,
            pattern,
            profiled,
            current_idx: 0,
            remaining: Vec::new(),
            consumed_by_stage: Vec::new(),
            tick: 0,
            recency: FxHashMap::default(),
            incr,
            ancestors: FxHashMap::default(),
        }
    }

    /// Read access to the lineage (used by reports and tests).
    pub fn lineage(&self) -> &CostLineage {
        &self.lineage
    }

    /// Refreshes `id`'s recency, which only +AutoCache's eviction reads.
    fn touch(&mut self, id: BlockId) {
        if self.cfg.level == BlazeLevel::AutoCache {
            self.tick += 1;
            self.recency.insert(id, self.tick);
        }
    }

    /// `rdd`'s unconsumed references in the current job, `None` when the
    /// job does not reference it.
    fn in_job_refs(&self, rdd: RddId) -> Option<i64> {
        self.remaining.get(rdd.raw() as usize).copied().flatten()
    }

    /// References still ahead of us: the unconsumed references of the
    /// current job plus everything from future jobs.
    fn effective_future_refs(&self, rdd: RddId) -> i64 {
        let in_job = self.in_job_refs(rdd).unwrap_or(0).max(0);
        in_job + self.cross_job_refs(rdd) as i64
    }

    /// References from jobs after the current one. This is what makes a
    /// partition worth *caching*: consumption within the producing job
    /// happens inside the same task pipelines (and shuffle reads come from
    /// the shuffle store), so only cross-job references produce cache hits.
    fn cross_job_refs(&self, rdd: RddId) -> u32 {
        self.refs.future_refs(rdd, self.current_idx + 1)
    }

    /// The weight of a block in admission/eviction comparisons: full value
    /// for data future jobs will read, reduced value for data only pending
    /// stages of the current job still traverse, zero otherwise.
    ///
    /// When the block under valuation is a lineage ancestor of the incoming
    /// block, its pending in-job reference has just been satisfied by the
    /// very pipeline producing the incoming partition, so only cross-job
    /// references keep it valuable.
    fn value_weight(&self, rdd: RddId, incoming: Option<RddId>) -> f64 {
        if self.cross_job_refs(rdd) > 0 {
            1.0
        } else if self.in_job_refs(rdd).unwrap_or(0) > 0 {
            match incoming {
                Some(desc) if self.is_ancestor_of(rdd, desc) => 0.0,
                _ => 0.5,
            }
        } else {
            0.0
        }
    }

    /// Builds the ancestor set of an incoming RDD unless this job already
    /// has it. Only RDDs with an in-job reference are ever asked about
    /// ([`Self::value_weight`]), so only those are kept.
    fn ensure_ancestors(&mut self, desc: RddId) {
        let (lineage, remaining) = (&self.lineage, &self.remaining);
        self.ancestors.entry(desc).or_insert_with(|| {
            bounded_ancestors(lineage, desc, |rdd| {
                remaining.get(rdd.raw() as usize).is_some_and(Option::is_some)
            })
        });
    }

    /// True if `anc` — an RDD with an in-job reference — is a lineage
    /// ancestor of the incoming `desc`, as far as the bounded walk sees.
    fn is_ancestor_of(&self, anc: RddId, desc: RddId) -> bool {
        let found = self.ancestors.get(&desc).is_some_and(|set| set.binary_search(&anc).is_ok());
        debug_assert!(self.ancestors.contains_key(&desc), "no ancestor set built for {desc:?}");
        debug_assert_eq!(
            found,
            walk_finds_ancestor(&self.lineage, anc, desc),
            "maintained ancestry of {desc:?} went stale for {anc:?}"
        );
        found
    }

    /// Builds references from the runtime plan and the observed job
    /// sequence, then induces future jobs from the detected pattern (the
    /// no-profiling path of Fig. 13, and a run that left its profiled
    /// sequence). Called at every such job submission.
    fn relearn_refs(&mut self, plan: &Plan) {
        let targets = self.lineage.job_targets();
        self.pattern = detect(targets);
        self.refs = JobRefs::build(plan, targets);
        if let Some(p) = self.pattern {
            self.refs.extend_induced(p, INDUCE_HORIZON);
        }
    }

    /// The decision driver's work and work-avoidance counters.
    pub fn decision_stats(&self) -> DecisionStats {
        self.incr.stats()
    }

    /// Drops everything the decision path retains between submissions — the
    /// cost memo, the previous solves and the ancestor sets — so the next
    /// submission prices and solves cold. Reference counts are not among
    /// them: they come from the profile, or are rebuilt at every submission
    /// (`relearn_refs`).
    /// Retained state never influences a decision; the differential tests
    /// call this before every submission and every admission that prices
    /// blocks to obtain the reference that proves it.
    pub fn forget_decision_state(&mut self) {
        self.incr.reset();
        self.ancestors.clear();
    }
}

impl CacheController for BlazeController {
    fn name(&self) -> String {
        match self.cfg.level {
            BlazeLevel::Unified if !self.cfg.tiers.disk => "Blaze (MEM_ONLY)".into(),
            BlazeLevel::Unified => "Blaze".into(),
            BlazeLevel::CostAware => "+CostAware".into(),
            BlazeLevel::AutoCache => "+AutoCache".into(),
        }
    }

    fn on_job_submit(
        &mut self,
        ctx: &CtrlCtx,
        job: JobId,
        job_plan: &JobPlan,
        plan: &Plan,
    ) -> Vec<StateCommand> {
        self.lineage.merge_plan(plan);
        // Debug-build invariant: after absorption the mirrored lineage must
        // agree with the plan (BA201); silent drift would misattribute
        // every profiled metric.
        debug_assert!(
            self.lineage.check_consistency(plan).is_clean(),
            "CostLineage diverged from the plan: {:?}",
            self.lineage.check_consistency(plan).diagnostics
        );
        self.current_idx = self.lineage.observe_job(job, job_plan.target);
        if self.profiled && self.lineage.diverged() {
            self.profiled = false;
        }
        if !self.profiled {
            self.relearn_refs(plan);
        }
        // Reference budget of this job: every dependency edge of every stage
        // counts once and is consumed when its stage completes. The action
        // itself reads the target — from the cache when an earlier job left
        // it there — so the target counts once too, consumed by the final
        // stage, whose output it is.
        self.remaining.clear();
        self.remaining.resize(self.lineage.len(), None);
        self.consumed_by_stage.clear();
        self.ancestors.clear();
        let mut count = |rdd: RddId| {
            *self.remaining[rdd.raw() as usize].get_or_insert(0) += 1;
        };
        count(job_plan.target);
        self.consumed_by_stage.push((job_plan.target, job_plan.target));
        for stage in &job_plan.stages {
            for &rdd in &stage.rdds {
                if let Ok(node) = plan.node(rdd) {
                    for dep in &node.deps {
                        count(dep.parent());
                        self.consumed_by_stage.push((stage.output, dep.parent()));
                    }
                }
            }
        }
        if self.cfg.level < BlazeLevel::Unified {
            return Vec::new();
        }
        // The ILP trigger (§5.6): restate cached partitions for the window.
        self.incr.optimize(
            &mut self.lineage,
            &self.refs,
            self.pattern,
            &ctx.hardware,
            ctx.memory_capacity,
            self.current_idx,
            self.cfg.tiers,
        )
    }

    fn on_stage_complete(
        &mut self,
        _ctx: &CtrlCtx,
        stage_output: RddId,
        _job: JobId,
        _plan: &Plan,
    ) -> Vec<StateCommand> {
        // Consume the references this stage satisfied.
        let remaining = &mut self.remaining;
        self.consumed_by_stage.retain(|&(output, rdd)| {
            if output != stage_output {
                return true;
            }
            if let Some(r) = &mut remaining[rdd.raw() as usize] {
                *r -= 1;
            }
            false
        });
        // Auto-unpersist: drop cached data without future references, to
        // "quickly acquire free space after each stage execution" (§5.6).
        self.lineage
            .resident_rdds()
            .filter(|&rdd| self.effective_future_refs(rdd) == 0)
            .map(StateCommand::UnpersistRdd)
            .collect()
    }

    fn should_cache(&mut self, _ctx: &CtrlCtx, block: &BlockInfo, _annotated: bool) -> bool {
        // Automatic caching: only partitions that future jobs will read
        // (§5.6); same-job consumption happens inside the producing task
        // pipelines and cannot hit the cache.
        self.cross_job_refs(block.id.rdd) > 0
    }

    fn choose_victims(
        &mut self,
        ctx: &CtrlCtx,
        _exec: ExecutorId,
        needed: ByteSize,
        incoming: &BlockInfo,
        resident: &[BlockInfo],
    ) -> Vec<(BlockId, VictimAction)> {
        if self.cfg.level == BlazeLevel::AutoCache {
            // +AutoCache: cost-agnostic LRU eviction.
            let action =
                if self.cfg.tiers.disk { VictimAction::ToDisk } else { VictimAction::Discard };
            return victims_by_key(resident, needed, |b| {
                self.recency.get(&b.id).copied().unwrap_or(0)
            })
            .into_iter()
            .map(|(id, _)| (id, action))
            .collect();
        }

        let hw = ctx.hardware;
        if self.cfg.level == BlazeLevel::CostAware {
            // +CostAware: sort by potential disk cost (smallest disk I/O
            // evicted first), always spilling (§7.3).
            let model = CostModel::new(&self.lineage, &hw, self.pattern);
            return victims_by_key(resident, needed, |b| model.cost_d(b.id).as_nanos())
                .into_iter()
                .map(|(id, _)| (id, VictimAction::ToDisk))
                .collect();
        }
        self.ensure_ancestors(incoming.id.rdd);
        let memo = self.incr.checkout_memo(&mut self.lineage, self.pattern);
        let mut prices = AdmissionPrices::new(&self.lineage, &hw, self.pattern, memo);

        // Full Blaze (§4.1/§4.2): victims ordered by effective potential
        // recovery cost (zero for unreferenced data); caching proceeds only
        // if the incoming partition saves more than the victims lose.
        let picked = victims_by_key(resident, needed, |b| {
            let w = self.value_weight(b.id.rdd, Some(incoming.id.rdd));
            if w > 0.0 {
                prices.cost(b.id).as_secs_f64() * w
            } else {
                0.0
            }
        });
        let victims_value: f64 = picked.iter().map(|&(_, v)| v).sum();
        let iw = self.value_weight(incoming.id.rdd, None);
        let incoming_value =
            if iw > 0.0 { prices.cost(incoming.id).as_secs_f64() * iw } else { 0.0 };
        // Caching the incoming block would evict more valuable data:
        // decline (the engine falls back to on_admission_failure).
        let victims = if victims_value >= incoming_value {
            Vec::new()
        } else {
            picked
                .into_iter()
                .map(|(id, _)| {
                    let action = if self.cfg.tiers.disk && prices.prefers_disk(id) {
                        VictimAction::ToDisk
                    } else {
                        VictimAction::Discard
                    };
                    (id, action)
                })
                .collect()
        };
        self.incr.checkin_memo(prices.into_memo());
        victims
    }

    fn on_admission_failure(&mut self, ctx: &CtrlCtx, block: &BlockInfo) -> Admission {
        if !self.cfg.tiers.disk {
            return Admission::Skip;
        }
        if self.cfg.level < BlazeLevel::Unified {
            // +AutoCache / +CostAware run on MEM+DISK behaviour.
            return Admission::Disk;
        }
        let hw = ctx.hardware;
        let memo = self.incr.checkout_memo(&mut self.lineage, self.pattern);
        let mut prices = AdmissionPrices::new(&self.lineage, &hw, self.pattern, memo);
        let to_disk = prices.prefers_disk(block.id);
        self.incr.checkin_memo(prices.into_memo());
        if to_disk {
            Admission::Disk
        } else {
            Admission::Skip
        }
    }

    fn readmit_after_disk_read(&mut self, _ctx: &CtrlCtx, block: &BlockInfo) -> Admission {
        if self.cfg.level == BlazeLevel::Unified && self.cross_job_refs(block.id.rdd) > 0 {
            Admission::Memory
        } else {
            Admission::Disk
        }
    }

    fn on_access(&mut self, _ctx: &CtrlCtx, id: BlockId) {
        self.touch(id);
    }

    fn on_inserted(&mut self, _ctx: &CtrlCtx, info: &BlockInfo, tier: StoreTier) {
        let state = match tier {
            StoreTier::Disk => PartitionState::Disk(info.executor),
            // Both memory tiers count as memory residency and refresh
            // recency — a serialized block is still a (cheaper) memory hit.
            StoreTier::Memory => {
                self.touch(info.id);
                PartitionState::Memory(info.executor)
            }
            StoreTier::SerializedMemory => {
                self.touch(info.id);
                PartitionState::SerializedMemory(info.executor)
            }
        };
        self.lineage.set_state(info.id, state);
    }

    fn on_evicted(&mut self, _ctx: &CtrlCtx, id: BlockId) {
        if self.cfg.level == BlazeLevel::AutoCache {
            self.recency.remove(&id);
        }
        // The block left its tier; a spill's follow-up on_inserted(Disk)
        // sets the disk state.
        self.lineage.set_state(id, PartitionState::None);
    }

    fn residency_mismatch(&self, stores: &Residency) -> Option<String> {
        self.lineage.residency_mismatch(stores)
    }

    fn explain_block(&self, id: BlockId) -> Option<String> {
        let rdd = id.rdd;
        let in_job = self.in_job_refs(rdd).unwrap_or(0).max(0);
        let cross = self.cross_job_refs(rdd);
        Some(format!(
            "blaze: {in_job} in-job + {cross} cross-job refs, weight {:.1}",
            self.value_weight(rdd, None)
        ))
    }

    fn on_partition_computed(&mut self, _ctx: &CtrlCtx, event: &PartitionEvent) {
        // The profiling feed (§5.3): sizes and edge-compute times.
        self.lineage.record_metrics(event.info.id, event.info.bytes, event.edge_compute);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_common::SimDuration;
    use blaze_engine::HardwareModel;
    use proptest::prelude::*;

    fn ctrl_ctx() -> CtrlCtx {
        CtrlCtx { hardware: HardwareModel::default(), memory_capacity: ByteSize::from_mib(4) }
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
    fn names_reflect_ablation_levels() {
        assert_eq!(BlazeController::new(BlazeConfig::full(), None).name(), "Blaze");
        assert_eq!(
            BlazeController::new(BlazeConfig::full_mem_only(), None).name(),
            "Blaze (MEM_ONLY)"
        );
        assert_eq!(BlazeController::new(BlazeConfig::auto_cache_only(), None).name(), "+AutoCache");
        assert_eq!(BlazeController::new(BlazeConfig::cost_aware(), None).name(), "+CostAware");
    }

    #[test]
    fn should_cache_follows_future_references() {
        use blaze_dataflow::{runner::LocalRunner, Context};
        // Two jobs: job 0 materializes c = f(b); job 1 materializes d = g(b).
        // During job 0, b has a cross-job reference (cache it) while c has
        // none (do not cache it).
        let dctx = Context::new(LocalRunner::new());
        let a = dctx.parallelize((0..64u64).map(|i| (i % 4, i)).collect::<Vec<_>>(), 2);
        let b = a.reduce_by_key(2, |x, y| x + y);
        let c = b.map_values(|v| v + 1);
        let d = b.map_values(|v| v + 2);

        let mut ctl = BlazeController::new(BlazeConfig::full(), None);
        let ctx = ctrl_ctx();
        let plan_lock = dctx.plan();
        let plan = plan_lock.read();
        // Seed the profiled structure: both job targets are known.
        ctl.lineage.merge_plan(&plan);
        ctl.lineage.seed_job_targets(vec![c.id(), d.id()]);
        ctl.refs = crate::refs::JobRefs::build(&plan, &[c.id(), d.id()]);
        ctl.profiled = true;

        let jp = blaze_dataflow::planner::plan_job(&plan, c.id()).unwrap();
        ctl.on_job_submit(&ctx, JobId(0), &jp, &plan);
        assert!(ctl.should_cache(&ctx, &info(b.id().raw(), 0, 1), false));
        assert!(!ctl.should_cache(&ctx, &info(c.id().raw(), 0, 1), false));
    }

    #[test]
    fn unified_admission_declines_cheap_over_expensive() {
        use blaze_dataflow::{runner::LocalRunner, Context};
        // Two datasets both referenced in the future; the resident one has
        // a much higher recovery cost than the incoming one.
        let dctx = Context::new(LocalRunner::new());
        let exp = dctx.parallelize((0..64u64).collect::<Vec<_>>(), 1); // rdd 0
        let cheap = dctx.parallelize((0..64u64).collect::<Vec<_>>(), 1); // rdd 1
        let m1 = exp.map(|x| x + 1); // rdd 2
        let m2 = cheap.map(|x| x + 1); // rdd 3
        let joined = m1
            .zip_partitions(&m2, |a, b| a.iter().zip(b).map(|(x, y)| x + y).collect::<Vec<u64>>()); // rdd 4

        let mut ctl = BlazeController::new(BlazeConfig::full(), None);
        let ctx = ctrl_ctx();
        let plan_lock = dctx.plan();
        let plan = plan_lock.read();
        let jp = blaze_dataflow::planner::plan_job(&plan, joined.id()).unwrap();
        ctl.on_job_submit(&ctx, JobId(0), &jp, &plan);

        // Resident: exp's partition with huge compute time; incoming:
        // cheap's partition with tiny compute time. Sizes equal.
        let resident = info(exp.id().raw(), 0, 64);
        ctl.on_partition_computed(
            &ctx,
            &PartitionEvent {
                info: resident,
                edge_compute: SimDuration::from_secs(30),
                job: JobId(0),
                recomputed: false,
            },
        );
        ctl.on_inserted(&ctx, &resident, StoreTier::Memory);
        let incoming = info(cheap.id().raw(), 0, 64);
        ctl.on_partition_computed(
            &ctx,
            &PartitionEvent {
                info: incoming,
                edge_compute: SimDuration::from_micros(1),
                job: JobId(0),
                recomputed: false,
            },
        );
        let victims =
            ctl.choose_victims(&ctx, ExecutorId(0), ByteSize::from_kib(64), &incoming, &[resident]);
        assert!(victims.is_empty(), "cheap data must not displace expensive data");

        // And the reverse direction must evict.
        let victims =
            ctl.choose_victims(&ctx, ExecutorId(0), ByteSize::from_kib(64), &resident, &[incoming]);
        assert!(!victims.is_empty(), "expensive data should displace cheap data");
    }

    #[test]
    fn auto_unpersist_drops_unreferenced_rdds() {
        use blaze_dataflow::{runner::LocalRunner, Context};
        let dctx = Context::new(LocalRunner::new());
        let a = dctx.parallelize((0..8u64).collect::<Vec<_>>(), 1); // rdd 0
        let b = a.map(|x| x + 1); // rdd 1 (the target: no future refs)

        let mut ctl = BlazeController::new(BlazeConfig::full(), None);
        let ctx = ctrl_ctx();
        let plan_lock = dctx.plan();
        let plan = plan_lock.read();
        let jp = blaze_dataflow::planner::plan_job(&plan, b.id()).unwrap();
        ctl.on_job_submit(&ctx, JobId(0), &jp, &plan);
        // Pretend b got cached.
        let binfo = info(b.id().raw(), 0, 4);
        ctl.on_partition_computed(
            &ctx,
            &PartitionEvent {
                info: binfo,
                edge_compute: SimDuration::from_millis(1),
                job: JobId(0),
                recomputed: false,
            },
        );
        ctl.on_inserted(&ctx, &binfo, StoreTier::Memory);
        let cmds = ctl.on_stage_complete(&ctx, b.id(), JobId(0), &plan);
        assert!(
            cmds.contains(&StateCommand::UnpersistRdd(b.id())),
            "b has no future refs and must be auto-unpersisted, got {cmds:?}"
        );
    }

    /// The action of a job reads its target: a cached target with no
    /// cross-job reference holds one in-job reference until the final stage
    /// — the one that reads it — completes, however many (skipped) stages
    /// complete before that.
    #[test]
    fn a_jobs_target_is_referenced_until_its_final_stage_completes() {
        use blaze_dataflow::{runner::LocalRunner, Context};
        let dctx = Context::new(LocalRunner::new());
        let a = dctx.parallelize((0..16u64).map(|i| (i % 4, i)).collect::<Vec<_>>(), 1);
        let b = a.reduce_by_key(1, |x, y| x + y).map_values(|v| v + 1);

        let mut ctl = BlazeController::new(BlazeConfig::full(), None);
        let ctx = ctrl_ctx();
        let plan_lock = dctx.plan();
        let plan = plan_lock.read();
        let jp = blaze_dataflow::planner::plan_job(&plan, b.id()).unwrap();
        assert!(jp.stages.len() > 1, "the job needs a stage ahead of its result stage");
        ctl.on_job_submit(&ctx, JobId(0), &jp, &plan);
        // `b` was cached by an earlier job; this is the last job to read it.
        let binfo = info(b.id().raw(), 0, 4);
        ctl.on_inserted(&ctx, &binfo, StoreTier::Memory);
        assert_eq!(ctl.cross_job_refs(b.id()), 0);
        let explained = ctl.explain_block(binfo.id).unwrap();
        assert!(explained.contains("1 in-job + 0 cross-job"), "{explained}");
        assert_eq!(ctl.value_weight(b.id(), None), 0.5);

        let (result, earlier) = jp.stages.split_last().unwrap();
        for stage in earlier {
            let cmds = ctl.on_stage_complete(&ctx, stage.output, JobId(0), &plan);
            assert!(
                !cmds.contains(&StateCommand::UnpersistRdd(b.id())),
                "the target was dropped before the stage that reads it: {cmds:?}"
            );
        }
        let cmds = ctl.on_stage_complete(&ctx, result.output, JobId(0), &plan);
        assert!(cmds.contains(&StateCommand::UnpersistRdd(b.id())), "{cmds:?}");
        assert_eq!(ctl.value_weight(b.id(), None), 0.0);
    }

    #[test]
    fn diverging_from_the_profile_falls_back_to_relearning() {
        use blaze_dataflow::{runner::LocalRunner, Context};
        let dctx = Context::new(LocalRunner::new());
        let a = dctx.parallelize((0..16u64).collect::<Vec<_>>(), 1);
        let b = a.map(|x| x + 1);
        let c = a.map(|x| x + 2);

        let mut ctl = BlazeController::new(BlazeConfig::full(), None);
        // Seed a profile that predicts jobs [b, b] — the runtime will run
        // [b, c] instead.
        ctl.lineage.merge_plan(&dctx.plan().read());
        ctl.lineage.seed_job_targets(vec![b.id(), b.id()]);
        ctl.refs = crate::refs::JobRefs::build(&dctx.plan().read(), &[b.id(), b.id()]);
        ctl.profiled = true;

        let ctx = ctrl_ctx();
        let plan_lock = dctx.plan();
        let plan = plan_lock.read();
        let jp_b = blaze_dataflow::planner::plan_job(&plan, b.id()).unwrap();
        ctl.on_job_submit(&ctx, JobId(0), &jp_b, &plan);
        assert!(ctl.profiled, "first job matches the profile");

        let jp_c = blaze_dataflow::planner::plan_job(&plan, c.id()).unwrap();
        ctl.on_job_submit(&ctx, JobId(1), &jp_c, &plan);
        assert!(!ctl.profiled, "divergence must drop the profiled structure");
        // Refs were relearned from the runtime plan: the observed sequence
        // is now [b, c].
        assert_eq!(ctl.lineage.job_targets(), &[b.id(), c.id()]);
    }

    #[test]
    fn pending_in_job_blocks_get_half_weight_protection() {
        use blaze_dataflow::{runner::LocalRunner, Context};
        let dctx = Context::new(LocalRunner::new());
        let a = dctx.parallelize((0..16u64).collect::<Vec<_>>(), 1);
        let b = a.map(|x| x + 1);
        // An unrelated dataset consumed by a *later* stage of the same job.
        let pairs = dctx.parallelize((0..16u64).map(|i| (i % 2, i)).collect::<Vec<_>>(), 1);
        let reduced = pairs.reduce_by_key(1, |x, y| x + y);
        let joined =
            b.map(|x| (x % 2, *x)).zip_partitions(&reduced.partition_by(1), |l, _r| l.to_vec());

        let mut ctl = BlazeController::new(BlazeConfig::full(), None);
        let ctx = ctrl_ctx();
        let plan_lock = dctx.plan();
        let plan = plan_lock.read();
        let jp = blaze_dataflow::planner::plan_job(&plan, joined.id()).unwrap();
        ctl.on_job_submit(&ctx, JobId(0), &jp, &plan);
        // `pairs` is consumed by the reduce shuffle's map stage, which has
        // not completed: weight 0.5. After that stage completes, 0.0.
        assert!(ctl.value_weight(pairs.id(), None) > 0.0);
        // Complete every stage.
        let outputs: Vec<_> = jp.stages.iter().map(|s| s.output).collect();
        for out in outputs {
            ctl.on_stage_complete(&ctx, out, JobId(0), &plan);
        }
        assert_eq!(ctl.value_weight(pairs.id(), None), 0.0);
    }

    /// A lineage with exactly the given narrow edges (`parents[i]` are the
    /// parents of RDD `i`, all lower ids), one partition per RDD.
    fn lineage_of(parents: &[Vec<u32>]) -> CostLineage {
        use blaze_dataflow::{Block, Compute, CostSpec, Dep, RddNode};
        use std::sync::Arc;
        let mut plan = Plan::new();
        for ps in parents {
            plan.add_node(|id| RddNode {
                id,
                name: "n".into(),
                num_partitions: 1,
                deps: ps.iter().map(|&p| Dep::Narrow(RddId(p))).collect(),
                compute: if ps.is_empty() {
                    Compute::Source(Arc::new(|_| Ok(Block::empty::<u64>())))
                } else {
                    Compute::Narrow(Arc::new(|_, _| Ok(Block::empty::<u64>())))
                },
                cost: CostSpec::NARROW,
                ser_factor: 1.0,
                partitioner: None,
                cache_annotated: false,
                unpersist_requested: false,
            })
            .unwrap();
        }
        let mut lineage = CostLineage::new();
        lineage.merge_plan(&plan);
        lineage
    }

    /// True ancestry, with a visited set and no guard.
    fn reaches(parents: &[Vec<u32>], anc: u32, desc: u32) -> bool {
        let mut seen = vec![false; parents.len()];
        let mut stack = vec![desc];
        while let Some(cur) = stack.pop() {
            for &p in &parents[cur as usize] {
                if p == anc {
                    return true;
                }
                if !std::mem::replace(&mut seen[p as usize], true) {
                    stack.push(p);
                }
            }
        }
        false
    }

    /// A layered DAG: `depth` layers of `width` RDDs, each with `fan_in`
    /// parents picked from the layer below (the first layer are sources).
    fn layered_dag(depth: usize, width: usize, fan_in: usize, picks: &[usize]) -> Vec<Vec<u32>> {
        let mut picks = picks.iter().cycle();
        let mut parents: Vec<Vec<u32>> = vec![Vec::new(); width];
        for layer in 1..depth {
            for _ in 0..width {
                let below = (layer - 1) * width;
                parents.push(
                    (0..fan_in).map(|_| (below + picks.next().unwrap() % width) as u32).collect(),
                );
            }
        }
        parents
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// On random layered DAGs the maintained sets answer every askable
        /// (in-job referenced ancestor, incoming) pair exactly as the
        /// per-query bounded walk does, and hold nothing that cannot be
        /// asked about. The DAGs have at most 64 RDDs and fan-in up to 3, so
        /// a walk without a visited set would revisit shared ancestors
        /// past the pop guard; with one, the guard never fires below its
        /// budget and the walk is the true ancestry.
        #[test]
        fn ancestor_sets_answer_as_the_bounded_walk(
            depth in 2usize..17,
            width in 1usize..5,
            fan_in in 1usize..4,
            picks in prop::collection::vec(0usize..1_000, 8..64),
            referenced in prop::collection::vec(0usize..3, 8..32),
        ) {
            let parents = layered_dag(depth, width, fan_in, &picks);
            let mut ctl = BlazeController::new(BlazeConfig::full(), None);
            ctl.lineage = lineage_of(&parents);
            // About two RDDs in three hold an in-job reference.
            let rdds = 0..parents.len() as u32;
            ctl.remaining = rdds
                .clone()
                .map(|r| (referenced[r as usize % referenced.len()] > 0).then_some(1))
                .collect();
            let held = |ctl: &BlazeController, rdd: RddId| ctl.in_job_refs(rdd).is_some();
            for desc in rdds.clone() {
                ctl.ensure_ancestors(RddId(desc));
                let set = &ctl.ancestors[&RddId(desc)];
                prop_assert!(set.iter().all(|&a| held(&ctl, a)));
                for anc in rdds.clone().filter(|&a| held(&ctl, RddId(a))) {
                    let walk = walk_finds_ancestor(&ctl.lineage, RddId(anc), RddId(desc));
                    prop_assert_eq!(
                        ctl.is_ancestor_of(RddId(anc), RddId(desc)), walk,
                        "{} over {}", anc, desc
                    );
                    prop_assert_eq!(walk, reaches(&parents, anc, desc), "{} over {}", anc, desc);
                }
            }
        }
    }

    /// On a chain longer than the guard, its position shows: the walk up
    /// from the tip sees exactly [`ANCESTOR_WALK_POPS`] ancestors.
    #[test]
    fn the_pop_guard_cuts_a_chain_after_exactly_its_budget() {
        let len = ANCESTOR_WALK_POPS as u32 + 6;
        let parents: Vec<Vec<u32>> =
            (0..len).map(|i| i.checked_sub(1).into_iter().collect()).collect();
        let mut ctl = BlazeController::new(BlazeConfig::full(), None);
        ctl.lineage = lineage_of(&parents);
        ctl.remaining = vec![Some(1); len as usize];
        let tip = RddId(len - 1);
        ctl.ensure_ancestors(tip);
        for anc in 0..len - 1 {
            let within = (len - 1 - anc) as usize <= ANCESTOR_WALK_POPS;
            assert_eq!(ctl.is_ancestor_of(RddId(anc), tip), within, "{anc}");
            assert_eq!(walk_finds_ancestor(&ctl.lineage, RddId(anc), tip), within, "{anc}");
        }
    }

    #[test]
    fn mem_only_mode_never_touches_disk() {
        let mut ctl = BlazeController::new(BlazeConfig::full_mem_only(), None);
        let ctx = ctrl_ctx();
        assert_eq!(ctl.on_admission_failure(&ctx, &info(1, 0, 1)), Admission::Skip);
    }
}
