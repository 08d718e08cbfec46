//! MRD: most-reference-distance eviction with prefetching.
//!
//! MRD (Perez et al., ICPP '18) orders blocks by *reference distance*: the
//! number of stages until their RDD is next consumed within the current job.
//! It evicts the block referenced farthest in the future, and whenever free
//! memory is available it prefetches spilled blocks with the smallest
//! reference distance. Like LRC, it only sees the current job's DAG (§7.1).

use crate::mode::EvictMode;
use blaze_common::fxhash::{FxHashMap, FxHashSet};
use blaze_common::ids::{BlockId, ExecutorId, JobId, RddId};
use blaze_common::ByteSize;
use blaze_dataflow::{JobPlan, Plan};
use blaze_engine::{
    victims_by_key, Admission, BlockInfo, CacheController, CtrlCtx, Residency, StateCommand,
    StoreTier, VictimAction,
};

const INFINITE_DISTANCE: i64 = i64::MAX / 2;

/// MRD cache controller, obeying user cache annotations.
#[derive(Debug)]
pub struct MrdController {
    mode: EvictMode,
    /// For each RDD, the (ascending) stage indices that consume it in the
    /// current job.
    ref_stages: FxHashMap<RddId, Vec<usize>>,
    /// Stage index by stage-output RDD (to track progress).
    stage_index: FxHashMap<RddId, usize>,
    /// Number of stages of the current job that completed.
    progress: usize,
    /// Blocks we believe are on disk (for prefetching).
    on_disk: FxHashSet<BlockId>,
    /// Approximate free-memory belief, updated from insert/evict events.
    prefetch_budget: usize,
}

impl MrdController {
    /// Creates an MRD controller with the given eviction mode.
    pub fn new(mode: EvictMode) -> Self {
        Self {
            mode,
            ref_stages: FxHashMap::default(),
            stage_index: FxHashMap::default(),
            progress: 0,
            on_disk: FxHashSet::default(),
            prefetch_budget: 4,
        }
    }

    /// The reference distance of an RDD at the current progress point.
    pub fn reference_distance(&self, rdd: RddId) -> i64 {
        match self.ref_stages.get(&rdd) {
            None => INFINITE_DISTANCE,
            Some(stages) => stages
                .iter()
                .find(|&&s| s >= self.progress)
                .map(|&s| (s - self.progress) as i64)
                .unwrap_or(INFINITE_DISTANCE),
        }
    }
}

impl CacheController for MrdController {
    fn name(&self) -> String {
        format!("MRD ({})", self.mode.label())
    }

    fn on_job_submit(
        &mut self,
        _ctx: &CtrlCtx,
        _job: JobId,
        job_plan: &JobPlan,
        plan: &Plan,
    ) -> Vec<StateCommand> {
        self.ref_stages.clear();
        self.stage_index.clear();
        self.progress = 0;
        for stage in &job_plan.stages {
            self.stage_index.insert(stage.output, stage.index);
            for &rdd in &stage.rdds {
                if let Ok(node) = plan.node(rdd) {
                    for dep in &node.deps {
                        self.ref_stages.entry(dep.parent()).or_default().push(stage.index);
                    }
                }
            }
        }
        for stages in self.ref_stages.values_mut() {
            stages.sort_unstable();
            stages.dedup();
        }
        Vec::new()
    }

    fn on_stage_complete(
        &mut self,
        _ctx: &CtrlCtx,
        stage_output: RddId,
        _job: JobId,
        _plan: &Plan,
    ) -> Vec<StateCommand> {
        if let Some(&idx) = self.stage_index.get(&stage_output) {
            self.progress = self.progress.max(idx + 1);
        }
        // Prefetch the nearest-referenced spilled blocks (smallest distance).
        let mut spilled: Vec<(i64, BlockId)> = self
            .on_disk
            .iter()
            .map(|&id| (self.reference_distance(id.rdd), id))
            .filter(|&(d, _)| d < INFINITE_DISTANCE)
            .collect();
        spilled.sort_by_key(|&(d, id)| (d, id));
        spilled
            .into_iter()
            .take(self.prefetch_budget)
            .map(|(_, id)| StateCommand::PromoteToMemory(id))
            .collect()
    }

    fn choose_victims(
        &mut self,
        _ctx: &CtrlCtx,
        _exec: ExecutorId,
        needed: ByteSize,
        _incoming: &BlockInfo,
        resident: &[BlockInfo],
    ) -> Vec<(BlockId, VictimAction)> {
        // Largest reference distance first; arbitrary (id) tie-break.
        let action = self.mode.victim_action();
        victims_by_key(resident, needed, |b| std::cmp::Reverse(self.reference_distance(b.id.rdd)))
            .into_iter()
            .map(|(id, _)| (id, action))
            .collect()
    }

    fn on_admission_failure(&mut self, _ctx: &CtrlCtx, _block: &BlockInfo) -> Admission {
        self.mode.admission_fallback()
    }

    fn explain_block(&self, id: BlockId) -> Option<String> {
        let d = self.reference_distance(id.rdd);
        Some(if d >= INFINITE_DISTANCE {
            "mrd: no known future reference".to_string()
        } else {
            format!("mrd: reference distance {d}")
        })
    }

    fn on_inserted(&mut self, _ctx: &CtrlCtx, info: &BlockInfo, tier: StoreTier) {
        if !tier.in_memory() {
            self.on_disk.insert(info.id);
        } else {
            // A promotion moved it off disk.
            self.on_disk.remove(&info.id);
        }
    }

    fn on_evicted(&mut self, _ctx: &CtrlCtx, id: BlockId) {
        // Off disk (unpersisted, quarantined or lost) there is nothing left
        // to prefetch; off memory, a spill reports its disk insert next.
        self.on_disk.remove(&id);
    }

    fn residency_mismatch(&self, stores: &Residency) -> Option<String> {
        let held: FxHashSet<BlockId> = stores
            .iter()
            .filter(|&(_, &tier)| tier == StoreTier::Disk)
            .map(|(&id, _)| id)
            .collect();
        let mut diffs: Vec<String> = held
            .difference(&self.on_disk)
            .map(|id| format!("{id} on disk, not believed"))
            .chain(
                self.on_disk.difference(&held).map(|id| format!("{id} believed on disk, not held")),
            )
            .collect();
        diffs.sort();
        (!diffs.is_empty()).then(|| {
            format!(
                "{} blocks disagree, first: {}",
                diffs.len(),
                diffs[..diffs.len().min(4)].join("; ")
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_dataflow::{runner::LocalRunner, Context};
    use blaze_engine::HardwareModel;

    fn ctx() -> CtrlCtx {
        CtrlCtx { hardware: HardwareModel::default(), memory_capacity: ByteSize::from_mib(1) }
    }

    fn info(rdd: RddId, kib: u64) -> BlockInfo {
        BlockInfo {
            id: BlockId::new(rdd, 0),
            bytes: ByteSize::from_kib(kib),
            ser_factor: 1.0,
            executor: ExecutorId(0),
        }
    }

    /// Chain: base -(shuffle)-> r1 -(map)-> m -(shuffle)-> r2.
    /// Stages: [{base}, {r1, m}, {r2}]: base/r1 are consumed at stage 1,
    /// m at stage 2.
    fn chained() -> (Context, RddId, RddId, RddId) {
        let dctx = Context::new(LocalRunner::new());
        let base = dctx.parallelize((0..50u64).map(|i| (i % 5, i)).collect::<Vec<_>>(), 2);
        let r1 = base.reduce_by_key(2, |a, b| a + b);
        let m = r1.map(|kv| *kv);
        let r2 = m.reduce_by_key(2, |a, b| a + b);
        (dctx, base.id(), m.id(), r2.id())
    }

    #[test]
    fn distances_track_stage_progress() {
        let (dctx, base, m, r2) = chained();
        let plan_lock = dctx.plan();
        let plan = plan_lock.read();
        let job_plan = blaze_dataflow::planner::plan_job(&plan, r2).unwrap();

        let c = ctx();
        let mut mrd = MrdController::new(EvictMode::MemDisk);
        mrd.on_job_submit(&c, JobId(0), &job_plan, &plan);
        // base referenced at stage 1; m at stage 2; r2 never.
        assert!(mrd.reference_distance(base) < mrd.reference_distance(m));
        assert_eq!(mrd.reference_distance(r2), INFINITE_DISTANCE);

        // After stages 0 and 1 complete, base is in the past, m is imminent.
        mrd.on_stage_complete(&c, job_plan.stages[0].output, JobId(0), &plan);
        mrd.on_stage_complete(&c, job_plan.stages[1].output, JobId(0), &plan);
        assert_eq!(mrd.reference_distance(base), INFINITE_DISTANCE);
        assert_eq!(mrd.reference_distance(m), 0);
    }

    #[test]
    fn evicts_farthest_reference_first() {
        let (dctx, base, m, r2) = chained();
        let plan_lock = dctx.plan();
        let plan = plan_lock.read();
        let job_plan = blaze_dataflow::planner::plan_job(&plan, r2).unwrap();
        let c = ctx();
        let mut mrd = MrdController::new(EvictMode::MemDisk);
        mrd.on_job_submit(&c, JobId(0), &job_plan, &plan);
        let resident = vec![info(base, 4), info(m, 4)];
        let victims =
            mrd.choose_victims(&c, ExecutorId(0), ByteSize::from_kib(4), &info(r2, 4), &resident);
        // m is referenced later (stage 2) than base (stage 1): evict m first.
        assert_eq!(victims[0].0.rdd, m);
        assert_eq!(victims[0].1, VictimAction::ToDisk);
    }

    #[test]
    fn prefetches_nearest_spilled_blocks() {
        let (dctx, base, r1, r2) = chained();
        let plan_lock = dctx.plan();
        let plan = plan_lock.read();
        let job_plan = blaze_dataflow::planner::plan_job(&plan, r2).unwrap();
        let c = ctx();
        let mut mrd = MrdController::new(EvictMode::MemDisk);
        mrd.on_job_submit(&c, JobId(0), &job_plan, &plan);
        // Pretend r1 was spilled.
        mrd.on_inserted(&c, &info(r1, 4), StoreTier::Disk);
        let first_output = job_plan.stages[0].output;
        let cmds = mrd.on_stage_complete(&c, first_output, JobId(0), &plan);
        assert!(
            cmds.contains(&StateCommand::PromoteToMemory(BlockId::new(r1, 0))),
            "expected prefetch of r1, got {cmds:?}"
        );
        let _ = base;
    }

    #[test]
    fn a_block_unpersisted_from_disk_leaves_the_disk_belief() {
        let c = ctx();
        let mut mrd = MrdController::new(EvictMode::MemDisk);
        let b = info(RddId(7), 4);
        // Cached, then spilled: the engine reports the memory removal and
        // the disk insert.
        mrd.on_inserted(&c, &b, StoreTier::Memory);
        mrd.on_evicted(&c, b.id);
        mrd.on_inserted(&c, &b, StoreTier::Disk);
        let on_disk = Residency::from([(b.id, StoreTier::Disk)]);
        assert_eq!(mrd.residency_mismatch(&on_disk), None);
        // Unpersisted from disk: no copy is left to prefetch.
        mrd.on_evicted(&c, b.id);
        assert!(mrd.on_disk.is_empty(), "phantom disk blocks: {:?}", mrd.on_disk);
        assert_eq!(mrd.residency_mismatch(&Residency::new()), None);
        assert!(mrd.residency_mismatch(&on_disk).is_some());
    }
}
