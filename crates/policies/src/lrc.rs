//! LRC: least-reference-count eviction.
//!
//! LRC (Yu et al., INFOCOM '17) exploits the dependency DAG: each block's
//! priority is the number of *remaining* references to its RDD within the
//! currently submitted job; blocks with zero remaining references are evicted
//! first. As the paper notes (§7.1–§7.2), LRC only sees the current job's
//! DAG — references from future jobs/iterations are invisible to it, and
//! ties are broken arbitrarily without regard to recovery costs.

use crate::mode::EvictMode;
use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::{BlockId, ExecutorId, JobId, RddId};
use blaze_common::ByteSize;
use blaze_dataflow::{JobPlan, Plan};
use blaze_engine::{
    victims_by_key, Admission, BlockInfo, CacheController, CtrlCtx, StateCommand, VictimAction,
};

/// Reference structure of the current job, rebuilt at each submission.
#[derive(Debug, Default)]
struct JobRefs {
    /// Remaining reference count per RDD within the current job.
    refs: FxHashMap<RddId, i64>,
    /// stage output -> RDDs whose consumption completes with that stage.
    consumed_by_stage: FxHashMap<RddId, Vec<RddId>>,
}

/// LRC cache controller, obeying user cache annotations.
#[derive(Debug)]
pub struct LrcController {
    mode: EvictMode,
    job: JobRefs,
}

impl LrcController {
    /// Creates an LRC controller with the given eviction mode.
    pub fn new(mode: EvictMode) -> Self {
        Self { mode, job: JobRefs::default() }
    }

    /// Remaining in-job reference count for an RDD (0 when unknown).
    pub fn reference_count(&self, rdd: RddId) -> i64 {
        self.job.refs.get(&rdd).copied().unwrap_or(0).max(0)
    }
}

impl CacheController for LrcController {
    fn name(&self) -> String {
        format!("LRC ({})", self.mode.label())
    }

    fn on_job_submit(
        &mut self,
        _ctx: &CtrlCtx,
        _job: JobId,
        job_plan: &JobPlan,
        plan: &Plan,
    ) -> Vec<StateCommand> {
        // Count, for every RDD, how many in-job dependency edges consume it.
        let mut refs: FxHashMap<RddId, i64> = FxHashMap::default();
        let mut consumed: FxHashMap<RddId, Vec<RddId>> = FxHashMap::default();
        for stage in &job_plan.stages {
            for &rdd in &stage.rdds {
                if let Ok(node) = plan.node(rdd) {
                    for dep in &node.deps {
                        *refs.entry(dep.parent()).or_insert(0) += 1;
                        consumed.entry(stage.output).or_default().push(dep.parent());
                    }
                }
            }
        }
        self.job = JobRefs { refs, consumed_by_stage: consumed };
        Vec::new()
    }

    fn on_stage_complete(
        &mut self,
        _ctx: &CtrlCtx,
        stage_output: RddId,
        _job: JobId,
        _plan: &Plan,
    ) -> Vec<StateCommand> {
        // The references consumed by this stage are now in the past.
        if let Some(parents) = self.job.consumed_by_stage.remove(&stage_output) {
            for p in parents {
                if let Some(r) = self.job.refs.get_mut(&p) {
                    *r -= 1;
                }
            }
        }
        Vec::new()
    }

    fn choose_victims(
        &mut self,
        _ctx: &CtrlCtx,
        _exec: ExecutorId,
        needed: ByteSize,
        _incoming: &BlockInfo,
        resident: &[BlockInfo],
    ) -> Vec<(BlockId, VictimAction)> {
        // Smallest remaining reference count first; arbitrary (id) tie-break.
        let action = self.mode.victim_action();
        victims_by_key(resident, needed, |b| self.reference_count(b.id.rdd))
            .into_iter()
            .map(|(id, _)| (id, action))
            .collect()
    }

    fn on_admission_failure(&mut self, _ctx: &CtrlCtx, _block: &BlockInfo) -> Admission {
        self.mode.admission_fallback()
    }

    fn explain_block(&self, id: BlockId) -> Option<String> {
        Some(format!("lrc: refcount={}", self.reference_count(id.rdd)))
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

    /// Builds a plan where `base` is referenced by two shuffles and `lone`
    /// by nothing, then checks LRC ordering.
    #[test]
    fn evicts_zero_reference_blocks_first() {
        let dctx = Context::new(LocalRunner::new());
        let base = dctx.parallelize((0..100u64).map(|i| (i % 3, i)).collect::<Vec<_>>(), 2);
        let lone = dctx.parallelize(vec![(0u64, 0u64)], 2);
        let r1 = base.reduce_by_key(2, |a, b| a + b);
        let r2 = base.group_by_key(2);
        let joined = r1.zip_partitions(&r2, |a, _b| a.to_vec());
        let plan_lock = dctx.plan();
        let plan = plan_lock.read();
        let job_plan = blaze_dataflow::planner::plan_job(&plan, joined.id()).unwrap();

        let c = ctx();
        let mut lrc = LrcController::new(EvictMode::MemOnly);
        lrc.on_job_submit(&c, JobId(0), &job_plan, &plan);
        assert_eq!(lrc.reference_count(base.id()), 2);
        assert_eq!(lrc.reference_count(lone.id()), 0);

        let resident = vec![info(base.id(), 4), info(lone.id(), 4)];
        let victims = lrc.choose_victims(
            &c,
            ExecutorId(0),
            ByteSize::from_kib(4),
            &info(joined.id(), 4),
            &resident,
        );
        assert_eq!(victims[0].0.rdd, lone.id());
    }

    #[test]
    fn stage_completion_consumes_references() {
        let dctx = Context::new(LocalRunner::new());
        let base = dctx.parallelize((0..10u64).map(|i| (i, i)).collect::<Vec<_>>(), 2);
        let reduced = base.reduce_by_key(2, |a, b| a + b);
        let plan_lock = dctx.plan();
        let plan = plan_lock.read();
        let job_plan = blaze_dataflow::planner::plan_job(&plan, reduced.id()).unwrap();

        let c = ctx();
        let mut lrc = LrcController::new(EvictMode::MemOnly);
        lrc.on_job_submit(&c, JobId(0), &job_plan, &plan);
        let before = lrc.reference_count(base.id());
        assert!(before >= 1);
        // The reduce stage consumed `base`.
        lrc.on_stage_complete(&c, reduced.id(), JobId(0), &plan);
        assert_eq!(lrc.reference_count(base.id()), before - 1);
    }
}
