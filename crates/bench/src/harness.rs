//! Run helpers shared by the figure binaries.

use blaze_common::error::Result;
use blaze_common::ids::{BlockId, ExecutorId, JobId, RddId};
use blaze_common::{ByteSize, SimDuration, SimTime};
use blaze_core::{BlazeController, DecisionStats};
use blaze_dataflow::{JobPlan, Plan};
use blaze_engine::{
    Admission, BlockInfo, CacheController, CtrlCtx, ExecutorCrash, FaultPlan, Metrics,
    PartitionEvent, Residency, StateCommand, StoreTier, VictimAction,
};
use blaze_workloads::{run_app, App, RunOutcome, SystemKind};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Runs every (app, system) pair and returns outcomes keyed by both.
pub fn run_matrix(
    apps: &[App],
    systems: &[SystemKind],
) -> Result<BTreeMap<(&'static str, &'static str), RunOutcome>> {
    let mut out = BTreeMap::new();
    for &app in apps {
        for &system in systems {
            eprintln!("running {} under {} ...", app.label(), system.label());
            let outcome = run_app(app, system)?;
            out.insert((app.label(), system.label()), outcome);
        }
    }
    Ok(out)
}

/// ACT in seconds from a run outcome.
pub fn act_secs(outcome: &RunOutcome) -> f64 {
    outcome.metrics.completion_time.as_secs_f64()
}

/// The paper's Fig. 4/10 accumulated-task-time breakdown, in seconds:
/// (disk I/O for caching, external-store I/O, computation+shuffle).
///
/// The middle figure is `TaskCharge::external_store_io`, so under the
/// serialized tier it also holds that tier's (de)serialization (s-state
/// hits, m -> s compaction), not only an external store's.
pub fn breakdown_secs(m: &Metrics) -> (f64, f64, f64) {
    (
        m.accumulated.disk_io_for_caching().as_secs_f64(),
        m.accumulated.external_store_io.as_secs_f64(),
        m.accumulated.computation_and_shuffle().as_secs_f64(),
    )
}

/// The shared duress schedule for `app`: a modest transient-failure rate,
/// one executor crash at a fixed simulated time, no external shuffle
/// service (so the crash also destroys that executor's shuffle outputs,
/// forcing lineage-driven parent-stage resubmission), plus light
/// stragglers, spill corruption and fetch flakiness.
///
/// The crash sits inside every system's simulated run of the workload
/// (clean ACTs: PageRank ~0.4–2.3 s across systems, KMeans ~0.10–0.32 s),
/// early enough that every system is still in its iteration ramp-up: at
/// 0.15 s for PageRank, at 0.05 s for every other application.
pub fn duress_plan(app: App) -> FaultPlan {
    let crash_at_s = if app == App::PageRank { 0.15 } else { 0.05 };
    FaultPlan {
        seed: 0xB1A2E,
        task_failure_rate: 0.02,
        max_task_retries: 3,
        crashes: vec![ExecutorCrash {
            at: SimTime::ZERO + SimDuration::from_secs_f64(crash_at_s),
            executor: 1,
        }],
        map_output_loss_rate: 0.0,
        external_shuffle_service: false,
        straggler_rate: 0.15,
        straggler_slowdown: 4.0,
        speculation: true,
        spill_corruption_rate: 0.1,
        fetch_failure_rate: 0.05,
        ..Default::default()
    }
}

/// What a [`DecisionProbe`] mirrors out of the cluster that owns it.
#[derive(Debug, Default, Clone)]
pub struct ProbeReadout {
    /// The wrapped controller's `decision_stats()` after the latest
    /// decision hook (`on_job_submit` or `on_stage_complete`).
    pub stats: DecisionStats,
    /// Per job submission, the bytes the controller believed on disk when
    /// the job was submitted.
    pub believed_on_disk: Vec<ByteSize>,
}

/// The harness's one delegating wrapper around a [`BlazeController`]
/// (install it with `Session::instrument`). The controller is moved into
/// the cluster, so whatever a harness wants to know about its decision path
/// must escape through a shim: this one mirrors `decision_stats()` and the
/// bytes believed on disk into a shared [`ProbeReadout`], and — `cold` —
/// makes the controller forget its retained decision state before every
/// hook that prices blocks: job submission, victim selection and admission
/// failure (the "from scratch" reference, with no retained recovery value
/// or admission price). Every `CacheController` method forwards;
/// instrumentation never changes simulated behaviour.
pub struct DecisionProbe {
    inner: BlazeController,
    cold: bool,
    readout: Arc<Mutex<ProbeReadout>>,
}

impl DecisionProbe {
    /// Wraps `inner`, reporting into `readout`.
    pub fn new(inner: BlazeController, cold: bool, readout: Arc<Mutex<ProbeReadout>>) -> Self {
        Self { inner, cold, readout }
    }

    /// Runs one decision hook on the wrapped controller and mirrors its
    /// `decision_stats()` afterwards.
    fn mirrored(
        &mut self,
        hook: impl FnOnce(&mut BlazeController) -> Vec<StateCommand>,
    ) -> Vec<StateCommand> {
        let out = hook(&mut self.inner);
        self.readout.lock().expect("a probe reader panicked").stats = self.inner.decision_stats();
        out
    }
}

impl CacheController for DecisionProbe {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn should_cache(&mut self, ctx: &CtrlCtx, block: &BlockInfo, annotated: bool) -> bool {
        self.inner.should_cache(ctx, block, annotated)
    }

    fn admit(&mut self, ctx: &CtrlCtx, block: &BlockInfo) -> Admission {
        self.inner.admit(ctx, block)
    }

    fn choose_victims(
        &mut self,
        ctx: &CtrlCtx,
        exec: ExecutorId,
        needed: ByteSize,
        incoming: &BlockInfo,
        resident: &[BlockInfo],
    ) -> Vec<(BlockId, VictimAction)> {
        if self.cold {
            self.inner.forget_decision_state();
        }
        self.inner.choose_victims(ctx, exec, needed, incoming, resident)
    }

    fn on_admission_failure(&mut self, ctx: &CtrlCtx, block: &BlockInfo) -> Admission {
        if self.cold {
            self.inner.forget_decision_state();
        }
        self.inner.on_admission_failure(ctx, block)
    }

    fn readmit_after_disk_read(&mut self, ctx: &CtrlCtx, block: &BlockInfo) -> Admission {
        self.inner.readmit_after_disk_read(ctx, block)
    }

    fn serialized_in_memory(&self) -> bool {
        self.inner.serialized_in_memory()
    }

    fn memory_footprint_factor(&self) -> f64 {
        self.inner.memory_footprint_factor()
    }

    fn on_access(&mut self, ctx: &CtrlCtx, id: BlockId) {
        self.inner.on_access(ctx, id);
    }

    fn explain_block(&self, id: BlockId) -> Option<String> {
        self.inner.explain_block(id)
    }

    fn on_inserted(&mut self, ctx: &CtrlCtx, info: &BlockInfo, tier: StoreTier) {
        self.inner.on_inserted(ctx, info, tier);
    }

    fn on_evicted(&mut self, ctx: &CtrlCtx, id: BlockId) {
        self.inner.on_evicted(ctx, id);
    }

    fn residency_mismatch(&self, stores: &Residency) -> Option<String> {
        self.inner.residency_mismatch(stores)
    }

    fn on_partition_computed(&mut self, ctx: &CtrlCtx, event: &PartitionEvent) {
        self.inner.on_partition_computed(ctx, event);
    }

    fn on_job_submit(
        &mut self,
        ctx: &CtrlCtx,
        job: JobId,
        job_plan: &JobPlan,
        plan: &Plan,
    ) -> Vec<StateCommand> {
        let believed = self.inner.lineage().blocks_on_disk().into_iter().map(|(_, b)| b).sum();
        self.readout.lock().expect("a probe reader panicked").believed_on_disk.push(believed);
        if self.cold {
            self.inner.forget_decision_state();
        }
        self.mirrored(|inner| inner.on_job_submit(ctx, job, job_plan, plan))
    }

    fn on_stage_complete(
        &mut self,
        ctx: &CtrlCtx,
        stage_output: RddId,
        job: JobId,
        plan: &Plan,
    ) -> Vec<StateCommand> {
        self.mirrored(|inner| inner.on_stage_complete(ctx, stage_output, job, plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_runs_and_keys_by_labels() {
        let out =
            run_matrix(&[App::KMeans], &[SystemKind::SparkMemOnly, SystemKind::Blaze]).unwrap();
        assert_eq!(out.len(), 2);
        let mem = &out[&("KMeans", "Spark (MEM)")];
        let blaze = &out[&("KMeans", "Blaze")];
        assert!(act_secs(mem) > 0.0);
        assert!(act_secs(blaze) > 0.0);
        let (d, e, c) = breakdown_secs(&mem.metrics);
        assert!(d >= 0.0 && e >= 0.0 && c > 0.0);
    }
}
