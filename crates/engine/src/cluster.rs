//! The simulated-cluster execution engine.
//!
//! Workloads *really execute* on this engine: tasks materialize real data,
//! shuffles really bucket records, and a cache miss really re-runs lineage.
//! What is simulated is time and placement: every compute, serialization,
//! disk and network charge is a deterministic function of measured element
//! counts and byte sizes, composed per executor slot on a simulated clock.
//!
//! Execution model per job (paper §2.1–§2.3):
//!
//! 1. The job's lineage is split into stages ([`blaze_dataflow::planner`]).
//! 2. Map stages whose shuffle outputs already exist are *skipped* (Spark's
//!    skipped stages) — this is what makes later iterations cheap when
//!    intermediate data is cached or shuffle files persist.
//! 3. Tasks are placed with cache locality, run on executor slots, and every
//!    materialized partition flows through the installed
//!    [`CacheController`]'s unified decision hooks.
//!
//! # Threading model: plan / execute / commit
//!
//! Stage tasks are independent in the RDD model, so each stage runs as a
//! three-phase pipeline (see DESIGN.md "Execution threading model"), one
//! module per phase:
//!
//! - **Plan** (serial, partition order; this module): locality placement via
//!   `pick_executor` against the pre-stage state.
//! - **Execute** (parallel; `exec.rs`): tasks run on a scoped worker pool
//!   sized by [`ClusterConfig::worker_threads`]. Every task reads a *frozen
//!   snapshot* of the stores (`ExecView`) and records its
//!   [`crate::metrics::TaskCharge`] plus a log of cache-relevant
//!   `TaskEvent`s instead of mutating shared state. The snapshot semantics
//!   apply at every thread count, including 1.
//! - **Commit** (serial, partition-index order; `commit.rs`, applying
//!   decisions through `store_ops.rs`, injected failures through
//!   `fault.rs`): slot assignment on the simulated clocks, replay of the
//!   event logs through the [`CacheController`] hooks (admissions,
//!   evictions, promotions, shuffle registration) and accounting: every
//!   countable thing that happens is one `ClusterState::emit` of a
//!   [`TraceEvent`].
//!
//! Because every controller decision and every simulated-time composition
//! happens in the deterministic commit phase, metrics, ACT and policy
//! behaviour are bit-identical for any `worker_threads` value; real
//! parallelism only changes wall-clock time.

use crate::commit::TaskCoords;
use crate::config::ClusterConfig;
use crate::controller::{CacheController, CtrlCtx};
use crate::exec::{execute_stage, ExecView, TaskOutput};
use crate::metrics::{Metrics, OpenJobs};
use crate::storage::BlockStore;
use crate::store_ops::Stores;
use crate::tracing::{CacheDecision, CacheRecord, TraceEvent, TraceLog};
use blaze_common::error::{BlazeError, Result};
use blaze_common::fxhash::{FxHashMap, FxHashSet};
use blaze_common::ids::{AppId, BlockId, ExecutorId, JobId, RddId};
use blaze_common::{ByteSize, SimDuration, SimTime};
use blaze_dataflow::plan::Dep;
use blaze_dataflow::runner::JobRunner;
use blaze_dataflow::{Block, Plan};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// A handle to the simulated cluster; implements [`JobRunner`] so it can back
/// a [`blaze_dataflow::Context`]. Cloning shares the same cluster state.
#[derive(Clone)]
pub struct Cluster {
    state: Arc<Mutex<ClusterState>>,
}

impl Cluster {
    /// Creates a cluster with the given configuration and cache controller.
    ///
    /// # Errors
    ///
    /// Returns a configuration error if `config` is invalid.
    pub fn new(config: ClusterConfig, controller: Box<dyn CacheController>) -> Result<Self> {
        config.validate()?;
        Ok(Self { state: Arc::new(Mutex::new(ClusterState::new(config, controller))) })
    }

    /// Returns a snapshot of the run metrics so far.
    pub fn metrics(&self) -> Metrics {
        self.state.lock().metrics.clone()
    }

    /// Returns the cluster configuration.
    pub fn config(&self) -> ClusterConfig {
        self.state.lock().config.clone()
    }

    /// Returns a snapshot of the structured event trace, or `None` when
    /// [`ClusterConfig::tracing`] is off.
    pub fn trace(&self) -> Option<TraceLog> {
        self.state.lock().trace.clone()
    }

    /// Current bytes resident in each executor's memory store.
    pub fn memory_used(&self) -> Vec<ByteSize> {
        self.state.lock().stores.mem.iter().map(BlockStore::used).collect()
    }

    /// Current bytes resident in each executor's disk store.
    pub fn disk_used(&self) -> Vec<ByteSize> {
        self.state.lock().stores.disk.iter().map(BlockStore::used).collect()
    }

    /// Simulates the loss of an executor: its memory and disk stores are
    /// cleared (all cached blocks gone) and the controller is notified of
    /// every eviction, exactly as if the machine had been replaced.
    /// Lineage recovers everything on subsequent access, and the shuffle
    /// store survives unless the configured [`crate::fault::FaultPlan`]
    /// disables the external shuffle service. Lost blocks and the work to
    /// re-produce them are attributed in [`crate::metrics::RecoveryMetrics`].
    ///
    /// # Errors
    ///
    /// Fails if `exec` is out of range.
    pub fn fail_executor(&self, exec: ExecutorId) -> Result<()> {
        let mut st = self.state.lock();
        let e = exec.raw() as usize;
        if e >= st.config.executors {
            return Err(BlazeError::Config(format!("no such executor: {exec}")));
        }
        let at = st.clock_floor;
        st.wipe_executor(e, at);
        Ok(())
    }

    /// Admits one job on behalf of `app` and returns its ticket. Session
    /// layer only: the legacy [`JobRunner`] path stays on `run_job`.
    pub(crate) fn begin_job_for(
        &self,
        app: AppId,
        plan: &Plan,
        target: RddId,
    ) -> Result<JobTicket> {
        self.state.lock().begin_job(app, plan, target)
    }

    /// Runs the ticket's next stage. The lock is held only for the stage,
    /// so a session scheduler can interleave stages of different apps.
    pub(crate) fn run_next_stage_for(&self, ticket: &mut JobTicket, plan: &Plan) -> Result<()> {
        self.state.lock().run_next_stage(ticket, plan)
    }

    /// Completes a ticket whose stages have all run.
    pub(crate) fn finish_job_for(&self, ticket: JobTicket) -> Result<Vec<Block>> {
        self.state.lock().finish_job(ticket)
    }

    /// Unpersist on behalf of a specific app (owner attribution).
    pub(crate) fn unpersist_for(&self, app: AppId, rdd: RddId) {
        let mut st = self.state.lock();
        st.current_app = app;
        let at = st.clock_floor;
        st.unpersist_rdd(rdd, at);
    }
}

impl JobRunner for Cluster {
    fn run_job(&self, plan: &Arc<RwLock<Plan>>, target: RddId) -> Result<Vec<Block>> {
        let plan = plan.read();
        self.state.lock().run_job(&plan, target)
    }

    fn on_unpersist(&self, rdd: RddId) {
        let mut st = self.state.lock();
        let at = st.clock_floor;
        st.unpersist_rdd(rdd, at);
    }
}

/// The engine's mutable state, fields grouped by the phase that may touch
/// them (DESIGN.md "Engine execution model" has the table). The execute
/// phase sees none of it directly: it borrows `stores` and `config` through
/// an [`ExecView`].
pub(crate) struct ClusterState {
    // -- Fixed at construction; read by every phase.
    pub(crate) config: ClusterConfig,

    // -- Residency: frozen (shared borrow) while a stage executes; written by
    //    commit, store ops and fault injection.
    pub(crate) stores: Stores,

    // -- Commit side: the decision layer and the simulated clocks.
    pub(crate) controller: Box<dyn CacheController>,
    /// Per-executor, per-slot simulated clocks.
    pub(crate) slots: Vec<Vec<SimTime>>,
    /// Index of the next scheduled crash in `config.fault.crashes` (they
    /// are validated to be time-ordered and fire exactly once).
    pub(crate) next_crash: usize,

    // -- Accounting: written through `emit`, from the serial phases only.
    /// The fold of every emitted event ([`Self::emit`]), every field.
    pub(crate) metrics: Metrics,
    /// The metrics fold's private state.
    open_jobs: OpenJobs,
    /// The retained event stream, present only when
    /// [`ClusterConfig::tracing`] is on. Written by [`Self::emit`] alone.
    pub(crate) trace: Option<TraceLog>,

    // -- Job driver (this module).
    /// Per-application job counters: each admitted app numbers its own
    /// jobs from zero (like a `SparkContext` does), so all per-job
    /// accounting downstream is keyed by `(AppId, JobId)`.
    job_counters: FxHashMap<AppId, u32>,
    /// The application the engine is currently executing on behalf of.
    /// Always `app-0` on the legacy single-app path; the multi-app
    /// session layer sets it at every job/stage/unpersist entry point
    /// (all of which run under the scheduler turnstile, so the field is
    /// never observed concurrently).
    pub(crate) current_app: AppId,
    /// Simulated time at which the next job may start.
    pub(crate) clock_floor: SimTime,
    /// Every action target submitted so far (preflight audit context).
    job_targets: Vec<RddId>,
    /// Warning diagnostics already counted, per (code, dataset).
    seen_audit: FxHashSet<(blaze_audit::DiagCode, Option<RddId>)>,
}

/// One admitted job's in-flight execution state, detached from the engine
/// so the session scheduler can interleave stages of different apps.
///
/// Produced by [`ClusterState::begin_job`]; each [`ClusterState::run_next_stage`]
/// call advances it by one stage; [`ClusterState::finish_job`] consumes it.
/// The ticket owns its stage plan and dependency clocks (`stage_done` floors
/// at `job_floor`, the global clock floor at admission), so interleaving
/// never perturbs a job's internal timing — N=1 runs are byte-identical to
/// the legacy serial path.
pub(crate) struct JobTicket {
    app: AppId,
    job: JobId,
    job_plan: blaze_dataflow::planner::JobPlan,
    /// Which shuffles each map stage feeds within this job.
    consumers: FxHashMap<RddId, Vec<(RddId, usize)>>,
    /// Per-stage completion times, seeded with `job_floor`.
    stage_done: Vec<SimTime>,
    /// Global clock floor snapshotted at admission; all stage starts fold
    /// from here, never from the live (cross-app) clock floor.
    job_floor: SimTime,
    /// Result-stage blocks accumulated so far.
    results: Vec<Block>,
    next_stage: usize,
}

impl JobTicket {
    pub(crate) fn done(&self) -> bool {
        self.next_stage >= self.job_plan.stages.len()
    }

    /// Simulated time this job has consumed so far (latest stage completion
    /// relative to the job's admission floor). The fair-share scheduler
    /// charges the per-stage delta of this to the owning app.
    pub(crate) fn sim_cost(&self) -> SimDuration {
        let latest = self.stage_done.iter().copied().max().unwrap_or(self.job_floor);
        latest.since(self.job_floor)
    }
}

/// One stage in flight between its plan and commit phases: what runs, where
/// each task was placed and what it returned.
pub(crate) struct StageRun<'a> {
    pub(crate) plan: &'a Plan,
    pub(crate) job: JobId,
    pub(crate) output: RddId,
    pub(crate) index: u32,
    /// The `(child, dep index)` shuffles the stage output feeds in this job.
    pub(crate) consumers: &'a [(RddId, usize)],
    /// [`crate::fault::FaultPlan::enabled`]: every fault path of the stage
    /// hangs off this one gate.
    pub(crate) fault_on: bool,
    /// Dependency floor: no task of the stage starts earlier.
    pub(crate) start: SimTime,
    /// Mutable because an injected executor crash reschedules uncommitted
    /// tasks.
    pub(crate) placements: Vec<ExecutorId>,
    /// Emptied slot by slot as tasks commit.
    pub(crate) outputs: Vec<Option<Result<TaskOutput>>>,
}

impl ClusterState {
    fn new(config: ClusterConfig, controller: Box<dyn CacheController>) -> Self {
        Self {
            stores: Stores::new(&config),
            slots: vec![vec![SimTime::ZERO; config.slots_per_executor]; config.executors],
            metrics: Metrics::new(),
            open_jobs: OpenJobs::default(),
            job_counters: FxHashMap::default(),
            current_app: AppId(0),
            clock_floor: SimTime::ZERO,
            job_targets: Vec::new(),
            seen_audit: FxHashSet::default(),
            next_crash: 0,
            trace: config.tracing.then(TraceLog::new),
            config,
            controller,
        }
    }

    pub(crate) fn ctrl_ctx(&self) -> CtrlCtx {
        CtrlCtx {
            app: self.current_app,
            hardware: self.config.hardware,
            memory_capacity: self.config.memory_capacity,
        }
    }

    /// The frozen view `stage`'s tasks execute against, as of now.
    pub(crate) fn exec_view<'a>(&'a self, stage: &StageRun<'a>) -> ExecView<'a> {
        ExecView {
            stores: &self.stores,
            config: &self.config,
            serialized_in_memory: self.controller.serialized_in_memory(),
            fault_coords: stage.fault_on.then_some((stage.job, stage.index)),
            plan: stage.plan,
            output: stage.output,
            consumers: stage.consumers,
        }
    }

    // ---- Accounting ------------------------------------------------------

    /// The engine's one accounting statement: folds `ev` into the metrics
    /// and, when tracing is on, retains it in the log. Only called from the
    /// serial engine phases, so both are identical across `worker_threads`.
    pub(crate) fn emit(&mut self, ev: TraceEvent) {
        self.metrics.apply(&mut self.open_jobs, &ev);
        if let Some(tr) = self.trace.as_mut() {
            tr.record(ev);
        }
    }

    /// Emits one cache decision made on behalf of the current app, stamped
    /// with the block's owner (its first producer).
    pub(crate) fn emit_cache(
        &mut self,
        at: SimTime,
        executor: ExecutorId,
        id: BlockId,
        bytes: ByteSize,
        decision: CacheDecision,
        rationale: Option<String>,
    ) {
        let app = self.current_app;
        let owner = self.stores.meta(id).owner.unwrap_or(app);
        let record = CacheRecord { at, app, owner, executor, id, bytes, decision, rationale };
        self.emit(TraceEvent::Cache(record));
    }

    // ---- Job execution ---------------------------------------------------

    /// Preflight audit (see `blaze-audit`): error-severity diagnostics
    /// abort the job with [`BlazeError::Audit`] before any task runs;
    /// warning-severity findings are recorded, one [`TraceEvent::AuditWarning`]
    /// per (code, dataset). [`ClusterConfig::strict_audit`] promotes warnings
    /// to errors.
    fn preflight_audit(&mut self, plan: &Plan, target: RddId) -> Result<()> {
        if !self.job_targets.contains(&target) {
            self.job_targets.push(target);
        }
        // Size estimates for the capacity check come from blocks the
        // cluster has already materialized (per-dataset resident bytes).
        let mut size_estimates: FxHashMap<RddId, ByteSize> = FxHashMap::default();
        for store in self.stores.mem.iter().chain(self.stores.disk.iter()) {
            for (id, sb) in store.iter() {
                *size_estimates.entry(id.rdd).or_insert(ByteSize::ZERO) += sb.logical_bytes;
            }
        }
        let fault = &self.config.fault;
        let audit_config = blaze_audit::AuditConfig {
            total_memory: Some(self.config.total_memory()),
            total_disk: Some(self.config.disk_capacity * self.config.executors as u64),
            size_estimates,
            strict: self.config.strict_audit,
            recovery_depth_limit: fault.max_recoverable_depth(),
            lineage_through_shuffles: !fault.external_shuffle_service,
            degradation: fault.enabled().then_some(blaze_audit::DegradationAuditInput {
                straggler_rate: fault.straggler_rate,
                straggler_slowdown: fault.straggler_slowdown,
                straggler_slowdown_budget: crate::fault::STRAGGLER_SLOWDOWN_BUDGET,
                speculation: fault.speculation,
                spill_corruption_rate: fault.spill_corruption_rate,
            }),
        };
        let report = blaze_audit::audit_job(plan, target, &self.job_targets, &audit_config);
        if let Some(d) = report.errors().next() {
            return Err(BlazeError::Audit {
                code: d.code.as_str().into(),
                message: d.message.clone(),
            });
        }
        for d in report.warnings() {
            if self.seen_audit.insert((d.code, d.rdd)) {
                let (at, app) = (self.clock_floor, self.current_app);
                self.emit(TraceEvent::AuditWarning { at, app, code: d.code, rdd: d.rdd });
            }
        }
        Ok(())
    }

    /// Debug-build shadow accounting: after every commit phase, each
    /// store's incremental `used` counter must equal the sum of its
    /// resident blocks' stored bytes. Drift here would silently corrupt
    /// every capacity decision downstream.
    fn debug_check_store_accounting(&self) {
        debug_assert!(
            self.stores.mem.iter().all(BlockStore::accounting_consistent),
            "memory-store byte accounting drifted from resident blocks"
        );
        debug_assert!(
            self.stores.disk.iter().all(BlockStore::accounting_consistent),
            "disk-store byte accounting drifted from resident blocks"
        );
    }

    fn run_job(&mut self, plan: &Plan, target: RddId) -> Result<Vec<Block>> {
        // The legacy serial path is the scheduler path degenerated to one
        // app: begin, run every stage back-to-back, finish. Keeping it as
        // this exact composition is what makes N=1 session traces
        // byte-identical to historical single-app runs.
        let mut ticket = self.begin_job(AppId(0), plan, target)?;
        while !ticket.done() {
            self.run_next_stage(&mut ticket, plan)?;
        }
        self.finish_job(ticket)
    }

    /// Admits one job of `app`: preflight audit, per-app job numbering,
    /// fault housekeeping, controller submit hook, and stage planning.
    /// The returned [`JobTicket`] carries everything the per-stage
    /// execution needs, so the session layer can interleave stages of
    /// different apps between calls.
    fn begin_job(&mut self, app: AppId, plan: &Plan, target: RddId) -> Result<JobTicket> {
        self.current_app = app;
        self.preflight_audit(plan, target)?;
        let counter = self.job_counters.entry(app).or_insert(0);
        let job = JobId(*counter);
        *counter += 1;
        let job_plan = blaze_dataflow::planner::plan_job(plan, target)?;

        // All fault paths hang off this one gate: with the default
        // (disabled) plan the run is byte-identical to a fault-free build.
        if self.config.fault.enabled() {
            self.fire_idle_crashes(self.clock_floor);
            self.inject_map_output_loss(job);
        }
        self.emit(TraceEvent::JobStarted { at: self.clock_floor, app, job, target });

        // Which shuffles does each map stage feed within this job?
        let mut consumers: FxHashMap<RddId, Vec<(RddId, usize)>> = FxHashMap::default();
        for stage in &job_plan.stages {
            for &rdd in &stage.rdds {
                for (dep_idx, dep) in plan.node(rdd)?.deps.iter().enumerate() {
                    if let Dep::Shuffle { parent, .. } = dep {
                        consumers.entry(*parent).or_default().push((rdd, dep_idx));
                    }
                }
            }
        }

        // Give the controller a chance to restate partitions for this job
        // (Blaze's ILP trigger, §5.6).
        let ctx = self.ctrl_ctx();
        let cmds = self.controller.on_job_submit(&ctx, job, &job_plan, plan);
        self.apply_commands(self.clock_floor, cmds);

        let stage_done = vec![self.clock_floor; job_plan.stages.len()];
        Ok(JobTicket {
            app,
            job,
            job_floor: self.clock_floor,
            job_plan,
            consumers,
            stage_done,
            results: Vec::new(),
            next_stage: 0,
        })
    }

    /// Runs the ticket's next stage end to end: skip check, plan, execute,
    /// commit. Stage starts floor at the ticket's own `job_floor`, not the
    /// global clock floor, so another app finishing a job mid-flight never
    /// shifts this job's dependency-driven stage times.
    fn run_next_stage(&mut self, ticket: &mut JobTicket, plan: &Plan) -> Result<()> {
        self.current_app = ticket.app;
        let stage = &ticket.job_plan.stages[ticket.next_stage];
        ticket.next_stage += 1;
        let is_result = stage.index == ticket.job_plan.stages.len() - 1;
        let start =
            stage.parent_stages.iter().fold(ticket.job_floor, |t, &p| t.max(ticket.stage_done[p]));
        let mut run = StageRun {
            plan,
            job: ticket.job,
            output: stage.output,
            index: stage.index as u32,
            consumers: ticket.consumers.get(&stage.output).map_or(&[][..], Vec::as_slice),
            fault_on: self.config.fault.enabled(),
            start,
            placements: Vec::new(),
            outputs: Vec::new(),
        };

        if !is_result && self.skip_check(&run, stage.num_partitions) {
            ticket.stage_done[stage.index] = start;
            // Skipped stages still "complete": dependency-aware
            // controllers must see their references consumed.
            self.stage_completed(&run, start, true);
            return Ok(());
        }

        self.plan_and_execute(&mut run, stage.num_partitions)?;
        let stage_end = self.commit_stage(&mut run, is_result.then_some(&mut ticket.results))?;
        ticket.stage_done[stage.index] = stage_end;
        self.debug_check_store_accounting();
        self.stage_completed(&run, stage_end, false);
        Ok(())
    }

    /// The stage-completion hook (auto-caching / prefetch), the state
    /// transitions it asks for, and then the stage's record: a stage that
    /// ran samples the disk residency the hook left behind. Debug builds
    /// then hold the controller's residency belief against the stores.
    fn stage_completed(&mut self, run: &StageRun<'_>, at: SimTime, skipped: bool) {
        let ctx = self.ctrl_ctx();
        let cmds = self.controller.on_stage_complete(&ctx, run.output, run.job, run.plan);
        self.apply_commands(at, cmds);
        #[cfg(debug_assertions)]
        if let Some(why) = self.controller.residency_mismatch(&self.stores.residency()) {
            panic!(
                "residency belief of {} diverged from the stores: {why}",
                self.controller.name()
            );
        }
        let disk_resident = (!skipped).then(|| self.stores.disk.iter().map(BlockStore::used).sum());
        self.emit(TraceEvent::StageCompleted {
            at,
            app: self.current_app,
            job: run.job,
            stage_output: run.output,
            disk_resident,
        });
    }

    /// The skip check for a map stage: true when every shuffle it feeds
    /// already has all its map outputs (Spark's skipped stages). A stage
    /// that would have been skipped but for fault-lost outputs runs, and is
    /// recorded here as a lineage-driven parent-stage resubmission (Spark's
    /// fetch-failure handling).
    fn skip_check(&mut self, run: &StageRun<'_>, num_maps: usize) -> bool {
        let shuffle = &self.stores.shuffle;
        if run.consumers.iter().all(|&s| shuffle.is_complete(s, num_maps)) {
            return true;
        }
        if run.fault_on && run.consumers.iter().any(|&s| shuffle.any_lost(s)) {
            self.emit(TraceEvent::StageResubmitted {
                at: run.start,
                app: self.current_app,
                job: run.job,
                stage_output: run.output,
            });
        }
        false
    }

    /// Plan, then execute. Plan: deterministic locality placement in
    /// partition order against the pre-stage state. Execute: all tasks run
    /// against a frozen snapshot of the stores; shared state is only read.
    fn plan_and_execute(&mut self, run: &mut StageRun<'_>, num_tasks: usize) -> Result<()> {
        run.placements = (0..num_tasks)
            .map(|p| self.pick_executor(run.plan, run.output, p))
            .collect::<Result<_>>()?;
        for (p, &executor) in run.placements.iter().enumerate() {
            self.emit(TraceEvent::TaskPlanned {
                at: run.start,
                app: self.current_app,
                job: run.job,
                stage_output: run.output,
                partition: p as u32,
                executor,
            });
        }
        let view = self.exec_view(run);
        let outputs = execute_stage(&view, &run.placements, self.config.worker_threads);
        run.outputs = outputs.into_iter().map(Some).collect();
        Ok(())
    }

    /// The commit loop: serial, partition-index order. The first failed
    /// task aborts the job (deterministically, independent of which worker
    /// observed it first). Scheduled crashes fire at commit boundaries on
    /// the simulated clock. Returns the stage's end time; a result stage's
    /// blocks go to `results`.
    fn commit_stage(
        &mut self,
        run: &mut StageRun<'_>,
        mut results: Option<&mut Vec<Block>>,
    ) -> Result<SimTime> {
        let speculation = self.speculation_deadline(run);
        let mut stage_end = run.start;
        for p in 0..run.outputs.len() {
            if run.fault_on {
                self.handle_due_crashes(run, p, stage_end);
            }
            let output = run.outputs[p].take().ok_or_else(|| {
                BlazeError::Execution(format!("partition {p} missing at commit"))
            })??;
            if let Some(results) = results.as_deref_mut() {
                results.push(output.block.clone());
            }
            let task = TaskCoords {
                job: run.job,
                stage_output: run.output,
                part: p,
                exec: run.placements[p],
                start: run.start,
            };
            let end = match &speculation {
                Some((slow, deadline)) if slow[p] => self.commit_straggler(task, output, *deadline),
                _ => self.commit_task(task, output),
            };
            stage_end = stage_end.max(end);
        }
        Ok(stage_end)
    }

    /// Completes a job whose stages have all run: advances the global
    /// clock floor (monotonically — another app may already have pushed
    /// it past this job's end) and returns the result blocks.
    fn finish_job(&mut self, ticket: JobTicket) -> Result<Vec<Block>> {
        debug_assert!(ticket.done(), "finish_job called with stages still pending");
        self.current_app = ticket.app;
        let last_stage = ticket.job_plan.stages.len() - 1;
        let end = ticket.stage_done[last_stage];
        self.clock_floor = self.clock_floor.max(end);
        self.emit(TraceEvent::JobCompleted { at: end, app: ticket.app, job: ticket.job });
        Ok(ticket.results)
    }
}

#[cfg(test)]
mod tests;
