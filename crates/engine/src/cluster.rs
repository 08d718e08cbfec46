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
//! three-phase pipeline (see DESIGN.md "Execution threading model"):
//!
//! - **Plan** (serial, partition order): locality placement via
//!   [`ClusterState::pick_executor`] against the pre-stage state.
//! - **Execute** (parallel): tasks run on a scoped worker pool sized by
//!   [`ClusterConfig::worker_threads`]. Every task reads a *frozen
//!   snapshot* of the stores ([`ExecView`]) and records its
//!   [`TaskCharge`] plus a log of cache-relevant [`TaskEvent`]s instead of
//!   mutating shared state. The snapshot semantics apply at every thread
//!   count, including 1.
//! - **Commit** (serial, partition-index order): slot assignment on the
//!   simulated clocks, replay of the event logs through the
//!   [`CacheController`] hooks (admissions, evictions, promotions, shuffle
//!   registration) and accounting: every countable thing that happens is
//!   one [`ClusterState::emit`] of a [`TraceEvent`].
//!
//! Because every controller decision and every simulated-time composition
//! happens in the deterministic commit phase, metrics, ACT and policy
//! behaviour are bit-identical for any `worker_threads` value; real
//! parallelism only changes wall-clock time.

use crate::config::ClusterConfig;
use crate::controller::{
    Admission, BlockInfo, CacheController, CtrlCtx, PartitionEvent, StateCommand, StoreTier,
    VictimAction,
};
use crate::fault::{FaultCause, SPECULATION_QUANTILE, SPECULATION_SLACK};
use crate::metrics::{Metrics, OpenJobs, TaskCharge, TaskTrace};
use crate::shuffle::{ShuffleId, ShuffleStore};
use crate::storage::{spill_checksum, BlockStore, StoredBlock};
use crate::tracing::{CacheDecision, CacheRecord, TraceEvent, TraceLog};
use blaze_common::error::{BlazeError, Result};
use blaze_common::fxhash::{FxHashMap, FxHashSet};
use blaze_common::ids::{AppId, BlockId, ExecutorId, JobId, RddId};
use blaze_common::{ByteSize, SimDuration, SimTime};
use blaze_dataflow::plan::{Compute, Dep};
use blaze_dataflow::runner::JobRunner;
use blaze_dataflow::{Block, Plan};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicUsize, Ordering};
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

    /// Returns the installed controller's name.
    pub fn controller_name(&self) -> String {
        self.state.lock().controller.name()
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

/// The block-residency state of the cluster: everything a task needs to
/// *read* to resolve hits and recompute lineage. Read-shared (immutably) by
/// the execute phase; mutated only by the serial plan/commit phases.
struct Stores {
    mem: Vec<BlockStore>,
    disk: Vec<BlockStore>,
    shuffle: ShuffleStore,
    /// Last executor that produced/cached each block (locality + remote reads).
    block_home: FxHashMap<BlockId, ExecutorId>,
    /// Blocks materialized at least once (recomputation detection).
    materialized_once: FxHashSet<BlockId>,
    /// Cached blocks destroyed by an executor loss and not yet re-produced.
    /// Purely attribution state: work done to re-produce a member is
    /// recovery work ([`crate::metrics::RecoveryMetrics`]). Always empty
    /// on a failure-free run.
    lost_blocks: FxHashSet<BlockId>,
}

struct ClusterState {
    config: ClusterConfig,
    controller: Box<dyn CacheController>,
    stores: Stores,
    /// Per-executor, per-slot simulated clocks.
    slots: Vec<Vec<SimTime>>,
    /// The fold of every emitted event ([`Self::emit`]), plus the few
    /// fields no event describes (stage counts, gauges, off-task charges).
    metrics: Metrics,
    /// The metrics fold's private state.
    open_jobs: OpenJobs,
    /// Per-application job counters: each admitted app numbers its own
    /// jobs from zero (like a `SparkContext` does), so all per-job
    /// accounting downstream is keyed by `(AppId, JobId)`.
    job_counters: FxHashMap<AppId, u32>,
    /// The application the engine is currently executing on behalf of.
    /// Always `app-0` on the legacy single-app path; the multi-app
    /// session layer sets it at every job/stage/unpersist entry point
    /// (all of which run under the scheduler turnstile, so the field is
    /// never observed concurrently).
    current_app: AppId,
    /// First application that materialized each block, for cross-app
    /// hit/eviction attribution against the shared stores.
    block_app: FxHashMap<BlockId, AppId>,
    /// Simulated time at which the next job may start.
    clock_floor: SimTime,
    /// Every action target submitted so far (preflight audit context).
    job_targets: Vec<RddId>,
    /// Warning diagnostics already counted, per (code, dataset).
    seen_audit: FxHashSet<(blaze_audit::DiagCode, Option<RddId>)>,
    /// Index of the next scheduled crash in `config.fault.crashes` (they
    /// are validated to be time-ordered and fire exactly once).
    next_crash: usize,
    /// Per-block spill sequence numbers for the corruption coin stream
    /// ([`crate::fault::FaultPlan::spill_corruption_rate`]); only populated
    /// while corruption injection is on, so a respilled block draws a
    /// fresh coin. Bumped exclusively in the serial commit phase.
    spill_seq: FxHashMap<BlockId, u64>,
    /// The retained event stream, present only when
    /// [`ClusterConfig::tracing`] is on. Written by [`Self::emit`] alone.
    trace: Option<TraceLog>,
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
    fault_on: bool,
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

/// Frozen, read-only view of the cluster a stage's tasks execute against.
///
/// Holding this by shared reference is what lets the execute phase run on
/// many threads: nothing behind it is mutated until every task of the stage
/// has returned.
struct ExecView<'a> {
    stores: &'a Stores,
    config: &'a ClusterConfig,
    /// Snapshot of [`CacheController::serialized_in_memory`] (the
    /// controller itself lives on the commit side).
    serialized_in_memory: bool,
    /// `(job, stage index)` coordinates for fault-injection coins, present
    /// only when the configured [`crate::fault::FaultPlan`] is enabled.
    /// `None` keeps the execute path entirely fault-free.
    fault_coords: Option<(JobId, u32)>,
}

/// A cache-relevant action observed while a task executed against the
/// frozen snapshot, to be replayed through the controller at commit.
/// Events carry the data (`Block`s are cheap `Arc` clones) so the commit
/// phase can perform admissions without re-running anything.
enum TaskEvent {
    /// An injected task-attempt failure (transient coin or executor loss).
    /// `wasted` is the slot time the dead attempt burned; attempts replay
    /// in index order through the deterministic commit.
    Failed { attempt: u32, cause: FaultCause, wasted: SimDuration },
    /// Served from a memory store (local or remote); `bytes` is the
    /// block's logical size (trace reporting). `serialized` marks a hit on
    /// an s-state block (the reader paid a deserialization); always false
    /// under the store-global Alluxio mode, which prices hits without
    /// per-block state.
    MemHit { id: BlockId, bytes: ByteSize, serialized: bool },
    /// Served from a disk store; `info.executor` is where it was found.
    DiskHit { info: BlockInfo, block: Block },
    /// Computed (or recomputed) from lineage; `depth` is how deep below
    /// the task's stage output the block sits (0 = the output itself).
    Computed {
        info: BlockInfo,
        edge: SimDuration,
        recomputed: bool,
        annotated: bool,
        depth: u32,
        block: Block,
    },
    /// Produced map-side shuffle buckets not present in the snapshot.
    MapOutput { shuffle: ShuffleId, map_part: usize, buckets: Vec<Block> },
    /// A disk-tier block failed checksum verification: the read was charged
    /// but the data is unusable. Commit quarantines the block (drops it
    /// from the disk store) and the task fell back to the next replica or
    /// to lineage recompute.
    CorruptSpill { info: BlockInfo },
    /// A shuffle-fetch attempt failed; the task backed off and retried.
    FetchRetry { shuffle: ShuffleId, reduce_part: u32, attempt: u32, backoff: SimDuration },
    /// Every fetch attempt failed: the parent's map outputs were
    /// regenerated through lineage (inline parent-stage resubmission).
    FetchEscalated { shuffle: ShuffleId, reduce_part: u32 },
}

/// Everything a finished task hands to the commit phase.
struct TaskOutput {
    /// The stage-output partition the task materialized.
    block: Block,
    /// Simulated time charged by the execute side (reads, compute, shuffle).
    /// Commit-side charges (cache writes) are added during replay.
    charge: TaskCharge,
    /// Cache-relevant actions in recursion order.
    events: Vec<TaskEvent>,
    /// The slice of `charge` spent re-producing fault-lost data (lineage
    /// replay below lost blocks, regeneration of lost map outputs).
    recovery: SimDuration,
}

/// Per-task execution context: the frozen view plus task-local scratch
/// state (computed-block memo and a shuffle overlay for outputs the task
/// itself produced).
struct TaskCtx<'a> {
    view: &'a ExecView<'a>,
    exec: ExecutorId,
    charge: TaskCharge,
    events: Vec<TaskEvent>,
    /// Blocks this task computed, so diamond lineage is computed once.
    computed: FxHashMap<BlockId, Block>,
    /// Map outputs this task produced (not yet visible to other tasks).
    shuffle_overlay: FxHashMap<(ShuffleId, usize), Vec<Block>>,
    /// Depth of the current materialization below a fault-lost block; while
    /// positive, compute edges and map-output writes are recovery work.
    recovery_depth: usize,
    /// Lineage depth of the current materialization below the task's stage
    /// output (0 = the output itself); recorded on `Computed` events so
    /// recomputation spans carry how deep the miss forced recursion.
    lineage_depth: u32,
    /// Accumulated recovery time (subset of `charge`).
    recovery: SimDuration,
}

impl<'a> TaskCtx<'a> {
    fn new(view: &'a ExecView<'a>, exec: ExecutorId) -> Self {
        Self {
            view,
            exec,
            charge: TaskCharge::default(),
            events: Vec::new(),
            computed: FxHashMap::default(),
            shuffle_overlay: FxHashMap::default(),
            recovery_depth: 0,
            lineage_depth: 0,
            recovery: SimDuration::ZERO,
        }
    }

    fn has_map_output(&self, shuffle: ShuffleId, map_part: usize) -> bool {
        self.shuffle_overlay.contains_key(&(shuffle, map_part))
            || self.view.stores.shuffle.has_map_output(shuffle, map_part)
    }

    fn fetch(&self, shuffle: ShuffleId, map_part: usize, reduce_part: usize) -> Option<Block> {
        self.shuffle_overlay
            .get(&(shuffle, map_part))
            .and_then(|b| b.get(reduce_part))
            .cloned()
            .or_else(|| self.view.stores.shuffle.fetch(shuffle, map_part, reduce_part))
    }

    /// Materializes one partition against the frozen snapshot, charging
    /// simulated time and recording events. Checks memory, then disk, then
    /// recomputes from lineage — the recovery order of paper Fig. 2.
    fn materialize(&mut self, plan: &Plan, rdd: RddId, part: usize) -> Result<Block> {
        let id = BlockId::new(rdd, part as u32);
        if let Some(b) = self.computed.get(&id) {
            return Ok(b.clone());
        }
        let exec = self.exec;
        let e = exec.raw() as usize;
        let view = self.view;

        // 1. Local memory hit. An s-state block (or any block under the
        // store-global Alluxio mode) is read through a deserialization.
        if let Some(sb) = view.stores.mem[e].get(id) {
            if view.serialized_in_memory || sb.serialized {
                self.charge.external_store_io +=
                    view.config.hardware.deser_time(sb.logical_bytes, sb.ser_factor);
            }
            self.events.push(TaskEvent::MemHit {
                id,
                bytes: sb.logical_bytes,
                serialized: sb.serialized,
            });
            return Ok(sb.block.clone());
        }

        // 1b. Remote memory hit on the block's home executor.
        let home = view.stores.block_home.get(&id).copied();
        if let Some(h) = home {
            if h != exec {
                if let Some(sb) = view.stores.mem[h.raw() as usize].get(id) {
                    self.charge.shuffle_fetch +=
                        view.config.hardware.network_time(sb.logical_bytes);
                    if sb.serialized {
                        self.charge.external_store_io +=
                            view.config.hardware.deser_time(sb.logical_bytes, sb.ser_factor);
                    }
                    self.events.push(TaskEvent::MemHit {
                        id,
                        bytes: sb.logical_bytes,
                        serialized: sb.serialized,
                    });
                    return Ok(sb.block.clone());
                }
            }
        }

        // 2. Disk hit (local first, then home).
        let mut corrupt_hits = 0u32;
        for &cand in [Some(exec), home.filter(|&h| h != exec)].iter().flatten() {
            let ce = cand.raw() as usize;
            if let Some(sb) = view.stores.disk[ce].get(id) {
                self.charge.disk_cache_read +=
                    view.config.hardware.fetch_from_disk_time(sb.logical_bytes, sb.ser_factor);
                if cand != exec {
                    self.charge.shuffle_fetch +=
                        view.config.hardware.network_time(sb.logical_bytes);
                }
                let info = BlockInfo {
                    id,
                    bytes: sb.logical_bytes,
                    ser_factor: sb.ser_factor,
                    executor: cand,
                };
                // Verify the spill checksum (stamped only while corruption
                // injection is on, so the fault-free path never pays this).
                // A mismatch means the read was wasted: record it for the
                // commit-side quarantine and fall through to the next
                // replica or to lineage recompute.
                if sb
                    .checksum
                    .is_some_and(|ck| ck != spill_checksum(id, sb.logical_bytes, sb.ser_factor))
                {
                    self.events.push(TaskEvent::CorruptSpill { info });
                    corrupt_hits += 1;
                    continue;
                }
                // Promotion back into memory (paper §2.3) is a commit-side
                // decision: record where the block was found.
                self.events.push(TaskEvent::DiskHit { info, block: sb.block.clone() });
                return Ok(sb.block.clone());
            }
        }

        // 3. Recompute from lineage. A block destroyed by executor loss —
        // or quarantined above as a corrupt spill — marks everything
        // materialized beneath it as recovery work (the depth counter
        // survives the recursion below).
        let lost = view.stores.lost_blocks.contains(&id) || corrupt_hits > 0;
        if lost {
            self.recovery_depth += 1;
        }
        let recomputed = view.stores.materialized_once.contains(&id);
        let depth = self.lineage_depth;
        self.lineage_depth += 1;
        let node = plan.node(rdd)?;
        let (block, in_elems, in_bytes) = match &node.compute {
            Compute::Source(gen) => {
                let b = gen(part)?;
                let (e_, b_) = (b.len() as u64, b.bytes().as_bytes());
                (b, e_, b_)
            }
            Compute::Narrow(f) => {
                let mut inputs = Vec::with_capacity(node.deps.len());
                for dep in &node.deps {
                    inputs.push(self.materialize(plan, dep.parent(), part)?);
                }
                let in_elems: u64 = inputs.iter().map(|b| b.len() as u64).sum();
                let in_bytes: u64 = inputs.iter().map(|b| b.bytes().as_bytes()).sum();
                (f(part, &inputs)?, in_elems, in_bytes)
            }
            Compute::ShuffleAgg(agg) => {
                let mut per_dep = Vec::with_capacity(node.deps.len());
                let mut in_elems = 0u64;
                let mut in_bytes = 0u64;
                for (dep_idx, dep) in node.deps.iter().enumerate() {
                    let Dep::Shuffle { parent, .. } = dep else {
                        return Err(BlazeError::InvalidPlan(format!(
                            "{rdd}: shuffle agg with narrow dep"
                        )));
                    };
                    let num_maps = plan.node(*parent)?.num_partitions;
                    // Ensure map outputs exist (they normally do; recovery
                    // across a missing shuffle regenerates them). An output
                    // that existed and was destroyed by a fault attributes
                    // its regeneration to recovery — Spark's fetch-failure
                    // parent-stage resubmission, inlined.
                    for m in 0..num_maps {
                        if !self.has_map_output((rdd, dep_idx), m) {
                            let replaying = view.stores.shuffle.was_lost((rdd, dep_idx), m);
                            if replaying {
                                self.recovery_depth += 1;
                            }
                            let parent_block = self.materialize(plan, *parent, m)?;
                            self.write_map_output(plan, rdd, dep_idx, m, &parent_block)?;
                            if replaying {
                                self.recovery_depth -= 1;
                            }
                        }
                    }
                    // Injected shuffle-fetch failures: every attempt flips
                    // a seeded coin; each failure charges a capped
                    // exponential backoff on the simulated clock, and an
                    // exhausted retry budget escalates to regenerating the
                    // parent's map outputs through lineage — the inline
                    // form of Spark's parent-stage resubmission. The
                    // regenerated buckets shadow the (unreachable) snapshot
                    // ones via the task's shuffle overlay.
                    if let Some((job, _)) = view.fault_coords {
                        let fault = &view.config.fault;
                        if fault.fetch_failure_rate > 0.0 {
                            let budget = fault.max_fetch_retries + 1;
                            let mut failed = 0u32;
                            while failed < budget
                                && fault.fetch_attempt_fails(
                                    job.raw(),
                                    rdd.raw(),
                                    dep_idx,
                                    part as u32,
                                    failed,
                                )
                            {
                                let backoff = fault.fetch_backoff(failed);
                                self.charge.fetch_backoff += backoff;
                                self.events.push(TaskEvent::FetchRetry {
                                    shuffle: (rdd, dep_idx),
                                    reduce_part: part as u32,
                                    attempt: failed,
                                    backoff,
                                });
                                failed += 1;
                            }
                            if failed == budget {
                                self.recovery_depth += 1;
                                for m in 0..num_maps {
                                    let parent_block = self.materialize(plan, *parent, m)?;
                                    self.force_write_map_output(
                                        plan,
                                        rdd,
                                        dep_idx,
                                        m,
                                        &parent_block,
                                    )?;
                                }
                                self.recovery_depth -= 1;
                                self.events.push(TaskEvent::FetchEscalated {
                                    shuffle: (rdd, dep_idx),
                                    reduce_part: part as u32,
                                });
                            }
                        }
                    }
                    let mut fetched = ByteSize::ZERO;
                    let mut incoming = Vec::with_capacity(num_maps);
                    for m in 0..num_maps {
                        let b = self.fetch((rdd, dep_idx), m, part).ok_or_else(|| {
                            BlazeError::Execution(format!("missing map output {rdd}/{dep_idx}/{m}"))
                        })?;
                        in_elems += b.len() as u64;
                        fetched += b.bytes();
                        incoming.push(b);
                    }
                    in_bytes += fetched.as_bytes();
                    let parent_ser = plan.node(*parent)?.ser_factor;
                    self.charge.shuffle_fetch += view.config.hardware.network_time(fetched)
                        + view.config.hardware.deser_time(fetched, parent_ser);
                    per_dep.push(incoming);
                }
                (agg(part, &per_dep)?, in_elems, in_bytes)
            }
        };

        let edge = SimDuration::from_nanos(node.cost.charge_ns(in_elems, in_bytes) as u64);
        if recomputed {
            self.charge.recompute += edge;
        } else {
            self.charge.compute += edge;
        }
        if self.recovery_depth > 0 {
            self.recovery += edge;
        }
        if lost {
            self.recovery_depth -= 1;
        }
        self.lineage_depth = depth;

        let info =
            BlockInfo { id, bytes: block.bytes(), ser_factor: node.ser_factor, executor: exec };
        let annotated = node.cache_annotated && !node.unpersist_requested;
        self.events.push(TaskEvent::Computed {
            info,
            edge,
            recomputed,
            annotated,
            depth,
            block: block.clone(),
        });
        self.computed.insert(id, block.clone());
        Ok(block)
    }

    /// Produces the map-side buckets of one shuffle for `map_part`, unless
    /// the snapshot (or this task) already has them.
    fn write_map_output(
        &mut self,
        plan: &Plan,
        child: RddId,
        dep_idx: usize,
        map_part: usize,
        input: &Block,
    ) -> Result<()> {
        if self.has_map_output((child, dep_idx), map_part) {
            return Ok(());
        }
        self.force_write_map_output(plan, child, dep_idx, map_part, input)
    }

    /// Re-produces map-side buckets unconditionally (fetch-failure
    /// escalation: the outputs exist in the snapshot but are unreachable,
    /// so the parent's map side re-runs and the fresh buckets shadow the
    /// snapshot's through the task overlay).
    fn force_write_map_output(
        &mut self,
        plan: &Plan,
        child: RddId,
        dep_idx: usize,
        map_part: usize,
        input: &Block,
    ) -> Result<()> {
        let shuffle: ShuffleId = (child, dep_idx);
        let child_node = plan.node(child)?;
        let Dep::Shuffle { parent, map_side } = &child_node.deps[dep_idx] else {
            return Err(BlazeError::InvalidPlan(format!(
                "{child}: dep {dep_idx} is not a shuffle"
            )));
        };
        let buckets = map_side(input, child_node.num_partitions)?;
        if buckets.len() != child_node.num_partitions {
            return Err(BlazeError::Execution(format!(
                "map-side for {child} produced {} buckets, expected {}",
                buckets.len(),
                child_node.num_partitions
            )));
        }
        let out_bytes: ByteSize = buckets.iter().map(Block::bytes).sum();
        let parent_ser = plan.node(*parent)?.ser_factor;
        // Shuffle write = serialize + write shuffle files (Spark behaviour);
        // charged to the shuffle category, not to cache disk I/O.
        let write = self.view.config.hardware.ser_time(out_bytes, parent_ser)
            + self.view.config.hardware.disk_write_time(out_bytes);
        self.charge.shuffle_write += write;
        if self.recovery_depth > 0 {
            self.recovery += write;
        }
        self.events.push(TaskEvent::MapOutput { shuffle, map_part, buckets: buckets.clone() });
        self.shuffle_overlay.insert((shuffle, map_part), buckets);
        Ok(())
    }
}

/// Runs one task against the frozen view: materialize the stage-output
/// partition, then the map-side writes for every consuming shuffle.
fn execute_task(
    view: &ExecView<'_>,
    plan: &Plan,
    output: RddId,
    part: usize,
    exec: ExecutorId,
    consumers: &[(RddId, usize)],
    base_attempt: u32,
) -> Result<TaskOutput> {
    let mut task = TaskCtx::new(view, exec);
    let block = task.materialize(plan, output, part)?;
    for &(child, dep_idx) in consumers {
        task.write_map_output(plan, child, dep_idx, part, &block)?;
    }
    let mut events = task.events;

    // Injected transient failures: flip the deterministic per-attempt coin
    // until one attempt survives or the retry budget is exhausted. Every
    // failed attempt burns (the same) slot time; attempts replay in index
    // order through the serial commit, so metrics stay thread-count
    // independent. `base_attempt` continues the coin stream after an
    // executor-loss re-execution.
    if let Some((job, stage)) = view.fault_coords {
        let fault = &view.config.fault;
        if fault.task_failure_rate > 0.0 {
            let max = fault.max_attempts();
            let wasted = task.charge.total();
            let mut failed: Vec<TaskEvent> = Vec::new();
            let mut attempt = base_attempt;
            while attempt < max && fault.task_attempt_fails(job.raw(), stage, part as u32, attempt)
            {
                failed.push(TaskEvent::Failed { attempt, cause: FaultCause::Transient, wasted });
                attempt += 1;
            }
            if attempt >= max && !failed.is_empty() {
                return Err(BlazeError::Execution(format!(
                    "task {output}[{part}] failed all {max} attempts (injected transient faults)"
                )));
            }
            if !failed.is_empty() {
                failed.extend(events);
                events = failed;
            }
        }
    }
    Ok(TaskOutput { block, charge: task.charge, events, recovery: task.recovery })
}

/// Executes every task of a stage, on a scoped worker pool when more than
/// one worker thread is configured. Results are returned in partition
/// order regardless of completion order.
fn execute_stage(
    view: &ExecView<'_>,
    plan: &Plan,
    output: RddId,
    placements: &[ExecutorId],
    consumers: &[(RddId, usize)],
    worker_threads: usize,
) -> Vec<Result<TaskOutput>> {
    let n = placements.len();
    let workers = worker_threads.min(n);
    if workers <= 1 {
        return (0..n)
            .map(|p| execute_task(view, plan, output, p, placements[p], consumers, 0))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let mut ordered: Vec<Option<Result<TaskOutput>>> = Vec::with_capacity(n);
    ordered.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let p = next.fetch_add(1, Ordering::Relaxed);
                        if p >= n {
                            break;
                        }
                        done.push((
                            p,
                            execute_task(view, plan, output, p, placements[p], consumers, 0),
                        ));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            // A panicking task is a bug in an operator closure; propagating
            // the panic (not masking it as an error) preserves the backtrace.
            // audit: allow(unwrap)
            for (p, result) in handle.join().expect("stage worker panicked") {
                ordered[p] = Some(result);
            }
        }
    });
    ordered
        .into_iter()
        .enumerate()
        .map(|(p, r)| {
            r.unwrap_or_else(|| {
                Err(BlazeError::Execution(format!("partition {p} of {output} never executed")))
            })
        })
        .collect()
}

impl ClusterState {
    fn new(config: ClusterConfig, controller: Box<dyn CacheController>) -> Self {
        let execs = config.executors;
        Self {
            stores: Stores {
                mem: (0..execs).map(|_| BlockStore::new(config.memory_capacity)).collect(),
                disk: (0..execs).map(|_| BlockStore::new(config.disk_capacity)).collect(),
                shuffle: ShuffleStore::new(),
                block_home: FxHashMap::default(),
                materialized_once: FxHashSet::default(),
                lost_blocks: FxHashSet::default(),
            },
            slots: (0..execs).map(|_| vec![SimTime::ZERO; config.slots_per_executor]).collect(),
            metrics: Metrics::new(),
            open_jobs: OpenJobs::default(),
            job_counters: FxHashMap::default(),
            current_app: AppId(0),
            block_app: FxHashMap::default(),
            clock_floor: SimTime::ZERO,
            job_targets: Vec::new(),
            seen_audit: FxHashSet::default(),
            next_crash: 0,
            spill_seq: FxHashMap::default(),
            trace: config.tracing.then(TraceLog::new),
            config,
            controller,
        }
    }

    fn ctrl_ctx(&self, now: SimTime) -> CtrlCtx {
        CtrlCtx {
            now,
            app: self.current_app,
            hardware: self.config.hardware,
            memory_capacity: self.config.memory_capacity,
            disk_capacity: self.config.disk_capacity,
            executors: self.config.executors,
        }
    }

    // ---- Accounting ------------------------------------------------------

    /// The engine's one accounting statement: folds `ev` into the metrics
    /// and, when tracing is on, retains it in the log. Only called from the
    /// serial engine phases, so both are identical across `worker_threads`.
    fn emit(&mut self, ev: TraceEvent) {
        self.metrics.apply(&mut self.open_jobs, &ev);
        if let Some(tr) = self.trace.as_mut() {
            tr.record(ev);
        }
    }

    /// Emits one cache decision made on behalf of the current app, stamped
    /// with the block's owner (its first producer).
    fn emit_cache(
        &mut self,
        at: SimTime,
        executor: ExecutorId,
        id: BlockId,
        bytes: ByteSize,
        decision: CacheDecision,
        rationale: Option<String>,
    ) {
        let app = self.current_app;
        let owner = self.block_app.get(&id).copied().unwrap_or(app);
        let record = CacheRecord { at, app, owner, executor, id, bytes, decision, rationale };
        self.emit(TraceEvent::Cache(record));
    }

    // ---- Job execution ---------------------------------------------------

    /// Preflight audit (see `blaze-audit`): error-severity diagnostics
    /// abort the job with [`BlazeError::Audit`] before any task runs;
    /// warning-severity findings are counted into the metrics once per
    /// (code, dataset). [`ClusterConfig::strict_audit`] promotes warnings
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
        let mut report = blaze_audit::audit_job(plan, target, &self.job_targets, &audit_config);
        // Controllers contribute their own preflight findings (e.g. BA304
        // when a solve deadline cannot fit even the cheapest ladder rung),
        // subject to the same strict-mode promotion.
        let extra = self.controller.preflight_diagnostics();
        if !extra.is_empty() {
            let mut diags = report.diagnostics;
            diags.extend(extra);
            report = blaze_audit::AuditReport::new(diags);
            if self.config.strict_audit {
                report = report.promoted();
            }
        }
        if let Some(d) = report.errors().next() {
            return Err(BlazeError::Audit {
                code: d.code.as_str().into(),
                message: d.message.clone(),
            });
        }
        for d in report.warnings() {
            if self.seen_audit.insert((d.code, d.rdd)) {
                self.metrics.audit_warnings += 1;
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
        let fault_on = self.config.fault.enabled();
        if fault_on {
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
        let ctx = self.ctrl_ctx(self.clock_floor);
        let cmds = self.controller.on_job_submit(&ctx, job, &job_plan, plan);
        self.apply_commands(plan, self.clock_floor, cmds);
        // If the controller's decision path stepped down its solver
        // degradation ladder during this submit, ledger the rung: "why did
        // the solver not run at full strength here?" must be answerable
        // from the trace alone.
        if let Some(note) = self.controller.take_degradation() {
            self.emit_cache(
                self.clock_floor,
                ExecutorId(0),
                BlockId::new(RddId(u32::MAX), 0),
                ByteSize::ZERO,
                CacheDecision::SolverDegrade,
                Some(format!(
                    "ladder: {} ({} degraded, {} passthrough)",
                    note.rung, note.degraded, note.passthrough
                )),
            );
        }

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
            fault_on,
        })
    }

    /// Runs the ticket's next stage end to end (plan / execute / commit).
    /// Stage starts floor at the ticket's own `job_floor`, not the global
    /// clock floor, so another app finishing a job mid-flight never shifts
    /// this job's dependency-driven stage times.
    #[allow(clippy::too_many_lines)]
    fn run_next_stage(&mut self, ticket: &mut JobTicket, plan: &Plan) -> Result<()> {
        self.current_app = ticket.app;
        let job = ticket.job;
        let fault_on = ticket.fault_on;
        let last_stage = ticket.job_plan.stages.len() - 1;
        let idx = ticket.next_stage;
        ticket.next_stage += 1;
        let stage = &ticket.job_plan.stages[idx];
        let is_result = stage.index == last_stage;
        let start =
            stage.parent_stages.iter().fold(ticket.job_floor, |t, &p| t.max(ticket.stage_done[p]));

        // Skip map stages whose shuffle outputs all exist already.
        let stage_consumers = ticket.consumers.get(&stage.output).cloned().unwrap_or_default();
        if !is_result {
            let num_maps = stage.num_partitions;
            let all_done = stage_consumers.iter().all(|&(child, dep_idx)| {
                self.stores.shuffle.is_complete((child, dep_idx), num_maps)
            });
            if all_done {
                ticket.stage_done[stage.index] = start;
                self.metrics.stages_skipped += 1;
                // Skipped stages still "complete": dependency-aware
                // controllers must see their references consumed.
                let ctx = self.ctrl_ctx(start);
                let cmds = self.controller.on_stage_complete(&ctx, stage.output, job, plan);
                self.apply_commands(plan, start, cmds);
                return Ok(());
            } else if fault_on
                && stage_consumers.iter().any(|&(c, d)| self.stores.shuffle.any_lost((c, d)))
            {
                // This map stage would have been skipped but for lost
                // shuffle outputs: lineage-driven parent-stage
                // resubmission (Spark's fetch-failure handling).
                self.emit(TraceEvent::StageResubmitted {
                    at: start,
                    app: ticket.app,
                    job,
                    stage_output: stage.output,
                });
            }
        }

        // -- Plan: deterministic locality placement, partition order,
        //    against the pre-stage state. Mutable because an injected
        //    executor crash reschedules uncommitted tasks.
        let mut placements: Vec<ExecutorId> = (0..stage.num_partitions)
            .map(|p| self.pick_executor(plan, stage.output, p))
            .collect::<Result<_>>()?;
        for (p, &executor) in placements.iter().enumerate() {
            self.emit(TraceEvent::TaskPlanned {
                at: start,
                app: ticket.app,
                job,
                stage_output: stage.output,
                partition: p as u32,
                executor,
            });
        }

        // -- Execute: all tasks run against a frozen snapshot of the
        //    stores; shared state is only read.
        let mut outputs: Vec<Option<Result<TaskOutput>>> = {
            let view = ExecView {
                stores: &self.stores,
                config: &self.config,
                serialized_in_memory: self.controller.serialized_in_memory(),
                fault_coords: fault_on.then_some((job, stage.index as u32)),
            };
            execute_stage(
                &view,
                plan,
                stage.output,
                &placements,
                &stage_consumers,
                self.config.worker_threads,
            )
            .into_iter()
            .map(Some)
            .collect()
        };

        // Straggler injection: seeded per-task slowdowns plus a
        // quantile-based speculation deadline (the shape of Spark's
        // `spark.speculation.{quantile,multiplier}`), all decided in
        // the serial commit phase from pre-commit execute charges so
        // traces stay thread-count invariant.
        let straggle_on = fault_on && self.config.fault.straggler_rate > 0.0;
        let mut stragglers: Vec<bool> = Vec::new();
        let mut deadline = SimDuration::ZERO;
        if straggle_on && !outputs.is_empty() {
            let fault = &self.config.fault;
            stragglers = (0..outputs.len())
                .map(|p| fault.task_straggles(job.raw(), stage.index as u32, p as u32))
                .collect();
            let mut observed: Vec<SimDuration> = outputs
                .iter()
                .enumerate()
                .map(|(p, o)| {
                    let base = o
                        .as_ref()
                        .and_then(|r| r.as_ref().ok())
                        .map_or(SimDuration::ZERO, |out| out.charge.total());
                    if stragglers[p] {
                        base * fault.straggler_slowdown
                    } else {
                        base
                    }
                })
                .collect();
            observed.sort_unstable();
            let q_idx = (SPECULATION_QUANTILE * (observed.len() - 1) as f64) as usize;
            deadline = observed[q_idx] * SPECULATION_SLACK;
        }

        // -- Commit: serial, partition-index order. The first failed
        //    task aborts the job (deterministically, independent of
        //    which worker observed it first). Scheduled crashes fire at
        //    commit boundaries on the simulated clock.
        let mut stage_end = start;
        for p in 0..outputs.len() {
            if fault_on {
                self.handle_due_crashes(
                    plan,
                    job,
                    stage.output,
                    stage.index as u32,
                    &stage_consumers,
                    &mut placements,
                    &mut outputs,
                    p,
                    stage_end.max(start),
                );
            }
            let output = outputs[p].take().ok_or_else(|| {
                BlazeError::Execution(format!("partition {p} missing at commit"))
            })??;
            let block = output.block.clone();
            let end = if straggle_on && stragglers[p] {
                self.commit_straggler(job, stage.output, p, placements[p], start, output, deadline)
            } else {
                self.commit_task(job, stage.output, p, placements[p], start, output)
            };
            stage_end = stage_end.max(end);
            if is_result {
                ticket.results.push(block);
            }
        }
        ticket.stage_done[stage.index] = stage_end;

        self.debug_check_store_accounting();

        // Stage-completion hook (auto-caching / prefetch).
        let ctx = self.ctrl_ctx(stage_end);
        let cmds = self.controller.on_stage_complete(&ctx, stage.output, job, plan);
        self.apply_commands(plan, stage_end, cmds);
        self.metrics.stages_run += 1;
        let disk_resident: ByteSize = self.stores.disk.iter().map(BlockStore::used).sum();
        self.metrics.sample_disk_residency(disk_resident);
        Ok(())
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

    /// Commits one executed task: assigns it the earliest slot of its
    /// executor, replays its event log through the controller (which may
    /// add cache-write charges), and emits the accounting events.
    /// Returns the task's simulated end time.
    fn commit_task(
        &mut self,
        job: JobId,
        stage_output: RddId,
        part: usize,
        exec: ExecutorId,
        start: SimTime,
        output: TaskOutput,
    ) -> SimTime {
        self.commit_task_at(job, stage_output, part, exec, start, output, None)
    }

    /// [`Self::commit_task`] with an extra launch floor: a speculative copy
    /// cannot start before the original has provably blown the stage
    /// deadline, even if the copy executor has an idle slot earlier.
    #[allow(clippy::too_many_arguments)]
    fn commit_task_at(
        &mut self,
        job: JobId,
        stage_output: RddId,
        part: usize,
        exec: ExecutorId,
        start: SimTime,
        output: TaskOutput,
        min_start: Option<SimTime>,
    ) -> SimTime {
        let app = self.current_app;
        let e = exec.raw() as usize;
        let slot = Self::earliest_slot(&self.slots[e]);
        let t0 = self.slots[e][slot].max(start).max(min_start.unwrap_or(SimTime::ZERO));
        let mut charge = output.charge;
        let recovery = output.recovery;
        let mut next_attempt = 0u32;

        for event in output.events {
            match event {
                TaskEvent::Failed { attempt, cause, wasted } => {
                    // The attempt index is part of the deterministic coin
                    // stream; replay must stay contiguous across transient
                    // retries and executor-loss re-executions.
                    debug_assert_eq!(attempt, next_attempt, "non-contiguous attempt replay");
                    next_attempt = attempt + 1;
                    charge.fault_wasted += wasted;
                    self.emit(TraceEvent::TaskRetry {
                        at: t0,
                        app,
                        job,
                        stage_output,
                        partition: part as u32,
                        attempt,
                        cause,
                        wasted,
                    });
                }
                TaskEvent::MemHit { id, bytes, serialized } => {
                    let ctx = self.ctrl_ctx(self.clock_floor);
                    self.controller.on_access(&ctx, id);
                    let decision = if serialized {
                        CacheDecision::HitSerializedMemory
                    } else {
                        CacheDecision::HitMemory
                    };
                    self.emit_cache(t0, exec, id, bytes, decision, None);
                }
                TaskEvent::DiskHit { info, block } => {
                    let ctx = self.ctrl_ctx(self.clock_floor);
                    self.controller.on_access(&ctx, info.id);
                    let hit = CacheDecision::HitDisk;
                    self.emit_cache(t0, info.executor, info.id, info.bytes, hit, None);
                    // Optional promotion back into memory (paper §2.3:
                    // recovered data can be cached again).
                    let ctx = self.ctrl_ctx(self.clock_floor);
                    if self.controller.readmit_after_disk_read(&ctx, &info) == Admission::Memory {
                        let ce = info.executor.raw() as usize;
                        // Skip if an earlier commit in this stage already
                        // promoted (or dropped) the block.
                        if !self.stores.mem[ce].contains(info.id)
                            && self.stores.disk[ce].contains(info.id)
                        {
                            // Attempt the promotion while the block is
                            // still on disk: a failed attempt leaves it
                            // where it was (and the spill-guard prevents
                            // re-charging a write).
                            let promoted = self.try_cache_memory(
                                info.executor,
                                &info,
                                block,
                                &mut charge,
                                t0,
                                CacheDecision::PromoteToMemory,
                            );
                            if promoted {
                                self.stores.disk[ce].remove(info.id);
                            }
                        }
                    }
                }
                TaskEvent::Computed { info, edge, recomputed, annotated, depth, block } => {
                    if recomputed {
                        let miss = CacheDecision::MissRecompute;
                        self.emit_cache(t0, info.executor, info.id, info.bytes, miss, None);
                        self.emit(TraceEvent::Recompute {
                            at: t0,
                            app,
                            job,
                            id: info.id,
                            executor: info.executor,
                            depth,
                            duration: edge,
                        });
                    }
                    self.stores.materialized_once.insert(info.id);
                    if self.stores.lost_blocks.remove(&info.id) {
                        self.emit(TraceEvent::BlockRecovered { at: t0, id: info.id });
                    }
                    let ctx = self.ctrl_ctx(self.clock_floor);
                    let event = PartitionEvent { info, edge_compute: edge, job, recomputed };
                    self.controller.on_partition_computed(&ctx, &event);

                    // Unified caching decision (paper §4.1).
                    let ctx = self.ctrl_ctx(self.clock_floor);
                    if self.controller.should_cache(&ctx, &info, annotated) {
                        let ctx = self.ctrl_ctx(self.clock_floor);
                        match self.controller.admit(&ctx, &info) {
                            Admission::Memory => {
                                self.try_cache_memory(
                                    info.executor,
                                    &info,
                                    block,
                                    &mut charge,
                                    t0,
                                    CacheDecision::AdmitMemory,
                                );
                            }
                            Admission::Disk => {
                                self.spill_to_disk(info.executor, &info, block, &mut charge, t0);
                            }
                            Admission::Skip => {}
                        }
                    }
                    // Even uncached productions update the home hint: the
                    // producing executor is where recomputation is cheapest
                    // next time.
                    self.stores.block_home.entry(info.id).or_insert(info.executor);
                    // First producer owns the block for cross-app attribution.
                    self.block_app.entry(info.id).or_insert(app);
                }
                TaskEvent::MapOutput { shuffle, map_part, buckets } => {
                    // First writer wins; duplicate regenerations (possible
                    // when several tasks recover the same missing shuffle)
                    // produce identical buckets.
                    if !self.stores.shuffle.has_map_output(shuffle, map_part) {
                        self.stores.shuffle.put_map_output(shuffle, map_part, buckets, exec);
                        if self.stores.shuffle.mark_recovered(shuffle, map_part) {
                            self.emit(TraceEvent::MapOutputRecovered {
                                at: t0,
                                child: shuffle.0,
                                dep_idx: shuffle.1 as u32,
                                map_part: map_part as u32,
                            });
                        }
                    }
                }
                TaskEvent::CorruptSpill { info } => {
                    // Quarantine: drop the corrupt block from the disk tier
                    // (the remove-guard deduplicates detections by several
                    // tasks of one stage). Lineage re-produces the data.
                    self.quarantine_spill(info.executor, info.id, info.bytes, t0);
                }
                TaskEvent::FetchRetry { shuffle, reduce_part, attempt, backoff } => {
                    self.emit(TraceEvent::FetchRetry {
                        at: t0,
                        app,
                        job,
                        child: shuffle.0,
                        dep_idx: shuffle.1 as u32,
                        reduce_part,
                        attempt,
                        backoff,
                    });
                }
                TaskEvent::FetchEscalated { shuffle, reduce_part } => {
                    self.emit(TraceEvent::FetchEscalated {
                        at: t0,
                        app,
                        job,
                        child: shuffle.0,
                        dep_idx: shuffle.1 as u32,
                        reduce_part,
                    });
                }
            }
        }

        if recovery > SimDuration::ZERO {
            self.emit(TraceEvent::RecoveryReplay {
                at: t0,
                app,
                job,
                stage_output,
                partition: part as u32,
                duration: recovery,
            });
        }
        let end = t0 + charge.total();
        self.emit(TraceEvent::TaskCommitted(TaskTrace {
            app,
            job,
            stage_output,
            partition: part as u32,
            executor: exec,
            slot: slot as u32,
            start: t0,
            end,
            charge,
        }));
        self.slots[e][slot] = end;
        end
    }

    /// Commits a task the fault plan marked as a straggler: its execute
    /// charge is inflated by the plan's slowdown, and — when speculative
    /// execution is on and the slowed duration blows the stage `deadline` —
    /// a speculative copy on the next executor races the original.
    ///
    /// The race is decided analytically on the simulated clock: the copy
    /// re-runs nothing (the task's computed output is identical; its event
    /// log is reused, with `Computed` ownership rewritten to the copy
    /// executor). Whichever attempt finishes first commits; the loser's
    /// slot stays busy until the winner's end, and that burn is charged to
    /// [`crate::metrics::SpeculationMetrics`] — not to any task span, so
    /// per-executor busy time stays the sum of the committed spans.
    #[allow(clippy::too_many_arguments)]
    fn commit_straggler(
        &mut self,
        job: JobId,
        stage_output: RddId,
        part: usize,
        exec: ExecutorId,
        start: SimTime,
        mut output: TaskOutput,
        deadline: SimDuration,
    ) -> SimTime {
        let slowdown = self.config.fault.straggler_slowdown;
        let speculate = self.config.fault.speculation;
        let base = output.charge.total();
        let slowed = base * slowdown;
        let delay = slowed.saturating_sub(base);

        // Decide the race before committing anything: both launch times are
        // pure functions of the current slot clocks.
        let e = exec.raw() as usize;
        let orig_slot = Self::earliest_slot(&self.slots[e]);
        let t0_orig = self.slots[e][orig_slot].max(start);
        let orig_end = t0_orig + slowed;
        let spec = if speculate && self.config.executors >= 2 && slowed > deadline {
            let se = (e + 1) % self.config.executors;
            let spec_slot = Self::earliest_slot(&self.slots[se]);
            // The copy launches once the original has provably blown the
            // deadline, on the copy executor's earliest slot.
            let spec_start = self.slots[se][spec_slot].max(start).max(t0_orig + deadline);
            Some((se, spec_slot, spec_start, spec_start + base))
        } else {
            None
        };

        // Each arm commits the winning attempt and yields the task's end,
        // the delay its committed span carries, and the race (if one ran).
        let (end, delay, race) = match spec {
            Some((se, _, spec_start, spec_end)) if spec_end < orig_end => {
                // The copy wins: it commits (at full speed, floored at its
                // launch time) and the original is cancelled, having burned
                // its slot from launch to the winner's end.
                let copy_exec = ExecutorId(se as u32);
                for ev in &mut output.events {
                    if let TaskEvent::Computed { info, .. } = ev {
                        if info.executor == exec {
                            info.executor = copy_exec;
                        }
                    }
                }
                let end = self.commit_task_at(
                    job,
                    stage_output,
                    part,
                    copy_exec,
                    start,
                    output,
                    Some(spec_start),
                );
                self.slots[e][orig_slot] = self.slots[e][orig_slot].max(end);
                (end, SimDuration::ZERO, Some((copy_exec, true, end.since(t0_orig))))
            }
            _ => {
                // The original commits, carrying the straggler delay in its
                // charge (so its span and the busy clock agree); a launched
                // but losing copy burns its slot until the original's end.
                output.charge.straggler_delay = delay;
                let end = self.commit_task(job, stage_output, part, exec, start, output);
                let lost = spec.filter(|&(_, _, spec_start, _)| spec_start < end);
                let race = lost.map(|(se, spec_slot, spec_start, _)| {
                    self.slots[se][spec_slot] = self.slots[se][spec_slot].max(end);
                    (ExecutorId(se as u32), false, end.since(spec_start))
                });
                (end, delay, race)
            }
        };
        let (at, app, partition) = (t0_orig, self.current_app, part as u32);
        self.emit(TraceEvent::Straggler { at, app, job, stage_output, partition, delay });
        if let Some((copy_executor, copy_won, wasted)) = race {
            self.emit(TraceEvent::Speculation {
                at,
                app,
                job,
                stage_output,
                partition,
                copy_executor,
                copy_won,
                wasted,
            });
        }
        end
    }

    fn earliest_slot(slots: &[SimTime]) -> usize {
        let mut best = 0;
        for (i, &t) in slots.iter().enumerate() {
            if t < slots[best] {
                best = i;
            }
        }
        best
    }

    /// Locality-aware placement: prefer the executor that holds (or last
    /// produced) the output block or any narrow-lineage ancestor of it;
    /// otherwise spread deterministically by partition index. The visited
    /// set keeps diamond-shaped narrow lineage linear instead of
    /// combinatorial.
    fn pick_executor(&self, plan: &Plan, rdd: RddId, part: usize) -> Result<ExecutorId> {
        let mut stack = vec![rdd];
        let mut visited: FxHashSet<RddId> = FxHashSet::default();
        while let Some(cur) = stack.pop() {
            if !visited.insert(cur) {
                continue;
            }
            if let Some(&home) = self.stores.block_home.get(&BlockId::new(cur, part as u32)) {
                return Ok(home);
            }
            for dep in &plan.node(cur)?.deps {
                if let Dep::Narrow(parent) = dep {
                    stack.push(*parent);
                }
            }
        }
        Ok(ExecutorId((part % self.config.executors) as u32))
    }

    // ---- Cache placement --------------------------------------------------

    /// Tries to place `block` in `exec`'s memory store, running the
    /// controller's eviction path if space is needed. Returns true on
    /// success; on failure consults `on_admission_failure`. `trace_at` and
    /// `decision` stamp the emitted record (admission vs. promotion).
    fn try_cache_memory(
        &mut self,
        exec: ExecutorId,
        info: &BlockInfo,
        block: Block,
        charge: &mut TaskCharge,
        trace_at: SimTime,
        decision: CacheDecision,
    ) -> bool {
        let e = exec.raw() as usize;
        let serialized = self.controller.serialized_in_memory();
        let footprint = if serialized {
            info.bytes.scale(self.controller.memory_footprint_factor())
        } else {
            info.bytes
        };

        if !self.stores.mem[e].fits(footprint) {
            let needed = footprint.saturating_sub(self.stores.mem[e].free());
            // Candidates exclude the incoming block's own RDD (Spark rule).
            let resident: Vec<BlockInfo> = self.stores.mem[e]
                .iter()
                .filter(|(bid, _)| bid.rdd != info.id.rdd)
                .map(|(bid, sb)| BlockInfo {
                    id: *bid,
                    bytes: sb.logical_bytes,
                    ser_factor: sb.ser_factor,
                    executor: exec,
                })
                .collect();
            let ctx = self.ctrl_ctx(self.clock_floor);
            let victims = self.controller.choose_victims(&ctx, exec, needed, info, &resident);
            for (vid, action) in victims {
                if vid.rdd == info.id.rdd {
                    continue;
                }
                if self.stores.mem[e].fits(footprint) {
                    break;
                }
                self.evict_one(exec, vid, action, charge, trace_at);
            }
        }

        if self.stores.mem[e].fits(footprint) {
            if serialized {
                // Writing through a serialized external store costs
                // serialization even on the memory tier (§7.1 Alluxio).
                charge.external_store_io +=
                    self.config.hardware.ser_time(info.bytes, info.ser_factor);
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
            self.stores.block_home.insert(info.id, exec);
            let ctx = self.ctrl_ctx(self.clock_floor);
            self.controller.on_inserted(&ctx, info, StoreTier::Memory);
            if fresh {
                let why = if self.trace.is_some() {
                    self.controller.explain_block(info.id)
                } else {
                    None
                };
                self.emit_cache(trace_at, exec, info.id, info.bytes, decision, why);
            }
            let mem_total: ByteSize = self.stores.mem.iter().map(BlockStore::used).sum();
            self.metrics.memory_bytes_peak = self.metrics.memory_bytes_peak.max(mem_total);
            true
        } else {
            let ctx = self.ctrl_ctx(self.clock_floor);
            if self.controller.on_admission_failure(&ctx, info) == Admission::Disk {
                self.spill_to_disk(exec, info, block, charge, trace_at);
            }
            false
        }
    }

    /// Evicts one memory-resident block with the given action. The evicting
    /// policy's rationale is captured *before* the decision is applied (its
    /// belief about the victim at decision time).
    fn evict_one(
        &mut self,
        exec: ExecutorId,
        vid: BlockId,
        action: VictimAction,
        charge: &mut TaskCharge,
        trace_at: SimTime,
    ) {
        let e = exec.raw() as usize;
        let why = if self.trace.is_some() { self.controller.explain_block(vid) } else { None };
        let Some(sb) = self.stores.mem[e].remove(vid) else { return };
        let decision = if action == VictimAction::ToDisk {
            CacheDecision::EvictToDisk
        } else {
            CacheDecision::EvictDiscard
        };
        self.emit_cache(trace_at, exec, vid, sb.logical_bytes, decision, why);
        let ctx = self.ctrl_ctx(self.clock_floor);
        self.controller.on_evicted(&ctx, vid);
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
                self.metrics.disk_bytes_written += logical;
                let info = BlockInfo { id: vid, bytes: logical, ser_factor: 1.0, executor: exec };
                let ctx = self.ctrl_ctx(self.clock_floor);
                self.controller.on_inserted(&ctx, &info, StoreTier::Disk);
            }
        }
    }

    /// Writes a block straight to the disk store (admission or spill).
    fn spill_to_disk(
        &mut self,
        exec: ExecutorId,
        info: &BlockInfo,
        block: Block,
        charge: &mut TaskCharge,
        trace_at: SimTime,
    ) {
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
            self.metrics.disk_bytes_written += info.bytes;
            self.stores.block_home.insert(info.id, exec);
            let ctx = self.ctrl_ctx(self.clock_floor);
            self.controller.on_inserted(&ctx, info, StoreTier::Disk);
            self.emit_cache(trace_at, exec, info.id, info.bytes, CacheDecision::AdmitDisk, None);
        }
    }

    /// Integrity checksum for a block being written to the disk tier, with
    /// the seeded corruption injection applied: the coin of
    /// [`crate::fault::FaultPlan::spill_corrupted`] flips one checksum bit,
    /// which the next read detects and quarantines. Returns `None` (stamp
    /// nothing, verify nothing) while corruption injection is off, keeping
    /// the fault-free path byte-identical. Only called from the serial
    /// commit phase, so the per-block sequence stream is deterministic.
    fn stamp_spill(&mut self, id: BlockId, logical: ByteSize, ser_factor: f64) -> Option<u64> {
        let fault = &self.config.fault;
        if fault.spill_corruption_rate <= 0.0 {
            return None;
        }
        let seq = {
            let counter = self.spill_seq.entry(id).or_insert(0);
            let seq = *counter;
            *counter += 1;
            seq
        };
        let mut ck = spill_checksum(id, logical, ser_factor);
        if self.config.fault.spill_corrupted(id.rdd.raw(), id.partition, seq) {
            ck ^= 1u64 << self.config.fault.corruption_bit(id.rdd.raw(), id.partition, seq);
        }
        Some(ck)
    }

    /// Drops a corrupt disk-tier block detected by checksum mismatch and
    /// attributes the quarantine. A no-op if the block is already gone
    /// (several tasks of one stage may detect the same corruption).
    fn quarantine_spill(&mut self, exec: ExecutorId, id: BlockId, bytes: ByteSize, at: SimTime) {
        let e = exec.raw() as usize;
        if self.stores.disk[e].remove(id).is_none() {
            return;
        }
        self.emit(TraceEvent::SpillQuarantined { at, executor: exec, id, bytes });
    }

    // ---- Off-task state transitions ----------------------------------------

    /// Applies controller-requested state transitions. Data movement charges
    /// disk I/O time and occupies one executor slot, like a small task.
    /// `at` stamps the trace records (the hook's simulated time).
    fn apply_commands(&mut self, _plan: &Plan, at: SimTime, cmds: Vec<StateCommand>) {
        for cmd in cmds {
            match cmd {
                StateCommand::UnpersistRdd(rdd) => self.unpersist_rdd(rdd, at),
                StateCommand::UnpersistBlock(id) => {
                    for e in 0..self.config.executors {
                        if let Some(sb) = self.stores.mem[e].remove(id) {
                            let ctx = self.ctrl_ctx(self.clock_floor);
                            self.controller.on_evicted(&ctx, id);
                            self.emit_unpersist(at, e, id, sb.logical_bytes, false);
                        }
                        if let Some(sb) = self.stores.disk[e].remove(id) {
                            self.emit_unpersist(at, e, id, sb.logical_bytes, true);
                        }
                    }
                }
                StateCommand::SpillToDisk(id) => {
                    let Some(e) =
                        (0..self.config.executors).find(|&e| self.stores.mem[e].contains(id))
                    else {
                        continue;
                    };
                    let exec = ExecutorId(e as u32);
                    let mut charge = TaskCharge::default();
                    self.evict_one(exec, id, VictimAction::ToDisk, &mut charge, at);
                    self.charge_migration(exec, &charge);
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
        let Some(e) = (0..self.config.executors).find(|&e| self.stores.mem[e].contains(id)) else {
            return;
        };
        let Some(sb) = self.stores.mem[e].get(id).cloned() else { return };
        if sb.serialized == serialize {
            return;
        }
        let hw = self.config.hardware;
        let logical = sb.logical_bytes;
        let (stored_bytes, io, decision) = if serialize {
            // Shrinking never fails the capacity check.
            let scaled = logical.scale(hw.ser_footprint);
            (scaled, hw.ser_time(logical, sb.ser_factor), CacheDecision::SerializeInMemory)
        } else {
            // Best effort: expanding back to the full footprint must fit
            // (the replacement frees the scaled bytes first).
            if self.stores.mem[e].free() + sb.stored_bytes < logical {
                return;
            }
            (logical, hw.deser_time(logical, sb.ser_factor), CacheDecision::DeserializeInMemory)
        };
        let ok = self.stores.mem[e]
            .insert(id, StoredBlock { stored_bytes, serialized: serialize, ..sb });
        debug_assert!(ok);
        let exec = ExecutorId(e as u32);
        self.emit_cache(at, exec, id, logical, decision, None);
        self.charge_migration(exec, &TaskCharge { external_store_io: io, ..Default::default() });
    }

    /// Moves a disk-resident block into its executor's memory, best effort
    /// (only into free space): deserialized (d -> m), or — `serialized` — as
    /// the already-serialized bytes (d -> s), a raw disk read without the
    /// deserialization leg.
    fn promote(&mut self, id: BlockId, at: SimTime, serialized: bool) {
        let Some(e) = (0..self.config.executors).find(|&e| self.stores.disk[e].contains(id)) else {
            return;
        };
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
        let ctx = self.ctrl_ctx(self.clock_floor);
        self.controller.on_inserted(&ctx, &info, tier);
        if fresh {
            self.emit_cache(at, exec, id, info.bytes, decision, None);
        }
        // Prefetch overlaps with computation (MRD's design): record the I/O
        // but do not block a slot.
        self.metrics.accumulated.disk_cache_read += read;
    }

    /// Charges a data-movement operation to the executor's least-loaded slot
    /// and to the accumulated metrics.
    fn charge_migration(&mut self, exec: ExecutorId, charge: &TaskCharge) {
        let e = exec.raw() as usize;
        let slot = Self::earliest_slot(&self.slots[e]);
        self.slots[e][slot] = self.slots[e][slot].max(self.clock_floor) + charge.total();
        self.metrics.accumulated.merge(charge);
    }

    /// Drops every block of `rdd` everywhere (the `unpersist()` API, or a
    /// controller's `UnpersistRdd`); `at` stamps the records.
    fn unpersist_rdd(&mut self, rdd: RddId, at: SimTime) {
        for e in 0..self.config.executors {
            for (vid, sb) in self.stores.mem[e].remove_rdd(rdd) {
                let ctx = self.ctrl_ctx(self.clock_floor);
                self.controller.on_evicted(&ctx, vid);
                self.emit_unpersist(at, e, vid, sb.logical_bytes, false);
            }
            for (vid, sb) in self.stores.disk[e].remove_rdd(rdd) {
                self.emit_unpersist(at, e, vid, sb.logical_bytes, true);
            }
        }
    }

    /// Emits one unpersist decision (one per tier removal); the fold
    /// attributes it to the app that owns the block.
    fn emit_unpersist(&mut self, at: SimTime, e: usize, id: BlockId, bytes: ByteSize, disk: bool) {
        let decision =
            if disk { CacheDecision::UnpersistDisk } else { CacheDecision::UnpersistMemory };
        self.emit_cache(at, ExecutorId(e as u32), id, bytes, decision, None);
    }

    // ---- Fault injection ---------------------------------------------------

    /// Destroys executor `e`'s cached state: memory and disk stores are
    /// wiped (with controller eviction notifications), and — when the
    /// fault plan disables the external shuffle service — every shuffle
    /// output the executor produced. The machine itself is immediately
    /// replaced: subsequent tasks may be placed on the same index again,
    /// they just find its stores empty.
    fn wipe_executor(&mut self, e: usize, at: SimTime) {
        let exec = ExecutorId(e as u32);
        let mut lost: Vec<(BlockId, ByteSize, CacheDecision)> = Vec::new();
        for (store, decision) in [
            (&mut self.stores.mem[e], CacheDecision::LostMemory),
            (&mut self.stores.disk[e], CacheDecision::LostDisk),
        ] {
            let ids: Vec<BlockId> = store.iter().map(|(id, _)| *id).collect();
            for id in ids {
                if let Some(sb) = store.remove(id) {
                    lost.push((id, sb.logical_bytes, decision));
                }
            }
        }
        let blocks_lost = lost.len() as u64;
        let bytes_lost: ByteSize = lost.iter().map(|&(_, bytes, _)| bytes).sum();
        for (id, bytes, decision) in lost {
            // The eviction notification lets stateful controllers drop their
            // residency belief; clearing `materialized_once` keeps the later
            // rebuild classified as recovery work rather than a
            // policy-caused recomputation.
            let ctx = self.ctrl_ctx(self.clock_floor);
            self.controller.on_evicted(&ctx, id);
            self.stores.block_home.remove(&id);
            self.stores.materialized_once.remove(&id);
            self.stores.lost_blocks.insert(id);
            self.emit_cache(at, exec, id, bytes, decision, None);
        }
        let mut map_outputs_lost = 0u64;
        if !self.config.fault.external_shuffle_service {
            let lost = self.stores.shuffle.drop_by_producer(exec);
            map_outputs_lost = lost.len() as u64;
            for ((child, dep_idx), map_part) in lost {
                self.emit(TraceEvent::MapOutputLost {
                    at,
                    child,
                    dep_idx: dep_idx as u32,
                    map_part: map_part as u32,
                });
            }
        }
        // The fold takes the block and byte tallies from this summary (and
        // the map-output count from the per-output events above).
        self.emit(TraceEvent::ExecutorCrashed {
            at,
            executor: exec,
            blocks_lost,
            bytes_lost,
            map_outputs_lost,
        });
    }

    /// Fires every scheduled crash whose time has passed while the cluster
    /// was idle (between jobs). Crashes are validated time-ordered and each
    /// fires exactly once.
    fn fire_idle_crashes(&mut self, now: SimTime) {
        while let Some(&crash) = self.config.fault.crashes.get(self.next_crash) {
            if crash.at > now {
                break;
            }
            self.next_crash += 1;
            self.wipe_executor(crash.executor, crash.at);
        }
    }

    /// Fires crashes that became due during a stage, at the task-commit
    /// boundary: the dead executor's stores are wiped and every not-yet-
    /// committed task placed on it is lost and re-executed on the next
    /// surviving executor (against the post-crash state, continuing the
    /// task's attempt sequence).
    #[allow(clippy::too_many_arguments)]
    fn handle_due_crashes(
        &mut self,
        plan: &Plan,
        job: JobId,
        stage_output: RddId,
        stage_index: u32,
        stage_consumers: &[(RddId, usize)],
        placements: &mut [ExecutorId],
        outputs: &mut [Option<Result<TaskOutput>>],
        next_commit: usize,
        now: SimTime,
    ) {
        while let Some(&crash) = self.config.fault.crashes.get(self.next_crash) {
            if crash.at > now {
                break;
            }
            self.next_crash += 1;
            let e = crash.executor;
            self.wipe_executor(e, crash.at);

            for q in next_commit..outputs.len() {
                if placements[q].raw() as usize != e {
                    continue;
                }
                let Some(prev) = outputs[q].take() else { continue };
                let prev = match prev {
                    Ok(prev) => prev,
                    Err(err) => {
                        // Already-failed tasks stay failed; the job aborts
                        // at their commit slot as before.
                        outputs[q] = Some(Err(err));
                        continue;
                    }
                };
                // The in-flight attempt dies with the executor; its prior
                // failed attempts (if any) replay unchanged.
                let mut prior: Vec<TaskEvent> = prev
                    .events
                    .into_iter()
                    .filter(|ev| matches!(ev, TaskEvent::Failed { .. }))
                    .collect();
                prior.push(TaskEvent::Failed {
                    attempt: prior.len() as u32,
                    cause: FaultCause::ExecutorLost,
                    wasted: prev.charge.total(),
                });
                let survivor = ExecutorId(((e + 1) % self.config.executors) as u32);
                placements[q] = survivor;
                let base_attempt = prior.len() as u32;
                let view = ExecView {
                    stores: &self.stores,
                    config: &self.config,
                    serialized_in_memory: self.controller.serialized_in_memory(),
                    fault_coords: Some((job, stage_index)),
                };
                let rerun = execute_task(
                    &view,
                    plan,
                    stage_output,
                    q,
                    survivor,
                    stage_consumers,
                    base_attempt,
                );
                outputs[q] = Some(rerun.map(|mut out| {
                    prior.extend(std::mem::take(&mut out.events));
                    out.events = prior;
                    out
                }));
            }
        }
    }

    /// Draws the per-job map-output-loss coin over every registered shuffle
    /// output (in sorted key order, so draws are independent of hash-map
    /// iteration order). Only active without an external shuffle service.
    fn inject_map_output_loss(&mut self, job: JobId) {
        if self.config.fault.external_shuffle_service
            || self.config.fault.map_output_loss_rate <= 0.0
        {
            return;
        }
        for ((child, dep_idx), map_part) in self.stores.shuffle.keys_sorted() {
            if self.config.fault.map_output_lost(job.raw(), child.raw(), dep_idx, map_part)
                && self.stores.shuffle.drop_map_output((child, dep_idx), map_part)
            {
                self.emit(TraceEvent::MapOutputLost {
                    at: self.clock_floor,
                    child,
                    dep_idx: dep_idx as u32,
                    map_part: map_part as u32,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::NoCacheController;
    use blaze_dataflow::Context;

    fn cluster(controller: Box<dyn CacheController>) -> (Context, Cluster) {
        let config = ClusterConfig {
            executors: 2,
            slots_per_executor: 2,
            memory_capacity: ByteSize::from_kib(64),
            ..Default::default()
        };
        let cluster = Cluster::new(config, controller).unwrap();
        (Context::new(cluster.clone()), cluster)
    }

    /// A controller that caches everything it can in memory, LRU-free
    /// (evicts nothing): admission simply fails when memory is full.
    #[derive(Default)]
    struct GreedyMem;
    impl CacheController for GreedyMem {
        fn name(&self) -> String {
            "GreedyMem".into()
        }
        fn should_cache(&mut self, _: &CtrlCtx, _: &BlockInfo, _annotated: bool) -> bool {
            true
        }
    }

    /// A caching-everything controller with insertion-order eviction
    /// (alternating spill/discard) and a self-explaining rationale — enough
    /// to exercise every cache-decision kind in the trace tests.
    #[derive(Default)]
    struct EvictingLru {
        order: Vec<BlockId>,
    }
    impl CacheController for EvictingLru {
        fn name(&self) -> String {
            "EvictingLru".into()
        }
        fn should_cache(&mut self, _: &CtrlCtx, _: &BlockInfo, _annotated: bool) -> bool {
            true
        }
        fn choose_victims(
            &mut self,
            _ctx: &CtrlCtx,
            _exec: ExecutorId,
            _needed: ByteSize,
            _incoming: &BlockInfo,
            resident: &[BlockInfo],
        ) -> Vec<(BlockId, VictimAction)> {
            let mut ids: Vec<BlockId> = resident.iter().map(|b| b.id).collect();
            ids.sort_unstable_by_key(|id| self.order.iter().position(|o| o == id));
            ids.into_iter()
                .enumerate()
                .map(|(i, id)| {
                    (id, if i % 2 == 0 { VictimAction::ToDisk } else { VictimAction::Discard })
                })
                .collect()
        }
        fn on_admission_failure(&mut self, _: &CtrlCtx, _: &BlockInfo) -> Admission {
            Admission::Disk
        }
        fn readmit_after_disk_read(&mut self, _: &CtrlCtx, _: &BlockInfo) -> Admission {
            Admission::Memory
        }
        fn explain_block(&self, id: BlockId) -> Option<String> {
            self.order.iter().position(|o| *o == id).map(|p| format!("lru: position {p}"))
        }
        fn on_inserted(&mut self, _: &CtrlCtx, info: &BlockInfo, tier: StoreTier) {
            if tier.in_memory() && !self.order.contains(&info.id) {
                self.order.push(info.id);
            }
        }
        fn on_evicted(&mut self, _: &CtrlCtx, id: BlockId) {
            self.order.retain(|o| *o != id);
        }
        fn on_access(&mut self, _: &CtrlCtx, id: BlockId) {
            if let Some(p) = self.order.iter().position(|o| *o == id) {
                let b = self.order.remove(p);
                self.order.push(b);
            }
        }
    }

    #[test]
    fn computes_correct_results() {
        let (ctx, _cluster) = cluster(Box::new(NoCacheController));
        let ds = ctx.range(0..1000, 8);
        let sum: u64 = ds.map(|x| x * 2).collect().unwrap().into_iter().sum();
        assert_eq!(sum, 999 * 1000);
    }

    #[test]
    fn shuffle_through_engine_is_correct() {
        let (ctx, _cluster) = cluster(Box::new(NoCacheController));
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i % 4, i)).collect();
        let mut out = ctx.parallelize(pairs, 4).reduce_by_key(2, |a, b| a + b).collect().unwrap();
        out.sort();
        let expected: Vec<(u64, u64)> =
            (0..4).map(|k| (k, (0..100).filter(|i| i % 4 == k).sum::<u64>())).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn reduce_task_is_charged_for_exactly_the_bytes_it_fetched() {
        let (ctx, cl) = cluster(Box::new(NoCacheController));
        let pairs: Vec<(u64, u64)> = (0..1000).map(|i| (i % 37, i)).collect();
        let parted = ctx.parallelize(pairs, 4).partition_by(3);
        let blocks = ctx.run_job(parted.id()).unwrap();
        let hw = ClusterConfig::default().hardware;
        let m = cl.metrics();
        for (p, block) in blocks.iter().enumerate() {
            // `partition_by` concatenates its buckets unchanged, so a reduce
            // task's output is exactly as large as what it fetched.
            let fetched = block.bytes();
            assert!(!fetched.is_zero());
            let task = m
                .task_traces
                .iter()
                .find(|t| t.stage_output == parted.id() && t.partition as usize == p)
                .expect("one reduce task per partition");
            assert_eq!(
                task.charge.shuffle_fetch,
                hw.network_time(fetched) + hw.deser_time(fetched, 1.0)
            );
        }
    }

    #[test]
    fn wide_shuffle_matches_local_runner_and_runs_each_map_side_once() {
        use blaze_dataflow::runner::LocalRunner;
        use std::sync::atomic::{AtomicUsize, Ordering};
        const P: usize = 64;
        // The same 64 x 64 shuffle (most buckets empty) on any backend, its
        // map side wrapped to count calls.
        fn run(ctx: &Context) -> (Vec<Vec<(u64, u64)>>, usize) {
            let pairs: Vec<(u64, u64)> = (0..4000).map(|i| (i % 300, i)).collect();
            let summed = ctx.parallelize(pairs, P).reduce_by_key(P, |a, b| a + b);
            let calls = Arc::new(AtomicUsize::new(0));
            {
                let mut plan = ctx.plan().write();
                let node = plan.node_mut(summed.id()).unwrap();
                let Dep::Shuffle { map_side, .. } = &mut node.deps[0] else {
                    panic!("reduce_by_key reads through a shuffle");
                };
                let (inner, calls) = (Arc::clone(map_side), Arc::clone(&calls));
                *map_side = Arc::new(move |block, n| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    inner(block, n)
                });
            }
            let blocks = ctx.run_job(summed.id()).unwrap();
            let parts = blocks.iter().map(|b| b.to_vec::<(u64, u64)>("t").unwrap()).collect();
            (parts, calls.load(Ordering::Relaxed))
        }
        let (reference, local_calls) = run(&Context::new(LocalRunner::new()));
        let (ctx, _cluster) = cluster(Box::new(NoCacheController));
        let (got, cluster_calls) = run(&ctx);
        assert_eq!(reference.len(), P);
        assert_eq!(reference.iter().map(Vec::len).sum::<usize>(), 300);
        assert_eq!(got, reference, "same records in the same order in every partition");
        assert_eq!(local_calls, P, "LocalRunner memoizes a map task's buckets across reducers");
        assert_eq!(cluster_calls, P);
    }

    #[test]
    fn simulated_time_advances_and_is_deterministic() {
        let run = || {
            let (ctx, cluster) = cluster(Box::new(NoCacheController));
            let ds = ctx.range(0..10_000, 8).map(|x| x + 1);
            ds.count().unwrap();
            cluster.metrics().completion_time
        };
        let t1 = run();
        let t2 = run();
        assert!(t1 > SimTime::ZERO);
        assert_eq!(t1, t2);
    }

    #[test]
    fn caching_avoids_recomputation() {
        // Without caching, a reused dataset recomputes; with caching it hits.
        let (ctx, cl) = cluster(Box::new(GreedyMem));
        let ds = ctx.range(0..1000, 4).map(|x| x * 3);
        ds.cache();
        ds.count().unwrap();
        ds.count().unwrap();
        let m = cl.metrics();
        assert!(m.mem_hits >= 4, "expected memory hits on second job, got {}", m.mem_hits);
        assert_eq!(m.total_recompute_time(), SimDuration::ZERO);

        let (ctx2, cl2) = cluster(Box::new(NoCacheController));
        let ds2 = ctx2.range(0..1000, 4).map(|x| x * 3);
        ds2.cache();
        ds2.count().unwrap();
        ds2.count().unwrap();
        let m2 = cl2.metrics();
        assert_eq!(m2.mem_hits, 0);
        assert!(m2.total_recompute_time() > SimDuration::ZERO);
        // Recomputation makes the uncached run slower.
        assert!(m2.completion_time > cl.metrics().completion_time);
    }

    #[test]
    fn map_stages_are_skipped_when_shuffle_outputs_exist() {
        let (ctx, cl) = cluster(Box::new(NoCacheController));
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i % 4, i)).collect();
        let reduced = ctx.parallelize(pairs, 4).reduce_by_key(2, |a, b| a + b);
        reduced.count().unwrap();
        assert_eq!(cl.metrics().stages_skipped, 0);
        reduced.count().unwrap();
        // Second job skips the map stage: shuffle outputs persist.
        assert_eq!(cl.metrics().stages_skipped, 1);
    }

    /// Caches exactly the annotated datasets (no eviction support).
    #[derive(Default)]
    struct ObeyAnnotations;
    impl CacheController for ObeyAnnotations {
        fn name(&self) -> String {
            "ObeyAnnotations".into()
        }
    }

    #[test]
    fn unpersist_drops_cached_blocks() {
        let (ctx, cl) = cluster(Box::new(ObeyAnnotations));
        let ds = ctx.range(0..100, 2).map(|x| x + 1);
        ds.cache();
        ds.count().unwrap();
        assert!(cl.memory_used().iter().any(|b| !b.is_zero()));
        ds.unpersist();
        assert!(cl.memory_used().iter().all(|b| b.is_zero()));
    }

    #[test]
    fn admission_failure_skips_by_default() {
        // Memory too small for the dataset: GreedyMem never evicts, so some
        // blocks are simply not cached; run still completes correctly.
        let config = ClusterConfig {
            executors: 1,
            slots_per_executor: 1,
            memory_capacity: ByteSize::from_kib(2),
            ..Default::default()
        };
        let cl = Cluster::new(config, Box::new(GreedyMem)).unwrap();
        let ctx = Context::new(cl.clone());
        let ds = ctx.range(0..10_000, 4); // ~80KB total
        ds.cache();
        assert_eq!(ds.count().unwrap(), 10_000);
        let used = cl.memory_used()[0];
        assert!(used <= ByteSize::from_kib(2));
    }

    #[test]
    fn tasks_spread_across_executors() {
        let (ctx, cl) = cluster(Box::new(GreedyMem));
        let ds = ctx.range(0..1000, 4).map(|x| x + 1);
        ds.cache();
        ds.count().unwrap();
        let used = cl.memory_used();
        assert!(used.iter().filter(|b| !b.is_zero()).count() >= 2, "{used:?}");
    }

    #[test]
    fn full_disk_store_degrades_gracefully() {
        // Disk capacity smaller than one block: spills fail, data is
        // simply dropped, and results stay correct.
        let config = ClusterConfig {
            executors: 1,
            slots_per_executor: 1,
            memory_capacity: ByteSize::from_kib(4),
            disk_capacity: ByteSize::from_bytes(16),
            ..Default::default()
        };
        /// LRU-free MEM+DISK-style controller: always spills on failure.
        struct SpillHappy;
        impl CacheController for SpillHappy {
            fn name(&self) -> String {
                "SpillHappy".into()
            }
            fn should_cache(&mut self, _: &CtrlCtx, _: &BlockInfo, _a: bool) -> bool {
                true
            }
            fn on_admission_failure(
                &mut self,
                _: &CtrlCtx,
                _: &BlockInfo,
            ) -> crate::controller::Admission {
                crate::controller::Admission::Disk
            }
        }
        let cl = Cluster::new(config, Box::new(SpillHappy)).unwrap();
        let ctx = Context::new(cl.clone());
        let ds = ctx.range(0..5_000, 4).map(|x| x * 2);
        ds.cache();
        let total: u64 = ds.collect().unwrap().into_iter().sum();
        assert_eq!(total, (0..5_000u64).map(|x| x * 2).sum::<u64>());
        // Nothing could actually persist on the 16-byte disk.
        assert!(cl.disk_used()[0] <= ByteSize::from_bytes(16));
    }

    #[test]
    fn skipped_stages_still_notify_the_controller() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        struct CountStages(Arc<AtomicU32>);
        impl CacheController for CountStages {
            fn name(&self) -> String {
                "CountStages".into()
            }
            fn on_stage_complete(
                &mut self,
                _: &CtrlCtx,
                _: blaze_common::ids::RddId,
                _: JobId,
                _: &Plan,
            ) -> Vec<StateCommand> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
        let count = Arc::new(AtomicU32::new(0));
        let (ctx, cl) = {
            let config = ClusterConfig { executors: 2, ..Default::default() };
            let cl = Cluster::new(config, Box::new(CountStages(Arc::clone(&count)))).unwrap();
            (Context::new(cl.clone()), cl)
        };
        let pairs: Vec<(u64, u64)> = (0..50).map(|i| (i % 4, i)).collect();
        let reduced = ctx.parallelize(pairs, 4).reduce_by_key(2, |a, b| a + b);
        reduced.count().unwrap(); // 2 stages run.
        reduced.count().unwrap(); // 1 skipped + 1 run.
        assert_eq!(cl.metrics().stages_skipped, 1);
        assert_eq!(count.load(Ordering::Relaxed), 4, "skipped stage must notify too");
    }

    #[test]
    fn task_traces_cover_the_whole_run() {
        let (ctx, cl) = cluster(Box::new(NoCacheController));
        let ds = ctx.range(0..500, 4).map(|x| x + 1);
        ds.count().unwrap();
        let m = cl.metrics();
        assert_eq!(m.task_traces.len() as u64, m.tasks);
        for t in &m.task_traces {
            assert!(t.end >= t.start);
            assert_eq!(t.duration(), t.charge.total());
        }
        // Busy time sums to the accumulated task time.
        let busy: blaze_common::SimDuration = m.busy_time_per_executor().values().copied().sum();
        assert_eq!(busy, m.accumulated.total());
    }

    #[test]
    fn zero_config_is_rejected() {
        let config = ClusterConfig { executors: 0, ..Default::default() };
        assert!(Cluster::new(config, Box::new(NoCacheController)).is_err());
    }

    /// The tentpole guarantee: metrics (and therefore ACT and all policy
    /// behaviour) are bit-identical across worker-thread counts.
    #[test]
    fn worker_thread_count_does_not_change_metrics() {
        let run = |threads: usize| {
            let config = ClusterConfig {
                executors: 2,
                slots_per_executor: 2,
                memory_capacity: ByteSize::from_kib(16),
                worker_threads: threads,
                ..Default::default()
            };
            let cl = Cluster::new(config, Box::new(GreedyMem)).unwrap();
            let ctx = Context::new(cl.clone());
            let pairs: Vec<(u64, u64)> = (0..2_000).map(|i| (i % 16, i)).collect();
            let ds = ctx.parallelize(pairs, 8).reduce_by_key(4, |a, b| a + b);
            ds.cache();
            ds.count().unwrap();
            let mut out = ds.map_values(|v| v + 1).collect().unwrap();
            out.sort();
            (out, cl.metrics())
        };
        let (r1, m1) = run(1);
        for threads in [2, 4, 7] {
            let (rn, mn) = run(threads);
            assert_eq!(r1, rn, "results diverged at {threads} threads");
            assert_eq!(m1, mn, "metrics diverged at {threads} threads");
        }
    }

    /// The tracing contract end to end: with tracing on, a run that caches,
    /// evicts, hits and recomputes yields a log that (a) validates cleanly
    /// against the metrics, (b) is byte-identical across worker_threads,
    /// and (c) leaves metrics byte-identical to a tracing-off run.
    #[test]
    fn trace_validates_and_is_thread_count_invariant() {
        let run = |threads: usize, tracing: bool| {
            let config = ClusterConfig {
                executors: 2,
                slots_per_executor: 2,
                memory_capacity: ByteSize::from_kib(16),
                worker_threads: threads,
                tracing,
                ..Default::default()
            };
            let cl = Cluster::new(config, Box::new(EvictingLru::default())).unwrap();
            let ctx = Context::new(cl.clone());
            let pairs: Vec<(u64, u64)> = (0..2_000).map(|i| (i % 16, i)).collect();
            let ds = ctx.parallelize(pairs, 8).reduce_by_key(4, |a, b| a + b);
            ds.cache();
            ds.count().unwrap();
            let extra = ds.map_values(|v| v * 3);
            extra.cache();
            extra.count().unwrap();
            ds.count().unwrap();
            (cl.metrics(), cl.trace())
        };
        let (m1, t1) = run(1, true);
        let t1 = t1.expect("tracing enabled");
        assert!(!t1.events().is_empty());
        let report = t1.validate(&m1);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        for threads in [2, 4] {
            let (mn, tn) = run(threads, true);
            assert_eq!(m1, mn, "metrics diverged at {threads} threads");
            assert_eq!(
                t1.chrome_json(),
                tn.expect("tracing enabled").chrome_json(),
                "trace diverged at {threads} threads"
            );
        }
        let (m_off, t_off) = run(1, false);
        assert!(t_off.is_none());
        assert_eq!(m1, m_off, "tracing changed engine behaviour");
    }

    /// A block can be resident in memory and on disk of one executor at
    /// once — two tasks of one stage regenerate it (every reduce task whose
    /// fetch retries run out re-materializes the shuffle's parent), the
    /// first copy is spilled, the second admitted to memory. Promoting such
    /// a block to serialized memory replaces the resident copy: no new
    /// admission, so no record, and `ser_transitions` follows the record.
    #[test]
    fn promoting_a_block_already_in_memory_keeps_the_audit_clean() {
        use crate::fault::FaultPlan;

        /// Caches only the annotated dataset, from the second stage on:
        /// to disk the first time an executor produces a block, to memory
        /// the second time; then promotes one such doubly-resident block.
        #[derive(Default)]
        struct SpillThenAdmit {
            armed: bool,
            produced: FxHashSet<(BlockId, ExecutorId)>,
            doubly_resident: Option<BlockId>,
        }
        impl CacheController for SpillThenAdmit {
            fn name(&self) -> String {
                "SpillThenAdmit".into()
            }
            fn should_cache(&mut self, _: &CtrlCtx, _: &BlockInfo, annotated: bool) -> bool {
                annotated && self.armed
            }
            fn admit(&mut self, _: &CtrlCtx, b: &BlockInfo) -> Admission {
                if self.produced.insert((b.id, b.executor)) {
                    Admission::Disk
                } else {
                    self.doubly_resident.get_or_insert(b.id);
                    Admission::Memory
                }
            }
            fn on_stage_complete(
                &mut self,
                _: &CtrlCtx,
                _: RddId,
                _: JobId,
                _: &Plan,
            ) -> Vec<StateCommand> {
                self.armed = true;
                self.doubly_resident
                    .take()
                    .map(StateCommand::PromoteToSerializedMemory)
                    .into_iter()
                    .collect()
            }
        }

        let run = |tracing: bool| {
            let config = ClusterConfig {
                executors: 2,
                slots_per_executor: 2,
                memory_capacity: ByteSize::from_kib(64),
                tracing,
                // Nearly every fetch attempt fails, so every reduce task
                // escalates to regenerating all four parent blocks.
                fault: FaultPlan {
                    fetch_failure_rate: 0.99,
                    max_fetch_retries: 1,
                    ..Default::default()
                },
                ..Default::default()
            };
            let cl = Cluster::new(config, Box::new(SpillThenAdmit::default())).unwrap();
            let ctx = Context::new(cl.clone());
            let pairs = ctx.parallelize((0..400u64).map(|i| (i % 16, i)).collect::<Vec<_>>(), 4);
            pairs.cache();
            pairs.reduce_by_key(4, |a, b| a + b).count().unwrap();
            cl
        };
        let cl = run(true);
        let (metrics, trace) = (cl.metrics(), cl.trace().expect("tracing enabled"));
        // Both executors spilled all four parent blocks and then admitted
        // them to memory; the promotion took one disk copy away from exec-0
        // without admitting anything.
        assert_eq!(metrics.recovery.fetch_escalations, 4, "every reduce task must escalate");
        let (disk, mem) = (cl.disk_used(), cl.memory_used());
        assert!(disk[0] < disk[1], "the promoted block's disk copy must be gone: {disk:?}");
        assert!(mem[0] < mem[1], "the promoted block must now be held serialized: {mem:?}");
        assert!(!trace.chrome_json().contains("promote-to-ser"));
        assert_eq!(metrics.ser_transitions, 0);
        let report = trace.validate(&metrics);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(metrics, run(false).metrics(), "tracing changed the metrics");
    }

    #[test]
    fn trace_validates_under_faults() {
        use crate::fault::{ExecutorCrash, FaultPlan};
        let config = ClusterConfig {
            executors: 2,
            slots_per_executor: 2,
            memory_capacity: ByteSize::from_kib(16),
            worker_threads: 2,
            tracing: true,
            fault: FaultPlan {
                task_failure_rate: 0.05,
                crashes: vec![ExecutorCrash {
                    at: SimTime::ZERO + SimDuration::from_micros(50),
                    executor: 0,
                }],
                external_shuffle_service: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let cl = Cluster::new(config, Box::new(EvictingLru::default())).unwrap();
        let ctx = Context::new(cl.clone());
        let pairs: Vec<(u64, u64)> = (0..2_000).map(|i| (i % 16, i)).collect();
        let ds = ctx.parallelize(pairs, 8).reduce_by_key(4, |a, b| a + b);
        ds.cache();
        ds.count().unwrap();
        ds.count().unwrap();
        let trace = cl.trace().expect("tracing enabled");
        let metrics = cl.metrics();
        assert!(metrics.recovery.executor_crashes > 0);
        let report = trace.validate(&metrics);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
    }
}
