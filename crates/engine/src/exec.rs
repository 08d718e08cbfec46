//! The execute phase: the frozen read side of a stage.
//!
//! Every task of a stage runs against an [`ExecView`] — shared borrows of the
//! stores, the configuration and the plan — and hands the commit phase a
//! [`TaskOutput`]: its [`TaskCharge`] plus an ordered log of cache-relevant
//! [`TaskEvent`]s. Nothing here mutates shared state, at any thread count:
//! this module can name [`Stores`] and [`ClusterConfig`] but not the engine's
//! mutable state, so the snapshot rule of DESIGN.md ("Engine execution
//! model") is a fact about this file's imports.

use crate::config::ClusterConfig;
use crate::controller::BlockInfo;
use crate::fault::FaultCause;
use crate::metrics::TaskCharge;
use crate::shuffle::ShuffleId;
use crate::storage::{spill_checksum, StoredBlock};
use crate::store_ops::{BlockMeta, Stores};
use blaze_common::error::{BlazeError, Result};
use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::{BlockId, ExecutorId, JobId, RddId};
use blaze_common::{ByteSize, SimDuration};
use blaze_dataflow::plan::{Compute, Dep, RddNode};
use blaze_dataflow::{Block, Plan};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Frozen, read-only view of the cluster a stage's tasks execute against.
///
/// Holding this by shared reference is what lets the execute phase run on
/// many threads: nothing behind it is mutated until every task of the stage
/// has returned.
pub(crate) struct ExecView<'a> {
    pub(crate) stores: &'a Stores,
    pub(crate) config: &'a ClusterConfig,
    /// Snapshot of `CacheController::serialized_in_memory` (the controller
    /// itself lives on the commit side).
    pub(crate) serialized_in_memory: bool,
    /// `(job, stage index)` coordinates for fault-injection coins, present
    /// only when the configured [`crate::fault::FaultPlan`] is enabled.
    /// `None` keeps the execute path entirely fault-free.
    pub(crate) fault_coords: Option<(JobId, u32)>,
    pub(crate) plan: &'a Plan,
    /// The dataset whose partitions the stage's tasks materialize.
    pub(crate) output: RddId,
    /// The `(child, dep index)` shuffles the stage output feeds in this job.
    pub(crate) consumers: &'a [(RddId, usize)],
}

/// One partition computed (or recomputed) from lineage.
pub(crate) struct ComputedBlock {
    pub(crate) info: BlockInfo,
    /// Time to compute the partition from its direct inputs (one edge).
    pub(crate) edge: SimDuration,
    pub(crate) recomputed: bool,
    pub(crate) annotated: bool,
    /// How deep below the task's stage output the block sits (0 = the
    /// output itself).
    pub(crate) depth: u32,
    pub(crate) block: Block,
}

/// A cache-relevant action observed while a task executed against the
/// frozen snapshot, to be replayed through the controller at commit.
/// Events carry the data (`Block`s are cheap `Arc` clones) so the commit
/// phase can perform admissions without re-running anything.
pub(crate) enum TaskEvent {
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
    /// Computed (or recomputed) from lineage.
    Computed(ComputedBlock),
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
pub(crate) struct TaskOutput {
    /// The stage-output partition the task materialized.
    pub(crate) block: Block,
    /// Simulated time charged by the execute side (reads, compute, shuffle).
    /// Commit-side charges (cache writes) are added during replay.
    pub(crate) charge: TaskCharge,
    /// Cache-relevant actions in recursion order.
    pub(crate) events: Vec<TaskEvent>,
    /// The slice of `charge` spent re-producing fault-lost data (lineage
    /// replay below lost blocks, regeneration of lost map outputs).
    pub(crate) recovery: SimDuration,
}

/// A cache probe that fell through to lineage.
struct Miss {
    /// The block's record, read once for the probe and the recompute.
    meta: BlockMeta,
    /// A disk copy was found but failed its checksum (recorded for the
    /// commit-side quarantine).
    corrupt: bool,
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
    fn materialize(&mut self, rdd: RddId, part: usize) -> Result<Block> {
        let id = BlockId::new(rdd, part as u32);
        if let Some(b) = self.computed.get(&id) {
            return Ok(b.clone());
        }
        match self.probe_cache(id) {
            Ok(block) => Ok(block),
            Err(miss) => self.compute_from_lineage(id, &miss),
        }
    }

    /// Records a memory hit and hands out the block.
    fn mem_hit(&mut self, id: BlockId, sb: &StoredBlock) -> Block {
        self.events.push(TaskEvent::MemHit {
            id,
            bytes: sb.logical_bytes,
            serialized: sb.serialized,
        });
        sb.block.clone()
    }

    /// The cache half of materialization: local memory, the home executor's
    /// memory, then disk (local first, then home).
    fn probe_cache(&mut self, id: BlockId) -> std::result::Result<Block, Miss> {
        let (view, exec) = (self.view, self.exec);
        let hw = &view.config.hardware;

        // 1. Local memory hit. An s-state block (or any block under the
        // store-global Alluxio mode) is read through a deserialization.
        if let Some(sb) = view.stores.mem[exec.raw() as usize].get(id) {
            if view.serialized_in_memory || sb.serialized {
                self.charge.external_store_io += hw.deser_time(sb.logical_bytes, sb.ser_factor);
            }
            return Ok(self.mem_hit(id, sb));
        }

        // 1b. Remote memory hit on the block's home executor: the network
        // transfer, then the same deserialization a local hit pays.
        let meta = view.stores.meta(id);
        let home = meta.home.filter(|&h| h != exec);
        if let Some(sb) = home.and_then(|h| view.stores.mem[h.raw() as usize].get(id)) {
            self.charge.shuffle_fetch += hw.network_time(sb.logical_bytes);
            if view.serialized_in_memory || sb.serialized {
                self.charge.external_store_io += hw.deser_time(sb.logical_bytes, sb.ser_factor);
            }
            return Ok(self.mem_hit(id, sb));
        }

        // 2. Disk hit (local first, then home).
        let mut corrupt = false;
        for cand in [Some(exec), home].into_iter().flatten() {
            let Some(sb) = view.stores.disk[cand.raw() as usize].get(id) else { continue };
            self.charge.disk_cache_read += hw.fetch_from_disk_time(sb.logical_bytes, sb.ser_factor);
            if cand != exec {
                self.charge.shuffle_fetch += hw.network_time(sb.logical_bytes);
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
                corrupt = true;
                continue;
            }
            // Promotion back into memory (paper §2.3) is a commit-side
            // decision: record where the block was found.
            self.events.push(TaskEvent::DiskHit { info, block: sb.block.clone() });
            return Ok(sb.block.clone());
        }
        Err(Miss { meta, corrupt })
    }

    /// The lineage half of materialization: runs the block's operator over
    /// its (recursively materialized) inputs and charges one compute edge.
    fn compute_from_lineage(&mut self, id: BlockId, miss: &Miss) -> Result<Block> {
        let (rdd, part) = (id.rdd, id.partition as usize);
        // A block destroyed by executor loss — or quarantined as a corrupt
        // spill — marks everything materialized beneath it as recovery work
        // (the depth counter survives the recursion below).
        let lost = miss.meta.lost || miss.corrupt;
        if lost {
            self.recovery_depth += 1;
        }
        let recomputed = miss.meta.materialized;
        let depth = self.lineage_depth;
        self.lineage_depth += 1;
        let view = self.view;
        let node = view.plan.node(rdd)?;
        let (block, in_elems, in_bytes) = match &node.compute {
            Compute::Source(gen) => {
                let b = gen(part)?;
                let (e_, b_) = (b.len() as u64, b.bytes().as_bytes());
                (b, e_, b_)
            }
            Compute::Narrow(f) => {
                let mut inputs = Vec::with_capacity(node.deps.len());
                for dep in &node.deps {
                    inputs.push(self.materialize(dep.parent(), part)?);
                }
                let in_elems: u64 = inputs.iter().map(|b| b.len() as u64).sum();
                let in_bytes: u64 = inputs.iter().map(|b| b.bytes().as_bytes()).sum();
                (f(part, &inputs)?, in_elems, in_bytes)
            }
            Compute::ShuffleAgg(agg) => {
                let (per_dep, in_elems, in_bytes) = self.shuffle_inputs(rdd, part, node)?;
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

        let info = BlockInfo {
            id,
            bytes: block.bytes(),
            ser_factor: node.ser_factor,
            executor: self.exec,
        };
        let annotated = node.cache_annotated && !node.unpersist_requested;
        self.events.push(TaskEvent::Computed(ComputedBlock {
            info,
            edge,
            recomputed,
            annotated,
            depth,
            block: block.clone(),
        }));
        self.computed.insert(id, block.clone());
        Ok(block)
    }

    /// Gathers a shuffle aggregation's inputs: per shuffle dependency, the
    /// buckets addressed to `part` from every map task. Returns them with
    /// the element and byte totals the compute edge is priced on.
    fn shuffle_inputs(
        &mut self,
        rdd: RddId,
        part: usize,
        node: &RddNode,
    ) -> Result<(Vec<Vec<Block>>, u64, u64)> {
        let view = self.view;
        let mut per_dep = Vec::with_capacity(node.deps.len());
        let (mut in_elems, mut in_bytes) = (0u64, 0u64);
        for (dep_idx, dep) in node.deps.iter().enumerate() {
            let Dep::Shuffle { parent, .. } = dep else {
                return Err(BlazeError::InvalidPlan(format!("{rdd}: shuffle agg with narrow dep")));
            };
            let shuffle: ShuffleId = (rdd, dep_idx);
            let parent_node = view.plan.node(*parent)?;
            let num_maps = parent_node.num_partitions;
            self.ensure_map_outputs(shuffle, *parent, num_maps)?;
            self.inject_fetch_failures(shuffle, *parent, num_maps, part as u32)?;
            let mut fetched = ByteSize::ZERO;
            let mut incoming = Vec::with_capacity(num_maps);
            for m in 0..num_maps {
                let b = self.fetch(shuffle, m, part).ok_or_else(|| {
                    BlazeError::Execution(format!("missing map output {rdd}/{dep_idx}/{m}"))
                })?;
                in_elems += b.len() as u64;
                fetched += b.bytes();
                incoming.push(b);
            }
            in_bytes += fetched.as_bytes();
            self.charge.shuffle_fetch += view.config.hardware.network_time(fetched)
                + view.config.hardware.deser_time(fetched, parent_node.ser_factor);
            per_dep.push(incoming);
        }
        Ok((per_dep, in_elems, in_bytes))
    }

    /// Ensures every map output of `shuffle` exists (they normally do;
    /// recovery across a missing shuffle regenerates them). An output that
    /// existed and was destroyed by a fault attributes its regeneration to
    /// recovery — Spark's fetch-failure parent-stage resubmission, inlined.
    fn ensure_map_outputs(
        &mut self,
        shuffle: ShuffleId,
        parent: RddId,
        num_maps: usize,
    ) -> Result<()> {
        for m in 0..num_maps {
            if self.has_map_output(shuffle, m) {
                continue;
            }
            let replaying = self.view.stores.shuffle.was_lost(shuffle, m);
            if replaying {
                self.recovery_depth += 1;
            }
            let parent_block = self.materialize(parent, m)?;
            self.write_map_output(shuffle, m, &parent_block)?;
            if replaying {
                self.recovery_depth -= 1;
            }
        }
        Ok(())
    }

    /// Injected shuffle-fetch failures: every attempt flips a seeded coin;
    /// each failure charges a capped exponential backoff on the simulated
    /// clock, and an exhausted retry budget escalates to regenerating the
    /// parent's map outputs through lineage — the inline form of Spark's
    /// parent-stage resubmission. The regenerated buckets shadow the
    /// (unreachable) snapshot ones via the task's shuffle overlay.
    fn inject_fetch_failures(
        &mut self,
        shuffle: ShuffleId,
        parent: RddId,
        num_maps: usize,
        reduce_part: u32,
    ) -> Result<()> {
        let Some((job, _)) = self.view.fault_coords else { return Ok(()) };
        let fault = &self.view.config.fault;
        if fault.fetch_failure_rate <= 0.0 {
            return Ok(());
        }
        let (child, dep_idx) = shuffle;
        let budget = fault.max_fetch_retries + 1;
        let mut failed = 0u32;
        while failed < budget
            && fault.fetch_attempt_fails(job.raw(), child.raw(), dep_idx, reduce_part, failed)
        {
            let backoff = fault.fetch_backoff(failed);
            self.charge.fetch_backoff += backoff;
            self.events.push(TaskEvent::FetchRetry {
                shuffle,
                reduce_part,
                attempt: failed,
                backoff,
            });
            failed += 1;
        }
        if failed == budget {
            self.recovery_depth += 1;
            for m in 0..num_maps {
                let parent_block = self.materialize(parent, m)?;
                self.force_write_map_output(shuffle, m, &parent_block)?;
            }
            self.recovery_depth -= 1;
            self.events.push(TaskEvent::FetchEscalated { shuffle, reduce_part });
        }
        Ok(())
    }

    /// Produces the map-side buckets of one shuffle for `map_part`, unless
    /// the snapshot (or this task) already has them.
    fn write_map_output(
        &mut self,
        shuffle: ShuffleId,
        map_part: usize,
        input: &Block,
    ) -> Result<()> {
        if self.has_map_output(shuffle, map_part) {
            return Ok(());
        }
        self.force_write_map_output(shuffle, map_part, input)
    }

    /// Re-produces map-side buckets unconditionally (fetch-failure
    /// escalation: the outputs exist in the snapshot but are unreachable,
    /// so the parent's map side re-runs and the fresh buckets shadow the
    /// snapshot's through the task overlay).
    fn force_write_map_output(
        &mut self,
        shuffle: ShuffleId,
        map_part: usize,
        input: &Block,
    ) -> Result<()> {
        let (child, dep_idx) = shuffle;
        let plan = self.view.plan;
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
/// `base_attempt` continues the transient-failure coin stream after an
/// executor-loss re-execution.
pub(crate) fn execute_task(
    view: &ExecView<'_>,
    part: usize,
    exec: ExecutorId,
    base_attempt: u32,
) -> Result<TaskOutput> {
    let mut task = TaskCtx::new(view, exec);
    let block = task.materialize(view.output, part)?;
    for &shuffle in view.consumers {
        task.write_map_output(shuffle, part, &block)?;
    }
    let mut events = task.events;

    // Injected transient failures: flip the deterministic per-attempt coin
    // until one attempt survives or the retry budget is exhausted. Every
    // failed attempt burns (the same) slot time; attempts replay in index
    // order through the serial commit, so metrics stay thread-count
    // independent.
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
                    "task {}[{part}] failed all {max} attempts (injected transient faults)",
                    view.output
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
pub(crate) fn execute_stage(
    view: &ExecView<'_>,
    placements: &[ExecutorId],
    worker_threads: usize,
) -> Vec<Result<TaskOutput>> {
    let n = placements.len();
    let workers = worker_threads.min(n);
    if workers <= 1 {
        return (0..n).map(|p| execute_task(view, p, placements[p], 0)).collect();
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
                        done.push((p, execute_task(view, p, placements[p], 0)));
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
                Err(BlazeError::Execution(format!(
                    "partition {p} of {} never executed",
                    view.output
                )))
            })
        })
        .collect()
}
