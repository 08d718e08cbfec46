//! The commit phase: serial, partition-index order.
//!
//! A committed task is assigned the earliest slot of its executor, its
//! [`TaskEvent`] log is replayed through the [`CacheController`] hooks (one
//! handler per event kind; admissions may add cache-write charges), and the
//! accounting events are emitted. Also here because they decide *where and
//! when* a task commits: locality placement and the straggler/speculation
//! race.
//!
//! [`CacheController`]: crate::controller::CacheController

use crate::cluster::ClusterState;
use crate::controller::{Admission, BlockInfo, PartitionEvent};
use crate::exec::{ComputedBlock, TaskEvent, TaskOutput};
use crate::fault::FaultCause;
use crate::metrics::{TaskCharge, TaskTrace};
use crate::shuffle::ShuffleId;
use crate::tracing::{CacheDecision, TraceEvent};
use blaze_common::error::Result;
use blaze_common::fxhash::FxHashSet;
use blaze_common::ids::{BlockId, ExecutorId, JobId, RddId};
use blaze_common::{ByteSize, SimDuration, SimTime};
use blaze_dataflow::plan::Dep;
use blaze_dataflow::{Block, Buckets, Plan};

/// Which task is committing, where, and no earlier than when.
#[derive(Clone, Copy)]
pub(crate) struct TaskCoords {
    pub(crate) job: JobId,
    pub(crate) stage_output: RddId,
    pub(crate) part: usize,
    pub(crate) exec: ExecutorId,
    /// Launch floor: the stage's dependency-driven start, or — for a
    /// speculative copy — the moment the original had provably blown the
    /// stage deadline, even if the copy executor has an idle slot earlier.
    pub(crate) start: SimTime,
}

/// What one task's replay carries from handler to handler.
struct Replay {
    task: TaskCoords,
    /// The task's start on its slot; stamps every record of the replay.
    t0: SimTime,
    /// The execute-side charge, grown by commit-side cache writes.
    charge: TaskCharge,
    /// Next expected failed-attempt index (the coin stream is contiguous).
    next_attempt: u32,
}

impl ClusterState {
    /// Commits one executed task: assigns it the earliest slot of its
    /// executor, replays its event log through the controller (which may
    /// add cache-write charges), and emits the accounting events.
    /// Returns the task's simulated end time.
    pub(crate) fn commit_task(&mut self, task: TaskCoords, output: TaskOutput) -> SimTime {
        let TaskCoords { job, stage_output, part, exec, start } = task;
        let e = exec.raw() as usize;
        let slot = Self::earliest_slot(&self.slots[e]);
        let t0 = self.slots[e][slot].max(start);
        let mut replay = Replay { task, t0, charge: output.charge, next_attempt: 0 };
        for event in output.events {
            self.replay_event(&mut replay, event);
        }

        let partition = part as u32;
        if output.recovery > SimDuration::ZERO {
            let duration = output.recovery;
            self.acct.emit(TraceEvent::RecoveryReplay {
                at: t0,
                job,
                stage_output,
                partition,
                duration,
            });
        }
        let charge = replay.charge;
        let end = t0 + charge.total();
        self.acct.emit(TraceEvent::TaskCommitted(TaskTrace {
            job,
            stage_output,
            partition,
            executor: exec,
            slot: slot as u32,
            start: t0,
            end,
            charge,
        }));
        self.slots[e][slot] = end;
        end
    }

    /// Replays one logged event: one handler per [`TaskEvent`] kind.
    fn replay_event(&mut self, replay: &mut Replay, event: TaskEvent) {
        let (at, job) = (replay.t0, replay.task.job);
        match event {
            TaskEvent::Failed { attempt, cause, wasted } => {
                self.replay_failed_attempt(replay, attempt, cause, wasted);
            }
            TaskEvent::MemHit { id, bytes, serialized } => {
                self.replay_mem_hit(replay, id, bytes, serialized);
            }
            TaskEvent::DiskHit { info, block } => self.replay_disk_hit(replay, info, block),
            TaskEvent::Computed(computed) => self.replay_computed(replay, computed),
            TaskEvent::MapOutput { shuffle, map_part, buckets } => {
                self.replay_map_output(replay, shuffle, map_part, buckets);
            }
            TaskEvent::CorruptSpill { info } => {
                // Quarantine: drop the corrupt block from the disk tier (the
                // remove-guard deduplicates detections by several tasks of
                // one stage). Lineage re-produces the data.
                self.quarantine_spill(info.executor, info.id, info.bytes, at);
            }
            TaskEvent::FetchRetry { shuffle: (child, dep_idx), reduce_part, attempt, backoff } => {
                let dep_idx = dep_idx as u32;
                self.acct.emit(TraceEvent::FetchRetry {
                    at,
                    job,
                    child,
                    dep_idx,
                    reduce_part,
                    attempt,
                    backoff,
                });
            }
            TaskEvent::FetchEscalated { shuffle: (child, dep_idx), reduce_part } => {
                let dep_idx = dep_idx as u32;
                self.acct.emit(TraceEvent::FetchEscalated { at, job, child, dep_idx, reduce_part });
            }
        }
    }

    fn replay_failed_attempt(
        &mut self,
        replay: &mut Replay,
        attempt: u32,
        cause: FaultCause,
        wasted: SimDuration,
    ) {
        // The attempt index is part of the deterministic coin stream;
        // replay must stay contiguous across transient retries and
        // executor-loss re-executions.
        debug_assert_eq!(attempt, replay.next_attempt, "non-contiguous attempt replay");
        replay.next_attempt = attempt + 1;
        replay.charge.fault_wasted += wasted;
        self.acct.emit(TraceEvent::TaskRetry {
            at: replay.t0,
            job: replay.task.job,
            stage_output: replay.task.stage_output,
            partition: replay.task.part as u32,
            attempt,
            cause,
            wasted,
        });
    }

    fn replay_mem_hit(&mut self, replay: &Replay, id: BlockId, bytes: ByteSize, serialized: bool) {
        let ctx = self.ctrl_ctx();
        self.controller.on_access(&ctx, id);
        let decision =
            if serialized { CacheDecision::HitSerializedMemory } else { CacheDecision::HitMemory };
        self.acct.emit_cache(replay.t0, replay.task.exec, id, bytes, decision, None);
    }

    fn replay_disk_hit(&mut self, replay: &mut Replay, info: BlockInfo, block: Block) {
        let t0 = replay.t0;
        let ctx = self.ctrl_ctx();
        self.controller.on_access(&ctx, info.id);
        self.acct.emit_cache(t0, info.executor, info.id, info.bytes, CacheDecision::HitDisk, None);
        // Optional promotion back into memory (paper §2.3: recovered data
        // can be cached again).
        if self.controller.readmit_after_disk_read(&ctx, &info) != Admission::Memory {
            return;
        }
        let ce = info.executor.raw() as usize;
        // Skip if an earlier commit in this stage already promoted (or
        // dropped) the block.
        if self.stores.mem[ce].contains(info.id) || !self.stores.disk[ce].contains(info.id) {
            return;
        }
        // Attempt the promotion while the block is still on disk: a failed
        // attempt leaves it where it was (and the spill-guard prevents
        // re-charging a write).
        let promote = CacheDecision::PromoteToMemory;
        if self.try_cache_memory(&info, block, &mut replay.charge, t0, promote) {
            self.stores.disk[ce].remove(info.id);
        }
    }

    fn replay_computed(&mut self, replay: &mut Replay, computed: ComputedBlock) {
        let ComputedBlock { info, edge, recomputed, annotated, depth, block } = computed;
        let (job, t0) = (replay.task.job, replay.t0);
        // One probe of the block's record: it has now been materialized and
        // is no longer lost; even an uncached production sets the home hint
        // (the producing executor is where recomputation is cheapest next
        // time). A cache write below moves the home.
        let meta = self.stores.meta_mut(info.id);
        meta.materialized = true;
        let recovered = std::mem::take(&mut meta.lost);
        meta.home.get_or_insert(info.executor);
        if recomputed {
            let miss = CacheDecision::MissRecompute;
            self.acct.emit_cache(t0, info.executor, info.id, info.bytes, miss, None);
            self.acct.emit(TraceEvent::Recompute {
                at: t0,
                job,
                id: info.id,
                executor: info.executor,
                depth,
                duration: edge,
            });
        }
        if recovered {
            self.acct.emit(TraceEvent::BlockRecovered { at: t0, id: info.id });
        }
        let ctx = self.ctrl_ctx();
        let event = PartitionEvent { info, edge_compute: edge, job, recomputed };
        self.controller.on_partition_computed(&ctx, &event);

        // Unified caching decision (paper §4.1).
        if !self.controller.should_cache(&ctx, &info, annotated) {
            return;
        }
        match self.controller.admit(&ctx, &info) {
            Admission::Memory => {
                let admit = CacheDecision::AdmitMemory;
                self.try_cache_memory(&info, block, &mut replay.charge, t0, admit);
            }
            Admission::Disk => self.spill_to_disk(&info, block, &mut replay.charge, t0),
            Admission::Skip => {}
        }
    }

    fn replay_map_output(
        &mut self,
        replay: &Replay,
        shuffle: ShuffleId,
        map_part: usize,
        buckets: Buckets,
    ) {
        // First writer wins; duplicate regenerations (possible when several
        // tasks recover the same missing shuffle) produce identical buckets.
        if self.stores.shuffle.has_map_output(shuffle, map_part) {
            return;
        }
        self.stores.shuffle.put_map_output(shuffle, map_part, buckets, replay.task.exec);
        if self.stores.shuffle.mark_recovered(shuffle, map_part) {
            self.acct.emit(TraceEvent::MapOutputRecovered {
                at: replay.t0,
                child: shuffle.0,
                dep_idx: shuffle.1 as u32,
                map_part: map_part as u32,
            });
        }
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
    pub(crate) fn commit_straggler(
        &mut self,
        task: TaskCoords,
        mut output: TaskOutput,
        deadline: SimDuration,
    ) -> SimTime {
        let TaskCoords { job, stage_output, part, exec, start } = task;
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
                    if let TaskEvent::Computed(computed) = ev {
                        if computed.info.executor == exec {
                            computed.info.executor = copy_exec;
                        }
                    }
                }
                let copy = TaskCoords { exec: copy_exec, start: spec_start, ..task };
                let end = self.commit_task(copy, output);
                self.slots[e][orig_slot] = self.slots[e][orig_slot].max(end);
                (end, SimDuration::ZERO, Some((copy_exec, true, end.since(t0_orig))))
            }
            _ => {
                // The original commits, carrying the straggler delay in its
                // charge (so its span and the busy clock agree); a launched
                // but losing copy burns its slot until the original's end.
                output.charge.straggler_delay = delay;
                let end = self.commit_task(task, output);
                let lost = spec.filter(|&(_, _, spec_start, _)| spec_start < end);
                let race = lost.map(|(se, spec_slot, spec_start, _)| {
                    self.slots[se][spec_slot] = self.slots[se][spec_slot].max(end);
                    (ExecutorId(se as u32), false, end.since(spec_start))
                });
                (end, delay, race)
            }
        };
        let (at, partition) = (t0_orig, part as u32);
        self.acct.emit(TraceEvent::Straggler { at, job, stage_output, partition, delay });
        if let Some((copy_executor, copy_won, wasted)) = race {
            self.acct.emit(TraceEvent::Speculation {
                at,
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

    pub(crate) fn earliest_slot(slots: &[SimTime]) -> usize {
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
    pub(crate) fn pick_executor(&self, plan: &Plan, rdd: RddId, part: usize) -> Result<ExecutorId> {
        let mut stack = vec![rdd];
        let mut visited: FxHashSet<RddId> = FxHashSet::default();
        while let Some(cur) = stack.pop() {
            if !visited.insert(cur) {
                continue;
            }
            if let Some(home) = self.stores.meta(BlockId::new(cur, part as u32)).home {
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
}
