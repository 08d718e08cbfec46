//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes every failure an application run will suffer as
//! a pure function of a seed, simulated-clock time and task coordinates —
//! never the host clock or OS randomness, so a faulty run replays
//! bit-identically across processes and worker-thread counts. Three failure
//! classes are injected (see DESIGN.md "Failure model"):
//!
//! - **Transient task failures**: each task attempt flips a seeded coin
//!   keyed by `(job, stage, partition, attempt)`; failed attempts are
//!   retried up to [`FaultPlan::max_task_retries`] times and their wasted
//!   time is charged to the slot and attributed to recovery metrics.
//! - **Executor crashes**: at the listed simulated times, an executor loses
//!   its memory and disk stores (and, without an external shuffle service,
//!   its shuffle outputs) at the next task-commit boundary; in-flight tasks
//!   placed on it are rescheduled onto survivors.
//! - **Map-output loss**: with `external_shuffle_service` disabled, a
//!   seeded coin keyed by `(job, shuffle, map task)` drops map outputs at
//!   job start; consumers recover them through lineage, Spark-style.
//! - **Stragglers**: a seeded coin keyed by `(job, stage, partition)` marks
//!   tasks whose execution time is multiplied by
//!   [`FaultPlan::straggler_slowdown`]; the scheduler launches a speculative
//!   copy when the slowed task blows the stage's quantile-based deadline and
//!   commits whichever attempt finishes first.
//! - **Corrupted spills**: each block written to the disk tier carries an
//!   FxHash-based checksum; a seeded coin keyed by `(rdd, partition, nth
//!   spill)` flips a checksum bit so the next read detects the corruption,
//!   quarantines the block and falls back to lineage recompute.
//! - **Fetch failures**: each shuffle-fetch attempt flips a seeded coin;
//!   failed attempts wait out a capped exponential backoff on the sim clock
//!   and, once the retry budget is spent, escalate to regenerating the
//!   parent's map outputs through lineage.
//!
//! The default plan is fully disabled and adds zero cost: the engine takes
//! no fault path at all when [`FaultPlan::enabled`] is false.

use crate::cluster::{ClusterState, StageRun};
use crate::exec::{execute_task, TaskEvent};
use crate::storage::spill_checksum;
use crate::tracing::{CacheDecision, TraceEvent};
use blaze_common::error::{BlazeError, Result};
use blaze_common::ids::{BlockId, ExecutorId, JobId};
use blaze_common::rng::{coord_coin, hash_coords};
use blaze_common::{ByteSize, SimDuration, SimTime};

/// Distinct coin streams, so the same coordinates never reuse a draw
/// across failure classes.
const STREAM_TASK: u64 = 1;
const STREAM_MAP_OUTPUT: u64 = 2;
const STREAM_STRAGGLER: u64 = 3;
const STREAM_SPILL_CORRUPTION: u64 = 4;
const STREAM_FETCH: u64 = 5;

/// Heuristic uncached-lineage depth a single retry budget can be expected
/// to replay: each retry re-executes the whole uncached chain inline, so
/// deeper chains both lengthen attempts and widen the transient-failure
/// exposure window. The BA301 preflight rule rejects plans whose uncached
/// depth exceeds `DEPTH_PER_ATTEMPT * max_attempts`.
pub const DEPTH_PER_ATTEMPT: usize = 32;

/// Quantile of a stage's observed (post-slowdown) task durations that
/// anchors the speculation deadline: a task is speculated upon once its
/// projected duration exceeds `quantile * SPECULATION_SLACK` — the same
/// shape as Spark's `spark.speculation.{quantile,multiplier}`.
pub const SPECULATION_QUANTILE: f64 = 0.75;

/// Multiplier applied to the quantile duration to form the deadline.
pub const SPECULATION_SLACK: f64 = 1.5;

/// Straggler slowdown beyond which a plan without speculative execution is
/// flagged by the BA302 preflight rule: tail latency grows linearly with
/// the slowdown and nothing in the schedule can claw it back.
pub const STRAGGLER_SLOWDOWN_BUDGET: f64 = 8.0;

/// Why an injected task attempt was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultCause {
    /// A transient failure drawn from [`FaultPlan::task_failure_rate`].
    Transient,
    /// The attempt was in flight on an executor that crashed.
    ExecutorLost,
}

/// One scheduled executor crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorCrash {
    /// Simulated time at which the crash fires. The executor dies at the
    /// first task-commit boundary whose frontier reaches this time (or at
    /// the next job boundary if the application is between jobs).
    pub at: SimTime,
    /// Index of the executor to kill. The machine is replaced immediately
    /// (same index, empty stores), as a cluster manager would.
    pub executor: usize,
}

/// A deterministic schedule of failures for one application run.
///
/// Carried on [`crate::config::ClusterConfig`]; the default plan injects
/// nothing. All draws are pure functions of `seed` and coordinates
/// (`blaze_common::rng::coord_coin`), so two runs of the same plan — at any
/// `worker_threads` — observe identical failures.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of every injection coin.
    pub seed: u64,
    /// Probability that any single task attempt fails transiently.
    /// Must be in `[0, 1)`: a rate of 1 could never succeed.
    pub task_failure_rate: f64,
    /// Retries allowed per task after its first attempt. A task whose
    /// `1 + max_task_retries` attempts all fail aborts the job.
    pub max_task_retries: u32,
    /// Scheduled executor crashes, ordered by time.
    pub crashes: Vec<ExecutorCrash>,
    /// Probability that a registered map output is lost at each job start.
    /// Only meaningful with `external_shuffle_service` off.
    pub map_output_loss_rate: f64,
    /// When true (the default, Spark's external shuffle service), shuffle
    /// outputs survive executor crashes and are never lost. When false, a
    /// crash drops the outputs the dead executor produced and
    /// `map_output_loss_rate` applies.
    pub external_shuffle_service: bool,
    /// Probability that any single task is a straggler (seeded per task).
    /// Must be in `[0, 1)`.
    pub straggler_rate: f64,
    /// Execution-time multiplier applied to straggling tasks. Must be
    /// finite and `>= 1`.
    pub straggler_slowdown: f64,
    /// Launch a speculative copy on another executor when a straggler blows
    /// the stage's quantile deadline (see [`SPECULATION_QUANTILE`]); the
    /// earlier finisher commits, the loser's slot time is charged to
    /// `Metrics::speculation`. On by default — only reachable when
    /// `straggler_rate > 0`.
    pub speculation: bool,
    /// Probability that a block spilled to the disk tier is corrupted
    /// (seeded per spill). Must be in `[0, 1)`. Reads detect the checksum
    /// mismatch, quarantine the block and recompute through lineage.
    pub spill_corruption_rate: f64,
    /// Probability that one shuffle-fetch attempt fails (seeded per
    /// attempt). Must be in `[0, 1)`.
    pub fetch_failure_rate: f64,
    /// Failed-fetch retries before escalating to regenerating the parent
    /// stage's map outputs through lineage. Must be `>= 1` when
    /// `fetch_failure_rate > 0`.
    pub max_fetch_retries: u32,
    /// Backoff wait after the first failed fetch attempt; doubles per
    /// retry. Must be positive when `fetch_failure_rate > 0`.
    pub fetch_backoff_base: SimDuration,
    /// Cap on a single backoff wait. Must be `>= fetch_backoff_base`.
    pub fetch_backoff_cap: SimDuration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            task_failure_rate: 0.0,
            max_task_retries: 3,
            crashes: Vec::new(),
            map_output_loss_rate: 0.0,
            external_shuffle_service: true,
            straggler_rate: 0.0,
            straggler_slowdown: 4.0,
            speculation: true,
            spill_corruption_rate: 0.0,
            fetch_failure_rate: 0.0,
            max_fetch_retries: 4,
            fetch_backoff_base: SimDuration::from_millis(10),
            fetch_backoff_cap: SimDuration::from_millis(200),
        }
    }
}

impl FaultPlan {
    /// True when the plan can inject at least one failure. A disabled plan
    /// keeps the engine on its zero-cost fast path.
    pub fn enabled(&self) -> bool {
        self.task_failure_rate > 0.0
            || !self.crashes.is_empty()
            || (!self.external_shuffle_service && self.map_output_loss_rate > 0.0)
            || self.straggler_rate > 0.0
            || self.spill_corruption_rate > 0.0
            || self.fetch_failure_rate > 0.0
    }

    /// Total attempts a task may consume (first run + retries).
    pub fn max_attempts(&self) -> u32 {
        self.max_task_retries.saturating_add(1)
    }

    /// Seeded coin: does attempt `attempt` of task `(job, stage, part)`
    /// fail transiently?
    pub fn task_attempt_fails(&self, job: u32, stage: u32, part: u32, attempt: u32) -> bool {
        coord_coin(
            self.seed,
            &[STREAM_TASK, u64::from(job), u64::from(stage), u64::from(part), u64::from(attempt)],
            self.task_failure_rate,
        )
    }

    /// Seeded coin: is map output `map_part` of the shuffle feeding
    /// `(child, dep_idx)` lost at the start of `job`?
    pub fn map_output_lost(&self, job: u32, child: u32, dep_idx: usize, map_part: usize) -> bool {
        if self.external_shuffle_service {
            return false;
        }
        coord_coin(
            self.seed,
            &[STREAM_MAP_OUTPUT, u64::from(job), u64::from(child), dep_idx as u64, map_part as u64],
            self.map_output_loss_rate,
        )
    }

    /// Seeded coin: is task `(job, stage, part)` a straggler? Stragglers
    /// are a property of the task, not the attempt: every attempt on the
    /// originally scheduled executor is slowed (the machine is slow), while
    /// a speculative copy elsewhere runs at full speed.
    pub fn task_straggles(&self, job: u32, stage: u32, part: u32) -> bool {
        coord_coin(
            self.seed,
            &[STREAM_STRAGGLER, u64::from(job), u64::from(stage), u64::from(part)],
            self.straggler_rate,
        )
    }

    /// Seeded coin: is the `seq`-th spill of block `(rdd, part)` to the
    /// disk tier corrupted? Keyed by a per-block spill sequence number so a
    /// quarantined-and-respilled block draws a fresh coin.
    pub fn spill_corrupted(&self, rdd: u32, part: u32, seq: u64) -> bool {
        coord_coin(
            self.seed,
            &[STREAM_SPILL_CORRUPTION, u64::from(rdd), u64::from(part), seq],
            self.spill_corruption_rate,
        )
    }

    /// Which checksum bit the corruption of [`Self::spill_corrupted`] flips
    /// (a deterministic function of the same coordinates).
    pub fn corruption_bit(&self, rdd: u32, part: u32, seq: u64) -> u32 {
        (hash_coords(
            self.seed,
            &[STREAM_SPILL_CORRUPTION, u64::from(rdd), u64::from(part), seq, u64::MAX],
        ) % 64) as u32
    }

    /// Seeded coin: does attempt `attempt` of fetching reduce partition
    /// `reduce_part` of the shuffle feeding `(child, dep_idx)` in `job`
    /// fail?
    pub fn fetch_attempt_fails(
        &self,
        job: u32,
        child: u32,
        dep_idx: usize,
        reduce_part: u32,
        attempt: u32,
    ) -> bool {
        coord_coin(
            self.seed,
            &[
                STREAM_FETCH,
                u64::from(job),
                u64::from(child),
                dep_idx as u64,
                u64::from(reduce_part),
                u64::from(attempt),
            ],
            self.fetch_failure_rate,
        )
    }

    /// Deterministic backoff wait after failed fetch attempt `attempt`
    /// (0-based): `min(base << attempt, cap)`, saturating.
    pub fn fetch_backoff(&self, attempt: u32) -> SimDuration {
        let base = self.fetch_backoff_base.as_nanos();
        let scaled = base.saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        SimDuration::from_nanos(scaled.min(self.fetch_backoff_cap.as_nanos()))
    }

    /// The deepest uncached lineage chain the retry budget can be expected
    /// to replay, or `None` when the plan is disabled (no bound applies).
    /// Used by the BA301 preflight rule.
    pub fn max_recoverable_depth(&self) -> Option<usize> {
        if self.enabled() {
            Some(DEPTH_PER_ATTEMPT * self.max_attempts() as usize)
        } else {
            None
        }
    }

    /// Validates the plan against the cluster's executor count.
    ///
    /// # Errors
    ///
    /// Returns a configuration error for out-of-range rates, a zero retry
    /// budget alongside a positive failure rate, unordered crash times, or
    /// a crash targeting a nonexistent executor (or a cluster too small to
    /// survive one).
    pub fn validate(&self, executors: usize) -> Result<()> {
        let rate = self.task_failure_rate;
        if !rate.is_finite() || !(0.0..1.0).contains(&rate) {
            return Err(BlazeError::Config(format!(
                "fault plan: task_failure_rate must be in [0, 1) (got {rate}); a rate of 1 \
                 could never succeed"
            )));
        }
        let rate = self.map_output_loss_rate;
        if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
            return Err(BlazeError::Config(format!(
                "fault plan: map_output_loss_rate must be in [0, 1] (got {rate})"
            )));
        }
        if self.task_failure_rate > 0.0 && self.max_task_retries == 0 {
            return Err(BlazeError::Config(
                "fault plan: max_task_retries must be >= 1 when task_failure_rate > 0".into(),
            ));
        }
        let mut prev = SimTime::ZERO;
        for crash in &self.crashes {
            if crash.at < prev {
                return Err(BlazeError::Config(format!(
                    "fault plan: crash times must be non-decreasing ({} after {prev})",
                    crash.at
                )));
            }
            prev = crash.at;
            if crash.executor >= executors {
                return Err(BlazeError::Config(format!(
                    "fault plan: crash targets executor {} but the cluster has {executors}",
                    crash.executor
                )));
            }
        }
        if !self.crashes.is_empty() && executors < 2 {
            return Err(BlazeError::Config(
                "fault plan: executor crashes need >= 2 executors so in-flight tasks can be \
                 rescheduled onto a survivor"
                    .into(),
            ));
        }
        let rate = self.straggler_rate;
        if !rate.is_finite() || !(0.0..1.0).contains(&rate) {
            return Err(BlazeError::Config(format!(
                "fault plan: straggler_rate must be in [0, 1) (got {rate})"
            )));
        }
        if !self.straggler_slowdown.is_finite() || self.straggler_slowdown < 1.0 {
            return Err(BlazeError::Config(format!(
                "fault plan: straggler_slowdown must be finite and >= 1 (got {}); a \
                 multiplier below 1 would speed tasks up",
                self.straggler_slowdown
            )));
        }
        let rate = self.spill_corruption_rate;
        if !rate.is_finite() || !(0.0..1.0).contains(&rate) {
            return Err(BlazeError::Config(format!(
                "fault plan: spill_corruption_rate must be in [0, 1) (got {rate}); at 1 \
                 every respill would corrupt again and reads could never succeed"
            )));
        }
        let rate = self.fetch_failure_rate;
        if !rate.is_finite() || !(0.0..1.0).contains(&rate) {
            return Err(BlazeError::Config(format!(
                "fault plan: fetch_failure_rate must be in [0, 1) (got {rate}); at 1 \
                 every retry would fail and escalation would loop forever"
            )));
        }
        if self.fetch_failure_rate > 0.0 {
            if self.max_fetch_retries == 0 {
                return Err(BlazeError::Config(
                    "fault plan: max_fetch_retries must be >= 1 when fetch_failure_rate > 0".into(),
                ));
            }
            if self.fetch_backoff_base <= SimDuration::ZERO {
                return Err(BlazeError::Config(
                    "fault plan: fetch_backoff_base must be positive when fetch_failure_rate > 0"
                        .into(),
                ));
            }
            if self.fetch_backoff_cap < self.fetch_backoff_base {
                return Err(BlazeError::Config(format!(
                    "fault plan: fetch_backoff_cap ({}) must be >= fetch_backoff_base ({})",
                    self.fetch_backoff_cap, self.fetch_backoff_base
                )));
            }
        }
        Ok(())
    }
}

/// The engine side of the plan: how the injected failures land on the
/// cluster state. Serial phases only.
impl ClusterState {
    /// Destroys executor `e`'s cached state: memory and disk stores are
    /// wiped (with controller eviction notifications), and — when the
    /// fault plan disables the external shuffle service — every shuffle
    /// output the executor produced. The machine itself is immediately
    /// replaced: subsequent tasks may be placed on the same index again,
    /// they just find its stores empty.
    pub(crate) fn wipe_executor(&mut self, e: usize, at: SimTime) {
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
            // residency belief; clearing `materialized` keeps the later
            // rebuild classified as recovery work rather than a
            // policy-caused recomputation.
            self.report_residency(id, None);
            let meta = self.stores.meta_mut(id);
            (meta.home, meta.materialized, meta.lost) = (None, false, true);
            self.acct.emit_cache(at, exec, id, bytes, decision, None);
        }
        let mut map_outputs_lost = 0u64;
        if !self.config.fault.external_shuffle_service {
            let lost = self.stores.shuffle.drop_by_producer(exec);
            map_outputs_lost = lost.len() as u64;
            for ((child, dep_idx), map_part) in lost {
                self.acct.emit(TraceEvent::MapOutputLost {
                    at,
                    child,
                    dep_idx: dep_idx as u32,
                    map_part: map_part as u32,
                });
            }
        }
        // The fold takes the block and byte tallies from this summary (and
        // the map-output count from the per-output events above).
        self.acct.emit(TraceEvent::ExecutorCrashed {
            at,
            executor: exec,
            blocks_lost,
            bytes_lost,
            map_outputs_lost,
        });
    }

    /// Takes the next scheduled crash if its time has come. Crashes are
    /// validated time-ordered and each fires exactly once.
    fn next_due_crash(&mut self, now: SimTime) -> Option<ExecutorCrash> {
        let crash = *self.config.fault.crashes.get(self.next_crash)?;
        (crash.at <= now).then(|| {
            self.next_crash += 1;
            crash
        })
    }

    /// Fires every scheduled crash whose time has passed while the cluster
    /// was idle (between jobs).
    pub(crate) fn fire_idle_crashes(&mut self, now: SimTime) {
        while let Some(crash) = self.next_due_crash(now) {
            self.wipe_executor(crash.executor, crash.at);
        }
    }

    /// Fires crashes that became due during a stage, at the task-commit
    /// boundary: the dead executor's stores are wiped and every not-yet-
    /// committed task placed on it is lost and re-executed on the next
    /// surviving executor (against the post-crash state, continuing the
    /// task's attempt sequence).
    pub(crate) fn handle_due_crashes(
        &mut self,
        stage: &mut StageRun<'_>,
        next_commit: usize,
        now: SimTime,
    ) {
        while let Some(crash) = self.next_due_crash(now) {
            let e = crash.executor;
            self.wipe_executor(e, crash.at);

            for q in next_commit..stage.outputs.len() {
                if stage.placements[q].raw() as usize != e {
                    continue;
                }
                // Already-failed tasks stay failed; the job aborts at their
                // commit slot as before.
                let Some(Ok(prev)) = stage.outputs[q].take_if(|o| o.is_ok()) else { continue };
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
                stage.placements[q] = survivor;
                let rerun = execute_task(&self.exec_view(stage), q, survivor, prior.len() as u32);
                stage.outputs[q] = Some(rerun.map(|mut out| {
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
    pub(crate) fn inject_map_output_loss(&mut self, job: JobId) {
        if self.config.fault.external_shuffle_service
            || self.config.fault.map_output_loss_rate <= 0.0
        {
            return;
        }
        for ((child, dep_idx), map_part) in self.stores.shuffle.keys_sorted() {
            if self.config.fault.map_output_lost(job.raw(), child.raw(), dep_idx, map_part)
                && self.stores.shuffle.drop_map_output((child, dep_idx), map_part)
            {
                self.acct.emit(TraceEvent::MapOutputLost {
                    at: self.clock_floor,
                    child,
                    dep_idx: dep_idx as u32,
                    map_part: map_part as u32,
                });
            }
        }
    }

    /// Straggler injection for one executed stage: which tasks the seeded
    /// coin slows down, and the quantile-based speculation deadline (the
    /// shape of Spark's `spark.speculation.{quantile,multiplier}`). Decided
    /// in the serial commit phase from pre-commit execute charges, so traces
    /// stay thread-count invariant. `None` when no task can straggle.
    pub(crate) fn speculation_deadline(
        &self,
        stage: &StageRun<'_>,
    ) -> Option<(Vec<bool>, SimDuration)> {
        let fault = &self.config.fault;
        if !stage.fault_on || fault.straggler_rate <= 0.0 || stage.outputs.is_empty() {
            return None;
        }
        let stragglers: Vec<bool> = (0..stage.outputs.len())
            .map(|p| fault.task_straggles(stage.job.raw(), stage.index, p as u32))
            .collect();
        let mut observed: Vec<SimDuration> = stage
            .outputs
            .iter()
            .zip(&stragglers)
            .map(|(o, &slow)| {
                let base = o
                    .as_ref()
                    .and_then(|r| r.as_ref().ok())
                    .map_or(SimDuration::ZERO, |out| out.charge.total());
                if slow {
                    base * fault.straggler_slowdown
                } else {
                    base
                }
            })
            .collect();
        observed.sort_unstable();
        let q_idx = (SPECULATION_QUANTILE * (observed.len() - 1) as f64) as usize;
        Some((stragglers, observed[q_idx] * SPECULATION_SLACK))
    }

    /// Integrity checksum for a block being written to the disk tier, with
    /// the seeded corruption injection applied: the coin of
    /// [`FaultPlan::spill_corrupted`] flips one checksum bit, which the next
    /// read detects and quarantines. Returns `None` (stamp nothing, verify
    /// nothing) while corruption injection is off, keeping the fault-free
    /// path byte-identical. Only called from the serial commit phase, so the
    /// per-block sequence stream is deterministic.
    pub(crate) fn stamp_spill(
        &mut self,
        id: BlockId,
        logical: ByteSize,
        ser_factor: f64,
    ) -> Option<u64> {
        let fault = &self.config.fault;
        if fault.spill_corruption_rate <= 0.0 {
            return None;
        }
        let meta = self.stores.meta_mut(id);
        let seq = meta.spill_seq;
        meta.spill_seq += 1;
        let mut ck = spill_checksum(id, logical, ser_factor);
        if fault.spill_corrupted(id.rdd.raw(), id.partition, seq) {
            ck ^= 1u64 << fault.corruption_bit(id.rdd.raw(), id.partition, seq);
        }
        Some(ck)
    }

    /// Drops a corrupt disk-tier block detected by checksum mismatch and
    /// attributes the quarantine. A no-op if the block is already gone
    /// (several tasks of one stage may detect the same corruption).
    pub(crate) fn quarantine_spill(
        &mut self,
        exec: ExecutorId,
        id: BlockId,
        bytes: ByteSize,
        at: SimTime,
    ) {
        if self.stores.disk[exec.raw() as usize].remove(id).is_none() {
            return;
        }
        self.report_residency(id, None);
        self.acct.emit(TraceEvent::SpillQuarantined { at, executor: exec, id, bytes });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_disabled_and_valid() {
        let plan = FaultPlan::default();
        assert!(!plan.enabled());
        plan.validate(1).unwrap();
        assert_eq!(plan.max_recoverable_depth(), None);
        assert!(!plan.task_attempt_fails(0, 0, 0, 0));
        assert!(!plan.map_output_lost(0, 0, 0, 0));
    }

    #[test]
    fn coins_are_deterministic_and_coordinate_keyed() {
        let plan = FaultPlan { seed: 42, task_failure_rate: 0.5, ..Default::default() };
        let a = plan.task_attempt_fails(1, 2, 3, 0);
        assert_eq!(a, plan.task_attempt_fails(1, 2, 3, 0));
        // Some nearby coordinate must differ (rate 0.5, 64 draws).
        let flips: Vec<bool> = (0..64).map(|p| plan.task_attempt_fails(1, 2, p, 0)).collect();
        assert!(flips.iter().any(|&f| f) && flips.iter().any(|&f| !f));
    }

    #[test]
    fn map_output_loss_requires_no_shuffle_service() {
        let with_ess = FaultPlan { seed: 7, map_output_loss_rate: 1.0, ..Default::default() };
        assert!(!with_ess.map_output_lost(0, 5, 0, 0));
        assert!(!with_ess.enabled());
        let no_ess = FaultPlan { external_shuffle_service: false, ..with_ess };
        assert!(no_ess.map_output_lost(0, 5, 0, 0));
        assert!(no_ess.enabled());
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let bad_rate = FaultPlan { task_failure_rate: 1.0, ..Default::default() };
        assert!(bad_rate.validate(4).is_err());
        let nan = FaultPlan { map_output_loss_rate: f64::NAN, ..Default::default() };
        assert!(nan.validate(4).is_err());
        let no_retries =
            FaultPlan { task_failure_rate: 0.1, max_task_retries: 0, ..Default::default() };
        assert!(no_retries.validate(4).is_err());
        let out_of_range = FaultPlan {
            crashes: vec![ExecutorCrash { at: SimTime::ZERO, executor: 9 }],
            ..Default::default()
        };
        assert!(out_of_range.validate(4).is_err());
        let unordered = FaultPlan {
            crashes: vec![
                ExecutorCrash { at: SimTime::from_nanos(10), executor: 0 },
                ExecutorCrash { at: SimTime::from_nanos(5), executor: 1 },
            ],
            ..Default::default()
        };
        assert!(unordered.validate(4).is_err());
        let lonely = FaultPlan {
            crashes: vec![ExecutorCrash { at: SimTime::ZERO, executor: 0 }],
            ..Default::default()
        };
        assert!(lonely.validate(1).is_err());
        assert!(lonely.validate(2).is_ok());
    }

    #[test]
    fn recoverable_depth_scales_with_the_retry_budget() {
        let plan = FaultPlan { task_failure_rate: 0.1, max_task_retries: 2, ..Default::default() };
        assert_eq!(plan.max_recoverable_depth(), Some(DEPTH_PER_ATTEMPT * 3));
    }

    #[test]
    fn degradation_fields_enable_the_plan() {
        let straggle = FaultPlan { straggler_rate: 0.2, ..Default::default() };
        assert!(straggle.enabled());
        let corrupt = FaultPlan { spill_corruption_rate: 0.2, ..Default::default() };
        assert!(corrupt.enabled());
        let fetch = FaultPlan { fetch_failure_rate: 0.2, ..Default::default() };
        assert!(fetch.enabled());
    }

    #[test]
    fn degradation_coins_are_deterministic() {
        let plan = FaultPlan {
            seed: 13,
            straggler_rate: 0.5,
            spill_corruption_rate: 0.5,
            fetch_failure_rate: 0.5,
            ..Default::default()
        };
        assert_eq!(plan.task_straggles(1, 2, 3), plan.task_straggles(1, 2, 3));
        assert_eq!(plan.spill_corrupted(4, 5, 0), plan.spill_corrupted(4, 5, 0));
        assert_eq!(plan.corruption_bit(4, 5, 0), plan.corruption_bit(4, 5, 0));
        assert!(plan.corruption_bit(4, 5, 0) < 64);
        assert_eq!(
            plan.fetch_attempt_fails(0, 7, 0, 2, 1),
            plan.fetch_attempt_fails(0, 7, 0, 2, 1)
        );
        // Coordinates matter: at rate 0.5 some of 64 neighbours must differ.
        let flips: Vec<bool> = (0..64).map(|p| plan.task_straggles(0, 0, p)).collect();
        assert!(flips.iter().any(|&f| f) && flips.iter().any(|&f| !f));
        let flips: Vec<bool> = (0..64).map(|s| plan.spill_corrupted(0, 0, s)).collect();
        assert!(flips.iter().any(|&f| f) && flips.iter().any(|&f| !f));
    }

    #[test]
    fn fetch_backoff_doubles_and_caps() {
        let plan = FaultPlan {
            fetch_backoff_base: SimDuration::from_millis(10),
            fetch_backoff_cap: SimDuration::from_millis(50),
            ..Default::default()
        };
        assert_eq!(plan.fetch_backoff(0), SimDuration::from_millis(10));
        assert_eq!(plan.fetch_backoff(1), SimDuration::from_millis(20));
        assert_eq!(plan.fetch_backoff(2), SimDuration::from_millis(40));
        assert_eq!(plan.fetch_backoff(3), SimDuration::from_millis(50));
        assert_eq!(plan.fetch_backoff(63), SimDuration::from_millis(50));
        assert_eq!(plan.fetch_backoff(64), SimDuration::from_millis(50));
    }

    #[test]
    fn validation_rejects_bad_degradation_plans() {
        let bad = FaultPlan { straggler_rate: 1.0, ..Default::default() };
        assert!(bad.validate(4).is_err());
        let bad = FaultPlan { straggler_rate: 0.1, straggler_slowdown: 0.5, ..Default::default() };
        assert!(bad.validate(4).is_err());
        let bad = FaultPlan { straggler_slowdown: f64::INFINITY, ..Default::default() };
        assert!(bad.validate(4).is_err());
        let bad = FaultPlan { spill_corruption_rate: 1.0, ..Default::default() };
        assert!(bad.validate(4).is_err());
        let bad = FaultPlan { fetch_failure_rate: f64::NAN, ..Default::default() };
        assert!(bad.validate(4).is_err());
        let bad = FaultPlan { fetch_failure_rate: 0.1, max_fetch_retries: 0, ..Default::default() };
        assert!(bad.validate(4).is_err());
        let bad = FaultPlan {
            fetch_failure_rate: 0.1,
            fetch_backoff_base: SimDuration::ZERO,
            ..Default::default()
        };
        assert!(bad.validate(4).is_err());
        let bad = FaultPlan {
            fetch_failure_rate: 0.1,
            fetch_backoff_base: SimDuration::from_millis(10),
            fetch_backoff_cap: SimDuration::from_millis(5),
            ..Default::default()
        };
        assert!(bad.validate(4).is_err());
        // A cap below base is fine while fetch failures are off.
        let ok = FaultPlan {
            fetch_backoff_base: SimDuration::from_millis(10),
            fetch_backoff_cap: SimDuration::from_millis(5),
            ..Default::default()
        };
        assert!(ok.validate(4).is_ok());
        let ok = FaultPlan {
            straggler_rate: 0.3,
            straggler_slowdown: 6.0,
            spill_corruption_rate: 0.2,
            fetch_failure_rate: 0.2,
            ..Default::default()
        };
        assert!(ok.validate(4).is_ok());
    }
}
