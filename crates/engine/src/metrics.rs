//! Execution metrics.
//!
//! Everything the paper's evaluation figures need falls out of this module:
//! accumulated task-time breakdowns (Figs. 4 and 10), eviction counts and
//! per-executor eviction volumes (Figs. 3 and 12a), per-iteration
//! recomputation time (Figs. 5 and 12b), disk-resident cache volume (§7.2
//! inline statistics) and the application completion time (Fig. 9).
//!
//! [`Metrics`] is a fold over the engine's event stream: every field is
//! written by `Metrics::apply` and nowhere else, and the engine's only
//! caller of it is its accounting type, which folds and retains (in a
//! [`crate::tracing::TraceLog`], when tracing is on) the same event — so
//! `Metrics::from_events(log) == metrics` holds for a whole run by
//! construction. The fold keeps counters and sums only: per-task spans live
//! in the log's [`TraceEvent::TaskCommitted`] events.

use crate::fault::FaultCause;
use crate::tracing::{CacheDecision, CacheRecord, TraceEvent};
use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::{ExecutorId, JobId, RddId};
use blaze_common::{ByteSize, SimDuration, SimTime};

/// One executed task, for timeline reconstruction and skew analysis; the
/// payload of [`TraceEvent::TaskCommitted`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskTrace {
    /// Job the task belonged to.
    pub job: JobId,
    /// The RDD the task's stage materialized.
    pub stage_output: RddId,
    /// Partition index the task computed.
    pub partition: u32,
    /// Executor the task ran on.
    pub executor: ExecutorId,
    /// Slot within the executor.
    pub slot: u32,
    /// Simulated start time.
    pub start: SimTime,
    /// Simulated end time.
    pub end: SimTime,
    /// The task's charge breakdown.
    pub charge: TaskCharge,
}

impl TaskTrace {
    /// Simulated duration of the task.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// Time charged to one task (or migration), split by category.
///
/// The paper's Fig. 4/10 breakdown distinguishes "Disk I/O for Caching"
/// (spills, disk reads of cached data, and their (de)serialization) from
/// "Computation+Shuffle"; we keep the finer split and aggregate for display.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TaskCharge {
    /// Operator compute time (first-time computation).
    pub compute: SimDuration,
    /// Re-execution of previously materialized partitions (cache-miss
    /// recovery by recomputation).
    pub recompute: SimDuration,
    /// Shuffle write (bucketing + serialization + shuffle-file write).
    pub shuffle_write: SimDuration,
    /// Shuffle fetch (network + deserialization).
    pub shuffle_fetch: SimDuration,
    /// Writing cached data to disk (serialization + disk write).
    pub disk_cache_write: SimDuration,
    /// Reading cached data back from disk (disk read + deserialization).
    pub disk_cache_read: SimDuration,
    /// Extra in-memory (de)serialization imposed by an external store
    /// (the Alluxio path, §7.1).
    pub external_store_io: SimDuration,
    /// Slot time burned by failed task attempts (fault injection): the
    /// attempts ran and died, so the slot was occupied, but no category
    /// above received their work. Zero when no faults are injected.
    pub fault_wasted: SimDuration,
    /// Extra slot time a straggling task spent over its fair duration
    /// (the injected slowdown, fault injection). Zero without stragglers.
    pub straggler_delay: SimDuration,
    /// Backoff waits charged by failed shuffle-fetch attempts (fault
    /// injection). Zero without fetch failures.
    pub fetch_backoff: SimDuration,
}

impl TaskCharge {
    /// Total simulated task duration.
    pub fn total(&self) -> SimDuration {
        self.compute
            + self.recompute
            + self.shuffle_write
            + self.shuffle_fetch
            + self.disk_cache_write
            + self.disk_cache_read
            + self.external_store_io
            + self.fault_wasted
            + self.straggler_delay
            + self.fetch_backoff
    }

    /// The "Disk I/O for Caching" component of the paper's breakdown.
    pub fn disk_io_for_caching(&self) -> SimDuration {
        self.disk_cache_write + self.disk_cache_read
    }

    /// The "Computation+Shuffle" component of the paper's breakdown.
    pub fn computation_and_shuffle(&self) -> SimDuration {
        self.compute + self.recompute + self.shuffle_write + self.shuffle_fetch
    }

    /// Adds another charge into this one.
    pub fn merge(&mut self, other: &TaskCharge) {
        self.compute += other.compute;
        self.recompute += other.recompute;
        self.shuffle_write += other.shuffle_write;
        self.shuffle_fetch += other.shuffle_fetch;
        self.disk_cache_write += other.disk_cache_write;
        self.disk_cache_read += other.disk_cache_read;
        self.external_store_io += other.external_store_io;
        self.fault_wasted += other.fault_wasted;
        self.straggler_delay += other.straggler_delay;
        self.fetch_backoff += other.fetch_backoff;
    }
}

/// Speculative-execution attribution under straggler injection (see
/// [`crate::fault::FaultPlan::straggler_rate`]). All zero on a
/// straggler-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpeculationMetrics {
    /// Tasks the fault plan marked as stragglers.
    pub stragglers: u64,
    /// Total injected slowdown charged to committed straggling attempts
    /// (matches the sum of `TaskCharge::straggler_delay`).
    pub straggler_delay: SimDuration,
    /// Speculative copies launched because a straggler blew the stage's
    /// quantile deadline.
    pub launched: u64,
    /// Speculative copies that finished before the original attempt and
    /// were committed in its place.
    pub wins: u64,
    /// Slot time burned by whichever attempt lost the race (the original
    /// after a win, the copy after a loss).
    pub wasted: SimDuration,
}

/// Recovery-work attribution under fault injection (see
/// [`crate::fault::FaultPlan`]). Every counter is zero on a failure-free
/// run, and — like all of [`Metrics`] — bit-identical across repeated runs
/// and worker-thread counts for the same fault schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryMetrics {
    /// Transient task attempts that failed and were retried.
    pub task_retries: u64,
    /// In-flight task attempts lost to an executor crash and rescheduled.
    pub tasks_lost_to_crash: u64,
    /// Executor crashes that fired (scheduled crashes reached by the
    /// simulated clock, plus explicit `fail_executor` calls).
    pub executor_crashes: u64,
    /// Cached blocks dropped by executor loss.
    pub blocks_lost: u64,
    /// Logical bytes of cached data dropped by executor loss.
    pub bytes_lost: ByteSize,
    /// Lost blocks later re-produced through lineage.
    pub blocks_recovered: u64,
    /// Shuffle map outputs dropped (crash without an external shuffle
    /// service, or seeded map-output loss).
    pub map_outputs_lost: u64,
    /// Lost map outputs later regenerated through lineage.
    pub map_outputs_recovered: u64,
    /// Map stages re-run because their registered shuffle outputs were
    /// lost (Spark's fetch-failure stage resubmission).
    pub stages_resubmitted: u64,
    /// Spilled blocks whose checksum failed verification on read; the block
    /// was dropped from the disk tier and recomputed through lineage.
    pub spills_quarantined: u64,
    /// Shuffle-fetch attempts that failed and were retried after a backoff.
    pub fetch_retries: u64,
    /// Total backoff time charged by failed fetch attempts (matches the sum
    /// of `TaskCharge::fetch_backoff`).
    pub fetch_backoff_time: SimDuration,
    /// Fetches whose whole retry budget failed, escalating to regenerating
    /// the parent stage's map outputs through lineage.
    pub fetch_escalations: u64,
    /// Slot time burned by attempts that failed (transient or crash-lost).
    pub wasted_time: SimDuration,
    /// Simulated time spent replaying lineage to re-produce lost data
    /// (recompute edges below a lost block, plus map-output regeneration).
    pub lineage_replay_time: SimDuration,
}

impl RecoveryMetrics {
    /// Total simulated time the run spent on failure recovery (wasted
    /// attempt time, lineage replay, and fetch backoff waits).
    pub fn total_recovery_time(&self) -> SimDuration {
        self.wasted_time + self.lineage_replay_time + self.fetch_backoff_time
    }
}

/// Aggregated metrics of one application run.
///
/// `PartialEq` is derived so determinism tests can assert that two runs
/// (e.g. with different `worker_threads`) are bit-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Sum of all task charges (the "accumulated task execution time").
    pub accumulated: TaskCharge,
    /// Number of tasks executed.
    pub tasks: u64,
    /// Number of jobs executed.
    pub jobs: u64,
    /// Number of stages executed (excluding skipped).
    pub stages_run: u64,
    /// Number of stages skipped because shuffle outputs already existed.
    pub stages_skipped: u64,
    /// Evictions from memory (both discard and spill), total.
    pub evictions: u64,
    /// Evictions that discarded data (m -> u).
    pub evictions_discard: u64,
    /// Evictions that spilled data to disk (m -> d).
    pub evictions_to_disk: u64,
    /// Bytes evicted from memory to disk (spills), per executor. Together
    /// with the discarded map this is Fig. 3's per-executor eviction
    /// volume, split so disk-pressure reporting can tell a spill (costs
    /// disk I/O now) from a discard (costs recomputation later).
    pub spilled_bytes_per_executor: FxHashMap<ExecutorId, ByteSize>,
    /// Bytes evicted from memory and discarded outright, per executor.
    pub discarded_bytes_per_executor: FxHashMap<ExecutorId, ByteSize>,
    /// Cumulative bytes of cache data written to disk (a spill the full
    /// disk refused wrote nothing).
    pub disk_bytes_written: ByteSize,
    /// Peak bytes of cache data resident on disk.
    pub disk_bytes_peak: ByteSize,
    /// Sum of disk-resident cache bytes sampled at stage completions
    /// (divide by `disk_samples` for the paper's "average data on disk").
    pub disk_bytes_sampled_sum: ByteSize,
    /// Number of disk-residency samples taken.
    pub disk_samples: u64,
    /// Peak bytes resident in memory stores (cluster-wide).
    pub memory_bytes_peak: ByteSize,
    /// Recomputation time per (job, RDD) (Figs. 5 and 12b).
    pub recompute_by_job_rdd: FxHashMap<(JobId, RddId), SimDuration>,
    /// Cache hits served from memory.
    pub mem_hits: u64,
    /// Memory hits served from a serialized-in-memory block (the decision
    /// layer's s-state, `ser_tier`; a subset of `mem_hits`). Always zero
    /// when the serialized tier is disabled.
    pub ser_mem_hits: u64,
    /// In-place serialized-tier transitions applied (m -> s serializations,
    /// s -> m deserializations and d -> s promotions together). Always zero
    /// when the serialized tier is disabled.
    pub ser_transitions: u64,
    /// Cache hits served from disk.
    pub disk_hits: u64,
    /// Lookups of previously materialized blocks that found nothing and
    /// fell back to recomputation.
    pub recompute_misses: u64,
    /// Distinct warning-severity preflight diagnostics observed across the
    /// run (one per (code, dataset) pair; see `blaze-audit`).
    pub audit_warnings: u64,
    /// Recovery-work attribution under fault injection (all zero on a
    /// failure-free run).
    pub recovery: RecoveryMetrics,
    /// Straggler and speculative-execution attribution (all zero without
    /// injected stragglers).
    pub speculation: SpeculationMetrics,
    /// The simulated application completion time (Fig. 9's ACT).
    pub completion_time: SimTime,
}

impl Metrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one engine event into the aggregates: the only writer of every
    /// field.
    pub(crate) fn apply(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::JobStarted { .. } | TraceEvent::TaskPlanned { .. } => {}
            TraceEvent::JobCompleted { at, .. } => {
                self.jobs += 1;
                // A stream edited outside the engine may record completions
                // out of sim-clock order; the run ends at the latest.
                self.completion_time = self.completion_time.max(*at);
            }
            TraceEvent::TaskCommitted(task) => {
                self.accumulated.merge(&task.charge);
                self.tasks += 1;
            }
            TraceEvent::Cache(r) => self.apply_cache(r),
            TraceEvent::Recompute { job, id, duration, .. } => {
                *self.recompute_by_job_rdd.entry((*job, id.rdd)).or_default() += *duration;
            }
            TraceEvent::TaskRetry { cause, wasted, .. } => {
                match cause {
                    FaultCause::Transient => self.recovery.task_retries += 1,
                    FaultCause::ExecutorLost => self.recovery.tasks_lost_to_crash += 1,
                }
                self.recovery.wasted_time += *wasted;
            }
            TraceEvent::RecoveryReplay { duration, .. } => {
                self.recovery.lineage_replay_time += *duration;
            }
            TraceEvent::ExecutorCrashed { blocks_lost, bytes_lost, .. } => {
                // Map-output losses are counted from the per-output events
                // (a crash emits both the summary and one event per output).
                self.recovery.executor_crashes += 1;
                self.recovery.blocks_lost += blocks_lost;
                self.recovery.bytes_lost += *bytes_lost;
            }
            TraceEvent::MapOutputLost { .. } => self.recovery.map_outputs_lost += 1,
            TraceEvent::MapOutputRecovered { .. } => self.recovery.map_outputs_recovered += 1,
            TraceEvent::BlockRecovered { .. } => self.recovery.blocks_recovered += 1,
            TraceEvent::StageResubmitted { .. } => self.recovery.stages_resubmitted += 1,
            TraceEvent::Straggler { delay, .. } => {
                self.speculation.stragglers += 1;
                self.speculation.straggler_delay += *delay;
            }
            TraceEvent::Speculation { copy_won, wasted, .. } => {
                self.speculation.launched += 1;
                self.speculation.wins += u64::from(*copy_won);
                self.speculation.wasted += *wasted;
            }
            TraceEvent::SpillQuarantined { .. } => self.recovery.spills_quarantined += 1,
            TraceEvent::FetchRetry { backoff, .. } => {
                self.recovery.fetch_retries += 1;
                self.recovery.fetch_backoff_time += *backoff;
            }
            TraceEvent::FetchEscalated { .. } => self.recovery.fetch_escalations += 1,
            TraceEvent::StageCompleted { disk_resident: None, .. } => self.stages_skipped += 1,
            TraceEvent::StageCompleted { disk_resident: Some(resident), .. } => {
                self.stages_run += 1;
                self.disk_bytes_peak = self.disk_bytes_peak.max(*resident);
                self.disk_bytes_sampled_sum += *resident;
                self.disk_samples += 1;
            }
            TraceEvent::AuditWarning { .. } => self.audit_warnings += 1,
            TraceEvent::MemoryPeak { bytes, .. } => {
                self.memory_bytes_peak = self.memory_bytes_peak.max(*bytes);
            }
            TraceEvent::OffTaskCharge { charge, .. } => self.accumulated.merge(charge),
        }
    }

    /// The cache-decision arm of [`Self::apply`].
    fn apply_cache(&mut self, r: &CacheRecord) {
        match r.decision {
            CacheDecision::HitMemory => self.mem_hits += 1,
            CacheDecision::HitSerializedMemory => {
                self.mem_hits += 1;
                self.ser_mem_hits += 1;
            }
            CacheDecision::HitDisk => self.disk_hits += 1,
            CacheDecision::MissRecompute => self.recompute_misses += 1,
            CacheDecision::EvictToDisk => {
                self.evictions += 1;
                self.evictions_to_disk += 1;
                *self.spilled_bytes_per_executor.entry(r.executor).or_default() += r.bytes;
                self.disk_bytes_written += r.bytes;
            }
            // Still an eviction to disk; only the write did not happen.
            CacheDecision::SpillRefused => {
                self.disk_bytes_written = self.disk_bytes_written.saturating_sub(r.bytes);
            }
            CacheDecision::AdmitDisk => self.disk_bytes_written += r.bytes,
            CacheDecision::EvictDiscard => {
                self.evictions += 1;
                self.evictions_discard += 1;
                *self.discarded_bytes_per_executor.entry(r.executor).or_default() += r.bytes;
            }
            CacheDecision::SerializeInMemory
            | CacheDecision::DeserializeInMemory
            | CacheDecision::PromoteToSerializedMemory => self.ser_transitions += 1,
            CacheDecision::UnpersistMemory
            | CacheDecision::UnpersistDisk
            | CacheDecision::AdmitMemory
            | CacheDecision::PromoteToMemory
            | CacheDecision::LostMemory
            | CacheDecision::LostDisk => {}
        }
    }

    /// The aggregates of a whole event stream: what the engine's own
    /// [`Metrics`] hold after emitting `events`.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut metrics = Self::default();
        for ev in events {
            metrics.apply(ev);
        }
        metrics
    }

    /// Total bytes evicted from memory per executor, spills and discards
    /// combined (the quantity Fig. 3 plots).
    pub fn evicted_bytes_per_executor(&self) -> FxHashMap<ExecutorId, ByteSize> {
        let mut out = self.spilled_bytes_per_executor.clone();
        for (&e, &b) in &self.discarded_bytes_per_executor {
            *out.entry(e).or_default() += b;
        }
        out
    }

    /// The average disk-resident cache volume over sampled points.
    pub fn disk_bytes_avg(&self) -> ByteSize {
        self.disk_bytes_sampled_sum
            .as_bytes()
            .checked_div(self.disk_samples)
            .map_or(ByteSize::ZERO, ByteSize::from_bytes)
    }

    /// Total recomputation time across the whole run.
    pub fn total_recompute_time(&self) -> SimDuration {
        self.recompute_by_job_rdd.values().copied().sum()
    }

    /// Recomputation time aggregated per job, sorted by job.
    pub fn recompute_by_job(&self) -> Vec<(JobId, SimDuration)> {
        let mut per_job: FxHashMap<JobId, SimDuration> = FxHashMap::default();
        for (&(job, _), &t) in &self.recompute_by_job_rdd {
            *per_job.entry(job).or_default() += t;
        }
        let mut v: Vec<_> = per_job.into_iter().collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// The RDD with the highest recomputation time within `job`, if any.
    /// Ties break toward the smallest `RddId` — a total order, so the
    /// answer never depends on hash-map iteration order.
    pub fn top_recompute_rdd(&self, job: JobId) -> Option<(RddId, SimDuration)> {
        self.recompute_by_job_rdd
            .iter()
            .filter(|((j, _), _)| *j == job)
            .map(|((_, r), t)| (*r, *t))
            .max_by_key(|&(r, t)| (t, std::cmp::Reverse(r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_common::ids::BlockId;

    fn charge(compute_ms: u64, disk_ms: u64) -> TaskCharge {
        TaskCharge {
            compute: SimDuration::from_millis(compute_ms),
            disk_cache_write: SimDuration::from_millis(disk_ms),
            ..Default::default()
        }
    }

    fn ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    // Event builders: the tests below drive the fold, the only writer.

    fn cache(exec: u32, mib: u64, decision: CacheDecision) -> TraceEvent {
        TraceEvent::Cache(CacheRecord {
            at: SimTime::ZERO,
            executor: ExecutorId(exec),
            id: BlockId::new(RddId(1), 0),
            bytes: ByteSize::from_mib(mib),
            decision,
            rationale: None,
        })
    }

    fn recompute(job: u32, rdd: u32, secs: u64) -> TraceEvent {
        TraceEvent::Recompute {
            at: SimTime::ZERO,
            job: JobId(job),
            id: BlockId::new(RddId(rdd), 0),
            executor: ExecutorId(0),
            depth: 0,
            duration: SimDuration::from_secs(secs),
        }
    }

    fn replay(job: u32, secs: u64) -> TraceEvent {
        TraceEvent::RecoveryReplay {
            at: SimTime::ZERO,
            job: JobId(job),
            stage_output: RddId(1),
            partition: 0,
            duration: SimDuration::from_secs(secs),
        }
    }

    #[test]
    fn charges_aggregate_by_category() {
        let task = |c| TraceEvent::TaskCommitted(TaskTrace { charge: c, ..trace_at(0, 1, 0, 0) });
        let m = Metrics::from_events(&[task(charge(10, 5)), task(charge(20, 0))]);
        assert_eq!(m.tasks, 2);
        assert_eq!(m.accumulated.computation_and_shuffle(), SimDuration::from_millis(30));
        assert_eq!(m.accumulated.disk_io_for_caching(), SimDuration::from_millis(5));
        assert_eq!(m.accumulated.total(), SimDuration::from_millis(35));
    }

    #[test]
    fn evictions_split_by_kind_and_executor() {
        // Regression: spill and discard volumes used to be lumped into one
        // per-executor map, so disk-pressure reporting could not tell a
        // 4 MiB spill from a 4 MiB discard.
        let m = Metrics::from_events(&[
            cache(0, 4, CacheDecision::EvictToDisk),
            cache(0, 2, CacheDecision::EvictDiscard),
            cache(1, 1, CacheDecision::EvictDiscard),
        ]);
        assert_eq!(m.evictions, 3);
        assert_eq!(m.evictions_to_disk, 1);
        assert_eq!(m.evictions_discard, 2);
        assert_eq!(m.spilled_bytes_per_executor[&ExecutorId(0)], ByteSize::from_mib(4));
        assert_eq!(m.discarded_bytes_per_executor[&ExecutorId(0)], ByteSize::from_mib(2));
        assert!(!m.spilled_bytes_per_executor.contains_key(&ExecutorId(1)));
        assert_eq!(m.discarded_bytes_per_executor[&ExecutorId(1)], ByteSize::from_mib(1));
        // The combined view still reports Fig. 3's total volume.
        let combined = m.evicted_bytes_per_executor();
        assert_eq!(combined[&ExecutorId(0)], ByteSize::from_mib(6));
        assert_eq!(combined[&ExecutorId(1)], ByteSize::from_mib(1));
    }

    #[test]
    fn recompute_attribution_per_job_and_rdd() {
        let m = Metrics::from_events(&[recompute(1, 7, 2), recompute(1, 9, 5), recompute(2, 9, 1)]);
        assert_eq!(m.total_recompute_time(), SimDuration::from_secs(8));
        assert_eq!(
            m.recompute_by_job(),
            vec![(JobId(1), SimDuration::from_secs(7)), (JobId(2), SimDuration::from_secs(1))]
        );
        assert_eq!(m.top_recompute_rdd(JobId(1)), Some((RddId(9), SimDuration::from_secs(5))));
        assert_eq!(m.top_recompute_rdd(JobId(3)), None);
    }

    fn stage(disk_resident_mib: Option<u64>) -> TraceEvent {
        TraceEvent::StageCompleted {
            at: SimTime::ZERO,
            job: JobId(0),
            stage_output: RddId(1),
            disk_resident: disk_resident_mib.map(ByteSize::from_mib),
        }
    }

    #[test]
    fn disk_residency_sampling() {
        // A skipped stage takes no sample.
        let m = Metrics::from_events(&[stage(Some(10)), stage(None), stage(Some(30))]);
        assert_eq!((m.stages_run, m.stages_skipped, m.disk_samples), (2, 1, 2));
        assert_eq!(m.disk_bytes_peak, ByteSize::from_mib(30));
        assert_eq!(m.disk_bytes_avg(), ByteSize::from_mib(20));
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = Metrics::new();
        assert_eq!(m.disk_bytes_avg(), ByteSize::ZERO);
        assert_eq!(m.total_recompute_time(), SimDuration::ZERO);
        assert!(m.recompute_by_job().is_empty());
        assert_eq!(m.recovery, RecoveryMetrics::default());
        assert_eq!(m.recovery.total_recovery_time(), SimDuration::ZERO);
    }

    /// The fold's whole contract in one place: a log holding every
    /// [`TraceEvent`] variant and every [`CacheDecision`] folds to exactly
    /// this literal. The literal names every field, so a field added without a fold arm
    /// fails to compile here.
    #[test]
    fn from_events_folds_every_event_kind() {
        use CacheDecision as D;
        use TraceEvent as E;
        fn map<K: std::hash::Hash + Eq, V, const N: usize>(kv: [(K, V); N]) -> FxHashMap<K, V> {
            kv.into_iter().collect()
        }
        let (at, job, job1) = (SimTime::ZERO, JobId(0), JobId(1));
        let (stage_output, partition, executor, attempt) = (RddId(1), 0, ExecutorId(0), 0);
        let (child, dep_idx, map_part, reduce_part) = (RddId(1), 0, 0, 0);
        let (id, bytes, dur) =
            (BlockId::new(RddId(1), 0), ByteSize::from_mib(2), SimDuration::from_millis);
        let task = TaskTrace { charge: charge(10, 5), ..trace_at(0, 1, 0, 15) };
        let off_task = TaskCharge { disk_cache_read: dur(7), ..Default::default() };
        let retry = |cause, wasted| E::TaskRetry {
            at,
            job,
            stage_output,
            partition,
            attempt,
            cause,
            wasted,
        };
        let events = [
            E::JobStarted { at, job, target: RddId(1) },
            E::TaskPlanned { at, job, stage_output, partition, executor },
            cache(0, 1, D::AdmitMemory),
            cache(0, 1, D::AdmitDisk),
            cache(0, 1, D::HitMemory),
            cache(0, 1, D::HitSerializedMemory),
            cache(0, 1, D::HitDisk),
            cache(0, 1, D::MissRecompute),
            cache(0, 4, D::EvictToDisk),
            // Not the spill's 4 MiB, so each disk-write arm shows in the sum.
            cache(0, 3, D::SpillRefused),
            cache(1, 2, D::EvictDiscard),
            cache(0, 1, D::PromoteToMemory),
            cache(0, 1, D::SerializeInMemory),
            cache(0, 1, D::DeserializeInMemory),
            cache(0, 1, D::PromoteToSerializedMemory),
            cache(0, 1, D::UnpersistMemory),
            cache(0, 1, D::UnpersistDisk),
            cache(0, 1, D::LostMemory),
            cache(0, 1, D::LostDisk),
            recompute(0, 5, 2),
            retry(FaultCause::Transient, dur(1)),
            retry(FaultCause::ExecutorLost, dur(2)),
            replay(0, 4),
            // `map_outputs_lost` is not folded: the per-output events are.
            E::ExecutorCrashed {
                at,
                executor,
                blocks_lost: 2,
                bytes_lost: bytes,
                map_outputs_lost: 7,
            },
            E::MapOutputLost { at, child, dep_idx, map_part },
            E::MapOutputRecovered { at, child, dep_idx, map_part },
            E::BlockRecovered { at, id },
            E::StageResubmitted { at, job, stage_output },
            E::Straggler { at, job, stage_output, partition, delay: dur(3) },
            E::Speculation {
                at,
                job,
                stage_output,
                partition,
                copy_executor: executor,
                copy_won: true,
                wasted: dur(5),
            },
            E::SpillQuarantined { at, executor, id, bytes },
            E::FetchRetry { at, job, child, dep_idx, reduce_part, attempt, backoff: dur(6) },
            E::FetchEscalated { at, job, child, dep_idx, reduce_part },
            stage(Some(6)),
            stage(None),
            stage(Some(2)),
            E::AuditWarning { at, code: blaze_audit::DiagCode::RecomputeBomb, rdd: None },
            E::MemoryPeak { at, bytes: ByteSize::from_mib(8) },
            E::MemoryPeak { at, bytes: ByteSize::from_mib(5) }, // a peak never falls
            E::OffTaskCharge { at, executor, charge: off_task },
            E::TaskCommitted(task),
            E::JobCompleted { at: ms(40), job },
            // Recorded after job 0 but earlier on the clock: the run still
            // ends at the latest completion.
            E::JobStarted { at, job: job1, target: RddId(1) },
            E::JobCompleted { at: ms(20), job: job1 },
        ];
        let expected = Metrics {
            // The task's charge plus the off-task prefetch read.
            accumulated: TaskCharge { disk_cache_read: dur(7), ..charge(10, 5) },
            tasks: 1,
            jobs: 2,
            stages_run: 2,
            stages_skipped: 1,
            evictions: 2,
            evictions_discard: 1,
            evictions_to_disk: 1,
            spilled_bytes_per_executor: map([(ExecutorId(0), ByteSize::from_mib(4))]),
            discarded_bytes_per_executor: map([(ExecutorId(1), ByteSize::from_mib(2))]),
            // Admitted 1 + spilled 4 - refused 3.
            disk_bytes_written: ByteSize::from_mib(2),
            disk_bytes_peak: ByteSize::from_mib(6),
            disk_bytes_sampled_sum: ByteSize::from_mib(8),
            disk_samples: 2,
            memory_bytes_peak: ByteSize::from_mib(8),
            recompute_by_job_rdd: map([((job, RddId(5)), SimDuration::from_secs(2))]),
            mem_hits: 2,
            ser_mem_hits: 1,
            ser_transitions: 3,
            disk_hits: 1,
            recompute_misses: 1,
            audit_warnings: 1,
            recovery: RecoveryMetrics {
                task_retries: 1,
                tasks_lost_to_crash: 1,
                executor_crashes: 1,
                blocks_lost: 2,
                bytes_lost: bytes,
                blocks_recovered: 1,
                map_outputs_lost: 1,
                map_outputs_recovered: 1,
                stages_resubmitted: 1,
                spills_quarantined: 1,
                fetch_retries: 1,
                fetch_backoff_time: dur(6),
                fetch_escalations: 1,
                wasted_time: dur(3),
                lineage_replay_time: SimDuration::from_secs(4),
            },
            speculation: SpeculationMetrics {
                stragglers: 1,
                straggler_delay: dur(3),
                launched: 1,
                wins: 1,
                wasted: dur(5),
            },
            completion_time: ms(40),
        };
        assert_eq!(Metrics::from_events(&events), expected);
    }

    #[test]
    fn recovery_time_adds_replay_and_wasted_time() {
        let events = [replay(2, 1), replay(0, 2), replay(2, 3), replay(1, 0)];
        let mut r = Metrics::from_events(&events).recovery;
        assert_eq!(r.lineage_replay_time, SimDuration::from_secs(6));
        r.wasted_time = SimDuration::from_secs(1);
        assert_eq!(r.total_recovery_time(), SimDuration::from_secs(7));
    }

    #[test]
    fn top_recompute_rdd_breaks_ties_by_smallest_rdd_id() {
        // Regression: ties used to be broken by FxHashMap iteration order,
        // which is a function of the hash — not of anything meaningful.
        // With many equal-time RDDs the winner must be the smallest id,
        // whatever order the entries were recorded in.
        let t = SimDuration::from_secs(3);
        let mut events: Vec<TraceEvent> = (1..=16).map(|r| recompute(0, r, 3)).collect();
        let forward = Metrics::from_events(&events);
        events.reverse();
        let backward = Metrics::from_events(&events);
        assert_eq!(forward.top_recompute_rdd(JobId(0)), Some((RddId(1), t)));
        assert_eq!(backward.top_recompute_rdd(JobId(0)), Some((RddId(1), t)));
        // A strictly larger time still wins regardless of id.
        events.push(recompute(0, 9, 1));
        let forward = Metrics::from_events(&events);
        assert_eq!(
            forward.top_recompute_rdd(JobId(0)),
            Some((RddId(9), SimDuration::from_secs(4)))
        );
    }

    fn trace_at(job: u32, stage: u32, part: u32, dur_ms: u64) -> TaskTrace {
        TaskTrace {
            job: JobId(job),
            stage_output: RddId(stage),
            partition: part,
            executor: ExecutorId(0),
            slot: 0,
            start: SimTime::ZERO,
            end: ms(dur_ms),
            charge: TaskCharge::default(),
        }
    }

    #[test]
    fn fault_wasted_counts_into_the_total_charge() {
        let mut c = charge(10, 0);
        c.fault_wasted = SimDuration::from_millis(7);
        assert_eq!(c.total(), SimDuration::from_millis(17));
        // But not into either paper-breakdown component.
        assert_eq!(c.computation_and_shuffle(), SimDuration::from_millis(10));
        assert_eq!(c.disk_io_for_caching(), SimDuration::ZERO);
    }

    #[test]
    fn degradation_charges_count_into_the_total_but_not_the_breakdown() {
        let mut c = charge(10, 0);
        c.straggler_delay = SimDuration::from_millis(30);
        c.fetch_backoff = SimDuration::from_millis(5);
        assert_eq!(c.total(), SimDuration::from_millis(45));
        // Like fault_wasted: slot time, not useful work in either paper
        // breakdown component.
        assert_eq!(c.computation_and_shuffle(), SimDuration::from_millis(10));
        assert_eq!(c.disk_io_for_caching(), SimDuration::ZERO);
        let mut sum = TaskCharge::default();
        sum.merge(&c);
        sum.merge(&c);
        assert_eq!(sum.straggler_delay, SimDuration::from_millis(60));
        assert_eq!(sum.fetch_backoff, SimDuration::from_millis(10));
    }

    #[test]
    fn fetch_backoff_counts_into_total_recovery_time() {
        let r = RecoveryMetrics {
            wasted_time: SimDuration::from_secs(1),
            lineage_replay_time: SimDuration::from_secs(2),
            fetch_backoff_time: SimDuration::from_secs(4),
            ..Default::default()
        };
        assert_eq!(r.total_recovery_time(), SimDuration::from_secs(7));
    }

    #[test]
    fn speculation_metrics_default_to_zero() {
        let m = Metrics::new();
        assert_eq!(m.speculation, SpeculationMetrics::default());
        assert_eq!(m.speculation.stragglers, 0);
        assert_eq!(m.speculation.wasted, SimDuration::ZERO);
    }
}
