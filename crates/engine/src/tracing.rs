//! Structured, deterministic event tracing.
//!
//! The engine accounts for every task-lifecycle step, cache decision (with
//! the deciding policy's rationale), recomputation span, recovery action,
//! stage completion (with its disk-residency sample), preflight warning,
//! memory high-water mark and off-task charge by emitting one
//! sim-clock-timestamped [`TraceEvent`], which is folded into the aggregate
//! [`Metrics`] ([`Metrics::from_events`] over a whole stream) and, when
//! [`crate::config::ClusterConfig::tracing`] is on, retained in a
//! [`TraceLog`] — the auditable form of every metric field.
//!
//! Three contracts:
//!
//! - **One path.** Tracing on or off, the engine emits the same events in
//!   the same order and derives the same metrics from them; `tracing:
//!   false` (the default) only means the events are not retained, and the
//!   policy rationale strings are not built.
//! - **Deterministic.** Every event is recorded during the serial commit
//!   phase of the plan/execute/commit pipeline (or in other serial engine
//!   paths), so the log is byte-identical across `worker_threads` settings
//!   and repeated runs.
//! - **Self-checking.** [`TraceLog::validate`] replays the log against a
//!   [`Metrics`] and reports BA4xx diagnostics when span nesting is
//!   violated (BA401), folding the events does not reproduce the metrics,
//!   compared as one whole struct (BA402 — impossible for the engine's own
//!   log and metrics, so it guards logs edited or produced outside the
//!   engine, and any accounting that bypasses the events), or a cache
//!   event is unpaired — e.g. an eviction with no earlier admission (BA403).
//!   One finding is about the policy, not the bookkeeping, and is a warning:
//!   a block a controller command dropped and a later task recomputed (BA404).
//!
//! Exports: Chrome trace-event JSON ([`TraceLog::chrome_json`], loadable in
//! `chrome://tracing` / Perfetto) and a human-readable per-job cache-decision
//! ledger ([`TraceLog::ledger`]). The `blaze-trace` CLI in `blaze-bench`
//! renders, explains, validates and diffs these.

use crate::fault::FaultCause;
use crate::metrics::{Metrics, TaskCharge, TaskTrace};
use blaze_audit::{AuditReport, DiagCode, Diagnostic};
use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::{AppId, BlockId, ExecutorId, JobId, RddId};
use blaze_common::{ByteSize, SimDuration, SimTime};
use std::fmt::Write as _;

/// What the cache layer decided about one block, at one moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDecision {
    /// Admitted into an executor's memory store.
    AdmitMemory,
    /// Admitted (or spilled on admission failure) into a disk store.
    AdmitDisk,
    /// Served from a memory store.
    HitMemory,
    /// Served from a memory store where the block was held in serialized
    /// form (state s); the reader paid a deserialization charge. Counted
    /// as a memory hit in the aggregates, with `ser_mem_hits` as the
    /// serialized subset. Never emitted unless the serialized tier is on.
    HitSerializedMemory,
    /// Served from a disk store.
    HitDisk,
    /// A previously materialized block was found nowhere and fell back to
    /// recomputation.
    MissRecompute,
    /// Evicted from memory and spilled to disk (state m -> d).
    EvictToDisk,
    /// Evicted from memory and discarded (state m -> u).
    EvictDiscard,
    /// The disk store refused the write of the [`Self::EvictToDisk`] just
    /// recorded for this block (the disk is full): the block left memory
    /// and was not spilled, and its bytes do not count as written.
    SpillRefused,
    /// Moved from disk into memory (promotion / prefetch, d -> m).
    PromoteToMemory,
    /// Compacted in place from deserialized to serialized memory form
    /// (state m -> s). The block stays memory-resident; only its stored
    /// footprint changes, so this neither inserts nor removes for the
    /// residency replay. Never emitted unless the serialized tier is on.
    SerializeInMemory,
    /// Expanded in place from serialized to deserialized memory form
    /// (state s -> m). Residency no-op, like [`Self::SerializeInMemory`].
    DeserializeInMemory,
    /// Moved from disk into memory in serialized form (d -> s): a disk
    /// read without the deserialization leg. Never emitted unless the
    /// serialized tier is on.
    PromoteToSerializedMemory,
    /// Removed from a memory store by an unpersist (user or controller).
    UnpersistMemory,
    /// Removed from a disk store by an unpersist (user or controller).
    UnpersistDisk,
    /// Destroyed in a memory store by an executor loss.
    LostMemory,
    /// Destroyed in a disk store by an executor loss.
    LostDisk,
}

impl CacheDecision {
    /// Stable short label used by the ledger and Chrome export.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDecision::AdmitMemory => "admit-mem",
            CacheDecision::AdmitDisk => "admit-disk",
            CacheDecision::HitMemory => "hit-mem",
            CacheDecision::HitSerializedMemory => "hit-ser-mem",
            CacheDecision::HitDisk => "hit-disk",
            CacheDecision::MissRecompute => "miss-recompute",
            CacheDecision::EvictToDisk => "evict-to-disk",
            CacheDecision::EvictDiscard => "evict-discard",
            CacheDecision::SpillRefused => "spill-refused",
            CacheDecision::PromoteToMemory => "promote-to-mem",
            CacheDecision::SerializeInMemory => "ser-in-mem",
            CacheDecision::DeserializeInMemory => "deser-in-mem",
            CacheDecision::PromoteToSerializedMemory => "promote-to-ser",
            CacheDecision::UnpersistMemory => "unpersist-mem",
            CacheDecision::UnpersistDisk => "unpersist-disk",
            CacheDecision::LostMemory => "lost-mem",
            CacheDecision::LostDisk => "lost-disk",
        }
    }

    /// True for decisions that insert the block into a *memory* store.
    fn inserts_memory(self) -> bool {
        matches!(
            self,
            CacheDecision::AdmitMemory
                | CacheDecision::PromoteToMemory
                | CacheDecision::PromoteToSerializedMemory
        )
    }

    /// True for decisions that remove the block from a *memory* store.
    fn removes_memory(self) -> bool {
        matches!(
            self,
            CacheDecision::EvictToDisk
                | CacheDecision::EvictDiscard
                | CacheDecision::UnpersistMemory
                | CacheDecision::LostMemory
        )
    }
}

/// One cache decision: which block, where, how big, and — when the
/// installed policy can explain itself — why (its score, refcount or
/// reference distance at decision time).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheRecord {
    /// Simulated time of the decision.
    pub at: SimTime,
    /// The application on whose behalf the engine was executing when the
    /// decision was made (`app-0` outside multi-app sessions). For hits
    /// this is the *reader*, so a hit recorded under a different app than
    /// the one that produced the block is a cross-app hit.
    pub app: AppId,
    /// The application that first materialized the block (`app` itself when
    /// nobody has yet). Evictions and unpersists are attributed to it, not
    /// to the app that forced them; no exporter prints it.
    pub owner: AppId,
    /// Executor whose store the decision concerns (for hits: the reader).
    pub executor: ExecutorId,
    /// The block decided about.
    pub id: BlockId,
    /// Logical bytes of the block.
    pub bytes: ByteSize,
    /// What was decided.
    pub decision: CacheDecision,
    /// The deciding policy's rationale
    /// ([`crate::controller::CacheController::explain_block`]), captured
    /// before the decision was applied. `None` when the policy keeps no
    /// per-block state or the decision needs no justification.
    pub rationale: Option<String>,
}

/// One entry of the event log. All variants are stamped with simulated
/// time; ordering within the log is the deterministic commit order.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A job began (one action trigger).
    JobStarted {
        /// Simulated start time (the job's clock floor).
        at: SimTime,
        /// The application the job belongs to.
        app: AppId,
        /// The job.
        job: JobId,
        /// The action's target dataset.
        target: RddId,
    },
    /// A job finished; `at` is the job's simulated completion time.
    JobCompleted {
        /// Simulated completion time.
        at: SimTime,
        /// The application the job belongs to.
        app: AppId,
        /// The job.
        job: JobId,
    },
    /// A task was placed on an executor during the serial plan phase.
    TaskPlanned {
        /// Time of the placement decision (the stage's earliest start).
        at: SimTime,
        /// The application the job belongs to.
        app: AppId,
        /// Job the task belongs to.
        job: JobId,
        /// The RDD the task's stage materializes.
        stage_output: RddId,
        /// Partition index.
        partition: u32,
        /// The locality-chosen executor.
        executor: ExecutorId,
    },
    /// A task attempt died (injected transient fault or executor loss) and
    /// the task was retried.
    TaskRetry {
        /// Commit time of the surviving task that replays this attempt.
        at: SimTime,
        /// The application the job belongs to.
        app: AppId,
        /// Job the task belongs to.
        job: JobId,
        /// The RDD the task's stage materializes.
        stage_output: RddId,
        /// Partition index.
        partition: u32,
        /// Zero-based attempt index that failed.
        attempt: u32,
        /// Why the attempt died.
        cause: FaultCause,
        /// Slot time the dead attempt burned.
        wasted: SimDuration,
    },
    /// A task committed: its simulated span on an executor slot, with the
    /// charge breakdown the metrics fold sums (no exporter prints that).
    TaskCommitted(TaskTrace),
    /// A cache decision (admit / hit / miss / evict / unpersist / loss).
    Cache(CacheRecord),
    /// A lineage edge was re-executed for a previously materialized block.
    Recompute {
        /// Commit time of the recomputing task.
        at: SimTime,
        /// The application the job belongs to.
        app: AppId,
        /// Job during which the recomputation ran.
        job: JobId,
        /// The recomputed block.
        id: BlockId,
        /// Executor that recomputed it.
        executor: ExecutorId,
        /// Lineage depth below the task's stage output (0 = the output
        /// itself): how deep the miss forced the task to recurse.
        depth: u32,
        /// Simulated time of the re-executed edge.
        duration: SimDuration,
    },
    /// A task spent part of its charge replaying lineage to re-produce
    /// fault-lost data.
    RecoveryReplay {
        /// Commit time of the task.
        at: SimTime,
        /// The application the job belongs to.
        app: AppId,
        /// Job the task belonged to.
        job: JobId,
        /// The RDD the task's stage materialized.
        stage_output: RddId,
        /// Partition index.
        partition: u32,
        /// Recovery slice of the task's charge.
        duration: SimDuration,
    },
    /// An executor crashed and was replaced; summary of what it took down.
    ExecutorCrashed {
        /// Simulated time the crash fired.
        at: SimTime,
        /// The crashed executor.
        executor: ExecutorId,
        /// Cached blocks destroyed (memory + disk).
        blocks_lost: u64,
        /// Logical bytes of cached data destroyed.
        bytes_lost: ByteSize,
        /// Shuffle map outputs destroyed (no external shuffle service).
        map_outputs_lost: u64,
    },
    /// One shuffle map output was destroyed by a fault.
    MapOutputLost {
        /// Simulated time of the loss.
        at: SimTime,
        /// Consuming RDD of the shuffle.
        child: RddId,
        /// Shuffle-dependency index within the consumer.
        dep_idx: u32,
        /// The destroyed map task's partition index.
        map_part: u32,
    },
    /// A previously lost map output was regenerated through lineage.
    MapOutputRecovered {
        /// Commit time of the regenerating task.
        at: SimTime,
        /// Consuming RDD of the shuffle.
        child: RddId,
        /// Shuffle-dependency index within the consumer.
        dep_idx: u32,
        /// The regenerated map task's partition index.
        map_part: u32,
    },
    /// A fault-lost cached block was re-produced through lineage.
    BlockRecovered {
        /// Commit time of the recovering task.
        at: SimTime,
        /// The recovered block.
        id: BlockId,
    },
    /// A map stage re-ran because its registered shuffle outputs were lost
    /// (Spark's fetch-failure stage resubmission).
    StageResubmitted {
        /// The stage's start time.
        at: SimTime,
        /// The application the job belongs to.
        app: AppId,
        /// Job the stage belongs to.
        job: JobId,
        /// The stage's output RDD.
        stage_output: RddId,
    },
    /// A task the fault plan marked as a straggler committed. `delay` is
    /// the extra slot time the injected slowdown cost the committed attempt
    /// (zero when a speculative copy won the race instead).
    Straggler {
        /// Commit time of the task.
        at: SimTime,
        /// The application the job belongs to.
        app: AppId,
        /// Job the task belongs to.
        job: JobId,
        /// The RDD the task's stage materializes.
        stage_output: RddId,
        /// Partition index.
        partition: u32,
        /// Slowdown charged to the committed attempt.
        delay: SimDuration,
    },
    /// A speculative copy raced a straggling task; whichever attempt
    /// finished first committed, the loser's slot time was wasted.
    Speculation {
        /// Commit time of the winning attempt.
        at: SimTime,
        /// The application the job belongs to.
        app: AppId,
        /// Job the task belongs to.
        job: JobId,
        /// The RDD the task's stage materializes.
        stage_output: RddId,
        /// Partition index.
        partition: u32,
        /// Executor the speculative copy ran on.
        copy_executor: ExecutorId,
        /// True when the copy finished first and was committed.
        copy_won: bool,
        /// Slot time burned by the losing attempt.
        wasted: SimDuration,
    },
    /// A spilled block failed checksum verification on read; it was
    /// dropped from the disk tier and re-produced through lineage.
    SpillQuarantined {
        /// Commit time of the detecting task.
        at: SimTime,
        /// Executor whose disk tier held the corrupt block.
        executor: ExecutorId,
        /// The quarantined block.
        id: BlockId,
        /// Logical bytes dropped.
        bytes: ByteSize,
    },
    /// A shuffle-fetch attempt failed and was retried after a deterministic
    /// backoff wait on the sim clock.
    FetchRetry {
        /// Commit time of the fetching task.
        at: SimTime,
        /// The application the job belongs to.
        app: AppId,
        /// Job the fetch belongs to.
        job: JobId,
        /// Consuming RDD of the shuffle.
        child: RddId,
        /// Shuffle-dependency index within the consumer.
        dep_idx: u32,
        /// The fetching reduce task's partition index.
        reduce_part: u32,
        /// Zero-based attempt index that failed.
        attempt: u32,
        /// Backoff wait charged before the next attempt.
        backoff: SimDuration,
    },
    /// Every fetch attempt in the retry budget failed; the parent stage's
    /// map outputs were regenerated through lineage (the engine's inline
    /// form of parent-stage resubmission).
    FetchEscalated {
        /// Commit time of the fetching task.
        at: SimTime,
        /// The application the job belongs to.
        app: AppId,
        /// Job the fetch belongs to.
        job: JobId,
        /// Consuming RDD of the shuffle.
        child: RddId,
        /// Shuffle-dependency index within the consumer.
        dep_idx: u32,
        /// The fetching reduce task's partition index.
        reduce_part: u32,
    },
    /// A stage finished, after its completion hook's commands were applied:
    /// it ran, or it was skipped because its shuffle outputs existed.
    StageCompleted {
        /// The stage's end time (a skipped stage's: its start).
        at: SimTime,
        /// The application the job belongs to.
        app: AppId,
        /// Job the stage belongs to.
        job: JobId,
        /// The stage's output RDD.
        stage_output: RddId,
        /// Cache bytes then resident on disk, cluster-wide: the sample
        /// behind the "average data on disk" (§7.2). `None` for a skipped
        /// stage, which takes no sample.
        disk_resident: Option<ByteSize>,
    },
    /// A warning-severity preflight diagnostic, the first of its `(code,
    /// dataset)` pair in the run (see `blaze-audit`).
    AuditWarning {
        /// Admission time of the job whose preflight found it.
        at: SimTime,
        /// The application submitting that job.
        app: AppId,
        /// The diagnostic's code.
        code: DiagCode,
        /// The dataset it concerns, if any.
        rdd: Option<RddId>,
    },
    /// The memory stores together grew past every earlier total of the run
    /// (an admission, a promotion or an in-place deserialization).
    MemoryPeak {
        /// Time of the growth.
        at: SimTime,
        /// The new cluster-wide memory-resident total.
        bytes: ByteSize,
    },
    /// Time charged outside any task: a controller-commanded spill or
    /// in-place (de)serialization, which occupies a slot of `executor`, or
    /// a promotion's prefetch read, which overlaps computation.
    OffTaskCharge {
        /// Time of the command.
        at: SimTime,
        /// Executor the data moved on.
        executor: ExecutorId,
        /// The charge, summed into the accumulated task-time breakdown.
        charge: TaskCharge,
    },
}

impl TraceEvent {
    /// The event's simulated timestamp (tasks: their start).
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::JobStarted { at, .. }
            | TraceEvent::JobCompleted { at, .. }
            | TraceEvent::TaskPlanned { at, .. }
            | TraceEvent::TaskRetry { at, .. }
            | TraceEvent::Recompute { at, .. }
            | TraceEvent::RecoveryReplay { at, .. }
            | TraceEvent::ExecutorCrashed { at, .. }
            | TraceEvent::MapOutputLost { at, .. }
            | TraceEvent::MapOutputRecovered { at, .. }
            | TraceEvent::BlockRecovered { at, .. }
            | TraceEvent::StageResubmitted { at, .. }
            | TraceEvent::Straggler { at, .. }
            | TraceEvent::Speculation { at, .. }
            | TraceEvent::SpillQuarantined { at, .. }
            | TraceEvent::FetchRetry { at, .. }
            | TraceEvent::FetchEscalated { at, .. }
            | TraceEvent::StageCompleted { at, .. }
            | TraceEvent::AuditWarning { at, .. }
            | TraceEvent::MemoryPeak { at, .. }
            | TraceEvent::OffTaskCharge { at, .. } => *at,
            TraceEvent::TaskCommitted(task) => task.start,
            TraceEvent::Cache(r) => r.at,
        }
    }
}

/// The structured event log of one application run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event (engine-internal; order is commit order).
    pub fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// The recorded events, in deterministic commit order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    // ---- Exports -----------------------------------------------------------

    /// Renders the log as Chrome trace-event JSON (the `chrome://tracing` /
    /// Perfetto format): tasks become complete (`"X"`) spans with
    /// `pid` = executor and `tid` = slot; everything else becomes instant
    /// (`"i"`) events. Timestamps are microseconds with nanosecond
    /// fractions, so the export is lossless and byte-deterministic.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for ev in &self.events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            match ev {
                TraceEvent::TaskCommitted(t) => {
                    let _ = write!(
                        out,
                        "{{\"name\":{},\"cat\":\"task\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                         \"pid\":{},\"tid\":{},\"args\":{{\"app\":{},\"job\":{}}}}}",
                        json_string(&format!("{}[{}]", t.stage_output, t.partition)),
                        micros(t.start.as_nanos()),
                        micros(t.duration().as_nanos()),
                        t.executor.raw(),
                        t.slot,
                        t.app.raw(),
                        t.job.raw(),
                    );
                }
                TraceEvent::Cache(r) => {
                    let _ = write!(
                        out,
                        "{{\"name\":{},\"cat\":\"cache\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{},\
                         \"pid\":{},\"tid\":0,\"args\":{{\"app\":{},\"block\":{},\"bytes\":{},\
                         \"why\":{}}}}}",
                        json_string(r.decision.as_str()),
                        micros(r.at.as_nanos()),
                        r.executor.raw(),
                        r.app.raw(),
                        json_string(&r.id.to_string()),
                        r.bytes.as_bytes(),
                        json_string(r.rationale.as_deref().unwrap_or("")),
                    );
                }
                other => {
                    let _ = write!(
                        out,
                        "{{\"name\":{},\"cat\":\"engine\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\
                         \"pid\":0,\"tid\":0,\"args\":{{\"detail\":{}}}}}",
                        json_string(event_name(other)),
                        micros(other.at().as_nanos()),
                        json_string(&event_detail(other)),
                    );
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Renders the per-job cache-decision ledger: one line per decision,
    /// grouped under the job of the app that was running when it was made
    /// (decisions outside any of that app's jobs are attributed to the
    /// preceding job boundary). With co-running apps each app has its own
    /// open job, so attribution follows the record's `app` field.
    pub fn ledger(&self) -> String {
        let mut out = String::new();
        let mut open: FxHashMap<AppId, JobId> = FxHashMap::default();
        for ev in &self.events {
            match ev {
                TraceEvent::JobStarted { at, app, job, target } => {
                    open.insert(*app, *job);
                    let _ = writeln!(out, "{app}/{job} (target {target}) started at {at}:");
                }
                TraceEvent::JobCompleted { at, app, job } => {
                    let _ = writeln!(out, "{app}/{job} completed at {at}");
                    open.remove(app);
                }
                TraceEvent::Cache(r) => {
                    let scope = match open.get(&r.app) {
                        Some(j) => format!("{}/{j}", r.app),
                        None => format!("{}/between-jobs", r.app),
                    };
                    let _ = write!(
                        out,
                        "  [{scope}] {} {:<14} {} on {} ({})",
                        r.at,
                        r.decision.as_str(),
                        r.id,
                        r.executor,
                        r.bytes,
                    );
                    if let Some(why) = &r.rationale {
                        let _ = write!(out, " why: {why}");
                    }
                    out.push('\n');
                }
                _ => {}
            }
        }
        out
    }

    /// Explains one block's cache history: every decision that touched it,
    /// in order, plus its final memory/disk residency per the trace.
    pub fn explain(&self, id: BlockId) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "history of {id}:");
        let mut mem: Option<ExecutorId> = None;
        let mut disk: Option<ExecutorId> = None;
        let mut before_spill: Option<ExecutorId> = None;
        let mut seen = 0usize;
        for ev in &self.events {
            let TraceEvent::Cache(r) = ev else { continue };
            if r.id != id {
                continue;
            }
            seen += 1;
            let _ = write!(
                out,
                "  {} {:<14} on {} ({})",
                r.at,
                r.decision.as_str(),
                r.executor,
                r.bytes
            );
            if let Some(why) = &r.rationale {
                let _ = write!(out, " why: {why}");
            }
            out.push('\n');
            match r.decision {
                d if d.inserts_memory() => mem = Some(r.executor),
                d if d.removes_memory() => mem = None,
                _ => {}
            }
            match r.decision {
                CacheDecision::AdmitDisk => disk = Some(r.executor),
                CacheDecision::EvictToDisk => before_spill = disk.replace(r.executor),
                // The write never happened: residency is what it was before.
                CacheDecision::SpillRefused => disk = before_spill,
                CacheDecision::PromoteToMemory
                | CacheDecision::PromoteToSerializedMemory
                | CacheDecision::UnpersistDisk
                | CacheDecision::LostDisk => disk = None,
                _ => {}
            }
        }
        if seen == 0 {
            let _ = writeln!(out, "  (no cache decisions recorded for this block)");
        }
        let fmt_res = |r: Option<ExecutorId>| match r {
            Some(e) => format!("resident on {e}"),
            None => "not resident".to_string(),
        };
        let _ = writeln!(out, "  final: memory {}, disk {}", fmt_res(mem), fmt_res(disk));
        out
    }

    /// Diffs two traces: reports the first diverging event (with one event
    /// of context on each side) or states that they are identical.
    pub fn diff(&self, other: &TraceLog) -> String {
        let n = self.events.len().min(other.events.len());
        for i in 0..n {
            if self.events[i] != other.events[i] {
                return format!(
                    "traces diverge at event {i}:\n  left:  {:?}\n  right: {:?}\n",
                    self.events[i], other.events[i]
                );
            }
        }
        if self.events.len() != other.events.len() {
            return format!(
                "traces agree on the first {n} events, then lengths diverge \
                 (left {} events, right {})\n",
                self.events.len(),
                other.events.len()
            );
        }
        format!("traces are identical ({n} events)\n")
    }

    // ---- Validation --------------------------------------------------------

    /// Validates the log against the run's aggregate metrics: span nesting
    /// (BA401), aggregate reproduction (BA402) and admit/evict pairing
    /// (BA403). A report that [`AuditReport::passes`] proves every field of
    /// the metrics is exactly the fold of the recorded events; the warnings it may
    /// still carry (BA404) are the controller's mispredictions, not the
    /// engine's bookkeeping.
    pub fn validate(&self, metrics: &Metrics) -> AuditReport {
        let mut ds = Vec::new();
        self.check_spans(&mut ds);
        self.check_aggregates(metrics, &mut ds);
        self.check_pairing(&mut ds);
        self.check_premature_unpersists(&mut ds);
        AuditReport::new(ds)
    }

    fn check_spans(&self, ds: &mut Vec<Diagnostic>) {
        // Each app has at most one open job at a time; co-running apps may
        // overlap, so the open set is keyed by app rather than a scalar.
        let mut open_jobs: FxHashMap<AppId, JobId> = FxHashMap::default();
        let mut slot_frontier: FxHashMap<(ExecutorId, u32), SimTime> = FxHashMap::default();
        let err = |msg: String| {
            Diagnostic::new(
                DiagCode::TraceSpanNesting,
                None,
                msg,
                "the engine's commit path recorded events out of order; this is an engine bug"
                    .into(),
            )
        };
        for ev in &self.events {
            match ev {
                TraceEvent::JobStarted { app, job, .. } => {
                    if let Some(open) = open_jobs.get(app) {
                        ds.push(err(format!(
                            "{app}/{job} started while {app}/{open} is still open"
                        )));
                    }
                    open_jobs.insert(*app, *job);
                }
                TraceEvent::JobCompleted { app, job, .. } => {
                    if open_jobs.get(app) != Some(job) {
                        ds.push(err(format!(
                            "{app}/{job} completed but was not the app's open job"
                        )));
                    }
                    open_jobs.remove(app);
                }
                TraceEvent::TaskCommitted(TaskTrace {
                    app,
                    job,
                    stage_output,
                    partition,
                    executor,
                    slot,
                    start,
                    end,
                    ..
                }) => {
                    let task = format!("{stage_output}[{partition}] of {app}/{job}");
                    if end < start {
                        ds.push(err(format!(
                            "task {task} ends at {end}, before its start {start}"
                        )));
                    }
                    if open_jobs.get(app) != Some(job) {
                        ds.push(err(format!("task {task} committed outside its job span")));
                    }
                    let frontier = slot_frontier.entry((*executor, *slot)).or_default();
                    if *start < *frontier {
                        ds.push(err(format!(
                            "task {task} starts at {start} on {executor}/slot {slot}, \
                             overlapping the previous span ending at {frontier}"
                        )));
                    }
                    *frontier = (*frontier).max(*end);
                }
                _ => {}
            }
        }
        let mut still_open: Vec<_> = open_jobs.into_iter().collect();
        still_open.sort_unstable();
        for (app, open) in still_open {
            ds.push(err(format!("{app}/{open} never completed")));
        }
    }

    fn check_aggregates(&self, metrics: &Metrics, ds: &mut Vec<Diagnostic>) {
        let mismatch = |message: String| {
            Diagnostic::new(
                DiagCode::TraceAggregateMismatch,
                None,
                message,
                "these metrics are not the fold of this log; one of them was edited or produced \
                 outside the engine"
                    .into(),
            )
        };
        // Every field of the metrics is the fold of the events.
        if let Some(field) = Metrics::from_events(&self.events).first_difference(metrics) {
            ds.push(mismatch(format!("`{field}` differs from what the log folds to")));
        }
        // The one count the fold does not keep: every miss-recompute record
        // is followed by its recompute span.
        let spans =
            self.events.iter().filter(|ev| matches!(ev, TraceEvent::Recompute { .. })).count();
        if spans as u64 != metrics.recompute_misses {
            ds.push(mismatch(format!(
                "recompute spans: trace says {spans}, metrics say {}",
                metrics.recompute_misses
            )));
        }
    }

    fn check_pairing(&self, ds: &mut Vec<Diagnostic>) {
        // Replay memory residency per (executor, block): inserts must hit
        // an empty slot, removals a full one. (Only the memory tier is
        // replayed: admit/evict pairs are what this check is about.)
        let mut resident: FxHashMap<(ExecutorId, BlockId), ()> = FxHashMap::default();
        for ev in &self.events {
            let TraceEvent::Cache(r) = ev else { continue };
            let key = (r.executor, r.id);
            if r.decision.inserts_memory() {
                if resident.insert(key, ()).is_some() {
                    ds.push(Diagnostic::new(
                        DiagCode::TraceUnpairedCacheEvent,
                        Some(r.id.rdd),
                        format!(
                            "{} of {} on {} at {}, but the block is already memory-resident there",
                            r.decision.as_str(),
                            r.id,
                            r.executor,
                            r.at
                        ),
                        "double admission without an intervening eviction".into(),
                    ));
                }
            } else if r.decision.removes_memory() && resident.remove(&key).is_none() {
                ds.push(Diagnostic::new(
                    DiagCode::TraceUnpairedCacheEvent,
                    Some(r.id.rdd),
                    format!(
                        "{} of {} on {} at {}, but no earlier admission put it there",
                        r.decision.as_str(),
                        r.id,
                        r.executor,
                        r.at
                    ),
                    "every eviction must pair with an earlier admit".into(),
                ));
            }
        }
    }

    /// BA404: a block dropped by a controller command and recomputed later.
    /// The records of a command-driven unpersist and of the user's
    /// `unpersist()` are the same; what tells them apart is where they sit:
    /// commands are applied at job submission and at stage completion, so
    /// inside an open job of the recording app, while the driver can only
    /// call `unpersist()` between its jobs.
    fn check_premature_unpersists(&self, ds: &mut Vec<Diagnostic>) {
        let mut open_jobs: FxHashMap<AppId, JobId> = FxHashMap::default();
        let mut dropped_in: FxHashMap<BlockId, (AppId, JobId)> = FxHashMap::default();
        for ev in &self.events {
            match ev {
                TraceEvent::JobStarted { app, job, .. } => {
                    open_jobs.insert(*app, *job);
                }
                TraceEvent::JobCompleted { app, .. } => {
                    open_jobs.remove(app);
                }
                TraceEvent::Cache(r) => match r.decision {
                    CacheDecision::UnpersistMemory | CacheDecision::UnpersistDisk => {
                        if let Some(&job) = open_jobs.get(&r.app) {
                            dropped_in.insert(r.id, (r.app, job));
                        }
                    }
                    CacheDecision::MissRecompute => {
                        let Some((app, job)) = dropped_in.remove(&r.id) else { continue };
                        let by = open_jobs.get(&r.app).map_or("no job".into(), |j| j.to_string());
                        ds.push(Diagnostic::new(
                            DiagCode::PrematureUnpersist,
                            Some(r.id.rdd),
                            format!(
                                "{} was unpersisted by a controller command in {app}/{job} and \
                                 recomputed in {}/{by} at {}",
                                r.id, r.app, r.at
                            ),
                            "the controller counted no reference where the run made one; see \
                             the block's ledger (`blaze-trace --explain`) for the counts it saw"
                                .into(),
                        ));
                    }
                    // Cached again: what happens to it next is a new decision.
                    CacheDecision::AdmitMemory | CacheDecision::AdmitDisk => {
                        dropped_in.remove(&r.id);
                    }
                    _ => {}
                },
                _ => {}
            }
        }
    }
}

/// Formats nanoseconds as Chrome's microsecond timestamps, keeping the
/// nanosecond fraction (three decimals) so the export is lossless.
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

/// JSON string literal with the minimal escaping the exporter needs.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn event_name(ev: &TraceEvent) -> &'static str {
    match ev {
        TraceEvent::JobStarted { .. } => "job-started",
        TraceEvent::JobCompleted { .. } => "job-completed",
        TraceEvent::TaskPlanned { .. } => "task-planned",
        TraceEvent::TaskRetry { .. } => "task-retry",
        TraceEvent::Recompute { .. } => "recompute",
        TraceEvent::RecoveryReplay { .. } => "recovery-replay",
        TraceEvent::ExecutorCrashed { .. } => "executor-crashed",
        TraceEvent::MapOutputLost { .. } => "map-output-lost",
        TraceEvent::MapOutputRecovered { .. } => "map-output-recovered",
        TraceEvent::BlockRecovered { .. } => "block-recovered",
        TraceEvent::StageResubmitted { .. } => "stage-resubmitted",
        TraceEvent::Straggler { .. } => "straggler",
        TraceEvent::Speculation { .. } => "speculation",
        TraceEvent::SpillQuarantined { .. } => "spill-quarantined",
        TraceEvent::FetchRetry { .. } => "fetch-retry",
        TraceEvent::FetchEscalated { .. } => "fetch-escalated",
        TraceEvent::StageCompleted { .. } => "stage-completed",
        TraceEvent::AuditWarning { .. } => "audit-warning",
        TraceEvent::MemoryPeak { .. } => "memory-peak",
        TraceEvent::OffTaskCharge { .. } => "off-task-charge",
        TraceEvent::TaskCommitted(_) => "task",
        TraceEvent::Cache(_) => "cache",
    }
}

fn event_detail(ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::JobStarted { app, job, target, .. } => format!("{app}/{job} -> {target}"),
        TraceEvent::JobCompleted { app, job, .. } => format!("{app}/{job}"),
        TraceEvent::TaskPlanned { app, job, stage_output, partition, executor, .. } => {
            format!("{stage_output}[{partition}] of {app}/{job} on {executor}")
        }
        TraceEvent::TaskRetry {
            app, job, stage_output, partition, attempt, cause, wasted, ..
        } => {
            format!(
                "{stage_output}[{partition}] of {app}/{job} attempt {attempt} died ({cause:?}), \
                 wasted {wasted}"
            )
        }
        TraceEvent::Recompute { app, job, id, executor, depth, duration, .. } => {
            format!("{id} in {app}/{job} on {executor}, depth {depth}, {duration}")
        }
        TraceEvent::RecoveryReplay { app, job, stage_output, partition, duration, .. } => {
            format!("{stage_output}[{partition}] of {app}/{job} replayed {duration}")
        }
        TraceEvent::ExecutorCrashed {
            executor, blocks_lost, bytes_lost, map_outputs_lost, ..
        } => {
            format!(
                "{executor} lost {blocks_lost} blocks ({bytes_lost}), \
                 {map_outputs_lost} map outputs"
            )
        }
        TraceEvent::MapOutputLost { child, dep_idx, map_part, .. }
        | TraceEvent::MapOutputRecovered { child, dep_idx, map_part, .. } => {
            format!("shuffle ({child}, {dep_idx}) map {map_part}")
        }
        TraceEvent::BlockRecovered { id, .. } => id.to_string(),
        TraceEvent::StageResubmitted { app, job, stage_output, .. } => {
            format!("{stage_output} of {app}/{job}")
        }
        TraceEvent::Straggler { app, job, stage_output, partition, delay, .. } => {
            format!("{stage_output}[{partition}] of {app}/{job} delayed {delay}")
        }
        TraceEvent::Speculation {
            app,
            job,
            stage_output,
            partition,
            copy_executor,
            copy_won,
            wasted,
            ..
        } => {
            let outcome = if *copy_won { "copy won" } else { "copy lost" };
            format!(
                "{stage_output}[{partition}] of {app}/{job}: copy on {copy_executor} {outcome}, \
                 wasted {wasted}"
            )
        }
        TraceEvent::SpillQuarantined { executor, id, bytes, .. } => {
            format!("{id} on {executor} ({bytes})")
        }
        TraceEvent::FetchRetry {
            app, job, child, dep_idx, reduce_part, attempt, backoff, ..
        } => {
            format!(
                "shuffle ({child}, {dep_idx}) reduce {reduce_part} of {app}/{job} attempt \
                 {attempt} failed, backing off {backoff}"
            )
        }
        TraceEvent::FetchEscalated { app, job, child, dep_idx, reduce_part, .. } => {
            format!(
                "shuffle ({child}, {dep_idx}) reduce {reduce_part} of {app}/{job} exhausted \
                 its retry budget; parent map outputs regenerated"
            )
        }
        TraceEvent::StageCompleted { app, job, stage_output, disk_resident, .. } => {
            match disk_resident {
                Some(bytes) => format!("{stage_output} of {app}/{job} ran, {bytes} on disk"),
                None => format!("{stage_output} of {app}/{job} skipped"),
            }
        }
        TraceEvent::AuditWarning { app, code, rdd, .. } => match rdd {
            Some(rdd) => format!("{} on {rdd} in {app}", code.as_str()),
            None => format!("{} in {app}", code.as_str()),
        },
        TraceEvent::MemoryPeak { bytes, .. } => format!("{bytes} in memory"),
        TraceEvent::OffTaskCharge { executor, charge, .. } => {
            format!("{} on {executor}", charge.total())
        }
        TraceEvent::TaskCommitted(_) | TraceEvent::Cache(_) => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(at_ms: u64, exec: u32, rdd: u32, part: u32, decision: CacheDecision) -> TraceEvent {
        TraceEvent::Cache(CacheRecord {
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
            app: AppId(0),
            owner: AppId(0),
            executor: ExecutorId(exec),
            id: BlockId::new(RddId(rdd), part),
            bytes: ByteSize::from_kib(4),
            decision,
            rationale: None,
        })
    }

    fn task(job: u32, part: u32, exec: u32, slot: u32, start_ms: u64, end_ms: u64) -> TraceEvent {
        task_of(0, job, part, exec, slot, start_ms, end_ms)
    }

    #[allow(clippy::too_many_arguments)]
    fn task_of(
        app: u32,
        job: u32,
        part: u32,
        exec: u32,
        slot: u32,
        start_ms: u64,
        end_ms: u64,
    ) -> TraceEvent {
        TraceEvent::TaskCommitted(TaskTrace {
            app: AppId(app),
            job: JobId(job),
            stage_output: RddId(1),
            partition: part,
            executor: ExecutorId(exec),
            slot,
            start: SimTime::ZERO + SimDuration::from_millis(start_ms),
            end: SimTime::ZERO + SimDuration::from_millis(end_ms),
            charge: crate::metrics::TaskCharge::default(),
        })
    }

    fn job_started(at_ms: u64, app: u32, job: u32) -> TraceEvent {
        TraceEvent::JobStarted {
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
            app: AppId(app),
            job: JobId(job),
            target: RddId(1),
        }
    }

    fn job_completed(at_ms: u64, app: u32, job: u32) -> TraceEvent {
        TraceEvent::JobCompleted {
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
            app: AppId(app),
            job: JobId(job),
        }
    }

    fn minimal_log() -> (TraceLog, Metrics) {
        let mut log = TraceLog::new();
        log.record(job_started(0, 0, 0));
        log.record(task(0, 0, 0, 0, 0, 10));
        log.record(task(0, 1, 0, 0, 10, 25));
        log.record(job_completed(25, 0, 0));
        let m = Metrics::from_events(log.events());
        (log, m)
    }

    #[test]
    fn clean_log_validates() {
        let (log, m) = minimal_log();
        let report = log.validate(&m);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
    }

    #[test]
    fn span_violations_are_ba401() {
        let (mut log, m) = minimal_log();
        // A task committed after the job closed.
        log.record(task(0, 2, 0, 0, 25, 30));
        let report = log.validate(&m);
        assert!(report.has(DiagCode::TraceSpanNesting));

        // Overlapping spans on the same slot.
        let mut log = TraceLog::new();
        log.record(job_started(0, 0, 0));
        log.record(task(0, 0, 0, 0, 0, 10));
        log.record(task(0, 1, 0, 0, 5, 15)); // starts before the previous ends
        log.record(job_completed(15, 0, 0));
        assert!(log.validate(&Metrics::new()).has(DiagCode::TraceSpanNesting));
    }

    #[test]
    fn interleaved_app_jobs_validate_cleanly() {
        // Two apps with concurrently open jobs: legal under the per-app
        // open-job set, and each app's tasks attribute to its own job.
        let mut log = TraceLog::new();
        log.record(job_started(0, 0, 0));
        log.record(job_started(0, 1, 0));
        log.record(task_of(0, 0, 0, 0, 0, 0, 10));
        log.record(task_of(1, 0, 0, 0, 0, 10, 30));
        log.record(job_completed(10, 0, 0));
        log.record(job_completed(30, 1, 0));
        let report = log.validate(&Metrics::from_events(log.events()));
        assert!(report.is_clean(), "{:?}", report.diagnostics);

        // A second job from an app whose first is still open stays a BA401.
        let mut bad = TraceLog::new();
        bad.record(job_started(0, 0, 0));
        bad.record(job_started(5, 0, 1));
        assert!(bad.validate(&Metrics::new()).has(DiagCode::TraceSpanNesting));
    }

    #[test]
    fn multi_app_completion_is_the_max_not_the_last() {
        // App 1 finishes before app 0 but its completion is recorded
        // later; the run completes at the max.
        let mut log = TraceLog::new();
        log.record(job_started(0, 0, 0));
        log.record(job_started(0, 1, 0));
        log.record(job_completed(40, 0, 0));
        log.record(job_completed(20, 1, 0));
        let m = Metrics::from_events(log.events());
        assert_eq!(m.completion_time, SimTime::ZERO + SimDuration::from_millis(40));
        assert!(log.validate(&m).is_clean());
    }

    /// BA402 is one whole-struct equality: metrics folded from a log with
    /// one more event than the audited one fail it, naming the first field
    /// that differs — whichever event kind the extra one is.
    #[test]
    fn aggregate_drift_is_ba402() {
        let stage = TraceEvent::StageCompleted {
            at: SimTime::ZERO,
            app: AppId(0),
            job: JobId(0),
            stage_output: RddId(1),
            disk_resident: Some(ByteSize::ZERO),
        };
        let peak = TraceEvent::MemoryPeak { at: SimTime::ZERO, bytes: ByteSize::from_kib(4) };
        let hit = cache(5, 0, 5, 0, CacheDecision::HitMemory);
        for (extra, field) in
            [(hit, "mem_hits"), (stage, "stages_run"), (peak, "memory_bytes_peak")]
        {
            let (log, _) = minimal_log();
            let mut drifted = log.events().to_vec();
            drifted.push(extra);
            let report = log.validate(&Metrics::from_events(&drifted));
            let found: Vec<_> = report
                .diagnostics
                .iter()
                .filter(|d| d.code == DiagCode::TraceAggregateMismatch)
                .collect();
            assert_eq!(found.len(), 1, "{found:?}");
            assert!(found[0].message.contains(&format!("`{field}`")), "{}", found[0].message);
        }
    }

    #[test]
    fn unpaired_eviction_is_ba403() {
        let (mut log, _) = minimal_log();
        log.record(cache(25, 0, 5, 0, CacheDecision::EvictDiscard));
        let report = log.validate(&Metrics::from_events(log.events()));
        assert!(report.has(DiagCode::TraceUnpairedCacheEvent));

        // Admit then evict pairs cleanly; double admit does not.
        let (mut log, _) = minimal_log();
        log.record(cache(5, 0, 5, 0, CacheDecision::AdmitMemory));
        log.record(cache(25, 0, 5, 0, CacheDecision::EvictDiscard));
        assert!(log.validate(&Metrics::from_events(log.events())).is_clean());
        log.record(cache(26, 0, 6, 0, CacheDecision::AdmitMemory));
        log.record(cache(27, 0, 6, 0, CacheDecision::AdmitMemory));
        let report = log.validate(&Metrics::from_events(log.events()));
        assert!(report.has(DiagCode::TraceUnpairedCacheEvent));
    }

    #[test]
    fn a_command_dropped_block_recomputed_later_is_ba404() {
        let mut log = TraceLog::new();
        log.record(job_started(0, 0, 0));
        log.record(cache(1, 0, 5, 0, CacheDecision::AdmitMemory));
        log.record(cache(1, 0, 6, 0, CacheDecision::AdmitMemory));
        log.record(cache(1, 0, 7, 0, CacheDecision::AdmitMemory));
        log.record(job_completed(2, 0, 0));
        // Between jobs only the driver can drop a block: rdd-5 goes by the
        // user's `unpersist()`, which is theirs to get wrong.
        log.record(cache(2, 0, 5, 0, CacheDecision::UnpersistMemory));
        log.record(job_started(3, 0, 1));
        // Inside a job it is a controller command: rdd-6 and rdd-7 go.
        log.record(cache(3, 0, 6, 0, CacheDecision::UnpersistMemory));
        log.record(cache(3, 0, 7, 0, CacheDecision::UnpersistMemory));
        log.record(cache(4, 0, 5, 0, CacheDecision::MissRecompute));
        log.record(cache(4, 0, 6, 0, CacheDecision::MissRecompute));
        log.record(job_completed(5, 0, 1));
        log.record(job_started(5, 0, 2));
        // One report per drop: the second miss of rdd-6 has no drop before it.
        log.record(cache(6, 0, 6, 0, CacheDecision::MissRecompute));
        log.record(job_completed(7, 0, 2));

        let report = log.validate(&Metrics::from_events(log.events()));
        let found: Vec<_> =
            report.diagnostics.iter().filter(|d| d.code == DiagCode::PrematureUnpersist).collect();
        // rdd-7 was dropped and never missed: not a misprediction.
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].severity, blaze_audit::Severity::Warning);
        assert_eq!(found[0].rdd, Some(RddId(6)));
        let msg = &found[0].message;
        assert!(msg.contains("rdd-6[0]"), "{msg}");
        assert!(msg.contains("in app-0/job-1 and recomputed in app-0/job-1"), "{msg}");
        // A warning: the audit still passes.
        assert!(report.errors().all(|d| d.code != DiagCode::PrematureUnpersist));
    }

    #[test]
    fn chrome_export_is_valid_shape_and_deterministic() {
        let (mut log, _) = minimal_log();
        log.record(cache(5, 0, 5, 0, CacheDecision::AdmitMemory));
        let a = log.chrome_json();
        let b = log.chrome_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"traceEvents\":["));
        assert!(a.trim_end().ends_with("]}"));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"i\""));
        assert!(a.contains("admit-mem"));
        // Nanosecond-lossless microsecond timestamps.
        assert!(a.contains("\"ts\":10000.000"));
    }

    #[test]
    fn ledger_groups_by_job_and_shows_rationale() {
        let (mut log, _) = minimal_log();
        log.record(job_started(25, 0, 1));
        log.record(TraceEvent::Cache(CacheRecord {
            at: SimTime::ZERO + SimDuration::from_millis(26),
            app: AppId(0),
            owner: AppId(0),
            executor: ExecutorId(1),
            id: BlockId::new(RddId(5), 2),
            bytes: ByteSize::from_kib(8),
            decision: CacheDecision::EvictDiscard,
            rationale: Some("refcount=0".into()),
        }));
        log.record(job_completed(30, 0, 1));
        let ledger = log.ledger();
        assert!(ledger.contains("[app-0/job-1]"));
        assert!(ledger.contains("evict-discard"));
        assert!(ledger.contains("why: refcount=0"));
    }

    #[test]
    fn ledger_attributes_by_the_records_app() {
        // App 1 has no open job when app 0's decision lands; attribution
        // follows the record's app, not whichever job opened last.
        let mut log = TraceLog::new();
        log.record(job_started(0, 0, 0));
        log.record(job_started(1, 1, 0));
        log.record(TraceEvent::Cache(CacheRecord {
            at: SimTime::ZERO + SimDuration::from_millis(2),
            app: AppId(0),
            owner: AppId(0),
            executor: ExecutorId(0),
            id: BlockId::new(RddId(5), 0),
            bytes: ByteSize::from_kib(4),
            decision: CacheDecision::AdmitMemory,
            rationale: None,
        }));
        log.record(job_completed(3, 1, 0));
        log.record(job_completed(4, 0, 0));
        let ledger = log.ledger();
        assert!(ledger.contains("[app-0/job-0]"));
        assert!(!ledger.contains("[app-1/job-0]"));
    }

    #[test]
    fn explain_reconstructs_block_history() {
        let (mut log, _) = minimal_log();
        log.record(cache(5, 0, 5, 0, CacheDecision::AdmitMemory));
        log.record(cache(25, 0, 5, 0, CacheDecision::EvictToDisk));
        let text = log.explain(BlockId::new(RddId(5), 0));
        assert!(text.contains("admit-mem"));
        assert!(text.contains("evict-to-disk"));
        assert!(text.contains("memory not resident"));
        assert!(text.contains("disk resident on exec-0"));
        let none = log.explain(BlockId::new(RddId(9), 0));
        assert!(none.contains("no cache decisions"));
    }

    #[test]
    fn diff_pinpoints_the_first_divergence() {
        let (a, _) = minimal_log();
        let (mut b, _) = minimal_log();
        assert!(a.diff(&b).contains("identical"));
        b.record(cache(30, 0, 5, 0, CacheDecision::AdmitMemory));
        assert!(a.diff(&b).contains("lengths diverge"));
        let mut c = TraceLog::new();
        c.record(job_started(0, 0, 7));
        c.record(task(0, 0, 0, 0, 0, 10));
        assert!(a.diff(&c).contains("diverge at event 0"));
    }
}
