use super::*;
use crate::controller::{
    victims_by_key, Admission, BlockInfo, NoCacheController, StateCommand, StoreTier, VictimAction,
};
use crate::metrics::TaskTrace;
use crate::tracing::{CacheDecision, CacheRecord};
use blaze_common::ids::BlockId;
use blaze_common::SimDuration;
use blaze_dataflow::Context;

fn cluster(controller: Box<dyn CacheController>) -> (Context, Cluster) {
    traced_cluster(controller, false)
}

fn traced_cluster(controller: Box<dyn CacheController>, tracing: bool) -> (Context, Cluster) {
    let config = ClusterConfig {
        executors: 2,
        slots_per_executor: 2,
        memory_capacity: ByteSize::from_kib(64),
        tracing,
        ..Default::default()
    };
    let cluster = Cluster::new(config, controller).unwrap();
    (Context::new(cluster.clone()), cluster)
}

/// The committed-task spans of a traced run, in commit order.
fn task_spans(trace: &TraceLog) -> Vec<TaskTrace> {
    trace
        .events()
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::TaskCommitted(t) => Some(*t),
            _ => None,
        })
        .collect()
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
        needed: ByteSize,
        _incoming: &BlockInfo,
        resident: &[BlockInfo],
    ) -> Vec<(BlockId, VictimAction)> {
        victims_by_key(resident, needed, |b| self.order.iter().position(|o| *o == b.id))
            .into_iter()
            .enumerate()
            .map(|(i, (id, _))| {
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
    let (ctx, cl) = traced_cluster(Box::new(NoCacheController), true);
    let pairs: Vec<(u64, u64)> = (0..1000).map(|i| (i % 37, i)).collect();
    let parted = ctx.parallelize(pairs, 4).partition_by(3);
    let blocks = ctx.run_job(parted.id()).unwrap();
    let hw = ClusterConfig::default().hardware;
    let spans = task_spans(&cl.trace().expect("tracing enabled"));
    for (p, block) in blocks.iter().enumerate() {
        // `partition_by` concatenates its buckets unchanged, so a reduce
        // task's output is exactly as large as what it fetched.
        let fetched = block.bytes();
        assert!(!fetched.is_zero());
        let task = spans
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
    use crate::fault::FaultPlan;
    use blaze_dataflow::runner::LocalRunner;
    use std::sync::atomic::{AtomicUsize, Ordering};
    const P: usize = 128;
    // The same 128 x 128 shuffle on any backend, read by two jobs: at most
    // four records per map task, so nearly every bucket is empty. The
    // shuffle's parent counts how often a map task computes its input.
    type Partitions = Vec<Vec<(u64, u64)>>;
    fn run(ctx: &Context) -> (Vec<Partitions>, usize) {
        let pairs: Vec<(u64, u64)> = (0..500).map(|i| (i % 300, i)).collect();
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let summed = ctx
            .parallelize(pairs, P)
            .map_partitions(move |part| {
                counted.fetch_add(1, Ordering::Relaxed);
                part.to_vec()
            })
            .reduce_by_key(P, |a, b| a + b);
        let jobs = (0..2)
            .map(|_| {
                let blocks = ctx.run_job(summed.id()).unwrap();
                blocks.iter().map(|b| b.to_vec::<(u64, u64)>("t").unwrap()).collect()
            })
            .collect();
        (jobs, calls.load(Ordering::Relaxed))
    }
    let (reference, local_calls) = run(&Context::new(LocalRunner::new()));
    assert_eq!(reference[0].len(), P);
    assert_eq!(reference[0].iter().map(Vec::len).sum::<usize>(), 300);
    assert_eq!(reference[0], reference[1]);
    assert_eq!(local_calls, P, "LocalRunner memoizes a map task's input across reducers");
    let (ctx, _cluster) = cluster(Box::new(NoCacheController));
    let (got, cluster_calls) = run(&ctx);
    assert_eq!(got, reference, "same records in the same order in every partition");
    assert_eq!(cluster_calls, P, "the reduce stage reads shuffle output, not the map input");

    // Map outputs lost before the second job: the map stage is resubmitted,
    // every lost output is regenerated, and the records do not change.
    let config = ClusterConfig {
        executors: 2,
        slots_per_executor: 2,
        memory_capacity: ByteSize::from_kib(64),
        fault: FaultPlan {
            seed: 3,
            map_output_loss_rate: 0.3,
            external_shuffle_service: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let faulted = Cluster::new(config, Box::new(NoCacheController)).unwrap();
    let (got, faulted_calls) = run(&Context::new(faulted.clone()));
    assert_eq!(got, reference, "same records after map-output loss");
    let recovery = faulted.metrics().recovery;
    assert!(recovery.map_outputs_lost > 0);
    assert_eq!(recovery.map_outputs_recovered, recovery.map_outputs_lost);
    assert_eq!(faulted_calls, 2 * P, "the resubmitted map stage recomputes every input");
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

/// The full-disk path of an eviction: every eviction here makes room for
/// one 4 000-byte block, so `EvictingLru` spills each victim, and the disk
/// holds five at a time. A refused spill is a recorded fact, so `disk_bytes_written`
/// — folded from the records — still counts only the accepted writes.
#[test]
fn a_refused_spill_is_recorded_and_writes_nothing() {
    let config = ClusterConfig {
        executors: 1,
        slots_per_executor: 1,
        memory_capacity: ByteSize::from_kib(16),
        disk_capacity: ByteSize::from_kib(20),
        tracing: true,
        ..Default::default()
    };
    let cl = Cluster::new(config, Box::new(EvictingLru::default())).unwrap();
    let ctx = Context::new(cl.clone());
    let ds = ctx.range(0..4_000, 8).map(|x| x + 1);
    ds.count().unwrap();
    ds.count().unwrap();
    let (metrics, trace) = (cl.metrics(), cl.trace().expect("tracing enabled"));

    let records = |decision| -> Vec<&CacheRecord> {
        trace
            .events()
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Cache(r) if r.decision == decision => Some(r),
                _ => None,
            })
            .collect()
    };
    let refused = records(CacheDecision::SpillRefused);
    let spilled = records(CacheDecision::EvictToDisk);
    assert!(!refused.is_empty(), "the disk must refuse a spill");
    assert!(refused.len() < spilled.len(), "and accept another");
    let refused_block = refused[0].id;
    assert!(trace.ledger().contains(&format!("spill-refused  {refused_block}")));
    let history = trace.explain(refused_block);
    assert!(history.contains("disk not resident"), "{history}");
    // Only the accepted writes: seven 4 000-byte spills.
    assert_eq!(metrics.disk_bytes_written, ByteSize::from_bytes(28_000));
    let bytes = |rs: Vec<&CacheRecord>| rs.iter().map(|r| r.bytes).sum::<ByteSize>();
    assert_eq!(
        metrics.disk_bytes_written + bytes(refused),
        bytes(spilled) + bytes(records(CacheDecision::AdmitDisk))
    );
    let report = trace.validate();
    assert!(report.is_clean(), "{:?}", report.diagnostics);
    assert_eq!(
        Metrics::from_events(trace.events()),
        metrics,
        "the metrics are the fold of the log"
    );
}

/// Every growth of a memory store can set the memory high-water mark, a
/// promotion included: here the only memory-resident blocks ever are
/// promoted from disk, no admission runs at all.
#[test]
fn a_promotion_can_set_the_memory_peak() {
    /// Admits the annotated dataset to disk and promotes all of it at the
    /// stage's completion.
    #[derive(Default)]
    struct DiskThenPromote {
        spilled: Vec<BlockId>,
    }
    impl CacheController for DiskThenPromote {
        fn name(&self) -> String {
            "DiskThenPromote".into()
        }
        fn admit(&mut self, _: &CtrlCtx, b: &BlockInfo) -> Admission {
            self.spilled.push(b.id);
            Admission::Disk
        }
        fn on_stage_complete(
            &mut self,
            _: &CtrlCtx,
            _: RddId,
            _: JobId,
            _: &Plan,
        ) -> Vec<StateCommand> {
            self.spilled.drain(..).map(StateCommand::PromoteToMemory).collect()
        }
    }
    let config = ClusterConfig { executors: 2, tracing: true, ..Default::default() };
    let cl = Cluster::new(config, Box::new(DiskThenPromote::default())).unwrap();
    let ctx = Context::new(cl.clone());
    let ds = ctx.range(0..1_000, 4).map(|x| x + 1);
    ds.cache();
    ds.count().unwrap();
    let in_memory: ByteSize = cl.memory_used().into_iter().sum();
    assert!(!in_memory.is_zero() && cl.disk_used().iter().all(|b| b.is_zero()));
    let metrics = cl.metrics();
    assert_eq!(metrics.memory_bytes_peak, in_memory);
    let trace = cl.trace().expect("tracing enabled");
    let report = trace.validate();
    assert!(report.is_clean(), "{:?}", report.diagnostics);
    assert_eq!(
        Metrics::from_events(trace.events()),
        metrics,
        "the metrics are the fold of the log"
    );
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
fn task_spans_cover_the_whole_run() {
    let (ctx, cl) = traced_cluster(Box::new(NoCacheController), true);
    let ds = ctx.range(0..500, 4).map(|x| x + 1);
    ds.count().unwrap();
    let m = cl.metrics();
    let spans = task_spans(&cl.trace().expect("tracing enabled"));
    assert_eq!(spans.len() as u64, m.tasks);
    for t in &spans {
        assert!(t.end >= t.start);
        assert!(t.end <= m.completion_time, "a span outside the run");
        assert_eq!(t.duration(), t.charge.total());
    }
    // Busy time sums to the accumulated task time.
    let busy: SimDuration = spans.iter().map(TaskTrace::duration).sum();
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
/// and folds to the metrics, (b) is byte-identical across worker_threads,
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
    let report = t1.validate();
    assert!(report.is_clean(), "{:?}", report.diagnostics);
    assert_eq!(Metrics::from_events(t1.events()), m1, "the metrics are the fold of the log");
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
    let report = trace.validate();
    assert!(report.is_clean(), "{:?}", report.diagnostics);
    assert_eq!(
        Metrics::from_events(trace.events()),
        metrics,
        "the metrics are the fold of the log"
    );
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
    let report = trace.validate();
    assert!(report.is_clean(), "{:?}", report.diagnostics);
    assert_eq!(
        Metrics::from_events(trace.events()),
        metrics,
        "the metrics are the fold of the log"
    );
}

/// Under the store-global serialized memory of Spark+Alluxio
/// (`serialized_in_memory`), every memory hit reads serialized bytes: a hit
/// on the block's home executor from another executor pays the network
/// transfer *and* the same deserialization as a local hit.
#[test]
fn a_remote_memory_hit_deserializes_like_a_local_one_under_alluxio() {
    struct AlluxioMode;
    impl CacheController for AlluxioMode {
        fn name(&self) -> String {
            "AlluxioMode".into()
        }
        fn serialized_in_memory(&self) -> bool {
            true
        }
    }
    let (ctx, cluster) = cluster(Box::new(AlluxioMode));
    // One partition: computed, cached and homed on executor 0.
    let cached = ctx.range(0..2_048, 1).map(|x| x + 1);
    cached.cache();
    cached.count().unwrap();
    let reader = cached.map(|x| x * 2);

    let st = cluster.state.lock();
    let plan_lock = ctx.plan();
    let plan = plan_lock.read();
    let run = StageRun {
        plan: &plan,
        job: JobId(1),
        output: reader.id(),
        index: 0,
        consumers: &[],
        fault_on: false,
        start: SimTime::ZERO,
        placements: Vec::new(),
        outputs: Vec::new(),
    };
    let view = st.exec_view(&run);
    let read_on = |exec| crate::exec::execute_task(&view, 0, ExecutorId(exec), 0).unwrap().charge;
    let (local, remote) = (read_on(0), read_on(1));
    assert!(!local.external_store_io.is_zero(), "a local hit deserializes");
    assert_eq!(remote.external_store_io, local.external_store_io);
    assert!(remote.shuffle_fetch > local.shuffle_fetch, "a remote hit also crosses the network");
}
