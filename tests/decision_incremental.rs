//! Differential tests for the decision driver's retained state.
//!
//! The driver ([`blaze::core::IncrementalOptimizer`]) keeps a cost memo and
//! previous solves between submissions.
//! None of it may influence a decision: the reference is *the same driver
//! with nothing retained* — `reset()` before every call at core level,
//! `BlazeController::forget_decision_state()` before every job submission,
//! victim selection and admission failure at engine level — and same
//! lineage, same job references, same configuration must yield
//! byte-for-byte the same [`StateCommand`] stream, no matter how the lineage
//! got into its current state. Everything the retained state
//! does (memo invalidation, instance reuse) is off in that reference. These tests attack the contract
//! from four sides (random pipelines, warm vs cold under every drawn
//! configuration, are contract 5 of `tests/differential.rs`):
//!
//! 1. a core-level differential property — random plans plus random
//!    job/state/metric churn, every round checked against a reset driver fed
//!    the same references;
//! 2. stress shapes — the same round-by-round check on the lineages where
//!    retained state does the most work (`wide` siblings, a `deep` chain, a
//!    `churn`ing job sequence), with the reuse counters showing it did;
//! 3. an engine-level property on fan-in lineage — generations of cached
//!    siblings zipped pairwise, the store a fraction of one generation — so
//!    admissions reach the ancestor arm of the value weight, run warm and
//!    cold with identical results, metrics and Chrome trace;
//! 4. golden runs — evaluation workloads at `worker_threads` ∈ {1, 2, 4},
//!    with and without a fault plan, with and without the serialized tier,
//!    warm vs cold, all traces byte-identical, and all six applications
//!    warm vs cold under full Blaze.
//!
//! [`StateCommand`]: blaze::engine::StateCommand

use blaze::common::ids::{BlockId, ExecutorId, RddId};
use blaze::common::{ByteSize, SimDuration, SimTime};
use blaze::core::{
    extract_dependencies, BlazeConfig, BlazeController, CostLineage, DecisionStats,
    IncrementalOptimizer, JobRefs, OptimizerConfig, PartitionState,
};
use blaze::dataflow::{runner::LocalRunner, Context, Dataset, Plan};
use blaze::engine::{
    CacheController, CacheDecision, Cluster, ClusterConfig, ExecutorCrash, FaultPlan,
    HardwareModel, Metrics, TraceEvent, TraceLog,
};
use blaze::workloads::{App, AppSpec, Session};
// The one delegating wrapper around a Blaze controller: `cold` makes it
// forget all retained decision state before every job submission and every
// admission that prices blocks — the controller's own cold reference — and
// it mirrors `decision_stats()` out of the cluster the controller is moved
// into.
use blaze_bench::harness::{DecisionProbe, ProbeReadout};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Core-level differential property
// ---------------------------------------------------------------------------

/// Builds a random DAG: each step derives a new dataset from a random earlier
/// one, by a narrow map or by a shuffle (map into keys, reduce, map back).
/// Returns every dataset's id (all with `parts` partitions).
fn build_random_plan(ctx: &Context, shape: &[u8], parts: usize) -> Vec<RddId> {
    let mut sets: Vec<Dataset<u64>> = vec![ctx.parallelize((0..64u64).collect::<Vec<_>>(), parts)];
    for &b in shape {
        let src = &sets[(b as usize) % sets.len()];
        let next = if b % 3 == 0 {
            let k = b as u64;
            src.map(move |x| x.wrapping_add(k))
        } else {
            src.map(|x| (x % 8, *x))
                .reduce_by_key(parts, |a, v| a.wrapping_add(*v))
                .map(|(k, v)| k ^ v)
        };
        sets.push(next);
    }
    sets.iter().map(|d| d.id()).collect()
}

/// One churn action: flip a block's state or rewrite its observed metrics.
#[derive(Debug, Clone)]
struct ChurnOp {
    kind: u8,
    dataset_pick: usize,
    part: u32,
    kib: u64,
    ms: u64,
}

fn churn_op_strategy() -> impl Strategy<Value = ChurnOp> {
    (0u8..4, 0usize..1_000_000, 0u32..4, 1u64..64, 1u64..10).prop_map(
        |(kind, dataset_pick, part, kib, ms)| ChurnOp { kind, dataset_pick, part, kib, ms },
    )
}

fn apply_churn(lineage: &mut CostLineage, rdds: &[RddId], parts: u32, op: &ChurnOp) {
    let rdd = rdds[op.dataset_pick % rdds.len()];
    let id = BlockId::new(rdd, op.part % parts);
    match op.kind {
        0 => lineage.set_state(id, PartitionState::Memory(ExecutorId(id.partition % 2))),
        1 => lineage.set_state(id, PartitionState::Disk(ExecutorId(id.partition % 2))),
        2 => lineage.set_state(id, PartitionState::None),
        _ => {
            lineage.record_metrics(id, ByteSize::from_kib(op.kib), SimDuration::from_millis(op.ms))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// On random plans under random job/state/metric churn, the retaining
    /// driver emits exactly the reset driver's command stream every round,
    /// and never corrupts the residency index.
    #[test]
    fn retaining_driver_matches_reset_driver_on_random_churn(
        shape in prop::collection::vec(0u8..255, 1..8),
        rounds in prop::collection::vec(
            (prop::collection::vec(churn_op_strategy(), 1..6), 0usize..1_000_000),
            1..8,
        ),
        capacity_kib in 8u64..128,
    ) {
        const PARTS: u32 = 3;
        let ctx = Context::new(LocalRunner::new());
        let rdds = build_random_plan(&ctx, &shape, PARTS as usize);
        let config = OptimizerConfig::default();
        let hardware = HardwareModel::default();
        let capacity = ByteSize::from_kib(capacity_kib);

        let mut lineage = CostLineage::new();
        {
            let plan_lock = ctx.plan();
            lineage.merge_plan(&plan_lock.read());
        }
        for &rdd in &rdds {
            for p in 0..PARTS {
                lineage.record_metrics(
                    BlockId::new(rdd, p),
                    ByteSize::from_kib(16 + u64::from(p)),
                    SimDuration::from_millis(2),
                );
            }
        }

        let mut inc = IncrementalOptimizer::new();
        let mut cold = IncrementalOptimizer::new();
        let mut targets: Vec<RddId> = Vec::new();
        let plan_lock = ctx.plan();
        let plan = plan_lock.read();
        for (round, (ops, target_pick)) in rounds.iter().enumerate() {
            targets.push(rdds[target_pick % rdds.len()]);
            for op in ops {
                apply_churn(&mut lineage, &rdds, PARTS, op);
            }

            // The retaining driver goes first: it drains the lineage's
            // dirty set, which a reset driver (empty memo) never needs.
            let refs = JobRefs::build(&plan, &targets);
            let fast = inc.optimize(
                &mut lineage, &refs, None, &hardware, capacity, round, &config,
            );
            cold.reset();
            let scratch = cold.optimize(
                &mut lineage, &refs, None, &hardware, capacity, round, &config,
            );

            prop_assert_eq!(&fast, &scratch, "round {} diverged", round);
            prop_assert!(lineage.residency_consistent());
        }
        prop_assert_eq!(cold.stats().reused, 0, "a reset driver has nothing to reuse");
    }
}

// ---------------------------------------------------------------------------
// Stress shapes
// ---------------------------------------------------------------------------

/// A lineage plus a retaining driver, stepped round by round against a
/// reset driver fed the same references; the command streams must be equal
/// every round.
struct StressRig {
    lineage: CostLineage,
    inc: IncrementalOptimizer,
    cold: IncrementalOptimizer,
    capacity: ByteSize,
}

impl StressRig {
    fn new(capacity: ByteSize) -> Self {
        Self {
            lineage: CostLineage::new(),
            inc: IncrementalOptimizer::new(),
            cold: IncrementalOptimizer::new(),
            capacity,
        }
    }

    /// Runs both drivers on the current round. The retaining driver goes
    /// first: it drains the lineage's dirty set, which the reset driver
    /// (empty memo, nothing to invalidate) never needs.
    fn step(&mut self, plan: &Plan, targets: &[RddId], round: usize) {
        let (hardware, config) = (HardwareModel::default(), OptimizerConfig::default());
        let refs = JobRefs::build(plan, targets);
        let fast = self.inc.optimize(
            &mut self.lineage,
            &refs,
            None,
            &hardware,
            self.capacity,
            round,
            &config,
        );
        self.cold.reset();
        let scratch = self.cold.optimize(
            &mut self.lineage,
            &refs,
            None,
            &hardware,
            self.capacity,
            round,
            &config,
        );
        assert_eq!(fast, scratch, "round {round}: retained state changed the decision");
        assert!(self.lineage.residency_consistent(), "round {round}: residency index corrupted");
    }

    /// Checks that the reset driver never reused a solve; returns the
    /// retaining driver's counters.
    fn finish(&self) -> DecisionStats {
        assert_eq!(self.cold.stats().reused, 0, "the reset driver must never reuse a solve");
        self.inc.stats()
    }
}

fn record_all(lineage: &mut CostLineage, rdd: RddId, parts: u32, kib: u64, ms: u64) {
    for p in 0..parts {
        lineage.record_metrics(
            BlockId::new(rdd, p),
            ByteSize::from_kib(kib),
            SimDuration::from_millis(ms),
        );
    }
}

/// `wide`: one source fanned out into 96 cached sibling datasets; every
/// round dirties a single block, so the reset driver re-prices every
/// sibling while the retaining one reuses the executors the block does not
/// reach.
#[test]
fn wide_siblings_retaining_driver_matches_reset_driver() {
    const SIBLINGS: usize = 96;
    const PARTS: u32 = 16;
    let ctx = Context::new(LocalRunner::new());
    let base = ctx.parallelize((0..256u64).collect::<Vec<_>>(), PARTS as usize);
    let siblings: Vec<Dataset<u64>> =
        (0..SIBLINGS as u64).map(|k| base.map(move |x| x + k)).collect();
    let targets = [siblings[SIBLINGS - 1].id()];

    let mut rig = StressRig::new(ByteSize::from_kib(1024));
    let plan_lock = ctx.plan();
    let plan = plan_lock.read();
    rig.lineage.merge_plan(&plan);
    record_all(&mut rig.lineage, base.id(), PARTS, 64, 3);
    for (k, s) in siblings.iter().enumerate() {
        record_all(&mut rig.lineage, s.id(), PARTS, 48 + (k as u64 % 16), 2 + (k as u64 % 5));
        for p in 0..PARTS {
            rig.lineage
                .set_state(BlockId::new(s.id(), p), PartitionState::Memory(ExecutorId(p % 4)));
        }
    }
    for round in 0..30 {
        let victim = siblings[round % SIBLINGS].id();
        rig.lineage.record_metrics(
            BlockId::new(victim, (round as u32) % PARTS),
            ByteSize::from_kib(40 + (round as u64 % 32)),
            SimDuration::from_millis(1 + (round as u64 % 9)),
        );
        rig.step(&plan, &targets, 0);
    }
    assert!(rig.finish().reused > 0, "the retaining driver never reused a solve on `wide`");
}

/// `deep`: a 440-dataset narrow chain with a cached tail of 8; every round
/// dirties a block just below the tail, so the reset driver re-prices the
/// whole chain (Eq. 4 recursion) while the retaining one re-derives only
/// the invalidated suffix and reuses the executors it does not reach.
#[test]
fn deep_chain_retaining_driver_matches_reset_driver() {
    const DEPTH: usize = 440;
    const PARTS: u32 = 8;
    const CACHED_TAIL: usize = 8;
    let ctx = Context::new(LocalRunner::new());
    let mut cur = ctx.parallelize((0..64u64).collect::<Vec<_>>(), PARTS as usize);
    let mut chain = vec![cur.id()];
    for _ in 0..DEPTH {
        cur = cur.map(|x| x + 1);
        chain.push(cur.id());
    }
    let targets = [cur.id()];

    let mut rig = StressRig::new(ByteSize::from_kib(256));
    let plan_lock = ctx.plan();
    let plan = plan_lock.read();
    rig.lineage.merge_plan(&plan);
    for (i, &rdd) in chain.iter().enumerate() {
        record_all(&mut rig.lineage, rdd, PARTS, 32 + (i as u64 % 8), 1 + (i as u64 % 4));
    }
    for &rdd in &chain[chain.len() - CACHED_TAIL..] {
        for p in 0..PARTS {
            rig.lineage.set_state(BlockId::new(rdd, p), PartitionState::Memory(ExecutorId(p % 2)));
        }
    }
    let dirty_rdd = chain[chain.len() - CACHED_TAIL - 8];
    for round in 0..20 {
        rig.lineage.record_metrics(
            BlockId::new(dirty_rdd, (round as u32) % PARTS),
            ByteSize::from_kib(24 + (round as u64 % 16)),
            SimDuration::from_millis(1 + (round as u64 % 6)),
        );
        rig.step(&plan, &targets, 0);
    }
    assert!(rig.finish().reused > 0, "the retaining driver never reused a solve on `deep`");
}

/// `churn`: the job sequence grows by one target per round (an iterative
/// driver) over a sliding window of 8 cached datasets, so the retained memo
/// is checked over a growing job sequence. Every round changes the
/// instance, so nothing is reused and only equality is asserted.
#[test]
fn growing_job_sequence_retaining_driver_matches_reset_driver() {
    const PARTS: u32 = 4;
    const WINDOW: usize = 8;
    let ctx = Context::new(LocalRunner::new());
    let mut cur = ctx.parallelize((0..64u64).collect::<Vec<_>>(), PARTS as usize);
    let mut chain = vec![cur.id()];
    let mut targets: Vec<RddId> = Vec::new();
    let mut rig = StressRig::new(ByteSize::from_kib(512));
    for round in 0..200 {
        cur = cur.map(|x| x + 1);
        chain.push(cur.id());
        targets.push(cur.id());
        let plan_lock = ctx.plan();
        let plan = plan_lock.read();
        rig.lineage.merge_plan(&plan);
        record_all(&mut rig.lineage, cur.id(), PARTS, 48 + (round as u64 % 24), 2);
        for p in 0..PARTS {
            rig.lineage
                .set_state(BlockId::new(cur.id(), p), PartitionState::Memory(ExecutorId(p % 2)));
        }
        // Datasets older than the window leave the store, as auto-unpersist
        // does in the engine.
        if chain.len() > WINDOW + 1 {
            let old = chain[chain.len() - WINDOW - 1];
            for p in 0..PARTS {
                rig.lineage.set_state(BlockId::new(old, p), PartitionState::None);
            }
        }
        rig.step(&plan, &targets, round);
    }
    rig.finish();
}

// ---------------------------------------------------------------------------
// The cold reference at engine level
// ---------------------------------------------------------------------------

/// The controller to install: the bare one (warm) or its cold reference.
fn install(inner: BlazeController, cold: bool) -> Box<dyn CacheController> {
    if cold {
        Box::new(DecisionProbe::new(inner, true, Arc::default()))
    } else {
        Box::new(inner)
    }
}

// ---------------------------------------------------------------------------
// Fan-in lineage under memory pressure
// ---------------------------------------------------------------------------

/// The shape of one sibling-zip pipeline.
#[derive(Debug, Clone)]
struct SiblingZip {
    elems: u64,
    width: usize,
    generations: usize,
    /// Which two siblings of the previous generation each dataset zips
    /// (consumed two at a time, cyclically).
    picks: Vec<usize>,
}

const ZIP_PARTS: usize = 4;

/// A zipped dataset and the two siblings it zips.
type ZipParents = (RddId, [RddId; 2]);

/// Generations of `width` cached siblings, each a `zip_partitions` of two
/// siblings of the previous generation — the diamond-rich lineage the chain
/// generator of `tests/common` cannot produce. One job per generation folds
/// every sibling into per-partition checksums, then the previous generation
/// is unpersisted; `before_job` runs ahead of each job. Returns the
/// checksums and every zipped dataset's parents.
fn sibling_zip(
    ctx: &Context,
    shape: &SiblingZip,
    before_job: &mut dyn FnMut(),
) -> blaze::common::error::Result<(Vec<u64>, Vec<ZipParents>)> {
    let checksum =
        |part: &[u64]| part.iter().fold(part.len() as u64, |acc, x| acc.rotate_left(5) ^ x);
    let base = ctx.parallelize((0..shape.elems).collect::<Vec<_>>(), ZIP_PARTS);
    let mut generation: Vec<Dataset<u64>> =
        (0..shape.width as u64).map(|k| base.map(move |x| x.wrapping_mul(k + 3))).collect();
    for d in &generation {
        d.cache();
    }
    let mut picks = shape.picks.iter().cycle().map(|p| p % shape.width);
    let (mut checksums, mut parents) = (Vec::new(), Vec::new());
    for _ in 0..shape.generations {
        let mut next = Vec::with_capacity(shape.width);
        for _ in 0..shape.width {
            let (a, b) = (picks.next().unwrap(), picks.next().unwrap());
            let d = generation[a].zip_partitions(&generation[b], |l, r| {
                l.iter().zip(r).map(|(x, y)| x.wrapping_mul(31).wrapping_add(*y)).collect()
            });
            d.cache();
            parents.push((d.id(), [generation[a].id(), generation[b].id()]));
            next.push(d);
        }
        let mut folded = next[0].map_partitions(move |part| vec![checksum(part)]);
        for d in &next[1..] {
            folded = folded
                .zip_partitions(d, move |acc, part| vec![acc[0].rotate_left(7) ^ checksum(part)]);
        }
        before_job();
        checksums.extend(folded.collect()?);
        for d in &generation {
            d.unpersist();
        }
        generation = next;
    }
    Ok((checksums, parents))
}

/// Runs the pipeline under profiled full Blaze with the store sized to
/// `pressure_pct` of one generation's per-executor bytes, warm or cold.
fn run_sibling_zip(
    shape: &SiblingZip,
    pressure_pct: u64,
    cold: bool,
) -> (Vec<u64>, Metrics, TraceLog) {
    let controller = install(BlazeController::new(BlazeConfig::full(), Some(profile(shape))), cold);
    let cluster = Cluster::new(pressured(shape, pressure_pct), controller).unwrap();
    let (out, _) = sibling_zip(&Context::new(cluster.clone()), shape, &mut || {})
        .expect("pipeline run failed");
    (out, cluster.metrics(), cluster.trace().expect("tracing was enabled"))
}

/// The dependency-extraction run of a sibling-zip pipeline.
fn profile(shape: &SiblingZip) -> blaze::core::ProfileResult {
    let profiled = shape.clone();
    extract_dependencies(move |ctx| sibling_zip(ctx, &profiled, &mut || {}).map(|_| ()), 0)
        .expect("profiling run failed")
}

/// Two executors whose stores hold `pressure_pct` of one generation's
/// per-executor bytes, traced.
fn pressured(shape: &SiblingZip, pressure_pct: u64) -> ClusterConfig {
    let generation_bytes = shape.width as u64 * shape.elems * 8;
    ClusterConfig {
        executors: 2,
        slots_per_executor: 2,
        memory_capacity: ByteSize::from_bytes(generation_bytes / 2 * pressure_pct / 100),
        worker_threads: 2,
        tracing: true,
        ..Default::default()
    }
}

/// Admissions that evicted a block of one of the incoming dataset's own
/// parents. In this pipeline a parent holds an in-job reference and no
/// cross-job one for as long as its children are being computed, so each of
/// these went through the ancestor (weight 0.0) arm of the admission
/// comparison.
fn parent_evictions(trace: &TraceLog, parents: &[ZipParents]) -> u64 {
    let mut evicted: Vec<(ExecutorId, RddId)> = Vec::new();
    let mut count = 0;
    for ev in trace.events() {
        match ev {
            TraceEvent::Cache(r)
                if matches!(
                    r.decision,
                    CacheDecision::EvictToDisk | CacheDecision::EvictDiscard
                ) =>
            {
                evicted.push((r.executor, r.id.rdd));
            }
            TraceEvent::Cache(r) if r.decision == CacheDecision::AdmitMemory => {
                let own = parents.iter().find(|(child, _)| *child == r.id.rdd);
                count += evicted
                    .drain(..)
                    .filter(|(e, v)| *e == r.executor && own.is_some_and(|(_, ps)| ps.contains(v)))
                    .count() as u64;
            }
            // Evictions on behalf of an admission directly precede it.
            _ => evicted.clear(),
        }
    }
    count
}

/// Evictions and [`parent_evictions`] summed over the cases of
/// [`sibling_zip_case`].
static ZIP_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static ZIP_PARENT_EVICTIONS: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// One sibling-zip pipeline under memory pressure: the result equals the
    /// local runner's, and retaining or forgetting decision state gives a
    /// byte-identical trace and equal metrics. In debug builds every
    /// admission also cross-checks the maintained references and ancestor
    /// sets against their per-call originals. Not a `#[test]` of its own:
    /// the coverage check below needs every case to have run.
    fn sibling_zip_case(
        elems in 64u64..400,
        width in 2usize..9,
        generations in 2usize..15,
        picks in prop::collection::vec(0usize..1_000, 2..40),
        pressure_pct in 30u64..151,
    ) {
        let shape = SiblingZip { elems, width, generations, picks };
        let (want, parents) = sibling_zip(&Context::new(LocalRunner::new()), &shape, &mut || {})
            .expect("reference run failed");
        let (out_warm, m_warm, t_warm) = run_sibling_zip(&shape, pressure_pct, false);
        let (out_cold, m_cold, t_cold) = run_sibling_zip(&shape, pressure_pct, true);
        prop_assert_eq!(&out_warm, &want);
        prop_assert_eq!(&out_cold, &want);
        prop_assert_eq!(&m_warm, &m_cold);
        prop_assert_eq!(t_warm.chrome_json(), t_cold.chrome_json());
        ZIP_EVICTIONS.fetch_add(m_warm.evictions, Ordering::Relaxed);
        ZIP_PARENT_EVICTIONS.fetch_add(parent_evictions(&t_warm, &parents), Ordering::Relaxed);
    }
}

/// The sibling-zip property, and that its cases reach what it exists for:
/// evictions, and admissions decided through the ancestor arm.
#[test]
fn fan_in_lineage_is_identical_warm_or_cold_under_pressure() {
    sibling_zip_case();
    assert!(ZIP_EVICTIONS.load(Ordering::Relaxed) > 0, "no generated case evicted anything");
    assert!(
        ZIP_PARENT_EVICTIONS.load(Ordering::Relaxed) > 0,
        "no generated case evicted an incoming block's own parent"
    );
}

/// The residency belief follows the per-generation `unpersist()` of a
/// sibling-zip pipeline: at every job submission Blaze believes on disk no
/// more than the disk stores hold — the blocks an unpersist took out of the
/// disk tier are gone from the belief too — and so the instance it prices
/// never outgrows the two generations that can be cached at once.
#[test]
fn belief_follows_per_generation_unpersist() {
    let shape = SiblingZip { elems: 2048, width: 8, generations: 12, picks: (0..16).collect() };
    let readout = Arc::new(Mutex::new(ProbeReadout::default()));
    let probe = DecisionProbe::new(
        BlazeController::new(BlazeConfig::full(), Some(profile(&shape))),
        false,
        Arc::clone(&readout),
    );
    let cluster = Cluster::new(pressured(&shape, 60), Box::new(probe)).unwrap();
    let mut held = Vec::new();
    let stores = cluster.clone();
    sibling_zip(&Context::new(cluster), &shape, &mut || {
        held.push(stores.disk_used().into_iter().sum::<ByteSize>());
    })
    .expect("pipeline run failed");

    let readout = readout.lock().unwrap();
    assert_eq!(readout.believed_on_disk.len(), shape.generations);
    assert!(held.iter().any(|b| !b.is_zero()), "no generation spilled: {held:?}");
    for (job, (believed, held)) in readout.believed_on_disk.iter().zip(&held).enumerate() {
        assert!(believed <= held, "job {job}: {believed} believed on disk, {held} held");
    }
    let two_generations = (2 * shape.width * ZIP_PARTS) as u64;
    assert!(
        readout.stats.peak_candidates <= two_generations,
        "{} candidates at one submission, two generations are {two_generations}",
        readout.stats.peak_candidates
    );
}

// ---------------------------------------------------------------------------
// Golden runs
// ---------------------------------------------------------------------------

/// Traces a workload under `cfg` at the given thread count, warm or cold;
/// returns the Chrome trace and the run's metrics.
fn trace_workload(
    spec: AppSpec,
    threads: usize,
    cfg: BlazeConfig,
    cold: bool,
    fault: FaultPlan,
) -> (String, Metrics) {
    let out = Session::builder(spec.with_worker_threads(threads))
        .blaze(cfg)
        .instrument(move |inner| install(inner, cold))
        .fault(fault)
        .tracing(true)
        .run()
        .expect("workload run failed");
    (out.trace.expect("tracing was enabled").chrome_json(), out.metrics)
}

/// The golden decision-identity run: KMeans at `worker_threads` ∈ {1, 2, 4},
/// warm vs cold — all six traces must be byte-identical.
#[test]
fn golden_traces_are_byte_identical_across_threads_warm_or_cold() {
    let spec = AppSpec::evaluation(App::KMeans);
    let (reference, _) = trace_workload(spec, 1, BlazeConfig::full(), false, FaultPlan::default());
    assert!(!reference.is_empty());
    for threads in [1usize, 2, 4] {
        for cold in [false, true] {
            let (trace, _) =
                trace_workload(spec, threads, BlazeConfig::full(), cold, FaultPlan::default());
            assert_eq!(trace, reference, "trace diverged at worker_threads={threads} cold={cold}");
        }
    }
}

/// Decision identity must also hold while the engine is recovering from a
/// mid-run executor crash (the lineage then churns through loss events).
#[test]
fn golden_traces_are_byte_identical_under_fault_injection() {
    let fault = FaultPlan {
        seed: 0xDEC1,
        task_failure_rate: 0.02,
        max_task_retries: 3,
        crashes: vec![ExecutorCrash {
            at: SimTime::ZERO + SimDuration::from_millis(20),
            executor: 1,
        }],
        external_shuffle_service: false,
        ..Default::default()
    };
    let spec = AppSpec::evaluation(App::KMeans);
    let (warm, _) = trace_workload(spec, 2, BlazeConfig::full(), false, fault.clone());
    let (cold, _) = trace_workload(spec, 2, BlazeConfig::full(), true, fault);
    assert_eq!(warm, cold, "faulted trace diverged between warm and cold");
}

/// Full workloads under both tier settings: the memory-pressured PageRank,
/// ConnectedComponents, LogisticRegression and GBT under full Blaze, and
/// SVD++ under tightened memory with the serialized tier on (so the solver
/// really picks s-states). With KMeans in the golden runs above, every
/// evaluation application is covered. Warm and cold traces must be
/// byte-identical, so the simulated ACT and the job count are too.
#[test]
fn warm_and_cold_traces_are_identical_on_full_workloads() {
    let mut svdpp = AppSpec::evaluation(App::Svdpp);
    svdpp.memory_capacity = svdpp.memory_capacity.scale(0.55);
    let inputs = [
        (AppSpec::evaluation(App::PageRank), BlazeConfig::full()),
        (AppSpec::evaluation(App::ConnectedComponents), BlazeConfig::full()),
        (AppSpec::evaluation(App::LogisticRegression), BlazeConfig::full()),
        (AppSpec::evaluation(App::Gbt), BlazeConfig::full()),
        (svdpp, BlazeConfig::full_ser_tier()),
    ];
    for (spec, cfg) in inputs {
        let (warm, m) = trace_workload(spec, 2, cfg, false, FaultPlan::default());
        let (cold, _) = trace_workload(spec, 2, cfg, true, FaultPlan::default());
        assert_eq!(warm, cold, "{:?}: trace diverged between warm and cold", spec.app);
        assert!(m.jobs >= 5, "{:?} ran only {} jobs", spec.app, m.jobs);
        if cfg.optimizer.ser_tier {
            assert!(m.ser_transitions > 0, "the ser-tier input must exercise the mc path");
        }
    }
}

/// The cold reference really is cold: it never reuses a previous solve,
/// while the warm run of the same workload does.
#[test]
fn cold_reference_reports_zero_reuse() {
    let stats_of = |cold: bool| {
        let readout = Arc::new(Mutex::new(ProbeReadout::default()));
        let mirror = Arc::clone(&readout);
        Session::builder(AppSpec::evaluation(App::KMeans))
            .instrument(move |inner| Box::new(DecisionProbe::new(inner, cold, mirror)))
            .run()
            .expect("workload run failed");
        let stats = readout.lock().unwrap().stats;
        stats
    };
    let (warm, cold) = (stats_of(false), stats_of(true));
    assert!(warm.reused > 0, "the warm run should reuse some solve: {warm:?}");
    assert_eq!(cold.reused, 0, "the cold reference must solve every instance: {cold:?}");
    assert_eq!(cold.solves, warm.solves + warm.reused, "same instances either way");
}
