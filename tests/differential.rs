//! The differential harness: one property over the whole configuration
//! space, and the one place to add the next engine invariant.
//!
//! Blaze's decision layer — auto-caching, the m/s/d/u state choice,
//! auto-unpersist — changes *when* data is recovered, never *what* a job
//! computes (§4–§5.6), and this reproduction adds contracts of its own on
//! top. Each case of [`differential_case`] draws
//!
//! - one pipeline (the `tests/common` generator) over a cached input;
//! - a `ClusterConfig`: executors, slots, a memory store from one byte to
//!   ample, and worker threads;
//! - a controller: any non-Blaze [`SystemKind`], or a drawn [`BlazeConfig`]
//!   (level, `use_disk`, `ser_tier`, `certify`),
//!   with or without a profile;
//! - a `FaultPlan`: off, transient failures, a crash, map-output loss with
//!   or without the external shuffle service, stragglers with or without
//!   speculation, spill corruption, or fetch failures,
//!
//! and checks five contracts on every case:
//!
//! 1. the result and job count equal the `LocalRunner` answer;
//! 2. `TraceLog::validate` passes;
//! 3. traced metrics == untraced metrics == `Metrics::from_events`;
//! 4. the Chrome trace and `Metrics` are byte-identical at one worker thread
//!    and at the drawn count;
//! 5. for Blaze, warm == cold (through [`DecisionProbe`]) and certified ==
//!    uncertified, byte for byte;
//!
//! plus the accounting identities of [`check_accounting`] and, with an
//! ample store, that no job recomputes its own cached target
//! ([`check_own_target_reads`]). The coverage test asserts that every drawn
//! dimension engaged at least once, and the chaos seed matrix (widened by
//! `BLAZE_CHAOS_SEEDS`, as `scripts/ci.sh` does) puts a fixed full fault
//! schedule through the same checks.

mod common;

use blaze::common::error::Result as BlazeResult;
use blaze::common::ids::{JobId, RddId};
use blaze::common::{ByteSize, SimDuration, SimTime};
use blaze::core::{extract_dependencies, BlazeConfig, BlazeController, BlazeLevel, DecisionStats};
use blaze::dataflow::planner::plan_job;
use blaze::dataflow::{runner::LocalRunner, Context, Dataset, Plan};
use blaze::engine::{
    CacheController, CacheDecision, Cluster, ClusterConfig, ExecutorCrash, FaultPlan, Metrics,
    TraceEvent, TraceLog,
};
use blaze::workloads::{App, AppSpec, Session, SystemKind};
use blaze_bench::harness::{DecisionProbe, ProbeReadout};
use common::{apply, source, step_strategy, Step};
use parking_lot::RwLock;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// The drawn case
// ---------------------------------------------------------------------------

/// Every [`SystemKind`] that is not a preset of [`BlazeConfig`] (those are
/// drawn as configurations instead).
const SYSTEMS: [SystemKind; 13] = [
    SystemKind::SparkMemOnly,
    SystemKind::SparkMemDisk,
    SystemKind::SparkAlluxio,
    SystemKind::Lrc,
    SystemKind::Mrd,
    SystemKind::LrcMemOnly,
    SystemKind::MrdMemOnly,
    SystemKind::Fifo,
    SystemKind::Lfu,
    SystemKind::Lfuda,
    SystemKind::TinyLfu,
    SystemKind::LeCaR,
    SystemKind::GdWheel,
];

/// A store that holds every dataset a case caches: nothing is forced out.
const AMPLE: ByteSize = ByteSize::from_mib(64);

/// Latest simulated time a drawn crash is scheduled at. Most generated runs
/// last longer, so most drawn crashes fire mid-run.
const CRASH_US: u64 = 400;

#[derive(Debug, Clone, Copy)]
enum Controller {
    System(SystemKind),
    /// Blaze under a drawn configuration. `profiled` runs dependency
    /// extraction first.
    Blaze {
        cfg: BlazeConfig,
        profiled: bool,
    },
}

#[derive(Debug, Clone)]
struct Case {
    elems: u64,
    keys: u64,
    parts: usize,
    steps: Vec<Step>,
    executors: usize,
    slots: usize,
    memory: ByteSize,
    threads: usize,
    controller: Controller,
    fault: FaultPlan,
}

/// True with probability `(n - 1) / n`.
fn odds(n: u8) -> impl Strategy<Value = bool> {
    (0..n).prop_map(|x| x > 0)
}

fn blaze_strategy() -> impl Strategy<Value = Controller> {
    let levels = [BlazeLevel::AutoCache, BlazeLevel::CostAware, BlazeLevel::Unified];
    // Only the unified level runs the solver, so it is drawn four times as
    // often as each ablation level.
    let level = (0usize..6).prop_map(move |i| levels[i.min(2)]);
    // Three of four runs are profiled (without references Blaze caches
    // nothing on these aperiodic pipelines) and may use the disk.
    (level, (odds(4), odds(2)), (odds(2), odds(4))).prop_map(
        |(level, (use_disk, ser_tier), (certify, profiled))| {
            let mut cfg = BlazeConfig { level, certify, ..BlazeConfig::full() };
            cfg.optimizer.use_disk = use_disk;
            cfg.optimizer.ser_tier = ser_tier;
            Controller::Blaze { cfg, profiled }
        },
    )
}

fn fault_strategy() -> impl Strategy<Value = FaultPlan> {
    let plan = |seed| FaultPlan { seed, ..FaultPlan::default() };
    prop_oneof![
        Just(FaultPlan::default()),
        (0u64..1_000, 0.01f64..0.15, 4u32..7).prop_map(move |(seed, rate, retries)| FaultPlan {
            task_failure_rate: rate,
            max_task_retries: retries,
            ..plan(seed)
        }),
        (0u64..1_000, 0u64..CRASH_US, 0usize..2, odds(2)).prop_map(
            move |(seed, at_us, executor, ess)| FaultPlan {
                crashes: vec![ExecutorCrash {
                    at: SimTime::ZERO + SimDuration::from_micros(at_us),
                    executor,
                }],
                external_shuffle_service: ess,
                ..plan(seed)
            }
        ),
        (0u64..1_000, 0.05f64..0.4, odds(2)).prop_map(move |(seed, loss, ess)| FaultPlan {
            map_output_loss_rate: loss,
            external_shuffle_service: ess,
            ..plan(seed)
        }),
        (0u64..1_000, 0.05f64..0.4, 1.0f64..7.0, odds(2)).prop_map(
            move |(seed, rate, slowdown, speculation)| FaultPlan {
                straggler_rate: rate,
                straggler_slowdown: slowdown,
                speculation,
                ..plan(seed)
            }
        ),
        (0u64..1_000, 0.1f64..0.9)
            .prop_map(move |(seed, rate)| FaultPlan { spill_corruption_rate: rate, ..plan(seed) }),
        (0u64..1_000, 0.05f64..0.5, 1u32..5).prop_map(move |(seed, rate, retries)| FaultPlan {
            fetch_failure_rate: rate,
            max_fetch_retries: retries,
            ..plan(seed)
        }),
    ]
}

fn case_strategy() -> impl Strategy<Value = Case> {
    let steps = prop::collection::vec(step_strategy(), 1..6);
    let pipeline = (100u64..1_500, 1u64..64, 1usize..6, steps);
    // The store as a percentage of one executor's share of the input (the
    // size of one un-reduced cached dataset), half the time; one byte (no
    // block ever fits) and ample otherwise.
    let memory_pct = prop_oneof![Just(0u64), 10u64..200, 10u64..200, Just(u64::MAX)];
    let cluster = (1usize..4, 1usize..4, memory_pct, 1usize..5);
    let controller = prop_oneof![
        (0..SYSTEMS.len()).prop_map(|i| Controller::System(SYSTEMS[i])),
        blaze_strategy(),
    ];
    (pipeline, cluster, controller, fault_strategy()).prop_map(
        |(
            (elems, keys, parts, steps),
            (executors, slots, memory_pct, threads),
            controller,
            fault,
        )| {
            // A crash needs a survivor to reschedule onto.
            let executors = if fault.crashes.is_empty() { executors } else { executors.max(2) };
            let memory = match memory_pct {
                u64::MAX => AMPLE,
                pct => ByteSize::from_bytes((elems * 16 / executors as u64 * pct / 100).max(1)),
            };
            Case { elems, keys, parts, steps, executors, slots, memory, threads, controller, fault }
        },
    )
}

impl Case {
    /// Builds the pipeline on `ctx`, input included, and runs it.
    fn drive(&self, ctx: &Context) -> BlazeResult<Vec<(u64, u64)>> {
        apply(source(ctx, self.elems, self.keys, self.parts), self.parts, &self.steps)
    }

    fn is_blaze(&self) -> bool {
        matches!(self.controller, Controller::Blaze { .. })
    }

    /// The drawn case as it is run first: traced and warm.
    fn primary(&self) -> Knobs {
        let certify = matches!(self.controller, Controller::Blaze { cfg, .. } if cfg.certify);
        Knobs { threads: self.threads, tracing: true, cold: false, certify }
    }
}

// ---------------------------------------------------------------------------
// Running a case
// ---------------------------------------------------------------------------

/// What one run of a case varies.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    threads: usize,
    tracing: bool,
    /// Blaze: forget all retained decision state before every job.
    cold: bool,
    /// Blaze: emit and inline-verify a decision certificate per solve.
    certify: bool,
}

/// What one run leaves behind.
struct Run {
    /// The sorted result.
    result: Vec<(u64, u64)>,
    metrics: Metrics,
    trace: Option<TraceLog>,
    /// The Blaze controller's decision counters (zero for other systems).
    stats: DecisionStats,
    plan: Arc<RwLock<Plan>>,
}

fn run(case: &Case, knobs: Knobs) -> Result<Run, TestCaseError> {
    let readout = Arc::new(Mutex::new(ProbeReadout::default()));
    let controller: Box<dyn CacheController> = match case.controller {
        Controller::System(kind) => kind.make_controller(None),
        Controller::Blaze { cfg, profiled } => {
            let profile = profiled.then(|| {
                extract_dependencies(|ctx| case.drive(ctx).map(drop), 0)
                    .expect("dependency extraction")
            });
            let ctl = BlazeController::new(BlazeConfig { certify: knobs.certify, ..cfg }, profile);
            Box::new(DecisionProbe::new(ctl, knobs.cold, Arc::clone(&readout)))
        }
    };
    let config = ClusterConfig {
        executors: case.executors,
        slots_per_executor: case.slots,
        memory_capacity: case.memory,
        worker_threads: knobs.threads,
        tracing: knobs.tracing,
        fault: case.fault.clone(),
        ..ClusterConfig::default()
    };
    let cluster = Cluster::new(config, controller)
        .map_err(|e| TestCaseError::fail(format!("invalid drawn config: {e}")))?;
    let ctx = Context::new(cluster.clone());
    let result = case
        .drive(&ctx)
        .map_err(|e| TestCaseError::fail(format!("{knobs:?}: the run failed: {e}")))?;
    let stats = readout.lock().expect("a probe panicked").stats;
    let plan = Arc::clone(ctx.plan());
    Ok(Run { result, metrics: cluster.metrics(), trace: cluster.trace(), stats, plan })
}

// ---------------------------------------------------------------------------
// The checks
// ---------------------------------------------------------------------------

/// What a passing case reports to the coverage counters.
struct Outcome {
    metrics: Metrics,
    /// Decision counters of the primary run, with the certified count of
    /// whichever run had certify mode on.
    stats: DecisionStats,
    /// The own-target contract was asserted and a job reached its shape.
    own_target_reached: bool,
}

fn check(case: &Case) -> Result<Outcome, TestCaseError> {
    let primary = case.primary();
    let base = run(case, primary)?;
    let trace = base.trace.as_ref().expect("the primary run is traced");

    // 1. The run computes the local-runner answer with the same jobs.
    let ctx = Context::new(LocalRunner::new().with_threads(case.threads));
    let want = case.drive(&ctx).expect("reference run");
    prop_assert!(base.result == want, "contract 1: the run computed a different result");
    prop_assert_eq!(base.metrics.jobs, u64::from(ctx.jobs_submitted()), "contract 1: job count");

    // 2. The trace passes its own audit. Errors only: a BA404 warning is a
    //    policy's misprediction, not the engine's bookkeeping.
    let report = trace.validate();
    prop_assert!(report.passes(), "contract 2: trace audit failed: {:?}", report.diagnostics);

    // 3. Tracing retains the events; it never changes what they fold to.
    let folded = Metrics::from_events(trace.events());
    prop_assert!(
        folded == base.metrics,
        "contract 3: the event fold differs: {}",
        first_diverging_line(&format!("{folded:#?}"), &format!("{:#?}", base.metrics))
    );
    // The one count the fold does not keep: every miss-recompute record is
    // followed by its recompute span.
    let spans = trace.events().iter().filter(|ev| matches!(ev, TraceEvent::Recompute { .. }));
    prop_assert_eq!(spans.count() as u64, base.metrics.recompute_misses, "contract 3: spans");
    let untraced = run(case, Knobs { tracing: false, ..primary })?;
    prop_assert!(
        untraced.metrics == base.metrics,
        "contract 3: tracing changed the metrics: {}",
        first_diverging_line(&format!("{:#?}", untraced.metrics), &format!("{:#?}", base.metrics))
    );

    // 4–5. Runs that may not differ from the primary one by a single byte.
    let identical = |contract: &str, knobs: Knobs| -> Result<Run, TestCaseError> {
        let other = run(case, knobs)?;
        prop_assert!(other.result == base.result, "{}: results differ", contract);
        let trace = other.trace.as_ref().expect("traced").chrome_json();
        let base_trace = base.trace.as_ref().expect("traced").chrome_json();
        prop_assert!(
            trace == base_trace,
            "{}: Chrome trace differs at {}",
            contract,
            first_diverging_line(&trace, &base_trace)
        );
        let (m, base_m) = (format!("{:#?}", other.metrics), format!("{:#?}", base.metrics));
        prop_assert!(
            m == base_m,
            "{}: metrics differ at {}",
            contract,
            first_diverging_line(&m, &base_m)
        );
        Ok(other)
    };
    identical("contract 4 (one worker thread)", Knobs { threads: 1, ..primary })?;
    let mut stats = base.stats;
    if case.is_blaze() {
        identical("contract 5 (cold decision state)", Knobs { cold: true, ..primary })?;
        let flipped = identical(
            "contract 5 (certify flipped)",
            Knobs { certify: !primary.certify, ..primary },
        )?;
        stats.certified += flipped.stats.certified;
    }

    check_accounting(case, &base.metrics)?;
    let own_target_reached = check_own_target_reads(case, &base)?;
    Ok(Outcome { metrics: base.metrics, stats, own_target_reached })
}

/// The first line at which two renderings differ, for a readable failure.
fn first_diverging_line(a: &str, b: &str) -> String {
    a.lines().zip(b.lines()).enumerate().find(|(_, (x, y))| x != y).map_or_else(
        || format!("the end ({} vs {} lines)", a.lines().count(), b.lines().count()),
        |(i, (x, y))| format!("line {i}: `{x}` vs `{y}`"),
    )
}

/// Accounting identities against the configuration the case drew: the
/// accumulated task time covers the makespan spread over every slot, each
/// eviction either spills or discards, and no copy launches without
/// speculation.
fn check_accounting(case: &Case, m: &Metrics) -> TestCaseResult {
    prop_assert!(m.tasks > 0 && m.jobs > 0 && m.completion_time > SimTime::ZERO);
    let slots = (case.executors * case.slots) as f64;
    prop_assert!(
        m.accumulated.total().as_secs_f64() >= m.completion_time.as_secs_f64() / slots - 1e-9,
        "accumulated task time {} under the makespan {} over {} slots",
        m.accumulated.total(),
        m.completion_time,
        slots
    );
    prop_assert_eq!(m.evictions, m.evictions_discard + m.evictions_to_disk);
    if !case.fault.speculation {
        prop_assert_eq!(m.speculation.launched, 0, "a copy launched with speculation off");
    }
    Ok(())
}

/// A job's read of its own target is a reference. With an ample store
/// nothing is forced out, so a job that looks its own cached target up
/// behind an earlier stage must hit: completing that stage may not
/// auto-unpersist what the result stage is about to read. Asserted on every
/// case with an ample store, except where losing the target is the case's
/// point: a crash destroys blocks, and Blaze without a profile unpersists on
/// guessed references (BA404). A target the user unpersisted is no longer
/// cached. Returns whether the case asserted the contract and a job
/// reached its shape.
fn check_own_target_reads(case: &Case, run: &Run) -> Result<bool, TestCaseError> {
    let plan = run.plan.read();
    let mut open: Option<(JobId, RddId)> = None;
    let (mut reached, mut missed) = (false, Vec::new());
    for ev in run.trace.as_ref().expect("traced").events() {
        match ev {
            TraceEvent::JobStarted { job, target, .. } => {
                let staged = plan_job(&plan, *target).expect("the job ran").stages.len() > 1;
                let cached = !plan.node(*target).expect("in the plan").unpersist_requested;
                open = (staged && cached).then_some((*job, *target));
            }
            TraceEvent::Cache(r) => {
                let Some((job, target)) = open else { continue };
                if target != r.id.rdd {
                    continue;
                }
                match r.decision {
                    CacheDecision::HitMemory
                    | CacheDecision::HitSerializedMemory
                    | CacheDecision::HitDisk => reached = true,
                    CacheDecision::MissRecompute => {
                        reached = true;
                        missed.push(format!("{} in {job} at {}", r.id, r.at));
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    let asserted = case.memory == AMPLE
        && case.fault.crashes.is_empty()
        && !matches!(case.controller, Controller::Blaze { profiled: false, .. });
    if !asserted {
        return Ok(false);
    }
    prop_assert!(missed.is_empty(), "a job recomputed its own cached target: {:?}", missed);
    Ok(reached)
}

// ---------------------------------------------------------------------------
// The property and its coverage floor
// ---------------------------------------------------------------------------

/// How often each drawn dimension engaged over the property's cases.
#[derive(Debug, Default)]
struct Coverage {
    cases: u64,
    blaze: u64,
    profiled: u64,
    spills: u64,
    discards: u64,
    ser_transitions: u64,
    crashes: u64,
    speculation_wins: u64,
    quarantined_spills: u64,
    fetch_retries: u64,
    certified_solves: u64,
    own_target_reads: u64,
}

impl Coverage {
    fn add(&mut self, case: &Case, out: &Outcome) {
        let m = &out.metrics;
        self.cases += 1;
        self.blaze += u64::from(case.is_blaze());
        self.profiled +=
            u64::from(matches!(case.controller, Controller::Blaze { profiled: true, .. }));
        self.spills += m.evictions_to_disk;
        self.discards += m.evictions_discard;
        self.ser_transitions += m.ser_transitions;
        self.crashes += m.recovery.executor_crashes;
        self.speculation_wins += m.speculation.wins;
        self.quarantined_spills += m.recovery.spills_quarantined;
        self.fetch_retries += m.recovery.fetch_retries;
        self.certified_solves += out.stats.certified;
        self.own_target_reads += u64::from(out.own_target_reached);
    }
}

static COVERAGE: Mutex<Option<Coverage>> = Mutex::new(None);

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// One drawn case through every check; a panic fails the case like a
    /// failed check, with the drawn inputs. Not a `#[test]` of its own: the
    /// coverage floor below needs every case to have run.
    fn differential_case(case in case_strategy()) {
        let out = std::panic::catch_unwind(|| check(&case)).map_err(|panic| {
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("a non-string payload");
            TestCaseError::fail(format!("panicked: {message}"))
        })??;
        COVERAGE.lock().unwrap().get_or_insert_with(Coverage::default).add(&case, &out);
    }
}

/// The property, and that its cases reach every dimension they draw.
#[test]
fn random_cases_pass_every_check_and_reach_every_dimension() {
    differential_case();
    let c = COVERAGE.lock().unwrap().take().expect("the property ran");
    println!("{c:#?}");
    assert!(c.spills > 0 && c.discards > 0, "no case both spilled and discarded");
    assert!(c.ser_transitions > 0, "no case made the solver pick an s-state");
    assert!(c.crashes > 0, "no drawn crash fired");
    assert!(c.speculation_wins > 0, "no speculative copy won its race");
    assert!(c.quarantined_spills > 0, "no corrupted spill was caught");
    assert!(c.fetch_retries > 0, "no shuffle fetch was retried");
    assert!(c.certified_solves > 0, "no decision certificate was verified");
    assert!(c.own_target_reads > 0, "no case read a cached job target behind an earlier stage");
}

// ---------------------------------------------------------------------------
// The chaos seed matrix
// ---------------------------------------------------------------------------

/// The chaos seed matrix. `scripts/ci.sh` widens it via `BLAZE_CHAOS_SEEDS`
/// (a comma-separated list); the default keeps local `cargo test` fast.
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("BLAZE_CHAOS_SEEDS") {
        Ok(list) => list
            .split(',')
            .map(|s| s.trim().parse().expect("BLAZE_CHAOS_SEEDS: not a u64 seed"))
            .collect(),
        Err(_) => vec![11, 23],
    }
}

/// Every seed of the matrix — transient failures, map-output loss and a
/// crash at 40 % of the clean run, shuffle service off — passes every check
/// on a fixed iterative pipeline, under an LRU baseline and unprofiled
/// Blaze, and the crash fires.
#[test]
fn chaos_seed_matrix_preserves_results() {
    for controller in [
        Controller::System(SystemKind::SparkMemDisk),
        Controller::Blaze { cfg: BlazeConfig::full(), profiled: false },
    ] {
        let mut case = Case {
            elems: 3_000,
            keys: 97,
            parts: 6,
            steps: vec![
                Step::ReduceByKey,
                Step::MapAdd(0x3C),
                Step::ReduceByKey,
                Step::MapAdd(0x3C),
                Step::ReduceByKey,
            ],
            executors: 2,
            slots: 2,
            memory: ByteSize::from_kib(64),
            threads: 2,
            controller,
            fault: FaultPlan::default(),
        };
        let clean = check(&case).unwrap_or_else(|e| panic!("clean run of {case:?}: {e}"));
        let crash_at = SimTime::ZERO
            + SimDuration::from_secs_f64(clean.metrics.completion_time.as_secs_f64() * 0.4);
        for seed in chaos_seeds() {
            case.fault = FaultPlan {
                seed,
                task_failure_rate: 0.08,
                max_task_retries: 6,
                crashes: vec![ExecutorCrash { at: crash_at, executor: 1 }],
                map_output_loss_rate: 0.2,
                external_shuffle_service: false,
                ..FaultPlan::default()
            };
            let out = check(&case).unwrap_or_else(|e| panic!("seed {seed}, {case:?}: {e}"));
            assert_eq!(out.metrics.recovery.executor_crashes, 1, "seed {seed}: crash did not fire");
        }
    }
}

// ---------------------------------------------------------------------------
// Goldens the property does not reach
// ---------------------------------------------------------------------------

/// The memory-pressured evaluation PageRank, profiled (Blaze) and
/// unprofiled (LRU): the entire `Metrics` struct must match between 1 and 4
/// worker threads. (KMeans has its thread goldens in
/// `tests/decision_incremental.rs` and `tests/fault_injection.rs`.)
#[test]
fn worker_threads_do_not_change_any_metric() {
    for system in [SystemKind::Blaze, SystemKind::SparkMemOnly] {
        let run = |threads| {
            Session::builder(AppSpec::evaluation(App::PageRank).with_worker_threads(threads))
                .system(system)
                .run()
                .expect("workload run")
                .metrics
        };
        assert_eq!(run(1), run(4), "PageRank under {system:?}: metrics diverged at 4 threads");
    }
}

/// Regression for the `top_recompute_rdd` tie order: the answer (per job)
/// must be identical at 1, 2 and 4 worker threads. The two cached datasets
/// are deliberately symmetric (same shape, same compute cost), so their
/// per-job recompute times tie and the result is decided purely by the
/// documented tie-break. Before the fix the winner under ties depended on
/// hash-map iteration order, which made it a per-process lottery.
#[test]
fn top_recompute_rdd_is_thread_count_invariant() {
    let mut baseline: Option<Vec<Option<(u32, u64)>>> = None;
    for threads in [1usize, 2, 4] {
        let cluster = Cluster::new(
            ClusterConfig {
                executors: 2,
                slots_per_executor: 2,
                // Tiny store: the cached map outputs never fit, so every
                // reuse is a recomputation.
                memory_capacity: ByteSize::from_kib(2),
                worker_threads: threads,
                tracing: true,
                ..Default::default()
            },
            SystemKind::SparkMemOnly.make_controller(None),
        )
        .unwrap();
        let ctx = Context::new(cluster.clone());
        let base: Dataset<(u64, u64)> =
            ctx.parallelize((0..600u64).map(|i| (i % 16, i)).collect::<Vec<_>>(), 4);
        let a = base.map_values(|v| v.wrapping_add(1));
        a.cache();
        let b = base.map_values(|v| v.wrapping_add(2));
        b.cache();
        a.count().unwrap();
        b.count().unwrap();
        for _ in 0..2 {
            let joined = a.zip_partitions(&b, |x, _y| x.to_vec());
            joined.count().unwrap();
        }
        let metrics = cluster.metrics();
        let trace = cluster.trace().expect("tracing was enabled");
        assert!(trace.validate().is_clean());
        assert_eq!(Metrics::from_events(trace.events()), metrics);

        let tops: Vec<Option<(u32, u64)>> = (0..metrics.jobs as u32)
            .map(|j| metrics.top_recompute_rdd(JobId(j)).map(|(r, t)| (r.raw(), t.as_nanos())))
            .collect();
        assert!(tops.iter().any(|t| t.is_some()), "expected recomputation under a 2 KiB store");
        match &baseline {
            None => baseline = Some(tops),
            Some(b) => assert_eq!(b, &tops, "top_recompute_rdd diverged at {threads} threads"),
        }
    }
}
