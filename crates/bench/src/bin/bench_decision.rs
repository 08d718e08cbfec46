//! Decision-path latency benchmark: what the driver's retained state buys.
//!
//! The Blaze decision path — cost maintenance plus the per-executor state
//! solve — runs in the engine's *serial* plan/commit phase at every job
//! submission, so its latency directly caps parallel speedup. There is one
//! decision driver; the baseline ("scratch") arm is that same driver made to
//! forget everything it retains before every submission. This harness
//! measures the difference two ways:
//!
//! 1. **Workloads** — every evaluation application runs twice under full
//!    Blaze with the controller wrapped in the harness's timing shim
//!    (`blaze_bench::harness::DecisionProbe`), which in the baseline arm
//!    also calls `BlazeController::forget_decision_state` before each job
//!    submission. The simulated ACT must be identical in
//!    both arms (the decision-identity contract); only the real time spent
//!    deciding may differ.
//! 2. **Stress shapes** — synthetic lineages exercising the regimes where
//!    cold work is O(everything): `wide` (many sibling datasets), `deep` (a
//!    long narrow chain priced through Eq. 4 recursion), and `churn` (a
//!    growing job sequence forcing reference re-derivation). Each round
//!    perturbs the lineage, runs a retaining driver and a reset driver fed
//!    freshly built references, and asserts their command streams are
//!    equal.
//!
//! 3. **Admission** — the per-task side of the decision path: microseconds
//!    per `BlazeController::choose_victims` on a sibling-zip lineage, at two
//!    resident counts. Job submission is a few dozen calls per run; this one
//!    is made for every block that does not fit.
//!
//! Wall-clock time is the *measured output* here, never an input to
//! simulated behaviour (`blaze-lint` enforces that split). Results go to
//! `BENCH_decision.json` at the repository root.
//!
//! Flags: `--quick` (CI-sized run, no JSON), `--check` (exit non-zero if
//! the stress speedups regress below [`CHECK_MIN_SPEEDUP`], an admission
//! costs more than its [`ADMISSION_SHAPES`] ceiling, or a strategy's
//! certificate verification costs more than its [`VERIFY_RATIO_CEILINGS`]
//! share of solving).
//!
//! A fourth section measures the **certify** overhead (see `blaze-certify`):
//! per strategy, how much certificate *emission* adds to a solve and what
//! *verification* costs relative to solving. The headline workload/stress
//! speedup columns are measured with certification off, exactly as before.

use blaze_audit::diagnostic::Diagnostic;
use blaze_bench::harness::{DecisionProbe, ProbeReadout};
use blaze_bench::json::nz;
use blaze_certify::{verify_mckp, verify_mckp_greedy};
use blaze_common::error::Result;
use blaze_common::ids::{AppId, JobId};
use blaze_common::ids::{BlockId, ExecutorId, RddId};
use blaze_common::{ByteSize, SimDuration};
use blaze_core::costlineage::CostLineage;
use blaze_core::{
    extract_dependencies, BlazeConfig, BlazeController, IncrementalOptimizer, JobRefs,
    OptimizerConfig, PartitionState,
};
use blaze_dataflow::{planner::plan_job, runner::LocalRunner, Context, Dataset, Plan};
use blaze_engine::config::default_worker_threads;
use blaze_engine::{BlockInfo, CacheController, CtrlCtx, HardwareModel, PartitionEvent, StoreTier};
use blaze_solver::mckp::{
    greedy_mckp_certificate, solve_mckp, solve_mckp_certified, MckpGroup, MckpOption,
};
use blaze_workloads::{App, AppSpec, Session};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Minimum stress-shape speedup (`cold / retained`) the `--check`
/// mode requires on the `deep` and `churn` shapes. The committed full-mode
/// results sit far above this; the margin absorbs CI machine noise.
const CHECK_MIN_SPEEDUP: f64 = 2.0;

/// Each certify row's `--check` ceiling on `verify_s / solve_s`: checking a
/// proof must stay a fraction of producing the answer, or the certificate
/// is no cheaper than re-solving. About twice the worst of eight `--quick`
/// runs when the ceilings were set (knapsack 0.23, multi-choice 0.11,
/// greedy 0.43; the full run's rows are in `BENCH_decision.json`), so host
/// noise passes and a replay gone several times slower does not.
const VERIFY_RATIO_CEILINGS: [(&str, f64); 3] =
    [("knapsack", 0.5), ("multi-choice", 0.25), ("greedy", 1.0)];

/// The admission row's resident counts, each with the `--check` ceiling in
/// microseconds per `choose_victims` call: about twice the value measured
/// when the row was added (6.8 and 53 µs, ± 15 % between runs; see
/// `BENCH_decision.json`), so host noise passes and a return to per-call
/// lineage walks or per-job reference scans (337 µs and 3.3 ms) does not.
const ADMISSION_SHAPES: [(usize, f64); 2] = [(48, 15.0), (512, 120.0)];

/// One workload's paired measurement.
struct WorkloadSample {
    workload: &'static str,
    jobs: u64,
    act_s: f64,
    decision_scratch_s: f64,
    decision_incremental_s: f64,
    decision_calls: u64,
}

/// One stress shape's paired measurement.
struct StressSample {
    shape: &'static str,
    rounds: usize,
    scratch_s: f64,
    incremental_s: f64,
    solves: u64,
    reused: u64,
    dirty_drained: u64,
    invalidated: u64,
}

impl StressSample {
    fn speedup(&self) -> f64 {
        if self.incremental_s > 0.0 {
            self.scratch_s / self.incremental_s
        } else {
            f64::INFINITY
        }
    }
}

/// Runs `spec` under full Blaze, retaining decision state or (`cold`)
/// forgetting it before every submission; returns (simulated ACT seconds,
/// jobs, real decision seconds, decision calls).
fn run_timed(spec: &AppSpec, cold: bool) -> (f64, u64, f64, u64) {
    let readout = Arc::new(Mutex::new(ProbeReadout::default()));
    let mirror = Arc::clone(&readout);
    let out = Session::builder()
        .app(*spec)
        .instrument(move |inner| Box::new(DecisionProbe::new(inner, cold, mirror)))
        .run()
        .expect("workload run failed")
        .into_outcome();
    let readout = readout.lock().expect("the probe panicked").clone();
    (
        out.metrics.completion_time.as_secs_f64(),
        out.metrics.jobs,
        readout.hook_time.as_secs_f64(),
        readout.hook_calls,
    )
}

fn bench_workloads(apps: &[App]) -> Vec<WorkloadSample> {
    // One discarded warm-up run, so the first measured workload does not
    // absorb the process's allocator/page-cache warm-up in its column.
    let _ = run_timed(&AppSpec::evaluation(apps[0]), false);
    let mut samples = Vec::new();
    for &app in apps {
        let spec = AppSpec::evaluation(app);
        let (act_inc, jobs_inc, dec_inc, calls) = run_timed(&spec, false);
        let (act_scr, jobs_scr, dec_scr, _) = run_timed(&spec, true);
        assert_eq!(jobs_inc, jobs_scr, "{app:?}: job counts diverged");
        assert!(
            (act_inc - act_scr).abs() < 1e-12,
            "{app:?}: retained decision state changed the simulated ACT ({act_inc} vs {act_scr})"
        );
        eprintln!(
            "{:7} jobs={jobs_inc:3} act={act_inc:.4}s decision scratch={dec_scr:.4}s \
             incremental={dec_inc:.4}s ({:.2}x)",
            app.label(),
            if dec_inc > 0.0 { dec_scr / dec_inc } else { f64::INFINITY },
        );
        samples.push(WorkloadSample {
            workload: app.label(),
            jobs: jobs_inc,
            act_s: act_inc,
            decision_scratch_s: dec_scr,
            decision_incremental_s: dec_inc,
            decision_calls: calls,
        });
    }
    samples
}

/// Shared state of one synthetic stress run: a lineage plus a retaining
/// driver with its append-only references, stepped round by round against a
/// reset driver with rebuilt references, command-stream equality asserted
/// every round.
struct StressRig {
    lineage: CostLineage,
    inc: IncrementalOptimizer,
    inc_refs: JobRefs,
    cold: IncrementalOptimizer,
    hardware: HardwareModel,
    capacity: ByteSize,
    config: OptimizerConfig,
    scratch_s: f64,
    incremental_s: f64,
}

impl StressRig {
    fn new(capacity: ByteSize) -> Self {
        Self {
            lineage: CostLineage::new(),
            inc: IncrementalOptimizer::new(),
            inc_refs: JobRefs::default(),
            cold: IncrementalOptimizer::new(),
            hardware: HardwareModel::default(),
            capacity,
            config: OptimizerConfig::default(),
            scratch_s: 0.0,
            incremental_s: 0.0,
        }
    }

    /// Runs both drivers for the current round and accumulates their real
    /// latencies. Panics if the command streams differ.
    ///
    /// The retaining driver goes first: it drains the lineage's dirty set,
    /// which the reset driver (empty memo, nothing to invalidate) never needs.
    fn step(&mut self, plan: &Plan, targets: &[RddId], round: usize) {
        // audit: allow(wall-clock)
        let start = Instant::now();
        let captured = self.inc_refs.captured_jobs();
        self.inc_refs.extend_build(plan, &targets[captured..]);
        let fast = self.inc.optimize(
            &mut self.lineage,
            &self.inc_refs,
            None,
            &self.hardware,
            self.capacity,
            round,
            &self.config,
        );
        self.incremental_s += start.elapsed().as_secs_f64();

        self.cold.reset();
        // audit: allow(wall-clock)
        let start = Instant::now();
        let scratch_refs = JobRefs::build(plan, targets);
        let scratch = self.cold.optimize(
            &mut self.lineage,
            &scratch_refs,
            None,
            &self.hardware,
            self.capacity,
            round,
            &self.config,
        );
        self.scratch_s += start.elapsed().as_secs_f64();

        assert_eq!(fast, scratch, "stress round {round}: retained state changed the decision");
        debug_assert!(self.lineage.residency_consistent());
    }

    fn finish(self, shape: &'static str, rounds: usize) -> StressSample {
        assert_eq!(self.cold.stats().reused, 0, "the reset driver must never reuse a solve");
        let stats = self.inc.stats();
        let sample = StressSample {
            shape,
            rounds,
            scratch_s: self.scratch_s,
            incremental_s: self.incremental_s,
            solves: stats.solves,
            reused: stats.reused,
            dirty_drained: stats.dirty_drained,
            invalidated: stats.invalidated,
        };
        eprintln!(
            "stress {shape:5} rounds={rounds:4} scratch={:.4}s incremental={:.4}s ({:.1}x) \
             solves={} reused={} dirty={} invalidated={}",
            sample.scratch_s,
            sample.incremental_s,
            sample.speedup(),
            sample.solves,
            sample.reused,
            sample.dirty_drained,
            sample.invalidated,
        );
        sample
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

/// `wide`: one source fanned out into many sibling datasets, all cached.
/// Every round dirties a single block; a cold driver re-prices every sibling.
fn stress_wide(rounds: usize) -> StressSample {
    const SIBLINGS: usize = 96;
    const PARTS: u32 = 16;
    let ctx = Context::new(LocalRunner::new());
    let base = ctx.parallelize((0..256u64).collect::<Vec<_>>(), PARTS as usize);
    let siblings: Vec<Dataset<u64>> =
        (0..SIBLINGS as u64).map(|k| base.map(move |x| x + k)).collect();
    let targets = vec![siblings[SIBLINGS - 1].id()];

    let mut rig = StressRig::new(ByteSize::from_kib(1024));
    {
        let plan_lock = ctx.plan();
        let plan = plan_lock.read();
        rig.lineage.merge_plan(&plan);
    }
    record_all(&mut rig.lineage, base.id(), PARTS, 64, 3);
    for (k, s) in siblings.iter().enumerate() {
        record_all(&mut rig.lineage, s.id(), PARTS, 48 + (k as u64 % 16), 2 + (k as u64 % 5));
        for p in 0..PARTS {
            rig.lineage
                .set_state(BlockId::new(s.id(), p), PartitionState::Memory(ExecutorId(p % 4)));
        }
    }

    let plan_lock = ctx.plan();
    let plan = plan_lock.read();
    for round in 0..rounds {
        let victim = siblings[round % SIBLINGS].id();
        rig.lineage.record_metrics(
            BlockId::new(victim, (round as u32) % PARTS),
            ByteSize::from_kib(40 + (round as u64 % 32)),
            SimDuration::from_millis(1 + (round as u64 % 9)),
        );
        rig.step(&plan, &targets, 0);
    }
    rig.finish("wide", rounds)
}

/// `deep`: a long narrow chain with a cached tail. Cold pricing recurses the
/// whole chain (Eq. 4) every round; the retained memo only re-derives the
/// invalidated suffix below the dirtied block.
fn stress_deep(rounds: usize) -> StressSample {
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
    let targets = vec![*chain.last().expect("nonempty chain")];

    let mut rig = StressRig::new(ByteSize::from_kib(256));
    {
        let plan_lock = ctx.plan();
        let plan = plan_lock.read();
        rig.lineage.merge_plan(&plan);
    }
    for (i, &rdd) in chain.iter().enumerate() {
        record_all(&mut rig.lineage, rdd, PARTS, 32 + (i as u64 % 8), 1 + (i as u64 % 4));
    }
    for &rdd in &chain[chain.len() - CACHED_TAIL..] {
        for p in 0..PARTS {
            rig.lineage.set_state(BlockId::new(rdd, p), PartitionState::Memory(ExecutorId(p % 2)));
        }
    }

    // The dirtied block sits just below the cached tail: its invalidation
    // closure is a short suffix, while the cold path re-recurses ~DEPTH
    // levels for the deepest cached candidate.
    let dirty_rdd = chain[chain.len() - CACHED_TAIL - 8];
    let plan_lock = ctx.plan();
    let plan = plan_lock.read();
    for round in 0..rounds {
        rig.lineage.record_metrics(
            BlockId::new(dirty_rdd, (round as u32) % PARTS),
            ByteSize::from_kib(24 + (round as u64 % 16)),
            SimDuration::from_millis(1 + (round as u64 % 6)),
        );
        rig.step(&plan, &targets, 0);
    }
    rig.finish("deep", rounds)
}

/// `churn`: the job sequence grows by one appended target per round (an
/// iterative driver), with a sliding window of cached datasets. Rebuilding
/// the references is O(jobs) per round — O(rounds²) overall — while the
/// append-only extension adds exactly the appended job.
fn stress_churn(rounds: usize) -> StressSample {
    const PARTS: u32 = 4;
    const WINDOW: usize = 8;
    let ctx = Context::new(LocalRunner::new());
    let mut cur = ctx.parallelize((0..64u64).collect::<Vec<_>>(), PARTS as usize);
    let mut chain = vec![cur.id()];
    let mut targets: Vec<RddId> = Vec::new();
    let mut rig = StressRig::new(ByteSize::from_kib(512));

    for round in 0..rounds {
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
        // Slide the cached window: datasets older than WINDOW iterations
        // leave the store (what auto-unpersist does in the engine).
        if chain.len() > WINDOW + 1 {
            let old = chain[chain.len() - WINDOW - 1];
            for p in 0..PARTS {
                rig.lineage.set_state(BlockId::new(old, p), PartitionState::None);
            }
        }
        rig.step(&plan, &targets, round);
    }
    rig.finish("churn", rounds)
}

/// One resident count's admission measurement.
struct AdmissionSample {
    residents: usize,
    calls: u64,
    us_per_call: f64,
    ceiling_us: f64,
}

const ZIP_SIBLINGS: usize = 32;
const ZIP_GENERATIONS: usize = 12;
const ZIP_PARTS: u32 = 16;

/// The benchmark's `wide_decide` driver at sample scale: every generation
/// is [`ZIP_SIBLINGS`] cached datasets, each a `zip_partitions` of two
/// siblings of the previous generation; one job per generation folds them,
/// then the previous generation is unpersisted. Returns the sibling ids of
/// every generation (generation 0 first) and the job targets.
fn sibling_zip_driver(ctx: &Context) -> Result<(Vec<Vec<RddId>>, Vec<RddId>)> {
    let base =
        ctx.parallelize((0..8 * u64::from(ZIP_PARTS)).collect::<Vec<_>>(), ZIP_PARTS as usize);
    let mut generation: Vec<Dataset<u64>> =
        (0..ZIP_SIBLINGS as u64).map(|k| base.map(move |x| x.wrapping_add(k))).collect();
    let (mut siblings, mut targets) = (Vec::new(), Vec::new());
    for _ in 0..ZIP_GENERATIONS {
        for d in &generation {
            d.cache();
        }
        siblings.push(generation.iter().map(Dataset::id).collect());
        let next: Vec<Dataset<u64>> = (0..ZIP_SIBLINGS)
            .map(|k| {
                generation[k].zip_partitions(&generation[(k + 1) % ZIP_SIBLINGS], |a, b| {
                    a.iter().zip(b).map(|(x, y)| x.wrapping_mul(31).wrapping_add(*y)).collect()
                })
            })
            .collect();
        let mut folded = next[0].map_partitions(|part| vec![part.len() as u64]);
        for d in &next[1..] {
            folded = folded.zip_partitions(d, |acc, part| vec![acc[0] ^ part.len() as u64]);
        }
        folded.collect()?;
        targets.push(folded.id());
        for d in &generation {
            d.unpersist();
        }
        generation = next;
    }
    siblings.push(generation.iter().map(Dataset::id).collect());
    Ok((siblings, targets))
}

/// Microseconds per `choose_victims` of a profiled full-Blaze controller in
/// the middle of the last generation's job: the residents are half blocks of
/// the previous generation (an in-job reference each, so the half-weight and
/// ancestor arms run) and half blocks of the current one (cross-job
/// references), every older generation is unpersisted as it is on
/// `wide_decide` (so pricing recurses down to the base), and every block of
/// the current generation is admitted once per pass. Plan, profile,
/// controller state and resident lists are built outside the timed region.
fn bench_admission(quick: bool) -> Vec<AdmissionSample> {
    let profile = extract_dependencies(|ctx| sibling_zip_driver(ctx).map(|_| ()), 0)
        .expect("profiling run failed");
    let dctx = Context::new(LocalRunner::new());
    let (siblings, targets) = sibling_zip_driver(&dctx).expect("driver run failed");
    let plan_lock = dctx.plan();
    let plan = plan_lock.read();
    let ctx = CtrlCtx {
        app: AppId(0),
        hardware: HardwareModel::default(),
        memory_capacity: ByteSize::from_kib(96),
    };
    let info = |rdd: RddId, part: u32| BlockInfo {
        id: BlockId::new(rdd, part),
        bytes: ByteSize::from_kib(2),
        ser_factor: 1.0,
        executor: ExecutorId(0),
    };

    let mut ctl = BlazeController::new(BlazeConfig::full(), Some(profile));
    for (j, &target) in targets.iter().enumerate() {
        let job_plan = plan_job(&plan, target).expect("plannable target");
        ctl.on_job_submit(&ctx, JobId(j as u32), &job_plan, &plan);
    }
    let (incoming_gen, parent_gen) = (&siblings[ZIP_GENERATIONS], &siblings[ZIP_GENERATIONS - 1]);
    for generation in &siblings {
        for (k, &rdd) in generation.iter().enumerate() {
            for part in 0..ZIP_PARTS {
                let event = PartitionEvent {
                    info: info(rdd, part),
                    edge_compute: SimDuration::from_micros(200 + (k as u64 % 7) * 30),
                    job: JobId(0),
                    recomputed: false,
                };
                ctl.on_partition_computed(&ctx, &event);
            }
        }
    }

    let passes = if quick { 4 } else { 40 };
    let mut samples = Vec::new();
    for (residents, ceiling_us) in ADMISSION_SHAPES {
        // Partition-major, as one executor's store is filled; the engine
        // never offers blocks of the incoming dataset itself as victims.
        let resident_lists: Vec<Vec<BlockInfo>> = incoming_gen
            .iter()
            .map(|&incoming| {
                let of = |generation: &[RddId]| -> Vec<BlockInfo> {
                    (0..ZIP_PARTS)
                        .flat_map(|p| generation.iter().map(move |&rdd| (rdd, p)))
                        .filter(|&(rdd, _)| rdd != incoming)
                        .take(residents / 2)
                        .map(|(rdd, p)| info(rdd, p))
                        .collect()
                };
                [of(parent_gen), of(incoming_gen)].concat()
            })
            .collect();
        for list in &resident_lists {
            for b in list {
                ctl.on_inserted(&ctx, b, StoreTier::Memory);
            }
        }
        let (mut spent, mut calls, mut victims) = (0.0, 0u64, 0usize);
        for _ in 0..passes {
            // A pass stands for one job: ancestor sets are built on a
            // dataset's first admission and reused for its other partitions.
            // The pass also starts the cost memo cold, which a real job
            // submission does not: the row is an upper bound.
            ctl.forget_decision_state();
            // audit: allow(wall-clock)
            let start = Instant::now();
            for (&incoming, list) in incoming_gen.iter().zip(&resident_lists) {
                for part in 0..ZIP_PARTS {
                    let incoming = info(incoming, part);
                    victims += std::hint::black_box(ctl.choose_victims(
                        &ctx,
                        ExecutorId(0),
                        incoming.bytes,
                        &incoming,
                        std::hint::black_box(list),
                    ))
                    .len();
                    calls += 1;
                }
            }
            spent += start.elapsed().as_secs_f64();
        }
        assert!(victims > 0, "admissions at {residents} residents never evicted");
        // audit: allow(float-cast) a call count far below 2^53
        let us_per_call = spent * 1e6 / calls as f64;
        eprintln!(
            "admission residents={residents:4} calls={calls} {us_per_call:.2} us/call \
             (ceiling {ceiling_us:.1}) victims/call={:.2}",
            // audit: allow(float-cast) counts far below 2^53
            victims as f64 / calls as f64
        );
        samples.push(AdmissionSample { residents, calls, us_per_call, ceiling_us });
    }
    samples
}

/// One strategy's certificate-overhead measurement: plain solve time vs
/// certificate-emitting solve time vs verification time over the same
/// deterministic instance set.
struct CertifySample {
    strategy: &'static str,
    instances: usize,
    solve_s: f64,
    certify_solve_s: f64,
    verify_s: f64,
    /// The row's [`VERIFY_RATIO_CEILINGS`] entry.
    ceiling: f64,
}

impl CertifySample {
    /// Fractional slowdown of a solve when it also emits its certificate.
    fn emit_overhead(&self) -> f64 {
        if self.solve_s > 0.0 {
            self.certify_solve_s / self.solve_s - 1.0
        } else {
            0.0
        }
    }

    /// Cost of *checking* a proof relative to *producing* the answer.
    fn verify_ratio(&self) -> f64 {
        if self.solve_s > 0.0 {
            self.verify_s / self.solve_s
        } else {
            0.0
        }
    }
}

/// Deterministic pseudo-random `(value, weight)` items (LCG; no OS entropy —
/// the instance set is identical on every run and machine).
fn certify_items(n: usize, seed: u64) -> Vec<(f64, u64)> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let weight = 20 + (state >> 33) % 80;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // audit: allow(float-cast) value in [1, 101), exactly representable
            let value = 1.0 + ((state >> 33) % 100) as f64;
            (value, weight)
        })
        .collect()
}

/// One solver instance: option groups and a capacity three quarters of the
/// items fit in.
struct Groups {
    groups: Vec<MckpGroup>,
    capacity: u64,
}

/// The items as option groups: `[zero, item]` (the 0/1 keep-in-memory
/// program), or with `tiers` the benchmark drill's m/s/u shape `[zero,
/// (0.8 value, 0.6 weight), item]`.
fn certify_groups(n: usize, seed: u64, tiers: bool) -> Groups {
    let items = certify_items(n, seed);
    let groups = items
        .iter()
        .map(|&(value, weight)| {
            let mut options = vec![MckpOption { value: 0.0, weight: 0 }];
            if tiers {
                options.push(MckpOption { value: value * 0.8, weight: weight * 6 / 10 });
            }
            options.push(MckpOption { value, weight });
            MckpGroup { options }
        })
        .collect();
    Groups { groups, capacity: items.iter().map(|i| i.1).sum::<u64>() * 3 / 4 }
}

/// Measures one certify row over `count` seeded instances: the plain solve,
/// the certificate-emitting solve (which must return the same `answer`) and
/// the verification of what it emitted. Every certificate is asserted to
/// verify clean, so the bench doubles as a property sweep.
fn certify_row<I, P, C, A: PartialEq + std::fmt::Debug>(
    strategy: &'static str,
    count: usize,
    instance: impl Fn(u64) -> I,
    plain: impl Fn(&I) -> P,
    certified: impl Fn(&I) -> C,
    answers: impl Fn(&P, &C) -> (A, A),
    verify: impl Fn(&I, &C) -> Vec<Diagnostic>,
) -> CertifySample {
    let (mut solve_s, mut certify_solve_s, mut verify_s) = (0.0, 0.0, 0.0);
    for seed in 0..count as u64 {
        let instance = instance(seed);
        // Alternate which variant runs first: the second identical solve
        // on the same instance sees warmed caches, so a fixed order would
        // bias the emission-overhead column.
        let (mut p, mut c) = (None, None);
        for which in [seed % 2, 1 - seed % 2] {
            // audit: allow(wall-clock)
            let t = Instant::now();
            if which == 0 {
                p = Some(plain(&instance));
                solve_s += t.elapsed().as_secs_f64();
            } else {
                c = Some(certified(&instance));
                certify_solve_s += t.elapsed().as_secs_f64();
            }
        }
        let (p, c) = (p.expect("ran above"), c.expect("ran above"));
        let (plain_answer, certified_answer) = answers(&p, &c);
        assert_eq!(plain_answer, certified_answer, "{strategy}: certification changed the answer");
        // audit: allow(wall-clock)
        let t = Instant::now();
        let findings = verify(&instance, &c);
        verify_s += t.elapsed().as_secs_f64();
        assert!(findings.is_empty(), "{strategy} seed {seed}: {findings:?}");
    }
    let ceiling = VERIFY_RATIO_CEILINGS
        .iter()
        .find_map(|&(s, c)| (s == strategy).then_some(c))
        .expect("every certify row has a ceiling");
    CertifySample { strategy, instances: count, solve_s, certify_solve_s, verify_s, ceiling }
}

/// Measures certificate emission + verification overhead per strategy.
fn bench_certify(quick: bool) -> Vec<CertifySample> {
    // Sizes are chosen so the measured regime matches the asymptotics:
    // branch-and-bound spends O(n) per node computing bounds while the
    // replay verifier spends O(log n) per recorded prune, so the instances
    // must be large enough for per-node work (not fixed setup cost) to
    // dominate both sides.
    let (kn_count, kn_n) = if quick { (16, 768) } else { (20, 1536) };
    let (gr_count, gr_n) = if quick { (16, 512) } else { (24, 768) };

    // Untimed warmup so first-touch page faults and lazy allocator growth
    // land outside the measured loops.
    let warmup = certify_groups(kn_n, 1, true);
    let _ = solve_mckp_certified(&warmup.groups, warmup.capacity, 0, None);

    // The tree rows: branch and bound with a preorder replay certificate,
    // over two-option groups (the 0/1 program) and the m/s/u shape.
    let tree_row = |strategy, tiers| {
        certify_row(
            strategy,
            kn_count,
            |seed| certify_groups(kn_n, seed + 1, tiers),
            |i| solve_mckp(&i.groups, i.capacity, 0),
            |i| solve_mckp_certified(&i.groups, i.capacity, 0, None),
            |plain, (sol, _)| (plain.choice.clone(), sol.choice.clone()),
            |i, (sol, cert)| verify_mckp(&i.groups, i.capacity, sol, cert),
        )
    };
    let samples = vec![
        tree_row("knapsack", false),
        tree_row("multi-choice", true),
        // Greedy: node-budget-1 solve certified against the hull relaxation.
        certify_row(
            "greedy",
            gr_count,
            |seed| certify_groups(gr_n, seed + 1, false),
            |i| solve_mckp(&i.groups, i.capacity, 1),
            |i| {
                let sol = solve_mckp(&i.groups, i.capacity, 1);
                let cert = greedy_mckp_certificate(&i.groups, i.capacity, &sol);
                (sol, cert)
            },
            |plain, (sol, _)| (plain.choice.clone(), sol.choice.clone()),
            |i, (sol, cert)| verify_mckp_greedy(&i.groups, i.capacity, sol, cert),
        ),
    ];

    for s in &samples {
        eprintln!(
            "certify {:12} instances={:3} solve={:.4}s certified={:.4}s ({:+.1}%) \
             verify={:.4}s (ratio {:.3}, ceiling {:.2})",
            s.strategy,
            s.instances,
            s.solve_s,
            s.certify_solve_s,
            s.emit_overhead() * 100.0,
            s.verify_s,
            s.verify_ratio(),
            s.ceiling,
        );
    }
    samples
}

/// Aggregate `verify / solve` across the certify section: total
/// proof-checking time over total answer-producing time.
fn aggregate_verify_ratio(certify: &[CertifySample]) -> f64 {
    let solve: f64 = certify.iter().map(|s| s.solve_s).sum();
    let verify: f64 = certify.iter().map(|s| s.verify_s).sum();
    if solve > 0.0 {
        verify / solve
    } else {
        0.0
    }
}

fn render_json(
    host_cpus: usize,
    workloads: &[WorkloadSample],
    stress: &[StressSample],
    admission: &[AdmissionSample],
    certify: &[CertifySample],
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        let speedup = if w.decision_incremental_s > 0.0 {
            w.decision_scratch_s / w.decision_incremental_s
        } else {
            0.0
        };
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"jobs\": {}, \"act_s\": {:.6}, \
             \"decision_calls\": {}, \"decision_scratch_s\": {:.6}, \
             \"decision_incremental_s\": {:.6}, \"speedup\": {:.3}}}{}\n",
            w.workload,
            w.jobs,
            nz(w.act_s),
            w.decision_calls,
            nz(w.decision_scratch_s),
            nz(w.decision_incremental_s),
            nz(speedup),
            if i + 1 < workloads.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"stress\": [\n");
    for (i, r) in stress.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"shape\": \"{}\", \"rounds\": {}, \"scratch_s\": {:.6}, \
             \"incremental_s\": {:.6}, \"speedup\": {:.3}, \"solves\": {}, \
             \"reused\": {}, \"dirty_drained\": {}, \"invalidated\": {}}}{}\n",
            r.shape,
            r.rounds,
            nz(r.scratch_s),
            nz(r.incremental_s),
            nz(r.speedup()),
            r.solves,
            r.reused,
            r.dirty_drained,
            r.invalidated,
            if i + 1 < stress.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"admission\": [\n");
    for (i, a) in admission.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"residents\": {}, \"calls\": {}, \"us_per_call\": {:.3}, \
             \"check_ceiling_us\": {:.1}}}{}\n",
            a.residents,
            a.calls,
            nz(a.us_per_call),
            a.ceiling_us,
            if i + 1 < admission.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"certify\": [\n");
    for (i, c) in certify.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"strategy\": \"{}\", \"instances\": {}, \"solve_s\": {:.6}, \
             \"certify_solve_s\": {:.6}, \"verify_s\": {:.6}, \"emit_overhead\": {:.3}, \
             \"verify_ratio\": {:.3}, \"check_ceiling\": {:.2}}}{}\n",
            c.strategy,
            c.instances,
            nz(c.solve_s),
            nz(c.certify_solve_s),
            nz(c.verify_s),
            nz(c.emit_overhead()),
            nz(c.verify_ratio()),
            c.ceiling,
            if i + 1 < certify.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"certify_verify_ratio\": {:.3}\n",
        nz(aggregate_verify_ratio(certify))
    ));
    s.push_str("}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");

    let apps: Vec<App> = if quick { vec![App::KMeans] } else { App::all().to_vec() };
    let (wide_rounds, deep_rounds, churn_rounds) =
        if quick { (30, 20, 200) } else { (120, 80, 400) };

    let workloads = bench_workloads(&apps);
    let stress =
        vec![stress_wide(wide_rounds), stress_deep(deep_rounds), stress_churn(churn_rounds)];
    let admission = bench_admission(quick);
    let certify = bench_certify(quick);

    if check {
        for r in stress.iter().filter(|r| r.shape == "deep" || r.shape == "churn") {
            assert!(
                r.speedup() >= CHECK_MIN_SPEEDUP,
                "decision-path regression: {} speedup {:.2}x below the {CHECK_MIN_SPEEDUP}x floor",
                r.shape,
                r.speedup()
            );
        }
        for a in &admission {
            assert!(
                a.us_per_call <= a.ceiling_us,
                "admission-path regression: {:.2} us per choose_victims at {} residents exceeds \
                 the {:.1} us ceiling",
                a.us_per_call,
                a.residents,
                a.ceiling_us
            );
        }
        for c in &certify {
            assert!(
                c.verify_ratio() <= c.ceiling,
                "certificate-verification regression: {} verifies in {:.3} of its solve time, \
                 over the {:.2} ceiling",
                c.strategy,
                c.verify_ratio(),
                c.ceiling
            );
        }
        eprintln!(
            "check passed: deep/churn speedups above {CHECK_MIN_SPEEDUP}x, admissions and \
             certificate verification under their ceilings"
        );
    }

    if !quick {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_decision.json");
        let json = render_json(default_worker_threads(), &workloads, &stress, &admission, &certify);
        std::fs::write(path, &json).expect("write BENCH_decision.json");
        println!("wrote {} workload + {} stress samples to {path}", workloads.len(), stress.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_core::{BlazeConfig, BlazeController};
    use blaze_engine::CacheController;

    /// The shim must not swallow the wrapped controller's preflight: a
    /// deadline below the ladder floor is BA304 with or without it.
    #[test]
    fn the_timing_shim_forwards_the_preflight_diagnostics() {
        let mut cfg = BlazeConfig::full();
        cfg.optimizer.solve_deadline = Some(SimDuration::from_nanos(1));
        let shim = DecisionProbe::new(BlazeController::new(cfg, None), true, Arc::default());
        let codes: Vec<_> = shim.preflight_diagnostics().iter().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, ["BA304"]);
    }
}
