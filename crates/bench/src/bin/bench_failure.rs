//! Recovery-cost benchmark under deterministic fault injection.
//!
//! Three sections, all on the simulated clock:
//!
//! 1. **Recovery** — replays the *same* seeded duress schedule — transient
//!    task failures, one mid-run executor crash, shuffle-output loss (no
//!    external shuffle service), stragglers with speculation, corrupted
//!    spills and flaky fetches — against every headline system on PageRank
//!    and KMeans, and records what each system spent recovering. Because
//!    holistic caching keeps hot iterative state resident (and re-admits it
//!    after loss), Blaze is expected to replay less lineage than the LRU
//!    baselines after the same crash.
//! 2. **Speculation** — a straggler-heavy schedule run twice, speculation
//!    on and off. Speculative copies must win races against slowed
//!    originals and bring the simulated makespan down.
//! 3. **Quarantine** — a corrupted-spill schedule on the memory+disk
//!    baseline: checksum verification must quarantine bad reads and the
//!    run must complete through lineage recompute.
//!
//! Every number is simulated, so `BENCH_failure.json` (at the repository
//! root) is a pure function of the code. A plain run rewrites it; `--check`
//! leaves it alone and exits non-zero if it differs from what the code
//! renders, or unless speculation wins races and shortens the makespan on
//! every sample and at least one spill is quarantined.

use blaze_bench::json::nz;
use blaze_common::{SimDuration, SimTime};
use blaze_engine::{ExecutorCrash, FaultPlan};
use blaze_workloads::{App, AppSpec, RunOutcome, Session, SystemKind};
use std::process::ExitCode;

/// One faulted (or clean, with the default plan) run through the session API.
fn run_one(spec: &AppSpec, system: SystemKind, fault: FaultPlan) -> RunOutcome {
    Session::builder()
        .app(*spec)
        .system(system)
        .fault(fault)
        .run()
        .expect("run failed")
        .into_outcome()
}

/// One (workload, system) comparison: the clean run and the faulted run.
struct Sample {
    workload: &'static str,
    system: String,
    act_clean: f64,
    act_faulted: f64,
    recovery_s: f64,
    wasted_s: f64,
    lineage_replay_s: f64,
    task_retries: u64,
    tasks_lost_to_crash: u64,
    executor_crashes: u64,
    blocks_lost: u64,
    blocks_recovered: u64,
    map_outputs_lost: u64,
    map_outputs_recovered: u64,
    stages_resubmitted: u64,
    /// Eviction split of the *faulted* run: spills vs discards (discards
    /// under pressure are what the crash later turns into recomputation).
    evictions_to_disk: u64,
    evictions_discard: u64,
    // Graceful-degradation columns (same faulted run).
    stragglers: u64,
    spec_launched: u64,
    spec_wins: u64,
    spec_wasted_s: f64,
    spills_quarantined: u64,
    fetch_retries: u64,
    fetch_backoff_s: f64,
    fetch_escalations: u64,
}

/// One speculation on/off comparison under a straggler-heavy schedule.
struct SpecSample {
    workload: &'static str,
    system: String,
    act_off: f64,
    act_on: f64,
    stragglers: u64,
    launched: u64,
    wins: u64,
    wasted_s: f64,
}

/// One corrupted-spill run (memory+disk baseline).
struct QuarSample {
    workload: &'static str,
    act: f64,
    spills_quarantined: u64,
    lineage_replay_s: f64,
}

/// The shared duress schedule for one workload: a modest transient-failure
/// rate, one executor crash at a fixed simulated time, no external shuffle
/// service (so the crash also destroys that executor's shuffle outputs,
/// forcing lineage-driven parent-stage resubmission), plus light
/// stragglers, spill corruption and fetch flakiness.
fn fault_plan(crash_at_s: f64) -> FaultPlan {
    FaultPlan {
        seed: 0xB1A2E,
        task_failure_rate: 0.02,
        max_task_retries: 3,
        crashes: vec![ExecutorCrash {
            at: SimTime::ZERO + SimDuration::from_secs_f64(crash_at_s),
            executor: 1,
        }],
        map_output_loss_rate: 0.0,
        external_shuffle_service: false,
        straggler_rate: 0.15,
        straggler_slowdown: 4.0,
        speculation: true,
        spill_corruption_rate: 0.1,
        fetch_failure_rate: 0.05,
        ..Default::default()
    }
}

/// A stragglers-only schedule for the speculation comparison.
fn straggler_plan(speculation: bool) -> FaultPlan {
    FaultPlan {
        seed: 0x57A6,
        straggler_rate: 0.3,
        straggler_slowdown: 6.0,
        speculation,
        ..Default::default()
    }
}

fn main() -> ExitCode {
    let check = std::env::args().skip(1).any(|a| a == "--check");

    // Crash times sit inside every system's simulated run for the workload
    // (clean ACTs: PageRank ~0.7–2.3 s across systems, KMeans ~0.10–0.32 s),
    // early enough that every system is still in its iteration ramp-up.
    let cases: &[(App, &'static str, f64)] =
        &[(App::PageRank, "pagerank", 0.15), (App::KMeans, "kmeans", 0.05)];

    let mut samples: Vec<Sample> = Vec::new();
    for &(app, label, crash_at_s) in cases {
        for system in SystemKind::headline() {
            let spec = AppSpec::evaluation(app);
            let clean = run_one(&spec, system, FaultPlan::default());
            let faulted = run_one(&spec, system, fault_plan(crash_at_s));
            let rec = &faulted.metrics.recovery;
            let spec_m = &faulted.metrics.speculation;
            let sample = Sample {
                workload: label,
                system: format!("{system:?}"),
                act_clean: clean.metrics.completion_time.as_secs_f64(),
                act_faulted: faulted.metrics.completion_time.as_secs_f64(),
                recovery_s: rec.total_recovery_time().as_secs_f64(),
                wasted_s: rec.wasted_time.as_secs_f64(),
                lineage_replay_s: rec.lineage_replay_time.as_secs_f64(),
                task_retries: rec.task_retries,
                tasks_lost_to_crash: rec.tasks_lost_to_crash,
                executor_crashes: rec.executor_crashes,
                blocks_lost: rec.blocks_lost,
                blocks_recovered: rec.blocks_recovered,
                map_outputs_lost: rec.map_outputs_lost,
                map_outputs_recovered: rec.map_outputs_recovered,
                stages_resubmitted: rec.stages_resubmitted,
                evictions_to_disk: faulted.metrics.evictions_to_disk,
                evictions_discard: faulted.metrics.evictions_discard,
                stragglers: spec_m.stragglers,
                spec_launched: spec_m.launched,
                spec_wins: spec_m.wins,
                spec_wasted_s: spec_m.wasted.as_secs_f64(),
                spills_quarantined: rec.spills_quarantined,
                fetch_retries: rec.fetch_retries,
                fetch_backoff_s: rec.fetch_backoff_time.as_secs_f64(),
                fetch_escalations: rec.fetch_escalations,
            };
            eprintln!(
                "{label:9} {:14} act {:.4}s -> {:.4}s  recovery {:.4}s \
                 (retries {}, lost tasks {}, blocks {}, spec wins {}, quarantined {})",
                sample.system,
                sample.act_clean,
                sample.act_faulted,
                sample.recovery_s,
                sample.task_retries,
                sample.tasks_lost_to_crash,
                sample.blocks_lost,
                sample.spec_wins,
                sample.spills_quarantined,
            );
            samples.push(sample);
        }
    }

    // Section 2: speculation on/off under a straggler-heavy schedule.
    let mut spec_samples: Vec<SpecSample> = Vec::new();
    for &(app, label, _) in cases {
        for system in [SystemKind::SparkMemDisk, SystemKind::Blaze] {
            let spec = AppSpec::evaluation(app);
            let off = run_one(&spec, system, straggler_plan(false));
            let on = run_one(&spec, system, straggler_plan(true));
            let m = &on.metrics.speculation;
            let s = SpecSample {
                workload: label,
                system: format!("{system:?}"),
                act_off: off.metrics.completion_time.as_secs_f64(),
                act_on: on.metrics.completion_time.as_secs_f64(),
                stragglers: m.stragglers,
                launched: m.launched,
                wins: m.wins,
                wasted_s: m.wasted.as_secs_f64(),
            };
            eprintln!(
                "{label:9} {:14} speculation act {:.4}s -> {:.4}s  \
                 (stragglers {}, launched {}, wins {})",
                s.system, s.act_off, s.act_on, s.stragglers, s.launched, s.wins,
            );
            spec_samples.push(s);
        }
    }

    // Section 3: corrupted spills on the memory+disk baseline.
    let mut quar_samples: Vec<QuarSample> = Vec::new();
    for &(app, label, _) in cases {
        let spec = AppSpec::evaluation(app);
        let plan = FaultPlan { seed: 0xC0DE, spill_corruption_rate: 0.7, ..Default::default() };
        let out = run_one(&spec, SystemKind::SparkMemDisk, plan);
        let s = QuarSample {
            workload: label,
            act: out.metrics.completion_time.as_secs_f64(),
            spills_quarantined: out.metrics.recovery.spills_quarantined,
            lineage_replay_s: out.metrics.recovery.lineage_replay_time.as_secs_f64(),
        };
        eprintln!(
            "{label:9} quarantine act {:.4}s  (quarantined {}, replay {:.4}s)",
            s.act, s.spills_quarantined, s.lineage_replay_s,
        );
        quar_samples.push(s);
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_failure.json");
    let json = render_json(&samples, &spec_samples, &quar_samples);
    if !check {
        std::fs::write(path, &json).expect("write BENCH_failure.json");
        println!("wrote {} samples to {path}", samples.len());
    } else {
        let mut failures: Vec<String> = Vec::new();
        for s in &spec_samples {
            if s.wins == 0 {
                failures.push(format!(
                    "{}/{}: speculation won no races under a 0.3-rate straggler plan",
                    s.workload, s.system
                ));
            }
            if s.act_on > s.act_off {
                failures.push(format!(
                    "{}/{}: speculation lengthened the makespan ({:.4}s -> {:.4}s)",
                    s.workload, s.system, s.act_off, s.act_on
                ));
            }
        }
        if quar_samples.iter().all(|s| s.spills_quarantined == 0) {
            failures.push("quarantine: no corrupted spill was ever caught".into());
        }
        if std::fs::read_to_string(path).ok().as_deref() != Some(json.as_str()) {
            failures.push(format!(
                "{path} differs from what the code renders; rerun bench_failure without \
                 --check and commit the file"
            ));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("bench_failure --check: {f}");
            }
            return ExitCode::FAILURE;
        }
        println!("bench_failure --check: all floors hold; {path} is current");
    }
    ExitCode::SUCCESS
}

/// Hand-rolled JSON writer (the workspace deliberately has no serde).
fn render_json(
    samples: &[Sample],
    spec_samples: &[SpecSample],
    quar_samples: &[QuarSample],
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"fault_plan\": {\"seed\": 725550, \"task_failure_rate\": 0.02, ");
    s.push_str("\"max_task_retries\": 3, \"executor_crashes\": 1, ");
    s.push_str("\"external_shuffle_service\": false, \"straggler_rate\": 0.15, ");
    s.push_str("\"straggler_slowdown\": 4.0, \"speculation\": true, ");
    s.push_str("\"spill_corruption_rate\": 0.1, \"fetch_failure_rate\": 0.05},\n");
    s.push_str("  \"runs\": [\n");
    for (i, r) in samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"system\": \"{}\", \"act_clean\": {:.6}, \
             \"act_faulted\": {:.6}, \"recovery_s\": {:.6}, \"wasted_s\": {:.6}, \
             \"lineage_replay_s\": {:.6}, \"task_retries\": {}, \"tasks_lost_to_crash\": {}, \
             \"executor_crashes\": {}, \"blocks_lost\": {}, \"blocks_recovered\": {}, \
             \"map_outputs_lost\": {}, \"map_outputs_recovered\": {}, \
             \"stages_resubmitted\": {}, \"evictions_to_disk\": {}, \
             \"evictions_discard\": {}, \"stragglers\": {}, \"spec_launched\": {}, \
             \"spec_wins\": {}, \"spec_wasted_s\": {:.6}, \"spills_quarantined\": {}, \
             \"fetch_retries\": {}, \"fetch_backoff_s\": {:.6}, \
             \"fetch_escalations\": {}}}{}\n",
            r.workload,
            r.system,
            nz(r.act_clean),
            nz(r.act_faulted),
            nz(r.recovery_s),
            nz(r.wasted_s),
            nz(r.lineage_replay_s),
            r.task_retries,
            r.tasks_lost_to_crash,
            r.executor_crashes,
            r.blocks_lost,
            r.blocks_recovered,
            r.map_outputs_lost,
            r.map_outputs_recovered,
            r.stages_resubmitted,
            r.evictions_to_disk,
            r.evictions_discard,
            r.stragglers,
            r.spec_launched,
            r.spec_wins,
            nz(r.spec_wasted_s),
            r.spills_quarantined,
            r.fetch_retries,
            nz(r.fetch_backoff_s),
            r.fetch_escalations,
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"speculation\": [\n");
    for (i, r) in spec_samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"system\": \"{}\", \"act_off\": {:.6}, \
             \"act_on\": {:.6}, \"stragglers\": {}, \"launched\": {}, \"wins\": {}, \
             \"wasted_s\": {:.6}}}{}\n",
            r.workload,
            r.system,
            nz(r.act_off),
            nz(r.act_on),
            r.stragglers,
            r.launched,
            r.wins,
            nz(r.wasted_s),
            if i + 1 < spec_samples.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"quarantine\": [\n");
    for (i, r) in quar_samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"act\": {:.6}, \"spills_quarantined\": {}, \
             \"lineage_replay_s\": {:.6}}}{}\n",
            r.workload,
            nz(r.act),
            r.spills_quarantined,
            nz(r.lineage_replay_s),
            if i + 1 < quar_samples.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
