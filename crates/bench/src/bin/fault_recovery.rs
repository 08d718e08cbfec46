//! Recovery under deterministic fault injection, on the simulated clock.
//!
//! Prints the fault plans every run uses, then three sections:
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
//!    off and on. Every run checks that speculative copies win races
//!    against slowed originals and never lengthen the simulated makespan.
//! 3. **Quarantine** — a corrupted-spill schedule on the memory+disk
//!    baseline. Every run checks that checksum verification quarantines at
//!    least one bad read and that the runs complete through lineage
//!    recompute.

use blaze_bench::harness::duress_plan;
use blaze_bench::table::Table;
use blaze_common::{SimDuration, SimTime};
use blaze_engine::{FaultPlan, Metrics};
use blaze_workloads::{App, AppSpec, Session, SystemKind};

/// One run through the session API; the default plan injects nothing.
fn run(app: App, system: SystemKind, fault: FaultPlan) -> Metrics {
    let spec = AppSpec::evaluation(app);
    Session::builder(spec).system(system).fault(fault).run().expect("run failed").metrics
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

/// A corrupted-spills-only schedule for the quarantine section.
fn quarantine_plan() -> FaultPlan {
    FaultPlan { seed: 0xC0DE, spill_corruption_rate: 0.7, ..Default::default() }
}

/// Every field of `plan`, by name. The destructuring names each field, so
/// a field added to `FaultPlan` fails to compile here until it is printed.
fn plan_fields(plan: &FaultPlan) -> [(&'static str, String); 12] {
    let FaultPlan {
        seed,
        task_failure_rate,
        max_task_retries,
        crashes,
        map_output_loss_rate,
        external_shuffle_service,
        straggler_rate,
        straggler_slowdown,
        speculation,
        spill_corruption_rate,
        fetch_failure_rate,
        max_fetch_retries,
    } = plan;
    let crashes: Vec<String> =
        crashes.iter().map(|c| format!("executor {} at {}", c.executor, c.at)).collect();
    [
        ("seed", format!("{seed} ({seed:#X})")),
        ("task_failure_rate", format!("{task_failure_rate:?}")),
        ("max_task_retries", max_task_retries.to_string()),
        ("crashes", if crashes.is_empty() { "none".into() } else { crashes.join(", ") }),
        ("map_output_loss_rate", format!("{map_output_loss_rate:?}")),
        ("external_shuffle_service", external_shuffle_service.to_string()),
        ("straggler_rate", format!("{straggler_rate:?}")),
        ("straggler_slowdown", format!("{straggler_slowdown:?}")),
        ("speculation", speculation.to_string()),
        ("spill_corruption_rate", format!("{spill_corruption_rate:?}")),
        ("fetch_failure_rate", format!("{fetch_failure_rate:?}")),
        ("max_fetch_retries", max_fetch_retries.to_string()),
    ]
}

/// Simulated seconds at the precision every table here uses.
fn secs(d: SimDuration) -> String {
    format!("{:.6}", d.as_secs_f64())
}

/// The simulated ACT of a run, as [`secs`].
fn act(m: &Metrics) -> String {
    secs(m.completion_time.since(SimTime::ZERO))
}

fn main() {
    let cases = [App::PageRank, App::KMeans];

    let mut plans: Vec<(String, FaultPlan)> = cases
        .iter()
        .map(|&app| (format!("recovery ({})", app.label()), duress_plan(app)))
        .collect();
    plans.push(("speculation off".into(), straggler_plan(false)));
    plans.push(("speculation on".into(), straggler_plan(true)));
    plans.push(("quarantine".into(), quarantine_plan()));
    println!("== Fault plans (every field, as the runs below use them) ==\n");
    let mut t = Table::new(std::iter::once("field").chain(plans.iter().map(|p| p.0.as_str())));
    let fields: Vec<_> = plans.iter().map(|(_, plan)| plan_fields(plan)).collect();
    for (i, (name, _)) in fields[0].iter().enumerate() {
        t.row(std::iter::once(name.to_string()).chain(fields.iter().map(|f| f[i].1.clone())));
    }
    println!("{}", t.render());

    // Section 1: one shared duress schedule against every headline system.
    let mut time = Table::new([
        "app",
        "system",
        "ACT clean (s)",
        "ACT faulted (s)",
        "recovery (s)",
        "wasted (s)",
        "lineage replay (s)",
    ]);
    let mut counts = Table::new([
        "app",
        "system",
        "retries",
        "tasks lost",
        "crashes",
        "blocks lost",
        "blocks recovered",
        "map outputs lost",
        "map outputs recovered",
        "resubmitted",
        "evict to disk",
        "evict discard",
    ]);
    let mut duress = Table::new([
        "app",
        "system",
        "stragglers",
        "spec launched",
        "spec wins",
        "spec wasted (s)",
        "quarantined",
        "fetch retries",
        "fetch backoff (s)",
        "fetch escalations",
    ]);
    for app in cases {
        for system in SystemKind::headline() {
            let clean = run(app, system, FaultPlan::default());
            let faulted = run(app, system, duress_plan(app));
            let (rec, spec) = (&faulted.recovery, &faulted.speculation);
            let key = [app.label().to_string(), system.label().to_string()];
            time.row(key.clone().into_iter().chain([
                act(&clean),
                act(&faulted),
                secs(rec.total_recovery_time()),
                secs(rec.wasted_time),
                secs(rec.lineage_replay_time),
            ]));
            let lost_and_recovered = [
                rec.task_retries,
                rec.tasks_lost_to_crash,
                rec.executor_crashes,
                rec.blocks_lost,
                rec.blocks_recovered,
                rec.map_outputs_lost,
                rec.map_outputs_recovered,
                rec.stages_resubmitted,
                faulted.evictions_to_disk,
                faulted.evictions_discard,
            ];
            counts.row(key.clone().into_iter().chain(lost_and_recovered.map(|n| n.to_string())));
            duress.row(key.into_iter().chain([
                spec.stragglers.to_string(),
                spec.launched.to_string(),
                spec.wins.to_string(),
                secs(spec.wasted),
                rec.spills_quarantined.to_string(),
                rec.fetch_retries.to_string(),
                secs(rec.fetch_backoff_time),
                rec.fetch_escalations.to_string(),
            ]));
        }
    }
    println!("== Recovery: simulated time under the shared duress schedule ==\n");
    println!("{}", time.render());
    println!("== Recovery: what was lost and recovered (faulted runs) ==\n");
    println!("{}", counts.render());
    println!("== Recovery: stragglers, corrupted spills and flaky fetches (faulted runs) ==\n");
    println!("{}", duress.render());

    // Section 2: speculation off and on under a straggler-heavy schedule.
    let mut t = Table::new([
        "app",
        "system",
        "ACT off (s)",
        "ACT on (s)",
        "stragglers",
        "launched",
        "wins",
        "wasted (s)",
    ]);
    for app in cases {
        for system in [SystemKind::SparkMemDisk, SystemKind::Blaze] {
            let off = run(app, system, straggler_plan(false));
            let on = run(app, system, straggler_plan(true));
            let label = format!("{}/{}", app.label(), system.label());
            let m = &on.speculation;
            assert!(
                m.wins > 0,
                "{label}: speculation won no races under a 0.3-rate straggler plan"
            );
            assert!(
                on.completion_time <= off.completion_time,
                "{label}: speculation lengthened the makespan ({} -> {})",
                act(&off),
                act(&on)
            );
            t.row([
                app.label().to_string(),
                system.label().to_string(),
                act(&off),
                act(&on),
                m.stragglers.to_string(),
                m.launched.to_string(),
                m.wins.to_string(),
                secs(m.wasted),
            ]);
        }
    }
    println!("== Speculation: a straggler-heavy schedule, speculation off vs on ==\n");
    println!("{}", t.render());

    // Section 3: corrupted spills on the memory+disk baseline.
    let mut t = Table::new(["app", "system", "ACT (s)", "quarantined", "lineage replay (s)"]);
    let (system, mut quarantined) = (SystemKind::SparkMemDisk, 0);
    for app in cases {
        let m = run(app, system, quarantine_plan());
        quarantined += m.recovery.spills_quarantined;
        t.row([
            app.label().to_string(),
            system.label().to_string(),
            act(&m),
            m.recovery.spills_quarantined.to_string(),
            secs(m.recovery.lineage_replay_time),
        ]);
    }
    assert!(quarantined > 0, "quarantine: no corrupted spill was ever caught");
    println!("== Quarantine: corrupted spills, caught and recomputed through lineage ==\n");
    println!("{}", t.render());
}
