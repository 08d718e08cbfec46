//! Wall-clock benchmark of the parallel stage executor, plus the
//! serialized-tier engagement columns.
//!
//! Runs evaluation-scale workloads at several `worker_threads` settings and
//! records, for each run, the *real* elapsed time next to the *simulated*
//! ACT. The simulated ACT must be identical across thread counts (that is
//! the determinism contract pinned by `tests/differential.rs`);
//! wall-clock time is what the thread pool improves, and scales with the
//! host's core count.
//!
//! The ser-tier section runs the paper's high-`ser_factor` workloads
//! (SVD++ and LogisticRegression, §7.2) under tightened memory with the
//! serialized in-memory tier off (`blaze`) and on (`blaze_ser_tier`), and
//! records the s-state engagement counters next to the simulated ACT. With
//! `--check` the run fails unless the solver actually picked s-states for
//! at least one workload (`ser_transitions > 0`) and the tier-off runs kept
//! their ser counters at exactly zero. `--quick` skips the thread sweep
//! (CI runs `--quick --check`; the full run writes both sections).
//!
//! The multi-app section co-runs PageRank and KMeans in one session over
//! the shared store, once under shared-cache Blaze and once under the
//! isolated per-app LRU partition baseline, for both scheduler policies.
//! With `--check` the run fails unless shared-cache Blaze spends strictly
//! less total recompute time than the isolated partitions under every
//! policy — the holistic-cache dividend the tentpole claims.
//!
//! Results are written to `BENCH_engine.json` at the repository root.

use blaze_bench::json::{nz, oversubscribed};
use blaze_engine::config::default_worker_threads;
use blaze_engine::{SchedPolicy, SchedulerConfig};
use blaze_workloads::{App, AppSpec, Session, SessionOutcome, SystemKind};
use std::time::Instant;

struct Sample {
    workload: &'static str,
    system: &'static str,
    worker_threads: usize,
    /// True when `worker_threads` exceeds the host's cores: the wall-clock
    /// column then measures oversubscription, not scaling.
    oversubscribed: bool,
    wall_s: f64,
    sim_act: f64,
    /// Total simulated recovery time (zero here: the fault plan is off,
    /// and these columns pin the zero-cost-when-disabled contract).
    recovery_s: f64,
    task_retries: u64,
    blocks_lost: u64,
    stages_resubmitted: u64,
    /// Memory evictions that spilled to disk vs discarded outright (the
    /// split pinned by `Metrics::record_eviction`).
    evictions_to_disk: u64,
    evictions_discard: u64,
    spilled_mib: f64,
    discarded_mib: f64,
    /// Memory hits served from serialized-in-memory blocks (each paid one
    /// deserialization) — zero whenever `ser_tier` is off.
    ser_mem_hits: u64,
    /// State transitions into/out of the serialized tier (m->s, s->m,
    /// d->s) — zero whenever `ser_tier` is off.
    ser_transitions: u64,
}

/// Runs `f` and measures its real elapsed time in seconds.
///
/// The single place this benchmark reads the host clock: wall-clock time is
/// the *measured output* here (how fast the real thread pool ran), never an
/// input to simulated behaviour — which is why `blaze-lint` bans host-clock
/// reads everywhere outside `crates/bench`.
fn measure_wall_clock<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // audit: allow(wall-clock)
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn run_sample(
    spec: &AppSpec,
    app_label: &'static str,
    system: SystemKind,
    sys_label: &'static str,
    host_cpus: usize,
) -> Sample {
    let t = spec.worker_threads.unwrap_or(host_cpus);
    let (out, wall) = measure_wall_clock(|| {
        Session::builder()
            .app(*spec)
            .system(system)
            .run()
            .expect("benchmark run failed")
            .into_outcome()
    });
    let m = &out.metrics;
    let act = m.completion_time.as_secs_f64();
    eprintln!(
        "{app_label:9} {sys_label:14} threads={t:2} wall={wall:7.3}s sim_act={act:.4}s \
         ser_hits={} ser_trans={}",
        m.ser_mem_hits, m.ser_transitions
    );
    let rec = &m.recovery;
    Sample {
        workload: app_label,
        system: sys_label,
        worker_threads: t,
        oversubscribed: oversubscribed(t, host_cpus),
        wall_s: wall,
        sim_act: act,
        recovery_s: rec.total_recovery_time().as_secs_f64(),
        task_retries: rec.task_retries,
        blocks_lost: rec.blocks_lost,
        stages_resubmitted: rec.stages_resubmitted,
        evictions_to_disk: m.evictions_to_disk,
        evictions_discard: m.evictions_discard,
        spilled_mib: m.spilled_bytes_per_executor.values().map(|b| b.as_mib_f64()).sum(),
        discarded_mib: m.discarded_bytes_per_executor.values().map(|b| b.as_mib_f64()).sum(),
        ser_mem_hits: m.ser_mem_hits,
        ser_transitions: m.ser_transitions,
    }
}

/// The high-`ser_factor` workloads of §7.2 under tightened memory: the
/// regime where packing a block (0.6x footprint) keeps a working set
/// memory-resident that would otherwise thrash to disk.
fn ser_tier_specs() -> Vec<(&'static str, AppSpec)> {
    [(App::Svdpp, "svdpp", 0.55), (App::LogisticRegression, "logreg", 0.4)]
        .into_iter()
        .map(|(app, label, squeeze)| {
            let mut spec = AppSpec::evaluation(app).with_worker_threads(2);
            spec.memory_capacity = spec.memory_capacity.scale(squeeze);
            (label, spec)
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");

    let host_cpus = default_worker_threads();
    let mut samples = Vec::new();

    if !quick {
        let mut threads = vec![1usize, 2, 4];
        if !threads.contains(&host_cpus) {
            threads.push(host_cpus);
        }
        for (app, app_label) in [(App::PageRank, "pagerank"), (App::KMeans, "kmeans")] {
            for (system, sys_label) in
                [(SystemKind::Blaze, "blaze"), (SystemKind::SparkMemDisk, "spark_mem_disk")]
            {
                for &t in &threads {
                    let spec = AppSpec::evaluation(app).with_worker_threads(t);
                    samples.push(run_sample(&spec, app_label, system, sys_label, host_cpus));
                }
            }
        }
    }

    // Ser-tier section: tier off vs on, same spec, same seed.
    let mut engaged = 0usize;
    for (app_label, spec) in ser_tier_specs() {
        let off = run_sample(&spec, app_label, SystemKind::Blaze, "blaze", host_cpus);
        let on =
            run_sample(&spec, app_label, SystemKind::BlazeSerTier, "blaze_ser_tier", host_cpus);
        if check {
            assert_eq!(
                (off.ser_mem_hits, off.ser_transitions),
                (0, 0),
                "{app_label}: ser counters must stay zero with the tier off"
            );
        }
        if on.ser_transitions > 0 {
            engaged += 1;
        }
        samples.push(off);
        samples.push(on);
    }
    if check {
        assert!(
            engaged > 0,
            "--check floor: no high-ser_factor workload produced s-state picks \
             (ser_transitions == 0 everywhere with the tier on)"
        );
        eprintln!("bench_engine --check: ser tier engaged on {engaged}/2 workloads; floors hold");
    }

    let multi = run_multi_app_section(check);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let json = render_json(host_cpus, &samples, &multi);
    if quick {
        // CI's --quick pass is a floor check, not a measurement: don't
        // clobber the full benchmark artifact with a partial one.
        eprintln!("quick mode: not rewriting {path}");
    } else {
        std::fs::write(path, &json).expect("write BENCH_engine.json");
        println!("wrote {} samples to {path}", samples.len());
    }
}

/// One co-run of the multi-app session (two apps, one shared store).
struct MultiSample {
    system: &'static str,
    policy: &'static str,
    apps: usize,
    wall_s: f64,
    sim_act: f64,
    recompute_s: f64,
    cross_mem_hits: u64,
    cross_disk_hits: u64,
    evictions: u64,
}

/// Co-runs PageRank and KMeans in one session under `system`/`policy`.
fn co_run(system: SystemKind, policy: SchedPolicy) -> (SessionOutcome, f64) {
    let (out, wall) = measure_wall_clock(|| {
        Session::builder()
            .app(AppSpec::evaluation(App::PageRank).with_worker_threads(2))
            .app(AppSpec::evaluation(App::KMeans).with_worker_threads(2))
            .system(system)
            .scheduler(SchedulerConfig { policy, seed: 0xA11 })
            .run()
            .expect("multi-app run failed")
    });
    (out, wall)
}

/// The multi-app comparison: shared-cache Blaze vs isolated per-app LRU
/// partitions, both over the *same* total store capacity. Runs in quick
/// mode too — it carries the `--check` floor.
fn run_multi_app_section(check: bool) -> Vec<MultiSample> {
    let mut multi = Vec::new();
    for policy in [SchedPolicy::RoundRobin, SchedPolicy::FairShare] {
        let policy_label = match policy {
            SchedPolicy::RoundRobin => "round_robin",
            SchedPolicy::FairShare => "fair_share",
        };
        let mut recompute = Vec::new();
        for (system, sys_label) in
            [(SystemKind::Blaze, "blaze_shared"), (SystemKind::IsolatedLru, "isolated_lru")]
        {
            let (out, wall) = co_run(system, policy);
            let m = &out.metrics;
            let per_app = m.per_app_sorted();
            let (cross_mem, cross_disk) = per_app
                .iter()
                .fold((0, 0), |(a, b), (_, pm)| (a + pm.cross_mem_hits, b + pm.cross_disk_hits));
            let rec = m.total_recompute_time().as_secs_f64();
            eprintln!(
                "multi-app {sys_label:12} {policy_label:11} apps={} sim_act={:.4}s \
                 recompute={rec:.4}s evictions={}",
                per_app.len(),
                m.completion_time.as_secs_f64(),
                m.evictions,
            );
            recompute.push(rec);
            multi.push(MultiSample {
                system: sys_label,
                policy: policy_label,
                apps: per_app.len(),
                wall_s: wall,
                sim_act: m.completion_time.as_secs_f64(),
                recompute_s: rec,
                cross_mem_hits: cross_mem,
                cross_disk_hits: cross_disk,
                evictions: m.evictions,
            });
        }
        if check {
            assert!(
                recompute[0] < recompute[1],
                "--check floor [{policy_label}]: shared-cache Blaze must recompute less \
                 ({:.4}s) than isolated per-app LRU partitions ({:.4}s)",
                recompute[0],
                recompute[1],
            );
        }
    }
    if check {
        eprintln!("bench_engine --check: shared cache beats isolated partitions; floors hold");
    }
    multi
}

/// Hand-rolled JSON writer (the workspace deliberately has no serde).
fn render_json(host_cpus: usize, samples: &[Sample], multi: &[MultiSample]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    s.push_str("  \"runs\": [\n");
    for (i, r) in samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"system\": \"{}\", \"worker_threads\": {}, \
             \"oversubscribed\": {}, \
             \"wall_s\": {:.6}, \"sim_act\": {:.6}, \"recovery_s\": {:.6}, \
             \"task_retries\": {}, \"blocks_lost\": {}, \"stages_resubmitted\": {}, \
             \"evictions_to_disk\": {}, \"evictions_discard\": {}, \
             \"spilled_mib\": {:.3}, \"discarded_mib\": {:.3}, \
             \"ser_mem_hits\": {}, \"ser_transitions\": {}}}{}\n",
            r.workload,
            r.system,
            r.worker_threads,
            r.oversubscribed,
            nz(r.wall_s),
            nz(r.sim_act),
            nz(r.recovery_s),
            r.task_retries,
            r.blocks_lost,
            r.stages_resubmitted,
            r.evictions_to_disk,
            r.evictions_discard,
            nz(r.spilled_mib),
            nz(r.discarded_mib),
            r.ser_mem_hits,
            r.ser_transitions,
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"multi_app\": [\n");
    for (i, r) in multi.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"system\": \"{}\", \"policy\": \"{}\", \"apps\": {}, \
             \"wall_s\": {:.6}, \"sim_act\": {:.6}, \"recompute_s\": {:.6}, \
             \"cross_mem_hits\": {}, \"cross_disk_hits\": {}, \"evictions\": {}}}{}\n",
            r.system,
            r.policy,
            r.apps,
            nz(r.wall_s),
            nz(r.sim_act),
            nz(r.recompute_s),
            r.cross_mem_hits,
            r.cross_disk_hits,
            r.evictions,
            if i + 1 < multi.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
