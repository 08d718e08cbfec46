//! The serialized-tier engagement table, on the simulated clock only.
//!
//! The ser-tier section runs the paper's high-`ser_factor` workloads
//! (SVD++ and LogisticRegression, §7.2) under tightened memory with the
//! serialized in-memory tier off (`blaze`) and on (`blaze_ser_tier`), and
//! records the s-state engagement counters next to the simulated ACT. With
//! `--check` the run fails unless the solver actually picked s-states for
//! at least one workload (`ser_transitions > 0`) and the tier-off runs kept
//! their ser counters at exactly zero.
//!
//! Every number is simulated, so `BENCH_engine.json` is a pure function of
//! the code: the same file on every host, run and worker-thread count. A
//! plain run rewrites it; `--check` leaves it alone and fails if it differs
//! from what the code renders. Host time is measured by `benchmark/`.

use blaze_bench::json::nz;
use blaze_workloads::{App, AppSpec, Session, SystemKind};
use std::process::ExitCode;

struct Sample {
    workload: &'static str,
    system: &'static str,
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

fn run_sample(spec: &AppSpec, app_label: &'static str, system: SystemKind) -> Sample {
    let out = Session::builder(*spec).system(system).run().expect("benchmark run failed");
    let m = &out.metrics;
    let act = m.completion_time.as_secs_f64();
    eprintln!(
        "{app_label:9} {:14} sim_act={act:.4}s ser_hits={} ser_trans={}",
        system.key(),
        m.ser_mem_hits,
        m.ser_transitions
    );
    let rec = &m.recovery;
    Sample {
        workload: app_label,
        system: system.key(),
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
            let mut spec = AppSpec::evaluation(app);
            spec.memory_capacity = spec.memory_capacity.scale(squeeze);
            (label, spec)
        })
        .collect()
}

fn main() -> ExitCode {
    let check = std::env::args().skip(1).any(|a| a == "--check");

    // Ser-tier section: tier off vs on, same spec, same seed.
    let mut samples = Vec::new();
    let mut engaged = 0usize;
    for (app_label, spec) in ser_tier_specs() {
        let off = run_sample(&spec, app_label, SystemKind::Blaze);
        let on = run_sample(&spec, app_label, SystemKind::BlazeSerTier);
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

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let json = render_json(&samples);
    if !check {
        std::fs::write(path, &json).expect("write BENCH_engine.json");
        println!("wrote {} rows to {path}", samples.len());
    } else if std::fs::read_to_string(path).ok().as_deref() != Some(json.as_str()) {
        eprintln!(
            "bench_engine --check: {path} differs from what the code renders; \
             rerun bench_engine without --check and commit the file"
        );
        return ExitCode::FAILURE;
    } else {
        eprintln!("bench_engine --check: {path} is current");
    }
    ExitCode::SUCCESS
}

/// Hand-rolled JSON writer (the workspace deliberately has no serde).
fn render_json(samples: &[Sample]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"ser_tier\": [\n");
    for (i, r) in samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"system\": \"{}\", \
             \"sim_act\": {:.6}, \"recovery_s\": {:.6}, \
             \"task_retries\": {}, \"blocks_lost\": {}, \"stages_resubmitted\": {}, \
             \"evictions_to_disk\": {}, \"evictions_discard\": {}, \
             \"spilled_mib\": {:.3}, \"discarded_mib\": {:.3}, \
             \"ser_mem_hits\": {}, \"ser_transitions\": {}}}{}\n",
            r.workload,
            r.system,
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
    s.push_str("  ]\n}\n");
    s
}
