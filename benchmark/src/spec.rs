//! The metric tables: every name this benchmark prints, with its unit,
//! direction and bound. `BENCHMARK.json` at the repository root is rendered
//! from these tables (`--print-spec`), and a test keeps the two equal.

use crate::json::Json;
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock or counter a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Host time or host resources: noisy, compared through medians.
    Host,
    /// The simulated clock or a counter of the simulation: the same on every
    /// run of one seed, so two commits compare exactly.
    Sim,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, source: Source::Host }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, source: Source::Sim }
}

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 24;

/// How the driver outside invokes one run; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

use Better::{Higher, Lower};

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen before a change counts as a regression.
///
/// The host-time bounds are as wide as the contract allows: after taking
/// stolen time off and scaling by the host slowdown, medians of whole runs
/// still spread by 2–9% on the shared sandbox (README, "Steadiness"). The
/// two simulated metrics repeat exactly for one seed; their bounds only have
/// to cover how much they differ between seeds, because the outside driver
/// compares medians over seeds: under 4% for the ACT, but the speed-up over
/// MEM+DISK on `pr_spill` is 1.57–1.59 for most graphs and 1.38 for about
/// one in five, so a draw of ten seeds can spread by 13%.
pub const END_TO_END: [(Metric, f64); 7] = [
    (host("wall_s", "s", Lower), 0.25),
    (host("cpu_s", "s", Lower), 0.25),
    (host("setup_s", "s", Lower), 0.25),
    (host("peak_rss_mib", "MiB", Lower), 0.10),
    (host("records_per_s", "records/s", Higher), 0.25),
    (sim("sim_act_s", "sim_s", Lower), 0.15),
    (sim("sim_speedup_vs_memdisk", "ratio", Higher), 0.25),
];

/// Per-layer metrics, prefixed by the module they describe.
pub const PER_LAYER: &[Metric] = &[
    host("driver.self_s", "s", Lower),
    host("dataflow.local_run_s", "s", Lower),
    sim("dataflow.rdds", "count", Lower),
    sim("dataflow.jobs", "count", Lower),
    host("engine.cluster_new_s", "s", Lower),
    host("engine.run_job_s", "s", Lower),
    host("engine.self_s", "s", Lower),
    host("engine.self_us_per_task", "us", Lower),
    host("engine.job_p50_ms", "ms", Lower),
    host("engine.job_p95_ms", "ms", Lower),
    sim("engine.tasks", "count", Lower),
    sim("engine.stages_run", "count", Lower),
    sim("engine.stages_skipped", "count", Higher),
    sim("engine.sim_compute_s", "sim_s", Lower),
    sim("storage.mem_hits", "count", Higher),
    sim("storage.disk_hits", "count", Lower),
    sim("storage.recompute_misses", "count", Lower),
    sim("storage.hit_ratio", "ratio", Higher),
    sim("storage.evictions_to_disk", "count", Lower),
    sim("storage.evictions_discard", "count", Lower),
    sim("storage.spilled_mib", "MiB", Lower),
    sim("storage.mem_peak_mib", "MiB", Lower),
    sim("storage.sim_disk_io_s", "sim_s", Lower),
    sim("storage.sim_recompute_s", "sim_s", Lower),
    sim("shuffle.sim_write_s", "sim_s", Lower),
    sim("shuffle.sim_fetch_s", "sim_s", Lower),
    host("engine.parallel_speedup", "ratio", Higher),
    host("tracing.overhead_s", "s", Lower),
    sim("tracing.events", "count", Lower),
    host("core.profile_s", "s", Lower),
    host("core.job_submit_s", "s", Lower),
    sim("core.job_submit_calls", "count", Lower),
    host("core.stage_complete_s", "s", Lower),
    sim("core.stage_complete_calls", "count", Lower),
    host("core.task_path_s", "s", Lower),
    sim("core.task_path_calls", "count", Lower),
    host("core.choose_victims_s", "s", Lower),
    host("core.share", "fraction", Lower),
    sim("core.solves", "count", Lower),
    sim("core.reused", "count", Higher),
    sim("core.reuse_ratio", "ratio", Higher),
    sim("core.dirty_drained", "count", Lower),
    sim("core.invalidated", "count", Lower),
    host("policies.memdisk_wall_s", "s", Lower),
    host("policies.memdisk_callbacks_s", "s", Lower),
    host("solver.knapsack_n64_us", "us", Lower),
    host("solver.knapsack_n512_us", "us", Lower),
    host("solver.mckp_n64_us", "us", Lower),
    host("solver.mckp_n512_us", "us", Lower),
    host("solver.ilp_n16_us", "us", Lower),
    host("solver.ilp_n32_us", "us", Lower),
    host("certify.verify_over_solve", "ratio", Lower),
    host("certify.inline_overhead_s", "s", Lower),
    host("host.alloc_count", "count", Lower),
    host("host.alloc_mib", "MiB", Lower),
    host("host.sys_s", "s", Lower),
    host("host.minor_faults", "count", Lower),
    host("host.slowdown", "ratio", Lower),
    host("trace.overhead_frac", "fraction", Lower),
    host("trace.self_sum_frac", "fraction", Higher),
    host("trace.rounds", "count", Higher),
];

/// Looks an end-to-end metric and its bound up by name.
#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<(Metric, f64)> {
    END_TO_END.iter().copied().find(|(m, _)| m.name == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    Json::obj([
        ("command", Json::Arr(COMMAND.iter().map(|s| text(s)).collect())),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(m, bound)| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Json::Num(*bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|(m, _)| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric or workload name");
        for (m, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && WORKLOADS.iter().all(|w| w.why.len() <= 200));
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.0.unit, setup.0.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|(_, b)| *b <= setup.1), "setup_s has the largest bound");
    }

    #[test]
    fn benchmark_json_at_the_root_is_rendered_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            crate::json::parse(&on_disk).expect("valid JSON"),
            benchmark_json(),
            "regenerate with `blaze-benchmark --print-spec > BENCHMARK.json`"
        );
    }
}
