//! The two passes of one run: the timed pass (tracing off; end-to-end
//! metrics) and the traced pass (per-layer metrics; its timings never feed an
//! end-to-end metric). Both check every result against the `LocalRunner`
//! reference and count failed operations.

use crate::calibrate::{self, Calibrator};
use crate::drill;
use crate::host;
use crate::json::Json;
use crate::rep::{self, Observe, Rep, System};
use crate::spans::{self, is_task_path, Span, Tracer};
use crate::stats::{median, percentile};
use crate::workloads::{Outcome, Workload};
use blaze_dataflow::runner::LocalRunner;
use blaze_dataflow::Context;
use blaze_engine::Metrics;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Repetitions every pass measures at least, however short `--seconds` is
/// (`--seconds 0` is the two-repetition smoke run of `--quick`).
const MIN_REPS: usize = 2;

/// What one run reports.
pub struct Report {
    /// False if any operation failed or a simulated number differed between
    /// repetitions of the same seed.
    pub correct: bool,
    /// Operations attempted: every submitted job and one result check per
    /// repetition.
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Per-repetition samples behind the host-time medians.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// What went wrong, one line each.
    pub problems: Vec<String>,
}

impl Report {
    /// The samples as one JSON object (printed on the line before the result
    /// so the suite can pool repetitions across passes).
    pub fn samples_json(&self) -> Json {
        Json::obj(self.samples.iter().map(|(n, v)| (*n, Json::nums(v))))
    }
}

#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Result and simulated metrics of the first good repetition, which
    /// every later one must reproduce bit for bit.
    first: Option<(Outcome, Metrics)>,
}

impl Ops {
    fn fail(&mut self, ops: u64, what: String) {
        self.failed += ops;
        self.problems.push(what);
    }

    /// Runs one repetition, turning an error or a panic into failed
    /// operations, and checks it against the first repetition.
    fn rep(&mut self, w: &Workload, seed: u64, system: System, observe: &Observe) -> Option<Rep> {
        let ran = catch_unwind(AssertUnwindSafe(|| rep::run(w, seed, system, observe)));
        let rep = match ran {
            Ok(Ok(rep)) => rep,
            Ok(Err(e)) => {
                // The job that returned the error, and the result check.
                self.attempted += 2;
                self.fail(2, format!("{} under {system:?}: driver error: {e}", w.name));
                return None;
            }
            Err(_) => {
                self.attempted += 2;
                self.fail(2, format!("{} under {system:?}: panic", w.name));
                return None;
            }
        };
        self.attempted += u64::from(rep.jobs) + 1;
        if system == System::MemDisk {
            // A different system decides differently; only its result is
            // comparable, and only against the reference.
            return Some(rep);
        }
        match &self.first {
            None => self.first = Some((rep.outcome.clone(), rep.metrics.clone())),
            Some((outcome, metrics)) => {
                if rep.outcome != *outcome {
                    self.fail(1, format!("{}: result differs between repetitions", w.name));
                } else if rep.metrics != *metrics {
                    self.fail(
                        1,
                        format!("{}: simulated metrics differ between repetitions", w.name),
                    );
                }
            }
        }
        Some(rep)
    }

    /// Runs the driver under `LocalRunner` and compares the repetitions'
    /// common result with it; `reps` result checks fail together if it
    /// differs. Returns the host seconds the reference run took.
    fn check_reference(&mut self, w: &Workload, seed: u64, reps: u64) -> f64 {
        let start = Instant::now();
        let ctx = Context::new(LocalRunner::new());
        let reference = catch_unwind(AssertUnwindSafe(|| w.drive(&ctx, seed)));
        let local_run_s = start.elapsed().as_secs_f64();
        match (reference, &self.first) {
            (Ok(Ok(reference)), Some((outcome, _))) => {
                if !outcome.matches(&reference) {
                    self.fail(reps, format!("{}: result differs from LocalRunner", w.name));
                }
            }
            (Ok(Ok(_)), None) => {}
            _ => self.fail(reps, format!("{}: LocalRunner reference failed", w.name)),
        }
        local_run_s
    }

    fn into_report(
        self,
        metrics: Vec<(&'static str, f64)>,
        samples: Vec<(&'static str, Vec<f64>)>,
    ) -> Report {
        Report {
            correct: self.failed == 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
            samples,
            problems: self.problems,
        }
    }
}

/// Runs repetitions until `seconds` have passed (and at least [`MIN_REPS`]).
fn repeat(seconds: f64, mut body: impl FnMut() -> bool) {
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        if !body() {
            break;
        }
        reps += 1;
    }
}

/// The timed pass: tracing off, one discarded warm-up repetition, then
/// repetitions for `seconds`, each preceded by samples of the calibration
/// kernel. Reports every end-to-end metric; host times are divided by the
/// run's host slowdown (see [`crate::calibrate`]).
pub fn timed(w: &Workload, seed: u64, seconds: f64) -> Report {
    let mut ops = Ops::default();
    let plain = Observe::default();
    let mut calibrator = Calibrator::new();
    // Warm-up: lets the allocator grow and lazy set-up finish; a user pays
    // neither on a long-running driver.
    let _ = rep::run(w, seed, System::Blaze, &plain);

    let (mut wall, mut cpu, mut setup, mut kernel) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut raw_wall = Vec::new();
    repeat(seconds, || {
        kernel.extend(calibrator.samples());
        match ops.rep(w, seed, System::Blaze, &plain) {
            Some(rep) => {
                // Stolen time is not the program's, and the slowdown cannot
                // carry it: a repetition integrates every burst of it, while
                // the median kernel sample sees none.
                wall.push(rep.drive.wall_less_steal_s());
                cpu.push(rep.drive.cpu_s);
                setup.push(rep.setup.wall_less_steal_s());
                raw_wall.push(rep.drive.wall_s);
                true
            }
            None => false,
        }
    });
    // Read before the reference run, whose memoised blocks would raise it.
    // The calibration buffers are resident throughout and not the program's.
    let peak_rss_mib = host::peak_rss_mib() - calibrate::RESIDENT_MIB;

    ops.check_reference(w, seed, wall.len() as u64);
    let blaze_act = ops.first.as_ref().map_or(0.0, |(_, m)| m.completion_time.as_secs_f64());
    let memdisk_act = ops
        .rep(w, seed, System::MemDisk, &plain)
        .map_or(0.0, |r| r.metrics.completion_time.as_secs_f64());

    let slowdown = calibrate::slowdown(&kernel);
    println!(
        "host slowdown {slowdown:.4} (calibration kernel median {:.6} s over {} samples, reference {} s)",
        median(&kernel),
        kernel.len(),
        calibrate::REFERENCE_S
    );
    println!(
        "medians over {} repetitions before scaling: wall {:.6} s (less steal {:.6} s), \
         cpu {:.6} s, setup less steal {:.6} s",
        wall.len(),
        median(&raw_wall),
        median(&wall),
        median(&cpu),
        median(&setup),
    );
    for times in [&mut wall, &mut cpu, &mut setup] {
        times.iter_mut().for_each(|t| *t /= slowdown);
    }
    let wall_s = median(&wall);
    let records = w.records(seed) as f64;
    let rate: Vec<f64> = wall.iter().map(|t| records / t).collect();
    let metrics = vec![
        ("wall_s", wall_s),
        ("cpu_s", median(&cpu)),
        ("setup_s", median(&setup)),
        ("peak_rss_mib", peak_rss_mib),
        ("records_per_s", if wall_s > 0.0 { records / wall_s } else { 0.0 }),
        ("sim_act_s", blaze_act),
        ("sim_speedup_vs_memdisk", if blaze_act > 0.0 { memdisk_act / blaze_act } else { 0.0 }),
    ];
    let samples = vec![
        ("wall_s", wall),
        ("cpu_s", cpu),
        ("setup_s", setup),
        ("records_per_s", rate),
        ("calibration_s", kernel),
    ];
    ops.into_report(metrics, samples)
}

/// Totals of one span name within one repetition.
#[derive(Default, Clone, Copy)]
struct NameTotals {
    dur_s: f64,
    self_s: f64,
    calls: u64,
}

/// Per-repetition totals by span name, plus every `engine.run_job` duration.
struct RepSpans {
    by_name: BTreeMap<&'static str, NameTotals>,
    job_ms: Vec<f64>,
    self_sum_s: f64,
}

impl RepSpans {
    fn dur(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |t| t.dur_s)
    }

    fn own(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |t| t.self_s)
    }

    fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |t| t.calls)
    }

    fn task_path(&self) -> NameTotals {
        let mut total = NameTotals::default();
        for (name, t) in &self.by_name {
            if is_task_path(name) {
                total.dur_s += t.dur_s;
                total.calls += t.calls;
            }
        }
        total
    }

    /// Host seconds inside the controller: both decision hooks and the
    /// per-block task path.
    fn callbacks_s(&self) -> f64 {
        self.dur("core.on_job_submit") + self.dur("core.on_stage_complete") + self.task_path().dur_s
    }
}

fn group_by_rep(spans: &[Span]) -> BTreeMap<u32, RepSpans> {
    let own = spans::self_times_ns(spans);
    let mut reps: BTreeMap<u32, RepSpans> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let rep = reps.entry(s.rep).or_insert_with(|| RepSpans {
            by_name: BTreeMap::new(),
            job_ms: Vec::new(),
            self_sum_s: 0.0,
        });
        let t = rep.by_name.entry(s.name).or_default();
        t.dur_s += s.dur_ns() as f64 / 1e9;
        t.self_s += own_ns as f64 / 1e9;
        t.calls += s.calls;
        rep.self_sum_s += own_ns as f64 / 1e9;
        if s.name == "engine.run_job" {
            rep.job_ms.push(s.dur_ns() as f64 / 1e6);
        }
    }
    reps
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The variants one round of the traced pass runs, in order.
const PLAIN: usize = 0;
const SPANS: usize = 1;
const ENGINE_TRACED: usize = 2;
const MEMDISK_SPANS: usize = 3;
const TWO_THREADS: usize = 4;

/// The traced pass. Rounds of five repetitions — plain, benchmark spans on,
/// the engine's own tracing on, the LRU baseline with spans on, and plain on
/// two worker threads — run interleaved for `seconds`, so host drift hits all
/// five alike; then one repetition each with allocation counting and with
/// inline certificate verification, the `LocalRunner` reference, and the
/// solver drill. Writes the spans to `benchmark/out/` and reports every
/// per-layer metric. Host times here are raw; `host.slowdown` says how
/// contended the host was.
pub fn traced(w: &Workload, seed: u64, seconds: f64) -> Report {
    let mut ops = Ops::default();
    let plain = Observe::default();
    let tracer = Tracer::shared();
    let with_spans = Observe { tracer: Some(tracer.clone()), ..Observe::default() };
    let variants = [
        (System::Blaze, plain.clone()),
        (System::Blaze, with_spans.clone()),
        (System::Blaze, Observe { engine_tracing: true, ..Observe::default() }),
        (System::MemDisk, with_spans),
        (System::Blaze, Observe { two_threads: true, ..Observe::default() }),
    ];
    let mut calibrator = Calibrator::new();
    let _ = rep::run(w, seed, System::Blaze, &plain);

    let mut reps: [Vec<Rep>; 5] = Default::default();
    // Repetition ids of the spans each variant recorded.
    let mut span_ids: [Vec<u32>; 5] = Default::default();
    let mut kernel = Vec::new();
    let mut next_id = 0u32;
    repeat(seconds, || {
        kernel.extend(calibrator.samples());
        for (slot, (system, observe)) in variants.iter().enumerate() {
            if observe.tracer.is_some() {
                tracer.lock().set_rep(next_id);
                span_ids[slot].push(next_id);
                next_id += 1;
            }
            match ops.rep(w, seed, *system, observe) {
                Some(rep) => reps[slot].push(rep),
                None => return false,
            }
        }
        true
    });
    let counted =
        ops.rep(w, seed, System::Blaze, &Observe { count_allocations: true, ..Observe::default() });
    let certified = ops.rep(w, seed, System::BlazeCertify, &plain);
    // Result checks that fail together if the reference disagrees: every
    // Blaze repetition above.
    let checked = (reps.iter().map(Vec::len).sum::<usize>() - reps[MEMDISK_SPANS].len() + 2) as u64;
    let local_run_s = ops.check_reference(w, seed, checked);
    let drill = drill::run(seed);
    ops.attempted += drill.certificates;
    if drill.rejected > 0 {
        ops.fail(drill.rejected, format!("solver drill: {} certificates rejected", drill.rejected));
    }

    let tracer = tracer.lock();
    let spans = tracer.spans();
    write_trace(w, seed, spans, &mut ops);
    let by_rep = group_by_rep(spans);
    let pick = |ids: &[u32]| ids.iter().filter_map(|id| by_rep.get(id)).collect::<Vec<_>>();
    let (blaze, memdisk) = (pick(&span_ids[SPANS]), pick(&span_ids[MEMDISK_SPANS]));

    // Span self times partition the repetition span: every nanosecond of it
    // belongs to exactly one span unless children outlast a parent.
    let self_sum_frac =
        median_of(&blaze, |r| if r.dur("rep") > 0.0 { r.self_sum_s / r.dur("rep") } else { 0.0 });
    if (self_sum_frac - 1.0).abs() > 0.02 {
        ops.attempted += 1;
        ops.fail(1, format!("{}: span self times sum to {self_sum_frac} of the rep span", w.name));
    }

    let wall_of = |slot: usize| median_of(&reps[slot], |r| r.drive.wall_s);
    let plain_wall = wall_of(PLAIN);
    let m = ops.first.as_ref().map(|(_, m)| m.clone()).unwrap_or_default();
    let first = reps[SPANS].first();
    let tasks = m.tasks.max(1) as f64;
    let engine_self = |r: &&RepSpans| r.own("engine.run_job") + r.own("engine.on_unpersist");
    let job_ms: Vec<f64> = blaze.iter().flat_map(|r| r.job_ms.iter().copied()).collect();
    let hits = (m.mem_hits + m.disk_hits) as f64;
    let d = tracer.decision;
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    let spilled: u64 = m.spilled_bytes_per_executor.values().map(|b| b.as_bytes()).sum();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let metrics = vec![
        ("driver.self_s", median_of(&blaze, |r| r.own("drive"))),
        ("dataflow.local_run_s", local_run_s),
        ("dataflow.rdds", first.map_or(0.0, |r| r.rdds as f64)),
        ("dataflow.jobs", m.jobs as f64),
        ("engine.cluster_new_s", median_of(&blaze, |r| r.dur("engine.cluster_new"))),
        ("engine.run_job_s", median_of(&blaze, |r| r.dur("engine.run_job"))),
        ("engine.self_s", median_of(&blaze, engine_self)),
        ("engine.self_us_per_task", median_of(&blaze, engine_self) * 1e6 / tasks),
        ("engine.job_p50_ms", percentile(&job_ms, 50.0)),
        ("engine.job_p95_ms", percentile(&job_ms, 95.0)),
        ("engine.tasks", m.tasks as f64),
        ("engine.stages_run", m.stages_run as f64),
        ("engine.stages_skipped", m.stages_skipped as f64),
        ("engine.sim_compute_s", m.accumulated.compute.as_secs_f64()),
        ("storage.mem_hits", m.mem_hits as f64),
        ("storage.disk_hits", m.disk_hits as f64),
        ("storage.recompute_misses", m.recompute_misses as f64),
        ("storage.hit_ratio", ratio(hits, hits + m.recompute_misses as f64)),
        ("storage.evictions_to_disk", m.evictions_to_disk as f64),
        ("storage.evictions_discard", m.evictions_discard as f64),
        ("storage.spilled_mib", mib(spilled)),
        ("storage.mem_peak_mib", m.memory_bytes_peak.as_mib_f64()),
        ("storage.sim_disk_io_s", m.accumulated.disk_io_for_caching().as_secs_f64()),
        ("storage.sim_recompute_s", m.accumulated.recompute.as_secs_f64()),
        ("shuffle.sim_write_s", m.accumulated.shuffle_write.as_secs_f64()),
        ("shuffle.sim_fetch_s", m.accumulated.shuffle_fetch.as_secs_f64()),
        ("engine.parallel_speedup", ratio(plain_wall, wall_of(TWO_THREADS))),
        ("tracing.overhead_s", wall_of(ENGINE_TRACED) - plain_wall),
        ("tracing.events", reps[ENGINE_TRACED].first().map_or(0.0, |r| r.engine_events as f64)),
        ("core.profile_s", median_of(&blaze, |r| r.dur("core.extract_dependencies"))),
        ("core.job_submit_s", median_of(&blaze, |r| r.dur("core.on_job_submit"))),
        (
            "core.job_submit_calls",
            blaze.first().map_or(0.0, |r| r.calls("core.on_job_submit") as f64),
        ),
        ("core.stage_complete_s", median_of(&blaze, |r| r.dur("core.on_stage_complete"))),
        (
            "core.stage_complete_calls",
            blaze.first().map_or(0.0, |r| r.calls("core.on_stage_complete") as f64),
        ),
        ("core.task_path_s", median_of(&blaze, |r| r.task_path().dur_s)),
        ("core.task_path_calls", blaze.first().map_or(0.0, |r| r.task_path().calls as f64)),
        ("core.choose_victims_s", median_of(&blaze, |r| r.dur("core.choose_victims"))),
        ("core.share", median_of(&blaze, |r| ratio(r.callbacks_s(), r.dur("drive")))),
        ("core.solves", d.solves as f64),
        ("core.reused", d.reused as f64),
        ("core.reuse_ratio", ratio(d.reused as f64, (d.solves + d.reused) as f64)),
        ("core.dirty_drained", d.dirty_drained as f64),
        ("core.invalidated", d.invalidated as f64),
        ("policies.memdisk_wall_s", wall_of(MEMDISK_SPANS)),
        ("policies.memdisk_callbacks_s", median_of(&memdisk, |r| r.callbacks_s())),
        ("solver.knapsack_n64_us", drill.knapsack_us[0]),
        ("solver.knapsack_n512_us", drill.knapsack_us[1]),
        ("solver.mckp_n64_us", drill.mckp_us[0]),
        ("solver.mckp_n512_us", drill.mckp_us[1]),
        ("solver.ilp_n16_us", drill.ilp_us[0]),
        ("solver.ilp_n32_us", drill.ilp_us[1]),
        ("certify.verify_over_solve", drill.verify_over_solve),
        (
            "certify.inline_overhead_s",
            certified.as_ref().map_or(0.0, |r| r.drive.wall_s - plain_wall),
        ),
        ("host.alloc_count", counted.as_ref().map_or(0.0, |r| r.allocations.0 as f64)),
        ("host.alloc_mib", counted.as_ref().map_or(0.0, |r| mib(r.allocations.1))),
        ("host.sys_s", median_of(&reps[PLAIN], |r| r.sys_s)),
        ("host.minor_faults", median_of(&reps[PLAIN], |r| r.minor_faults as f64)),
        ("host.slowdown", calibrate::slowdown(&kernel)),
        ("trace.overhead_frac", ratio(wall_of(SPANS), plain_wall) - 1.0),
        ("trace.self_sum_frac", self_sum_frac),
        ("trace.rounds", reps[SPANS].len() as f64),
    ];
    drop(tracer);
    ops.into_report(metrics, Vec::new())
}

/// Writes the spans as Chrome trace-event JSON under `benchmark/out/`.
fn write_trace(w: &Workload, seed: u64, spans: &[Span], ops: &mut Ops) {
    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("trace_{}_seed{seed}.json", w.name));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans::chrome_json(spans)));
    match written {
        Ok(()) => eprintln!("wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => {
            ops.attempted += 1;
            ops.fail(1, format!("cannot write {}: {e}", path.display()));
        }
    }
}
