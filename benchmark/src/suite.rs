//! `--all`: every workload, both passes, one child process per run; and
//! `--compare`: two result files of `--all` judged against the bounds in
//! `BENCHMARK.json`.

use crate::json::{self, Json};
use crate::spec::{self, Better, Metric, Source};
use crate::stats::{summarize, Summary};
use crate::workloads::WORKLOADS;
use crate::{calibrate, host, parsed, value_of, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// Timed passes of a full run. They are interleaved across workloads — every
/// workload once, then every workload again — so slow drift of the host
/// lands on all workloads alike instead of on whichever ran last.
const PASSES: usize = 3;

/// Where `--all` writes its results unless `--out` names another file.
const DEFAULT_OUT: &str = "benchmark/out/results.json";

/// The parsed tail of one child's standard output.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
}

/// Runs this executable once for `workload`, as a process of its own so the
/// run starts from a fresh heap and its `VmHWM` is its own.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let (result, samples) = (lines.next().unwrap_or(""), lines.next().unwrap_or(""));
    let result = json::parse(result).map_err(|e| {
        format!("{workload}: child printed no result ({e}); exit {}", output.status)
    })?;
    let samples = json::parse(samples).unwrap_or(Json::Null);
    for line in stdout.lines().filter(|l| l.starts_with("FAILED")) {
        eprintln!("{workload}: {line}");
    }
    let num = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(ChildRun {
        correct: result.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: num("attempted") as u64,
        failed: num("failed") as u64,
        metrics: result
            .get("metrics")
            .map(Json::entries)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        samples: samples
            .get("samples")
            .map(Json::entries)
            .unwrap_or_default()
            .iter()
            .map(|(k, v)| (k.clone(), v.f64s()))
            .collect(),
    })
}

fn summary_json(metric: &Metric, s: &Summary, samples: &[f64], per_pass: &[f64]) -> Json {
    let (tail_p, tail) =
        s.tail.map_or((Json::Null, Json::Null), |(p, v)| (Json::Num(p), Json::Num(v)));
    Json::obj([
        ("unit", Json::Str(metric.unit.into())),
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("tail_percentile", tail_p),
        ("tail", tail),
        ("n", Json::Num(s.n as f64)),
        ("samples", Json::nums(samples)),
        ("per_pass", Json::nums(per_pass)),
    ])
}

fn print_summary(metric: &Metric, s: &Summary) {
    let tail = s.tail.map_or(String::new(), |(p, v)| format!("  p{p} {v:.6}"));
    println!(
        "  {:<28} {:>14.6} {:<10} q1 {:.6}  q3 {:.6}{tail}  n {}",
        metric.name, s.median, metric.unit, s.q1, s.q3, s.n
    );
}

/// Runs every workload: [`PASSES`] interleaved timed passes and one traced
/// pass each (`--quick`: one timed pass of two repetitions). Prints every
/// metric, writes the results file, and fails if any operation failed or a
/// simulated metric differed between passes of the same seed.
pub fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = parsed(args, "--seed", DEFAULT_SEED)?;
    let out = value_of(args, "--out").unwrap_or(DEFAULT_OUT);
    let (passes, seconds) = if quick { (1, 0.0) } else { (PASSES, spec::RUN_SECONDS as f64) };
    let load_start = host::loadavg();
    let mut ok = true;

    let mut timed: BTreeMap<&str, Vec<ChildRun>> = BTreeMap::new();
    for pass in 0..passes {
        for w in &WORKLOADS {
            eprintln!("timed pass {}/{passes}: {}", pass + 1, w.name);
            timed.entry(w.name).or_default().push(child(w.name, seed, seconds, false)?);
        }
    }
    let mut traced: BTreeMap<&str, ChildRun> = BTreeMap::new();
    for w in &WORKLOADS {
        eprintln!("traced pass: {}", w.name);
        traced.insert(w.name, child(w.name, seed, seconds, true)?);
    }

    println!(
        "seed {seed}, {passes} timed pass(es) of {seconds} s per workload, nproc {}, load {} -> {}",
        host::nproc(),
        load_start,
        host::loadavg()
    );
    let mut workloads_json = Vec::new();
    for w in &WORKLOADS {
        let runs = &timed[w.name];
        let trace = &traced[w.name];
        let attempted: u64 = runs.iter().map(|r| r.attempted).sum::<u64>() + trace.attempted;
        let failed: u64 = runs.iter().map(|r| r.failed).sum::<u64>() + trace.failed;
        ok &= failed == 0 && trace.correct && runs.iter().all(|r| r.correct);
        // How contended the host was during each timed pass; the host times
        // below are already divided by it.
        let slowdowns: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.samples.get("calibration_s"))
            .map(|kernel| calibrate::slowdown(kernel))
            .collect();
        println!("\n{} — {}", w.name, w.why);
        println!("  {:<28} {failed} / {attempted} operations", "fail_share");
        println!("  {:<28} {slowdowns:.3?} per timed pass", "host slowdown");

        let mut end_to_end = Vec::new();
        for (metric, _) in &spec::END_TO_END {
            let per_run: Vec<f64> =
                runs.iter().filter_map(|r| r.metrics.get(metric.name).copied()).collect();
            // Repetitions pooled over the passes where the child printed
            // them; otherwise one value per pass.
            let mut samples: Vec<f64> = runs
                .iter()
                .flat_map(|r| r.samples.get(metric.name).cloned().unwrap_or_default())
                .collect();
            if samples.is_empty() {
                samples = per_run.clone();
            }
            if metric.source == Source::Sim && per_run.windows(2).any(|p| p[0] != p[1]) {
                println!(
                    "  FAILED: {} differs between passes of seed {seed}: {per_run:?}",
                    metric.name
                );
                ok = false;
            }
            let summary = summarize(&samples);
            print_summary(metric, &summary);
            end_to_end.push((metric.name, summary_json(metric, &summary, &samples, &per_run)));
        }
        let mut per_layer = Vec::new();
        for metric in spec::PER_LAYER {
            let value = trace.metrics.get(metric.name).copied().unwrap_or(f64::NAN);
            println!("  {:<28} {value:>14.6} {}", metric.name, metric.unit);
            per_layer.push((
                metric.name,
                Json::obj([("unit", Json::Str(metric.unit.into())), ("value", Json::Num(value))]),
            ));
        }
        workloads_json.push((
            w.name,
            Json::obj([
                ("attempted", Json::Num(attempted as f64)),
                ("failed", Json::Num(failed as f64)),
                ("host_slowdown", Json::nums(&slowdowns)),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
            ]),
        ));
    }

    let results = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("passes", Json::Num(passes as f64)),
        ("run_seconds", Json::Num(seconds)),
        (
            "host",
            Json::obj([
                ("nproc", Json::Num(host::nproc() as f64)),
                ("loadavg_start", Json::Str(load_start)),
                ("loadavg_end", Json::Str(host::loadavg())),
            ]),
        ),
        ("workloads", Json::obj(workloads_json)),
    ]);
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(out, results.pretty()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("\nwrote {out}; {}", if ok { "all operations succeeded" } else { "FAILED" });
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regress,
    /// The run-to-run spread is wider than the bound, so the two medians
    /// cannot be told apart at that bound.
    Unresolved,
}

/// One metric of one workload in one result file.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    /// Median over all repetitions of all passes.
    pub median: f64,
    /// Spread between the passes' own values (run to run), as a share of
    /// their median; between repetitions when the file holds one pass.
    pub spread: f64,
}

/// Judges one metric: `a` is the baseline, `b` the candidate.
pub fn judge(metric: &Metric, bound: f64, a: Side, b: Side) -> Verdict {
    let worse_by = match metric.better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    if metric.source == Source::Sim {
        // Deterministic for a seed: any worsening is a real change.
        return if worse_by > 0.0 { Verdict::Regress } else { Verdict::Pass };
    }
    if a.spread.max(b.spread) > bound {
        return Verdict::Unresolved;
    }
    if a.median != 0.0 && worse_by / a.median.abs() > bound {
        Verdict::Regress
    } else {
        Verdict::Pass
    }
}

fn side_of(entry: Option<&Json>) -> Option<Side> {
    let samples = entry?.get("samples")?.f64s();
    let per_pass = entry?.get("per_pass").map(Json::f64s).unwrap_or_default();
    let between = if per_pass.len() >= 2 { &per_pass } else { &samples };
    (!samples.is_empty())
        .then(|| Side { median: summarize(&samples).median, spread: summarize(between).spread() })
}

/// Compares two `--all` result files under the bounds of `BENCHMARK.json` in
/// the working directory. Exits non-zero if any metric regressed, any
/// simulated per-layer number changed for the worse, or `b` failed operations.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let at = args.iter().position(|a| a == "--compare").unwrap_or(0);
    let (Some(a_path), Some(b_path)) = (args.get(at + 1), args.get(at + 2)) else {
        return Err("--compare needs two result files".into());
    };
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b, contract) = (read(a_path)?, read(b_path)?, read("BENCHMARK.json")?);
    let bound_of = |name: &str| {
        let metrics = contract.get("end_to_end")?.as_arr()?;
        let entry = metrics.iter().find(|m| m.get("name").and_then(Json::as_str) == Some(name))?;
        entry.get("bound")?.as_f64()
    };
    if a.get("seed") != b.get("seed") {
        println!(
            "note: the files were measured with different seeds; simulated metrics will differ"
        );
    }

    let mut regressed = false;
    println!(
        "{:<14} {:<26} {:>14} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    );
    for w in &WORKLOADS {
        let side = |file| Json::get(file, "workloads").and_then(|ws| ws.get(w.name));
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            println!("{:<14} missing from one file", w.name);
            regressed = true;
            continue;
        };
        for (metric, _) in &spec::END_TO_END {
            let bound = bound_of(metric.name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", metric.name))?;
            let get =
                |side: &Json| side_of(side.get("end_to_end").and_then(|e| e.get(metric.name)));
            let (Some(sa), Some(sb)) = (get(wa), get(wb)) else {
                println!("{:<14} {:<26} missing from one file", w.name, metric.name);
                regressed = true;
                continue;
            };
            let verdict = judge(metric, bound, sa, sb);
            regressed |= verdict == Verdict::Regress;
            println!(
                "{:<14} {:<26} {:>14.6} {:>14.6} {:>+7.2}% {:>7.0}%  {}",
                w.name,
                metric.name,
                sa.median,
                sb.median,
                if sa.median != 0.0 { (sb.median / sa.median - 1.0) * 100.0 } else { 0.0 },
                bound * 100.0,
                match verdict {
                    Verdict::Pass => "pass".to_string(),
                    Verdict::Regress => "REGRESS".to_string(),
                    Verdict::Unresolved => format!(
                        "unresolved (spread {:.1}% / {:.1}%)",
                        sa.spread * 100.0,
                        sb.spread * 100.0
                    ),
                }
            );
        }
        let failed = wb.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed > 0.0 {
            println!(
                "{:<14} {:<26} {failed} operations failed in b  REGRESS",
                w.name, "fail_share"
            );
            regressed = true;
        }
        // Simulated per-layer numbers have no bound but must repeat exactly.
        for metric in spec::PER_LAYER.iter().filter(|m| m.source == Source::Sim) {
            let get = |side: &Json| side.get("per_layer")?.get(metric.name)?.get("value")?.as_f64();
            let (va, vb) = (get(wa), get(wb));
            if va != vb {
                println!(
                    "{:<14} {:<26} {va:?} -> {vb:?}  changed (simulated)",
                    w.name, metric.name
                );
            }
        }
    }
    println!("{}", if regressed { "REGRESSED" } else { "no regression" });
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> (Metric, f64) {
        spec::end_to_end(name).expect("metric")
    }

    #[test]
    fn host_metrics_are_judged_against_bound_and_spread() {
        let (wall, bound) = metric("wall_s");
        let tight = |median: f64| Side { median, spread: bound / 10.0 };
        assert_eq!(judge(&wall, bound, tight(1.0), tight(1.0 + bound / 2.0)), Verdict::Pass);
        assert_eq!(judge(&wall, bound, tight(1.0), tight(1.0 + bound * 2.0)), Verdict::Regress);
        assert_eq!(judge(&wall, bound, tight(1.0), tight(0.5)), Verdict::Pass);
        let wide = Side { median: 1.0, spread: bound * 1.5 };
        assert_eq!(judge(&wall, bound, tight(1.0), wide), Verdict::Unresolved);

        let (rate, bound) = metric("records_per_s");
        let slower = tight(100.0 * (1.0 - bound * 2.0));
        assert_eq!(judge(&rate, bound, tight(100.0), slower), Verdict::Regress);
        assert_eq!(judge(&rate, bound, tight(100.0), tight(130.0)), Verdict::Pass);
    }

    #[test]
    fn simulated_metrics_compare_exactly() {
        let (act, bound) = metric("sim_act_s");
        let exact = |median: f64| Side { median, spread: 0.0 };
        assert_eq!(judge(&act, bound, exact(1.0), exact(1.0)), Verdict::Pass);
        assert_eq!(judge(&act, bound, exact(1.0), exact(1.000001)), Verdict::Regress);
        assert_eq!(judge(&act, bound, exact(1.0), exact(0.9)), Verdict::Pass);
    }

    #[test]
    fn spread_is_taken_between_passes_when_there_are_several() {
        let noisy_reps = Json::nums(&[0.5, 1.0, 1.0, 1.5]);
        let one_pass =
            Json::obj([("samples", noisy_reps.clone()), ("per_pass", Json::nums(&[1.0]))]);
        let three =
            Json::obj([("samples", noisy_reps), ("per_pass", Json::nums(&[0.99, 1.0, 1.01]))]);
        assert!(side_of(Some(&one_pass)).expect("side").spread > 0.5);
        let side = side_of(Some(&three)).expect("side");
        assert_eq!(side.median, 1.0);
        assert!((side.spread - 0.02).abs() < 1e-12);
        assert!(side_of(Some(&Json::obj([("samples", Json::nums(&[]))]))).is_none());
    }
}
