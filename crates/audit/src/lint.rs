//! Layer 2: the deterministic-simulation source lint.
//!
//! A line-oriented scanner (no parser, no dependencies) that enforces the
//! contract behind the engine's bit-identical replay guarantees:
//!
//! - `std-hash` — `std::collections::HashMap`/`HashSet` in `engine`,
//!   `policies` or `core`: iteration order is seeded per process, so any
//!   decision derived from it diverges across runs. Use `FxHashMap` /
//!   `FxHashSet` (fixed-state hashing) or `BTreeMap`.
//! - `wall-clock` — `Instant::now` / `SystemTime` in every file, with no
//!   path exempt: simulated time must come from the deterministic clock,
//!   never the host. Figure and table generators (`results/`), fault
//!   injection and trace tooling must replay byte-identically; host-time
//!   measurement belongs in `benchmark/`, outside the linted crates.
//! - `unwrap` — `.unwrap()` / `.expect(..)` in `crates/engine` without an
//!   explicit `// audit: allow(unwrap)` justification: the engine is the
//!   fallible substrate everything runs on; failures must surface as
//!   `BlazeError`, not aborts.
//! - `thread-rng` — `thread_rng` anywhere: OS-seeded randomness breaks
//!   replay. Use the seeded generators in `blaze-common`.
//! - `decision-hash` — *any* hash container (`HashMap`/`HashSet`, including
//!   the Fx variants) in the decision-path modules (`core/src/optimize.rs`,
//!   `core/src/incremental.rs`, `core/src/cost.rs`, `core/src/costlineage.rs`,
//!   `solver/src/*`, `certify/src/*`): certified decisions must
//!   be byte-identical functions of their inputs, and hash iteration order
//!   — even fixed-seed — depends on insertion history, which incremental
//!   reuse deliberately perturbs. Keyed lookups need an explicit
//!   justification; ordered iteration belongs in `BTreeMap`/sorted vecs.
//! - `record-order` — *any* hash container in the operator kernels
//!   (`dataflow/src/{pair,dataset}.rs`): the order of records
//!   inside a block is a documented rule (first occurrence in input order),
//!   and a block collected from a hash container would have the order of
//!   that container's layout — toolchain-dependent — instead. A container
//!   that is only probed, or that never becomes a block, says so with
//!   `// audit: allow(record-order) <why: lookup only / driver side>`.
//! - `float-cast` — bare `as f64` / `as f32` casts in the decision-path
//!   modules: silent precision loss in a cost or weight changes solver
//!   tie-breaks. Each cast site must carry a justification that the value
//!   is exactly representable (or the loss is intended).
//!
//! A finding on line `n` is suppressed by `// audit: allow(<code>)` on line
//! `n` or `n - 1`. Doc comments, comment text and `#[cfg(test)]` modules
//! (by convention at the end of a file, or out of line in a `tests.rs`) are
//! not linted.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

// The patterns are assembled with `concat!` so this file does not itself
// contain the contiguous token sequences it searches for.
const PAT_STD_HASH_PREFIX: &str = concat!("std::", "collections");
const PAT_HASH_MAP: &str = concat!("Hash", "Map");
const PAT_HASH_SET: &str = concat!("Hash", "Set");
const PAT_INSTANT_NOW: &str = concat!("Instant", "::", "now");
const PAT_SYSTEM_TIME: &str = concat!("System", "Time");
const PAT_UNWRAP: &str = concat!(".unw", "rap()");
const PAT_EXPECT: &str = concat!(".exp", "ect(");
const PAT_THREAD_RNG: &str = concat!("thread", "_rng");
const PAT_CFG_TEST: &str = concat!("#[cfg(", "test)]");
// Leading space keeps `.as_secs_f64()` and friends from matching.
const PAT_AS_F64: &str = concat!(" as ", "f64");
const PAT_AS_F32: &str = concat!(" as ", "f32");

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintViolation {
    /// The file the finding is in (as passed to the linter).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired (`std-hash`, `wall-clock`, `unwrap`, ...).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.code, self.message)
    }
}

/// Which path-scoped rule groups apply to a file, derived from its
/// workspace path. `wall-clock` and `thread-rng` apply to every file and
/// have no field here.
#[derive(Debug, Clone, Copy)]
struct Scope {
    /// `std::collections` hash containers banned (engine/policies/core).
    std_hash: bool,
    /// Bare `.unwrap()`/`.expect()` banned (`crates/engine`).
    unwrap: bool,
    /// Decision-path hardening: hash containers and bare float casts
    /// banned (`core/src/optimize.rs`, `core/src/incremental.rs`, the cost
    /// model and the CostLineage it prices from in `core/src/cost.rs` and
    /// `core/src/costlineage.rs`, `solver/src/*`, `certify/src/*` — the
    /// verifiers must be exactly as deterministic as the solvers they check).
    decision: bool,
    /// Hash containers banned in the operator kernels
    /// (`dataflow/src/{pair,dataset}.rs`): nothing whose iteration
    /// order is a table layout may become a block.
    record_order: bool,
}

fn scope_of(path: &str) -> Scope {
    let p = path.replace('\\', "/");
    let in_crate = |name: &str| p.contains(&format!("crates/{name}/"));
    Scope {
        std_hash: in_crate("engine") || in_crate("policies") || in_crate("core"),
        unwrap: in_crate("engine"),
        decision: p.ends_with("core/src/optimize.rs")
            || p.ends_with("core/src/incremental.rs")
            || p.ends_with("core/src/cost.rs")
            || p.ends_with("core/src/costlineage.rs")
            || p.contains("solver/src/")
            || p.contains("certify/src/"),
        record_order: p.ends_with("dataflow/src/pair.rs") || p.ends_with("dataflow/src/dataset.rs"),
    }
}

/// True if `line` (or `prev`, the preceding source line) carries an
/// `// audit: allow(<code>)` annotation for `code`.
fn allowed(line: &str, prev: Option<&str>, code: &str) -> bool {
    let marker = format!("audit: allow({code})");
    line.contains(&marker) || prev.is_some_and(|p| p.contains(&marker))
}

/// Returns the position of `pat` in `line` when the match sits in code
/// rather than inside comment text.
fn code_match(line: &str, pat: &str) -> Option<usize> {
    let idx = line.find(pat)?;
    match line.find("//") {
        Some(c) if c < idx => None,
        _ => Some(idx),
    }
}

/// Lints one file's content. `path` is used both for reporting and for
/// deciding which rules apply.
pub fn lint_source(path: &str, content: &str) -> Vec<LintViolation> {
    let scope = scope_of(path);
    let mut out = Vec::new();
    let mut prev: Option<&str> = None;
    for (i, line) in content.lines().enumerate() {
        let n = i + 1;
        // Test modules sit at the end of a file by workspace convention;
        // nothing after the cfg gate runs in production.
        if line.contains(PAT_CFG_TEST) {
            break;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("///") || trimmed.starts_with("//!") || trimmed.starts_with("//") {
            prev = Some(line);
            continue;
        }

        let hash_container =
            code_match(line, PAT_HASH_MAP).is_some() || code_match(line, PAT_HASH_SET).is_some();
        if scope.std_hash
            && code_match(line, PAT_STD_HASH_PREFIX).is_some()
            && (line.contains(PAT_HASH_MAP) || line.contains(PAT_HASH_SET))
            && !allowed(line, prev, "std-hash")
        {
            out.push(LintViolation {
                file: path.into(),
                line: n,
                code: "std-hash",
                message: "std hash containers have per-process iteration order; use \
                          FxHashMap/FxHashSet or BTreeMap"
                    .into(),
            });
        }
        if (code_match(line, PAT_INSTANT_NOW).is_some()
            || code_match(line, PAT_SYSTEM_TIME).is_some())
            && !allowed(line, prev, "wall-clock")
        {
            out.push(LintViolation {
                file: path.into(),
                line: n,
                code: "wall-clock",
                message: "host clocks are nondeterministic; simulated time must come from \
                          SimTime (host-time measurement belongs in benchmark/)"
                    .into(),
            });
        }
        if scope.unwrap
            && (code_match(line, PAT_UNWRAP).is_some() || code_match(line, PAT_EXPECT).is_some())
            && !allowed(line, prev, "unwrap")
        {
            out.push(LintViolation {
                file: path.into(),
                line: n,
                code: "unwrap",
                message: "engine code must surface failures as BlazeError; convert to a typed \
                          result or justify with `// audit: allow(unwrap)`"
                    .into(),
            });
        }
        if scope.decision && hash_container && !allowed(line, prev, "decision-hash") {
            out.push(LintViolation {
                file: path.into(),
                line: n,
                code: "decision-hash",
                message: "hash iteration order depends on insertion history; decision-path \
                          code must use BTreeMap/sorted vecs or justify a keyed lookup with \
                          `// audit: allow(decision-hash)`"
                    .into(),
            });
        }
        if scope.record_order && hash_container && !allowed(line, prev, "record-order") {
            out.push(LintViolation {
                file: path.into(),
                line: n,
                code: "record-order",
                message: "records inside a block are in first-occurrence order, never a hash \
                          container's; accumulate in pair.rs's KeyedFold or justify a container \
                          that is never iterated into a block with \
                          `// audit: allow(record-order)`"
                    .into(),
            });
        }
        if scope.decision
            && (code_match(line, PAT_AS_F64).is_some() || code_match(line, PAT_AS_F32).is_some())
            && !allowed(line, prev, "float-cast")
        {
            out.push(LintViolation {
                file: path.into(),
                line: n,
                code: "float-cast",
                message: "bare float casts silently lose precision and change solver \
                          tie-breaks; justify exact representability with \
                          `// audit: allow(float-cast)`"
                    .into(),
            });
        }
        if code_match(line, PAT_THREAD_RNG).is_some() && !allowed(line, prev, "thread-rng") {
            out.push(LintViolation {
                file: path.into(),
                line: n,
                code: "thread-rng",
                message: "OS-seeded randomness breaks replay; use the seeded RNGs in \
                          blaze-common"
                    .into(),
            });
        }
        prev = Some(line);
    }
    out
}

/// Recursively collects `.rs` files under `root` in deterministic
/// (lexicographic) order, skipping `target` and `vendor` directories.
fn collect_rs_files(root: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(root)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name == "vendor" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every production source file under the given roots (files are
/// linted directly; directories are walked for `src/` trees). Returns
/// findings in deterministic order.
pub fn lint_paths(roots: &[PathBuf]) -> io::Result<Vec<LintViolation>> {
    let mut files = Vec::new();
    for root in roots {
        if root.is_dir() {
            collect_rs_files(root, &mut files)?;
        } else {
            files.push(root.clone());
        }
    }
    // Integration tests and out-of-line unit-test modules
    // (`#[cfg(test)] mod tests;` -> `tests.rs`) may legitimately mention
    // the banned constructs (fixtures); the contract covers the production
    // `src/` trees.
    files.retain(|f| {
        let p = f.to_string_lossy().replace('\\', "/");
        !p.contains("/tests/") && !p.ends_with("/tests.rs")
    });
    let mut out = Vec::new();
    for file in files {
        let content = fs::read_to_string(&file)?;
        out.extend(lint_source(&file.to_string_lossy(), &content));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn join(lines: &[&str]) -> String {
        lines.join("\n")
    }

    #[test]
    fn flags_std_hash_in_engine_scope_only() {
        let src = join(&["use std::collections::HashMap;", "fn f() {}"]);
        let hits = lint_source("crates/engine/src/x.rs", &src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].code, "std-hash");
        assert_eq!(hits[0].line, 1);
        assert!(lint_source("crates/common/src/x.rs", &src).is_empty());
        let set = join(&["use std::collections::{HashSet, VecDeque};"]);
        assert_eq!(lint_source("crates/policies/src/x.rs", &set).len(), 1);
        assert_eq!(lint_source("crates/core/src/x.rs", &set).len(), 1);
    }

    #[test]
    fn flags_wall_clock_in_every_crate_file() {
        let src = join(&["fn f() { let t = std::time::Instant::now(); }"]);
        assert_eq!(lint_source("crates/dataflow/src/x.rs", &src).len(), 1);
        assert_eq!(lint_source("crates/bench/src/x.rs", &src).len(), 1);
        // No path is exempt, not even the bench crate's.
        assert_eq!(lint_source("crates/bench/src/harness.rs", &src)[0].code, "wall-clock");
        let old_timer = lint_source("crates/bench/src/bin/bench_decision.rs", &src);
        assert_eq!(old_timer[0].code, "wall-clock");
        assert_eq!(lint_source("crates/core/src/harness.rs", &src).len(), 1);
        let sys = join(&["use std::time::SystemTime;"]);
        assert_eq!(lint_source("crates/workloads/src/x.rs", &sys)[0].code, "wall-clock");
    }

    #[test]
    fn fault_injection_files_in_bench_may_not_read_host_time() {
        let src = join(&["fn f() { let t = std::time::Instant::now(); }"]);
        let fault_recovery = lint_source("crates/bench/src/bin/fault_recovery.rs", &src);
        assert_eq!(fault_recovery[0].code, "wall-clock");
        assert_eq!(lint_source("crates/bench/src/fault_schedule.rs", &src)[0].code, "wall-clock");
        // Trace tooling must replay deterministically too.
        assert_eq!(lint_source("crates/bench/src/bin/blaze-trace.rs", &src)[0].code, "wall-clock");
        // Chaos harnesses and degradation benches are fault-injection code.
        assert_eq!(lint_source("crates/bench/src/bin/bench_chaos.rs", &src)[0].code, "wall-clock");
        assert_eq!(lint_source("crates/bench/src/degradation.rs", &src)[0].code, "wall-clock");
        // results/ser_tier_engagement.txt holds simulated numbers only.
        let ser_tier = lint_source("crates/bench/src/bin/ser_tier_engagement.rs", &src);
        assert_eq!(ser_tier[0].code, "wall-clock");
    }

    #[test]
    fn flags_unwrap_in_engine_without_annotation() {
        let src = join(&["fn f(x: Option<u32>) -> u32 { x.unwrap() }"]);
        assert_eq!(lint_source("crates/engine/src/x.rs", &src).len(), 1);
        assert!(lint_source("crates/graph/src/x.rs", &src).is_empty());
        let exp = join(&["fn f(x: Option<u32>) -> u32 { x.expect(\"set\") }"]);
        assert_eq!(lint_source("crates/engine/src/x.rs", &exp)[0].code, "unwrap");
    }

    #[test]
    fn allow_annotation_suppresses_same_and_previous_line() {
        let same = join(&["let v = x.unwrap(); // audit: allow(unwrap) invariant: non-empty"]);
        assert!(lint_source("crates/engine/src/x.rs", &same).is_empty());
        let above = join(&[
            "// audit: allow(unwrap) worker panics must propagate",
            "let v = handle.join().unwrap();",
        ]);
        assert!(lint_source("crates/engine/src/x.rs", &above).is_empty());
        // The wrong code does not suppress.
        let wrong = join(&["let v = x.unwrap(); // audit: allow(thread-rng)"]);
        assert_eq!(lint_source("crates/engine/src/x.rs", &wrong).len(), 1);
    }

    #[test]
    fn flags_thread_rng_everywhere() {
        let src = join(&["fn f() { let r = rand::thread_rng(); }"]);
        assert_eq!(lint_source("crates/common/src/x.rs", &src)[0].code, "thread-rng");
        assert_eq!(lint_source("crates/ml/src/x.rs", &src).len(), 1);
    }

    #[test]
    fn skips_comments_doc_comments_and_test_modules() {
        let src = join(&[
            "//! Discusses Instant::now in docs.",
            "/// Also x.unwrap() in docs.",
            "// And thread_rng in a comment.",
            "fn f() {} // trailing mention of SystemTime is comment text",
            "#[cfg(test)]",
            "mod tests {",
            "    fn g(x: Option<u32>) -> u32 { x.unwrap() }",
            "}",
        ]);
        assert!(lint_source("crates/engine/src/x.rs", &src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let src = join(&["fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }"]);
        assert!(lint_source("crates/engine/src/x.rs", &src).is_empty());
        let els = join(&["fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }"]);
        assert!(lint_source("crates/engine/src/x.rs", &els).is_empty());
    }

    #[test]
    fn flags_hash_containers_in_decision_paths_only() {
        // Fx variants are banned too: fixed-seed hashing still iterates in
        // insertion-history order.
        let src = join(&["use rustc_hash::FxHashMap;", "fn f() {}"]);
        assert_eq!(lint_source("crates/core/src/optimize.rs", &src)[0].code, "decision-hash");
        assert_eq!(lint_source("crates/core/src/incremental.rs", &src).len(), 1);
        assert_eq!(lint_source("crates/core/src/cost.rs", &src)[0].code, "decision-hash");
        assert_eq!(lint_source("crates/core/src/costlineage.rs", &src)[0].code, "decision-hash");
        assert_eq!(lint_source("crates/solver/src/mckp.rs", &src).len(), 1);
        // Elsewhere in core the std-hash rule governs, not decision-hash.
        assert!(lint_source("crates/core/src/controller.rs", &src).is_empty());
        let set = join(&["fn f() { let s: FxHashSet<u32> = FxHashSet::default(); }"]);
        assert_eq!(lint_source("crates/solver/src/ilp.rs", &set).len(), 1);
        let allowed = join(&[
            "// audit: allow(decision-hash) keyed lookup only, never iterated",
            "use rustc_hash::FxHashMap;",
        ]);
        assert!(lint_source("crates/core/src/optimize.rs", &allowed).is_empty());
    }

    #[test]
    fn flags_hash_containers_in_the_operator_kernels() {
        // An accumulator collected into a block: the order the rule forbids.
        let fold = join(&[
            "let mut merged: FxHashMap<K, V> = FxHashMap::default();",
            "Ok(Block::from_vec(merged.into_iter().collect::<Vec<(K, V)>>()))",
        ]);
        for kernel in ["pair", "dataset"] {
            let hits = lint_source(&format!("crates/dataflow/src/{kernel}.rs"), &fold);
            assert_eq!(hits.len(), 1, "{kernel}");
            assert_eq!((hits[0].code, hits[0].line), ("record-order", 1));
        }
        let set = join(&["let seen: FxHashSet<K> = FxHashSet::default();"]);
        assert_eq!(lint_source("crates/dataflow/src/dataset.rs", &set)[0].code, "record-order");
        // The planner and the runner's memo are not kernels.
        assert!(lint_source("crates/dataflow/src/planner.rs", &fold).is_empty());
        assert!(lint_source("crates/dataflow/src/runner.rs", &fold).is_empty());
        // The container pair.rs keeps, justified.
        let kept = join(&[
            "struct ProbeIndex<'a, K, W> {",
            "    // audit: allow(record-order) lookup only: probed per left record",
            "    first: FxHashMap<&'a K, usize>,",
            "}",
        ]);
        assert!(lint_source("crates/dataflow/src/pair.rs", &kept).is_empty());
        // Another rule's justification does not cover this one.
        let wrong = join(&["first: FxHashMap<&'a K, usize>, // audit: allow(decision-hash)"]);
        assert_eq!(lint_source("crates/dataflow/src/pair.rs", &wrong).len(), 1);
    }

    #[test]
    fn flags_bare_float_casts_in_decision_paths() {
        let src = join(&["fn f(x: u64) -> f64 { x as f64 }"]);
        assert_eq!(lint_source("crates/solver/src/lp.rs", &src)[0].code, "float-cast");
        assert_eq!(lint_source("crates/core/src/optimize.rs", &src).len(), 1);
        assert!(lint_source("crates/core/src/controller.rs", &src).is_empty());
        let f32_cast = join(&["fn f(x: u32) -> f32 { x as f32 }"]);
        assert_eq!(lint_source("crates/core/src/incremental.rs", &f32_cast).len(), 1);
        // Method names containing the type are not casts.
        let secs = join(&["fn f(d: std::time::Duration) -> f64 { d.as_secs_f64() }"]);
        assert!(lint_source("crates/solver/src/lp.rs", &secs).is_empty());
        let allowed = join(&["let v = x as f64; // audit: allow(float-cast) x < 2^53"]);
        assert!(lint_source("crates/solver/src/mckp.rs", &allowed).is_empty());
    }

    #[test]
    fn certify_modules_are_decision_scoped() {
        // The certificate verifiers (including the multi-choice one added
        // with the serialized tier) are held to the same determinism rules
        // as the solvers they check.
        let cast = join(&["fn f(x: u64) -> f64 { x as f64 }"]);
        assert_eq!(lint_source("crates/certify/src/mckp.rs", &cast)[0].code, "float-cast");
        let map = join(&["use rustc_hash::FxHashMap;"]);
        assert_eq!(lint_source("crates/certify/src/lineage.rs", &map)[0].code, "decision-hash");
    }

    #[test]
    fn violations_display_path_line_and_code() {
        let src = join(&["fn f() { let r = rand::thread_rng(); }"]);
        let v = &lint_source("crates/ml/src/x.rs", &src)[0];
        let shown = v.to_string();
        assert!(shown.contains("crates/ml/src/x.rs:1") && shown.contains("thread-rng"));
    }
}
