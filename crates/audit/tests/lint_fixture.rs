//! End-to-end fixture tests for the `blaze-lint` binary: seed a violating
//! source file into a temp tree shaped like the workspace, run the real
//! binary on it, and require a non-zero exit with the right codes.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_tree(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lint_fixture").join(name);
    // Fresh tree per test; layout mimics `crates/engine/src/` so the
    // path-scoped rules apply.
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear fixture tree");
    }
    fs::create_dir_all(dir.join("crates/engine/src")).expect("create fixture tree");
    dir
}

fn run_lint(path: &Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_blaze-lint"))
        .arg(path)
        .output()
        .expect("spawn blaze-lint");
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn seeded_violations_fail_the_lint() {
    let tree = fixture_tree("dirty");
    // One violation per rule, in a file scoped like engine source. The
    // fixture is written line by line so this test file itself stays clean.
    let source = [
        "use std::collections::HashMap;",
        "fn f() {",
        "    let m: HashMap<u32, u32> = HashMap::new();",
        "    let t = std::time::Instant::now();",
        "    let r = rand::thread_rng();",
        &format!("    m.get(&0).{}();", "unwrap"),
        "}",
    ]
    .join("\n");
    let file = tree.join("crates/engine/src/seeded.rs");
    fs::write(&file, source).expect("write fixture");

    let (ok, stdout) = run_lint(&tree);
    assert!(!ok, "lint must exit non-zero on a seeded violation; stdout:\n{stdout}");
    for code in ["std-hash", "wall-clock", "thread-rng", "unwrap"] {
        assert!(stdout.contains(code), "missing rule '{code}' in output:\n{stdout}");
    }
}

#[test]
fn annotated_and_clean_sources_pass() {
    let tree = fixture_tree("clean");
    let source = [
        "use blaze_common::fxhash::FxHashMap;",
        "fn f() {",
        "    let _m: FxHashMap<u32, u32> = FxHashMap::default();",
        "    // audit: allow(unwrap)",
        &format!("    Some(1).{}();", "unwrap"),
        "}",
    ]
    .join("\n");
    fs::write(tree.join("crates/engine/src/seeded.rs"), source).expect("write fixture");

    let (ok, stdout) = run_lint(&tree);
    assert!(ok, "clean fixture must pass; stdout:\n{stdout}");
    assert!(stdout.contains("clean"), "expected the clean banner, got:\n{stdout}");
}

#[test]
fn rules_are_path_scoped() {
    // The same unwrap outside `crates/engine/` is not a violation (wall-clock
    // and thread-rng remain banned everywhere).
    let tree = fixture_tree("scoped");
    fs::create_dir_all(tree.join("crates/policies/src")).expect("create tree");
    let source = format!("fn f() {{ Some(1).{}(); }}\n", "unwrap");
    fs::write(tree.join("crates/policies/src/seeded.rs"), source).expect("write fixture");

    let (ok, stdout) = run_lint(&tree);
    assert!(ok, "unwrap outside crates/engine must pass; stdout:\n{stdout}");
}

#[test]
fn the_workspace_itself_is_clean() {
    // The no-argument mode lints the real workspace: the repository must
    // hold itself to its own standard.
    let out = Command::new(env!("CARGO_BIN_EXE_blaze-lint")).output().expect("spawn blaze-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "workspace lint failed:\n{stdout}");
}
