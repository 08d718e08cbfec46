#!/usr/bin/env sh
# Local CI: everything that must be green before a commit.
#
# Works without network access: when the crates.io registry is unreachable
# (or BLAZE_OFFLINE=1 is set), every cargo invocation gets --offline. All
# dependencies are either workspace-local or vendored under vendor/, so the
# offline build is fully equivalent.
set -eu

cd "$(dirname "$0")/.."

OFFLINE=""
if [ "${BLAZE_OFFLINE:-}" = "1" ]; then
    OFFLINE="--offline"
elif ! cargo metadata --format-version 1 >/dev/null 2>&1; then
    echo "ci: crates.io registry unreachable, using --offline"
    OFFLINE="--offline"
fi

run() {
    echo "ci: $*"
    "$@"
}

# A generator cannot outlive its result file: the results loop below re-runs
# the binary of every committed results/<name>.txt, so a crates/bench binary
# with no such file would never run. The two inspection tools write no
# result file and are exempt by name.
for src in crates/bench/src/bin/*.rs; do
    bin=$(basename "$src" .rs)
    case $bin in
    blaze-trace | blaze-certify) continue ;;
    esac
    [ -f "results/$bin.txt" ] || {
        echo "ci: $src has no committed results/$bin.txt" >&2
        exit 1
    }
done

run cargo build --release $OFFLINE --workspace
# The repository benchmark is a package of its own outside the workspace,
# pinned to the crates' public API; build it so an API break surfaces here
# and not in the outside driver. Its unit tests (BENCHMARK.json matches
# spec.rs, verdicts, statistics) run here too. Its Cargo.lock is pinned:
# cargo would rewrite it silently when a workspace crate's dependencies
# change, so the build must leave it byte-identical.
lock=$(mktemp)
cp benchmark/Cargo.lock "$lock"
run cargo build --release $OFFLINE --manifest-path benchmark/Cargo.toml
cmp "$lock" benchmark/Cargo.lock || {
    echo "ci: building the benchmark rewrote benchmark/Cargo.lock" >&2
    rm -f "$lock"
    exit 1
}
rm -f "$lock"
run cargo test -q $OFFLINE --manifest-path benchmark/Cargo.toml
run cargo test -q $OFFLINE --workspace
# Examples: clippy compiles them, this runs them, so a panic in one (such as
# kmeans_pipeline, the KMeans kernel under Blaze with profiling) fails here.
for example in examples/*.rs; do
    run cargo run -q $OFFLINE --release --example "$(basename "$example" .rs)"
done
# Chaos step: replay the differential harness with its fixed-schedule
# chaos seed matrix wider than the default `cargo test` run. Override the
# seeds (comma-separated u64s) by exporting BLAZE_CHAOS_SEEDS yourself.
run env BLAZE_CHAOS_SEEDS="${BLAZE_CHAOS_SEEDS:-11,23,37,41,53}" \
    cargo test -q $OFFLINE --test differential
# Trace validation: the structured event log must pass its self-audit
# (span nesting and cache-event pairing, BA401 and BA403), a traced run's
# metrics must equal an untraced run's, and trace and metrics must be
# byte-identical across worker-thread counts. One memory-pressured and one
# compute-bound workload carry the thread sweep; the other four run
# single-threaded (under a second each), so every run prints all six apps'
# BA404 counts (`ba404=N`: blocks a controller command dropped and a later
# task recomputed — a warning, counted, never a failure). The full
# six-workload thread sweep is `--validate` with no --apps filter.
run cargo run -q $OFFLINE --release -p blaze-bench --bin blaze-trace -- \
    --validate --apps pagerank,kmeans --threads 1,2,4
run cargo run -q $OFFLINE --release -p blaze-bench --bin blaze-trace -- \
    --validate --apps cc,lr,gbt,svdpp --threads 1
# Inspection modes: one PageRank run of each, output discarded, so a mode
# that panics or errors fails here (about 1.5 s together).
for mode in --utilization --dot --ledger "--explain 2:0"; do
    echo "ci: blaze-trace $mode --apps pagerank"
    # shellcheck disable=SC2086 # "--explain 2:0" splits into flag and value
    cargo run -q $OFFLINE --release -p blaze-bench --bin blaze-trace -- \
        $mode --apps pagerank >/dev/null
done
# The ledger once more on GBT, an app that spills, so its closing count of
# spills nobody read runs over spill and unpersist records.
echo "ci: blaze-trace --ledger --apps gbt"
cargo run -q $OFFLINE --release -p blaze-bench --bin blaze-trace -- --ledger --apps gbt >/dev/null
# Committed results are what the code renders: re-run the generator of
# every results/*.txt (the binary of the same name), with the CSVs they
# write through BLAZE_CSV_DIR, into a temporary directory and compare every
# file with the committed one. Generators assert their own floors (the
# serialized tier engages, speculation wins races, corrupted spills are
# quarantined), so a floor that breaks fails here too. A decision-moving
# change regenerates results/ in the same commit (the loop in the verify
# recipe).
results=$(mktemp -d)
trap 'rm -rf "$results"' EXIT
for f in results/*.txt; do
    bin=$(basename "$f" .txt)
    echo "ci: $f"
    BLAZE_CSV_DIR="$results/csv" cargo run -q $OFFLINE --release -p blaze-bench --bin "$bin" \
        >"$results/$bin.txt" 2>"$results/$bin.log" || { cat "$results/$bin.log"; exit 1; }
    cmp "$results/$bin.txt" "$f"
done
for csv in results/csv/*.csv "$results"/csv/*.csv; do
    name=$(basename "$csv")
    cmp "$results/csv/$name" "results/csv/$name"
done
# Decision certificates: every workload, plus the serialized-tier leg, must
# certify every solve it makes, and every certificate must verify clean
# (--all); each seeded corruption must trip its BA5xx check, and the
# mutations together must trip every BA5xx code there is (--mutate) —
# proving the verifier has teeth, not just that the solvers are honest.
run cargo run -q $OFFLINE --release -p blaze-bench --bin blaze-certify -- \
    --quick --mutate --all
# Diagnostic registry: list every code (18), then explain each listed one
# with output discarded, so a registry entry that panics or no longer parses
# fails here.
echo "ci: blaze-audit --list, then --explain for every listed code"
codes=$(cargo run -q $OFFLINE --release -p blaze-audit --bin blaze-audit -- --list | cut -d' ' -f1)
[ -n "$codes" ]
for code in $codes; do
    cargo run -q $OFFLINE --release -p blaze-audit --bin blaze-audit -- --explain "$code" >/dev/null
done
# Layer-2 static analysis: the determinism source lint (including the
# decision-path hash-container and float-cast rules) must be clean before
# the (slower) clippy pass runs.
run cargo run -q $OFFLINE -p blaze-audit --bin blaze-lint
run cargo clippy $OFFLINE --workspace --all-targets -- -D warnings
# Rustdoc: every intra-doc link must resolve to a public item, so a doc that
# names a deleted or private item fails here instead of rotting.
run env RUSTDOCFLAGS="-D warnings" cargo doc $OFFLINE --workspace --no-deps --lib
run cargo fmt --all -- --check

echo "ci: all checks passed"
