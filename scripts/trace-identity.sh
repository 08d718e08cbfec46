#!/usr/bin/env sh
# Trace identity against another checkout (usually the parent commit).
#
#   scripts/trace-identity.sh <parent-checkout> [<out-dir>]
#
# "Same behaviour" for a host-time change means the engine's chrome traces
# are byte-identical: every block size, admission, eviction and simulated
# charge is in them. This writes `blaze-trace --timeline` for the six apps
# under six systems (single worker thread) plus the faulted PageRank run,
# 37 pairs, from both trees, and `cmp`s each pair. One line per pair; exits
# non-zero on any difference. Builds `blaze-trace` in both trees first.
#
# Make the parent checkout with `git clone` or `git archive` (for example
# into /root/scratch/parent); the traces go to <out-dir>, by default a fresh
# temporary directory.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ] || [ ! -d "$1" ]; then
    echo "usage: $0 <parent-checkout> [<out-dir>]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
here=$(cd "$(dirname "$0")/.." && pwd)
out=${2:-$(mktemp -d)}
mkdir -p "$out"
out=$(cd "$out" && pwd)

# A no-op when the binary is current; --offline is always right here (every
# dependency is in the workspace or vendored, see ci.sh).
for tree in "$parent" "$here"; do
    (cd "$tree" && cargo build --release --offline -q -p blaze-bench --bin blaze-trace)
done

pairs=0
differing=0
# compare <label> <blaze-trace arguments...>
compare() {
    label=$1
    shift
    (cd "$parent" && ./target/release/blaze-trace --timeline "$out/$label.parent.json" "$@") >/dev/null
    (cd "$here" && ./target/release/blaze-trace --timeline "$out/$label.change.json" "$@") >/dev/null
    pairs=$((pairs + 1))
    if cmp -s "$out/$label.parent.json" "$out/$label.change.json"; then
        echo "identical  $label"
    else
        echo "DIFFERENT  $label  ($out/$label.{parent,change}.json)"
        differing=$((differing + 1))
    fi
}

for app in pagerank cc lr kmeans gbt svdpp; do
    for system in blaze blaze_no_profile blaze_ser_tier spark_mem_disk lrc alluxio; do
        compare "$app.$system" --apps "$app" --system "$system" --threads 1
    done
done
compare pagerank.blaze.faults --apps pagerank --system blaze --threads 1 --faults

echo "trace-identity: $((pairs - differing)) of $pairs pairs byte-identical"
[ "$differing" -eq 0 ]
