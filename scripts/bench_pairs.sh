#!/usr/bin/env bash
# Paired benchmark runs: a parent revision against the working tree.
#
# Usage: scripts/bench_pairs.sh <parent-rev> <workload> [pairs] [seed] [seconds]
#
# Builds the benchmark of record from <parent-rev> (a `git archive` export
# under target/bench-pairs/, removed when the script exits; its build
# directory is kept for the next run against the same revision) and from
# the working tree, then runs `pairs` pairs of parent and change (odd
# pairs parent first, even pairs change first) of
#
#     benchmark --workload <workload> --seed <seed> --seconds <seconds> --trace 0
#
# (default 8 pairs, seed 1, 15 seconds per run). Each run's JSON is
# kept as target/bench-pairs/<workload>-seed<seed>/{parent,change}-<i>.json,
# and the script ends by printing `benchmark compare` of the two sides. It
# needs no network and changes nothing outside target/.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 5 ]]; then
    echo "usage: $0 <parent-rev> <workload> [pairs] [seed] [seconds]" >&2
    exit 2
fi
rev=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "$0: not a commit: $1" >&2
    exit 2
}
workload=$2
pairs=${3:-8}
seed=${4:-1}
seconds=${5:-15}

root=$PWD
work=$root/target/bench-pairs
src=$work/src-$rev
build=$work/build-$rev
runs=$work/$workload-seed$seed
trap 'rm -rf "$src"' EXIT

rm -rf "$src" "$runs"
mkdir -p "$src" "$runs"
git archive "$rev" | tar -x -C "$src"

echo "== building the parent (${rev:0:12}) and the change =="
CARGO_TARGET_DIR=$build cargo build --release --offline -q \
    --manifest-path "$src/benchmark/Cargo.toml"
cargo build --release --offline -q --manifest-path benchmark/Cargo.toml
parent_bin=$build/release/benchmark
change_bin=$root/benchmark/target/release/benchmark

run() { # <binary> <cwd> <out>
    (cd "$2" && "$1" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace 0 --out "$3" > /dev/null)
}

# Odd pairs run the parent first, even pairs the change first.
for i in $(seq 1 "$pairs"); do
    echo "== pair $i/$pairs =="
    if ((i % 2)); then
        run "$parent_bin" "$src" "$runs/parent-$i.json"
        run "$change_bin" "$root" "$runs/change-$i.json"
    else
        run "$change_bin" "$root" "$runs/change-$i.json"
        run "$parent_bin" "$src" "$runs/parent-$i.json"
    fi
done

echo "== benchmark compare: A = parent ${rev:0:12}, B = change =="
"$change_bin" compare "$runs"/parent-*.json -- "$runs"/change-*.json
