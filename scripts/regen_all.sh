#!/usr/bin/env bash
# Regenerate every paper artifact into results/: the `figures` binary
# sweeps the workload x mechanism grid once and writes each table and
# figure as results/<name>.txt and results/<name>.json.
# Usage: scripts/regen_all.sh [scale] [seed]
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-1.0}"
SEED="${2:-1}"
# Persistent result cache: a re-run at unchanged inputs replays every cell
# instead of simulating it. Set PUNO_RESULT_CACHE=off to force a cold run;
# delete results/cache (or bump ENGINE_VERSION in
# crates/harness/src/cache.rs) to invalidate.
export PUNO_RESULT_CACHE="${PUNO_RESULT_CACHE:-$PWD/results/cache}"

echo "== building =="
cargo build --release -q -p puno-bench --bin figures

echo "== figures (scale $SCALE, seed $SEED) =="
cargo run --release -q -p puno-bench --bin figures -- "$SCALE" "$SEED" --out results

echo "== done; artifacts in results/ =="
