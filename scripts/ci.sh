#!/usr/bin/env bash
# Full CI gate: formatting, lints, the test suite, and a fault-injection
# smoke sweep (every cell must complete with zero structured failures).
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc (deny dangling intra-doc links) =="
# A doc comment that names a deleted or private item in brackets fails here.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --offline --workspace --no-deps -q

echo "== knob inventory (PUNO_* names in code vs README's table) =="
# Every PUNO_* variable the crates read needs a row in README's
# environment-variable table, and every row must name a variable some
# crate still reads. "<" lines are undocumented, ">" lines are stale.
code_knobs() { grep -rhoE 'PUNO_[A-Z0-9_]+' crates/*/src crates/*/benches | sort -u; }
readme_knobs() { grep -oE '^\| `PUNO_[A-Z0-9_]+' README.md | grep -oE 'PUNO_[A-Z0-9_]+' | sort -u; }
diff <(code_knobs) <(readme_knobs) \
    || { echo "PUNO_* knobs in crates/ and README's table differ"; exit 1; }

echo "== cargo test =="
cargo test --offline --workspace -q

echo "== benchmark-of-record tests (incl. BENCHMARK.json drift) =="
# The benchmark is a package of its own, outside the workspace, so the
# workspace test run above does not reach its unit tests.
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "== benchmark smoke (every workload at 1/20 scale, every check) =="
# Each workload's digests must agree across warm-up, reps, the traced pass
# and the cache fill, and the traced pass replays every NoC injection
# through a bare network stepped every cycle, which must reproduce the
# run's flits and router traversals. Together they cross-check the run
# loop's parked step token against plain every-cycle stepping, on the 4x4
# and the 16x16 mesh. Exit code 1 means some cell failed a check. The
# benchmark refuses to start with any PUNO_* variable set.
(
    unset $(compgen -e | grep '^PUNO_' || true)
    cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- --smoke > /dev/null
)

echo "== fault smoke (0.05 scale, intensity 1.0) =="
# PUNO_SWEEP_THREADS caps the sweep's worker count (4 unless the caller
# sets it). It never raises the count above the host's cores, so a 2-core
# box runs 2 workers. Per-cell results are deterministic at any count.
PUNO_SWEEP_THREADS="${PUNO_SWEEP_THREADS:-4}" \
    cargo run --offline --release -q -p puno-harness --bin fault_smoke -- 0.05 1.0 1

echo "== result-cache smoke (4-cell sweep twice; warm pass must replay byte-for-byte) =="
# Cold pass simulates and stores every cell; the warm pass must serve all
# four cells from the cache and produce byte-identical stdout (cached
# replay carries the cold run's metrics verbatim, host counters included).
# A warm pass simulates nothing, so it must also leave the cost model's
# costs.jsonl exactly as the cold pass wrote it.
CACHE_DIR="$(mktemp -d)"
RES_DIR="$(mktemp -d)"
trap 'rm -rf "$CACHE_DIR" "$RES_DIR"' EXIT
PUNO_RESULT_CACHE="$CACHE_DIR" PUNO_SWEEP_THREADS="${PUNO_SWEEP_THREADS:-4}" \
    cargo run --offline --release -q -p puno-harness --bin sweep_all -- 0.05 1 --filter ssca2 \
    > "$CACHE_DIR/cold.txt" 2> "$CACHE_DIR/cold.err"
[ -s "$CACHE_DIR/costs.jsonl" ] || { echo "cold pass recorded no cell costs"; exit 1; }
cp "$CACHE_DIR/costs.jsonl" "$RES_DIR/costs.cold.jsonl"
PUNO_RESULT_CACHE="$CACHE_DIR" PUNO_SWEEP_THREADS="${PUNO_SWEEP_THREADS:-4}" \
    cargo run --offline --release -q -p puno-harness --bin sweep_all -- 0.05 1 --filter ssca2 \
    > "$CACHE_DIR/warm.txt" 2> "$CACHE_DIR/warm.err"
diff "$CACHE_DIR/cold.txt" "$CACHE_DIR/warm.txt" \
    || { echo "warm sweep output differs from cold sweep"; exit 1; }
grep -q "result cache: 4 hits, 0 misses" "$CACHE_DIR/warm.err" \
    || { echo "warm pass did not hit the cache:"; cat "$CACHE_DIR/warm.err"; exit 1; }
cmp "$RES_DIR/costs.cold.jsonl" "$CACHE_DIR/costs.jsonl" \
    || { echo "warm pass fed cache hits into costs.jsonl"; exit 1; }
echo "cache smoke OK (4/4 warm hits, byte-identical output, costs.jsonl unchanged)"

echo "== resilience smoke (corrupt cache record: skip-and-count, then compact) =="
# Tamper with a field inside the FIRST persisted record: the JSON still
# parses but its content checksum no longer verifies, so the next open
# must skip exactly that record (re-simulating its cell) instead of
# replaying corrupt metrics — and the sweep output must stay identical.
RESULTS_JSONL="$CACHE_DIR/results.jsonl"
[ -s "$RESULTS_JSONL" ] || { echo "cache smoke left no results.jsonl"; exit 1; }
sed -i '1s/"seed":1/"seed":9/' "$RESULTS_JSONL"
grep -q '"seed":9' "$RESULTS_JSONL" || { echo "failed to corrupt a cache record"; exit 1; }
PUNO_RESULT_CACHE="$CACHE_DIR" PUNO_SWEEP_THREADS="${PUNO_SWEEP_THREADS:-4}" \
    cargo run --offline --release -q -p puno-harness --bin sweep_all -- 0.05 1 --filter ssca2 \
    > "$CACHE_DIR/corrupt.txt" 2> "$CACHE_DIR/corrupt.err"
# The skipped cell re-simulates, so its host wall-clock row is honestly
# fresh; everything deterministic must still match the cold run.
sed '/^simulator throughput/,$d' "$CACHE_DIR/cold.txt" > "$CACHE_DIR/cold.det.txt"
sed '/^simulator throughput/,$d' "$CACHE_DIR/corrupt.txt" > "$CACHE_DIR/corrupt.det.txt"
diff "$CACHE_DIR/cold.det.txt" "$CACHE_DIR/corrupt.det.txt" \
    || { echo "sweep output changed after cache corruption"; exit 1; }
grep -q "result cache recovered: 1 corrupt, 0 stale" "$CACHE_DIR/corrupt.err" \
    || { echo "corrupt record was not skip-and-counted:"; cat "$CACHE_DIR/corrupt.err"; exit 1; }
grep -q "result cache: 3 hits, 1 misses" "$CACHE_DIR/corrupt.err" \
    || { echo "corrupted cell was not re-simulated:"; cat "$CACHE_DIR/corrupt.err"; exit 1; }
# A compacting open must rewrite the file without the corrupt line; the
# following warm pass then serves every cell with nothing left to skip.
PUNO_RESULT_CACHE="$CACHE_DIR" PUNO_RESULT_CACHE_COMPACT=1 \
    PUNO_SWEEP_THREADS="${PUNO_SWEEP_THREADS:-4}" \
    cargo run --offline --release -q -p puno-harness --bin sweep_all -- 0.05 1 --filter ssca2 \
    > "$CACHE_DIR/compact.txt" 2> "$CACHE_DIR/compact.err"
sed '/^simulator throughput/,$d' "$CACHE_DIR/compact.txt" > "$CACHE_DIR/compact.det.txt"
diff "$CACHE_DIR/cold.det.txt" "$CACHE_DIR/compact.det.txt" \
    || { echo "sweep output changed after compaction"; exit 1; }
grep -q "result cache compacted: 4 kept, 1 corrupt, 0 stale" "$CACHE_DIR/compact.err" \
    || { echo "compaction did not drop the corrupt record:"; cat "$CACHE_DIR/compact.err"; exit 1; }
grep -q "result cache: 4 hits, 0 misses" "$CACHE_DIR/compact.err" \
    || { echo "compacted cache missed a warm cell:"; cat "$CACHE_DIR/compact.err"; exit 1; }
# A final plain pass proves the compacted file is clean: every cell warm,
# nothing left to skip at open.
PUNO_RESULT_CACHE="$CACHE_DIR" PUNO_SWEEP_THREADS="${PUNO_SWEEP_THREADS:-4}" \
    cargo run --offline --release -q -p puno-harness --bin sweep_all -- 0.05 1 --filter ssca2 \
    > /dev/null 2> "$CACHE_DIR/clean.err"
grep -q "result cache: 4 hits, 0 misses" "$CACHE_DIR/clean.err" \
    || { echo "post-compaction cache missed a warm cell:"; cat "$CACHE_DIR/clean.err"; exit 1; }
! grep -q "result cache recovered" "$CACHE_DIR/clean.err" \
    || { echo "compacted file still held skippable records"; exit 1; }
echo "corruption smoke OK (1 record skipped, re-simulated, compacted away)"

echo "== resilience smoke (mid-flight kill + checkpoint resume) =="
# Kill a checkpointed sweep partway, then resume from the checkpoint: the
# resumed run replays completed cells from the JSONL file (including a
# torn final append, if the kill landed mid-write) and must produce the
# same deterministic aggregate output as an uninterrupted sweep. The
# host-perf section is stripped from the diff — wall-clock readings are
# the one part of the report that is honestly not reproducible.
cargo build --offline --release -q -p puno-harness --bin sweep_all
SWEEP_BIN="target/release/sweep_all"
PUNO_SWEEP_THREADS=4 "$SWEEP_BIN" 0.05 1 \
    > "$RES_DIR/ref.txt" 2> /dev/null
timeout -s KILL 0.3 env PUNO_SWEEP_CHECKPOINT="$RES_DIR/ckpt.jsonl" PUNO_SWEEP_THREADS=4 \
    "$SWEEP_BIN" 0.05 1 > /dev/null 2>&1 || true
PUNO_SWEEP_CHECKPOINT="$RES_DIR/ckpt.jsonl" PUNO_SWEEP_THREADS=4 "$SWEEP_BIN" 0.05 1 \
    > "$RES_DIR/resumed.txt" 2> /dev/null
sed '/^simulator throughput/,$d' "$RES_DIR/ref.txt" > "$RES_DIR/ref.det.txt"
sed '/^simulator throughput/,$d' "$RES_DIR/resumed.txt" > "$RES_DIR/resumed.det.txt"
grep -q "Table I check" "$RES_DIR/ref.det.txt" || { echo "reference sweep printed no report"; exit 1; }
diff "$RES_DIR/ref.det.txt" "$RES_DIR/resumed.det.txt" \
    || { echo "checkpoint-resumed sweep diverged from the uninterrupted run"; exit 1; }
[ -s "$RES_DIR/ckpt.jsonl" ] || { echo "resumed sweep wrote no checkpoint"; exit 1; }
echo "checkpoint smoke OK (resume matches uninterrupted aggregate output)"

echo "== traced smoke (one cell, JSONL schema + Chrome export) =="
# Re-run one sweep cell fully traced: every JSONL line must parse as a
# trace record within the requested channel filter, and the Chrome-trace
# conversion must succeed. Runs inside the cache dir to prove --trace
# bypasses the result cache (the cell is warm from the cache smoke above).
# The traced run fast-forwards to the first transaction and says so.
PUNO_RESULT_CACHE="$CACHE_DIR" PUNO_TRACE="htm,coh,noc" PUNO_TRACE_OUT="$CACHE_DIR" \
    cargo run --offline --release -q -p puno-harness --bin sweep_all -- 0.05 1 \
    --trace ssca2:baseline > "$CACHE_DIR/traced.txt" 2> "$CACHE_DIR/traced.err"
grep -q "trace fast-forward: pre-transaction prefix (cycles 0\.\." "$CACHE_DIR/traced.err" \
    || { echo "traced cell did not fast-forward:"; cat "$CACHE_DIR/traced.err"; exit 1; }
TRACE_JSONL="$CACHE_DIR/trace_ssca2_baseline_s1.jsonl"
[ -s "$TRACE_JSONL" ] || { echo "traced cell produced no JSONL stream"; exit 1; }
cargo run --offline --release -q -p puno-harness --bin trace_export -- \
    "$TRACE_JSONL" --validate --channels htm,coh,noc
cargo run --offline --release -q -p puno-harness --bin trace_export -- \
    "$TRACE_JSONL" --out "$CACHE_DIR/trace.chrome.json"
[ -s "$CACHE_DIR/trace.chrome.json" ] || { echo "Chrome export is empty"; exit 1; }
grep -q "abort blame" "$CACHE_DIR/traced.txt" \
    || { echo "traced cell printed no telemetry summary"; exit 1; }
echo "traced smoke OK"

echo "== observability smoke (mid-flight scrape, heartbeat, warehouse, byte-diff) =="
# A metrics-enabled sweep must serve valid Prometheus exposition text while
# it runs, stream progress heartbeats to stderr, record one warehouse row
# per cell — and leave the deterministic stdout byte-identical to the plain
# sweep captured above (ref.det.txt). The scrape uses bash's /dev/tcp so
# the gate needs no extra tooling.
OBS_DIR="$RES_DIR/obs"
mkdir -p "$OBS_DIR"
METRICS_PORT=$((20000 + RANDOM % 20000))
PUNO_METRICS_ADDR="127.0.0.1:$METRICS_PORT" PUNO_PROGRESS=0.2 \
    PUNO_WAREHOUSE="$OBS_DIR/wh" PUNO_RUN_ID=ci-a PUNO_SWEEP_THREADS=1 \
    "$SWEEP_BIN" 0.05 1 > "$OBS_DIR/obs_on.txt" 2> "$OBS_DIR/obs_on.err" &
OBS_PID=$!
GOT_EXPO=0
GOT_SERIES=0
while kill -0 "$OBS_PID" 2>/dev/null; do
    BODY="$( (exec 3<>"/dev/tcp/127.0.0.1/$METRICS_PORT" \
        && printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3 && cat <&3) 2>/dev/null || true)"
    if printf '%s' "$BODY" | grep -q '# TYPE puno_sweep_cells_started_total counter'; then
        GOT_EXPO=1
    fi
    if printf '%s' "$BODY" | grep -Eq '^puno_sim_cycles_total\{[^}]*\} [1-9]'; then
        GOT_SERIES=1
    fi
    if [ "$GOT_EXPO" = 1 ] && [ "$GOT_SERIES" = 1 ]; then break; fi
    sleep 0.05
done
wait "$OBS_PID" || { echo "metrics-enabled sweep failed"; cat "$OBS_DIR/obs_on.err"; exit 1; }
[ "$GOT_EXPO" = 1 ] \
    || { echo "never scraped valid exposition text from the live sweep"; exit 1; }
[ "$GOT_SERIES" = 1 ] \
    || { echo "never saw a nonzero puno_sim_cycles_total series mid-flight"; exit 1; }
grep -q '^progress: ' "$OBS_DIR/obs_on.err" \
    || { echo "no progress heartbeat on stderr:"; cat "$OBS_DIR/obs_on.err"; exit 1; }
sed '/^simulator throughput/,$d' "$OBS_DIR/obs_on.txt" > "$OBS_DIR/obs_on.det.txt"
diff "$RES_DIR/ref.det.txt" "$OBS_DIR/obs_on.det.txt" \
    || { echo "observability changed the deterministic sweep output"; exit 1; }
# Record a second (filtered) run under another run id, then reproduce the
# cross-run aggregates from the persisted warehouse alone.
PUNO_WAREHOUSE="$OBS_DIR/wh" PUNO_RUN_ID=ci-b PUNO_SWEEP_THREADS=1 \
    "$SWEEP_BIN" 0.05 1 --filter ssca2 > /dev/null 2>/dev/null
cargo build --offline --release -q -p puno-harness --bin warehouse
WAREHOUSE_BIN="target/release/warehouse"
"$WAREHOUSE_BIN" --dir "$OBS_DIR/wh" stats > "$OBS_DIR/wh_stats.txt"
grep -q "across 2 run(s)" "$OBS_DIR/wh_stats.txt" \
    || { echo "warehouse did not record both runs:"; cat "$OBS_DIR/wh_stats.txt"; exit 1; }
"$WAREHOUSE_BIN" --dir "$OBS_DIR/wh" trend > "$OBS_DIR/wh_trend.txt"
grep -q "ci-a" "$OBS_DIR/wh_trend.txt" && grep -q "ci-b" "$OBS_DIR/wh_trend.txt" \
    || { echo "throughput trend is missing a recorded run:"; cat "$OBS_DIR/wh_trend.txt"; exit 1; }
"$WAREHOUSE_BIN" --dir "$OBS_DIR/wh" delta > "$OBS_DIR/wh_delta.txt"
grep -q "ci-b.*ssca2" "$OBS_DIR/wh_delta.txt" \
    || { echo "abort-rate delta missing for the second run:"; cat "$OBS_DIR/wh_delta.txt"; exit 1; }
echo "observability smoke OK (live scrape valid, heartbeat streamed, 2-run warehouse aggregates, stdout byte-identical)"

echo "== substrate bench key set (root BENCH_substrate.json vs baseline) =="
# The root file is the published trajectory point; it must cover exactly
# the baseline's benchmarks. Regenerate it with scripts/bench.sh.
bench_keys() { grep -o '^  "[^"]*"' "$1" | sort; }
diff <(bench_keys BENCH_substrate.json) <(bench_keys results/BENCH_substrate_baseline.json) \
    || { echo "BENCH_substrate.json key set drifted from the baseline"; exit 1; }

echo "== substrate bench smoke (vs checked-in baseline) =="
# Fails if any benchmark runs >25% slower than results/BENCH_substrate_baseline.json,
# or on missing-key drift in either direction (a benchmark added without a
# baseline refresh, or one that silently vanished from the run).
# On a noisy/shared machine, set PUNO_BENCH_ALLOW_REGRESSION=1 to demote the
# failure to a warning; refresh the baseline with:
#   BENCH_SUBSTRATE_ITERS=smoke scripts/bench.sh results/BENCH_substrate_baseline.json
BENCH_SUBSTRATE_ITERS=smoke \
BENCH_SUBSTRATE_BASELINE="$PWD/results/BENCH_substrate_baseline.json" \
    cargo bench --offline -q -p puno-bench --bench substrate

echo "CI OK"
