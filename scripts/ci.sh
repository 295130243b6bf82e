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
code_knobs() { grep -rhoE 'PUNO_[A-Z0-9_]+' crates/*/src crates/*/benches crates/*/tests | sort -u; }
readme_knobs() { grep -oE '^\| `PUNO_[A-Z0-9_]+' README.md | grep -oE 'PUNO_[A-Z0-9_]+' | sort -u; }
diff <(code_knobs) <(readme_knobs) \
    || { echo "PUNO_* knobs in crates/ and README's table differ"; exit 1; }

echo "== metric catalog readers (DESIGN.md §9: every row's readers name it) =="
# Every row of the metric catalog lists the files that read its number; each
# must exist and mention the name's last segment as a word (any case). The
# catalog test (crates/harness/tests/metric_catalog.rs) keeps the rows equal
# to what the program emits; rows marked "unread" are the ones it pins.
catalog_rows() { sed -n '/^### Metric catalog/,/^#/p' DESIGN.md | grep '^| `'; }
CATALOG_BAD=0
while IFS= read -r row; do
    name="$(printf '%s\n' "$row" | cut -d'|' -f2 | tr -d ' `')"
    readers="$(printf '%s\n' "$row" | awk -F'|' '{print $(NF-1)}')"
    [ "$(printf '%s' "$readers" | tr -d ' ')" = "unread" ] && continue
    files="$(printf '%s\n' "$readers" | grep -oE '`[^`]+`' | tr -d '`' || true)"
    [ -n "$files" ] || { echo "no reader: $row"; CATALOG_BAD=1; }
    for file in $files; do
        [ -f "$file" ] && grep -qiw -- "${name##*.}" "$file" \
            || { echo "$file does not read ${name##*.}: $row"; CATALOG_BAD=1; }
    done
done < <(catalog_rows)
[ "$CATALOG_BAD" -eq 0 ] || { echo "metric catalog rows name readers that do not read them"; exit 1; }
# The names themselves: the rows must equal what the program emits.
cargo test --offline -q -p puno-harness --test metric_catalog
echo "metric catalog OK ($(catalog_rows | wc -l) names, $(catalog_rows | grep -c '| unread |') unread)"

echo "== cargo test =="
cargo test --offline --workspace -q

echo "== golden cells in release (release-parity check) =="
# The debug run above already checks every golden cell, the 16x16 mesh
# included. This run checks that a release build, with its different
# inlining and without debug assertions, reproduces them bit for bit.
cargo test --release --offline -q -p puno-harness --test golden_metrics

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

echo "== CLI-argument smoke (a bad number or knob value exits 2) =="
# A scale or seed that does not parse, and a scale that is not positive,
# must be refused before anything is simulated: exit status 2, a usage
# line on stderr, nothing on stdout (each binary prints its report header
# only once it starts simulating).
cargo build --offline --release -q -p puno-harness --bin sweep_all --bin diag --bin fault_smoke
ARG_ERR="$(mktemp)"
for cmd in "sweep_all 0 1" "sweep_all x" "diag hotspot half" "fault_smoke nan"; do
    status=0
    out="$(timeout 60 target/release/$cmd 2> "$ARG_ERR")" || status=$?
    [ "$status" -eq 2 ] && [ -z "$out" ] && grep -q "^usage: " "$ARG_ERR" \
        || { echo "'$cmd' exited $status (want 2, a usage line, no output):"; cat "$ARG_ERR"; exit 1; }
done
# A PUNO_* knob whose value does not parse is refused the same way, before
# anything prints: exit status 2, the variable named on stderr, nothing on
# stdout.
for cmd in "PUNO_SWEEP_THREADS=two sweep_all 0.05 1" "PUNO_TRACE=bogus diag hotspot 0.05"; do
    var="${cmd%%=*}"
    status=0
    out="$(timeout 60 env ${cmd%% *} target/release/${cmd#* } 2> "$ARG_ERR")" || status=$?
    [ "$status" -eq 2 ] && [ -z "$out" ] && grep -q "$var" "$ARG_ERR" \
        || { echo "'$cmd' exited $status (want 2, $var named, no output):"; cat "$ARG_ERR"; exit 1; }
done
rm -f "$ARG_ERR"
echo "CLI-argument smoke OK (4 bad arguments and 2 bad knobs refused)"

echo "== result-cache smoke (4-cell sweep twice; warm pass must replay byte-for-byte) =="
# Cold pass simulates and stores every cell; the warm pass must serve all
# four cells from the cache and produce byte-identical stdout (cached
# replay carries the cold run's metrics verbatim, host counters included).
CACHE_DIR="$(mktemp -d)"
RES_DIR="$(mktemp -d)"
trap 'rm -rf "$CACHE_DIR" "$RES_DIR"' EXIT
PUNO_RESULT_CACHE="$CACHE_DIR" PUNO_SWEEP_THREADS="${PUNO_SWEEP_THREADS:-4}" \
    cargo run --offline --release -q -p puno-harness --bin sweep_all -- 0.05 1 --filter ssca2 \
    > "$CACHE_DIR/cold.txt" 2> "$CACHE_DIR/cold.err"
PUNO_RESULT_CACHE="$CACHE_DIR" PUNO_SWEEP_THREADS="${PUNO_SWEEP_THREADS:-4}" \
    cargo run --offline --release -q -p puno-harness --bin sweep_all -- 0.05 1 --filter ssca2 \
    > "$CACHE_DIR/warm.txt" 2> "$CACHE_DIR/warm.err"
diff "$CACHE_DIR/cold.txt" "$CACHE_DIR/warm.txt" \
    || { echo "warm sweep output differs from cold sweep"; exit 1; }
grep -q "result cache: 4 hits, 0 misses" "$CACHE_DIR/warm.err" \
    || { echo "warm pass did not hit the cache:"; cat "$CACHE_DIR/warm.err"; exit 1; }
# One more cold cell in the same cache makes results.jsonl five records.
# Open checks checksums four records at a time, so its last group is only
# partly filled; the warm ssca2 pass must still replay byte-for-byte,
# worker count included, with nothing skipped at open.
PUNO_RESULT_CACHE="$CACHE_DIR" PUNO_SWEEP_THREADS="${PUNO_SWEEP_THREADS:-4}" \
    cargo run --offline --release -q -p puno-harness --bin sweep_all -- 0.05 1 \
    --filter genome:baseline > /dev/null 2> "$CACHE_DIR/genome.err"
[ "$(grep -c . "$CACHE_DIR/results.jsonl")" -eq 5 ] \
    || { echo "the genome cell did not make a fifth record"; exit 1; }
PUNO_RESULT_CACHE="$CACHE_DIR" PUNO_SWEEP_THREADS="${PUNO_SWEEP_THREADS:-4}" \
    cargo run --offline --release -q -p puno-harness --bin sweep_all -- 0.05 1 --filter ssca2 \
    > "$CACHE_DIR/warm5.txt" 2> "$CACHE_DIR/warm5.err"
diff "$CACHE_DIR/cold.txt" "$CACHE_DIR/warm5.txt" \
    || { echo "warm sweep over five records differs from cold sweep"; exit 1; }
grep -q "result cache: 4 hits, 0 misses" "$CACHE_DIR/warm5.err" \
    || { echo "warm pass over five records missed:"; cat "$CACHE_DIR/warm5.err"; exit 1; }
! grep -q "result cache recovered" "$CACHE_DIR/warm5.err" \
    || { echo "open skipped a healthy record:"; cat "$CACHE_DIR/warm5.err"; exit 1; }
echo "cache smoke OK (4/4 warm hits over 4 and 5 records, byte-identical output)"

echo "== full-grid warm-replay smoke (8x4 grid cold, then replayed from the cache) =="
# The smoke above decodes four ssca2 records. This one sends every
# workload x mechanism's RunMetrics through the JSON reader: the warm pass
# must serve all 32 cells from the cache, skip nothing at open, and print
# the cold pass's report byte for byte above the host-perf section.
GRID_DIR="$RES_DIR/grid"
mkdir -p "$GRID_DIR"
for pass in cold warm; do
    PUNO_RESULT_CACHE="$GRID_DIR" PUNO_SWEEP_THREADS="${PUNO_SWEEP_THREADS:-4}" \
        cargo run --offline --release -q -p puno-harness --bin sweep_all -- 0.05 1 \
        > "$GRID_DIR/$pass.txt" 2> "$GRID_DIR/$pass.err"
    sed '/^simulator throughput/,$d' "$GRID_DIR/$pass.txt" > "$GRID_DIR/$pass.det.txt"
done
grep -q "Table I check" "$GRID_DIR/cold.det.txt" || { echo "cold grid printed no report"; exit 1; }
diff "$GRID_DIR/cold.det.txt" "$GRID_DIR/warm.det.txt" \
    || { echo "warm grid replay differs from the cold sweep"; exit 1; }
grep -q "result cache: 32 hits, 0 misses" "$GRID_DIR/warm.err" \
    || { echo "warm grid replay missed the cache:"; cat "$GRID_DIR/warm.err"; exit 1; }
! grep -q "result cache recovered" "$GRID_DIR/warm.err" \
    || { echo "open skipped a healthy grid record:"; cat "$GRID_DIR/warm.err"; exit 1; }
echo "grid replay smoke OK (32/32 warm hits, report byte-identical above host perf)"

echo "== figures smoke (every paper artifact at 0.05 scale, cold then warm) =="
# The figures binary writes every table and figure from one swept grid.
# The cold pass into a fresh result cache must write all 13 .txt files and
# the 12 .json files (Table II is text only), none empty, and store each of
# its 80 distinct cells once: the 32 grid cells plus 12 ablation and
# sensitivity configurations on the 4 high-contention workloads, the 48
# cells beyond the grid swept in one batch. The warm pass over the same
# cache must store nothing new and rewrite every file byte for byte.
FIG_DIR="$RES_DIR/figures"
mkdir -p "$FIG_DIR"
for pass in cold warm; do
    PUNO_RESULT_CACHE="$FIG_DIR/cache" PUNO_SWEEP_THREADS="${PUNO_SWEEP_THREADS:-4}" \
        cargo run --offline --release -q -p puno-bench --bin figures -- 0.05 1 \
        --out "$FIG_DIR/$pass" 2> "$FIG_DIR/$pass.err"
    [ "$(grep -c . "$FIG_DIR/cache/results.jsonl")" -eq 80 ] \
        || { echo "the $pass figures pass did not leave 80 cached cells"; exit 1; }
done
grep -q "(48 cells beyond the grid)" "$FIG_DIR/cold.err" \
    || { echo "the cold figures pass did not run 48 cells beyond the grid:"; cat "$FIG_DIR/cold.err"; exit 1; }
# Only the grid records warehouse rows: the cells beyond it would be
# labelled with a mechanism name they do not match.
PUNO_WAREHOUSE="$FIG_DIR/wh" PUNO_RESULT_CACHE=off \
    cargo run --offline --release -q -p puno-bench --bin figures -- 0.05 1 \
    --out "$FIG_DIR/wh_out" 2> "$FIG_DIR/wh.err"
[ "$(grep -c . "$FIG_DIR/wh/warehouse.jsonl")" -eq 32 ] \
    || { echo "figures did not record exactly the 32 grid rows in the warehouse"; exit 1; }
[ "$(find "$FIG_DIR/cold" -name '*.txt' -size +0 | wc -l)" -eq 13 ] \
    && [ "$(find "$FIG_DIR/cold" -name '*.json' -size +0 | wc -l)" -eq 12 ] \
    && [ "$(find "$FIG_DIR/cold" -type f | wc -l)" -eq 25 ] \
    || { echo "figures did not write 13 .txt and 12 .json artifacts:"; ls -l "$FIG_DIR/cold"; exit 1; }
diff -r "$FIG_DIR/cold" "$FIG_DIR/warm" \
    || { echo "warm figures artifacts differ from the cold pass"; exit 1; }
echo "figures smoke OK (25 artifacts, 48 cells beyond the grid, warm pass byte-identical, 32 warehouse rows)"

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
# `--compact-cache` must rewrite the file without the corrupt line and
# keep the five other records: the four ssca2 cells and the genome cell
# added above.
PUNO_RESULT_CACHE="$CACHE_DIR" \
    cargo run --offline --release -q -p puno-harness --bin sweep_all -- --compact-cache \
    > "$CACHE_DIR/compact.txt" 2> "$CACHE_DIR/compact.err"
grep -q "result cache compacted: 5 record(s) kept; dropped 1 corrupt, 0 stale" "$CACHE_DIR/compact.txt" \
    || { echo "compaction did not drop the corrupt record:"; cat "$CACHE_DIR/compact.txt" "$CACHE_DIR/compact.err"; exit 1; }
# A plain pass over the compacted file serves every cell warm, with
# nothing left to skip at open, and prints the cold run's report.
PUNO_RESULT_CACHE="$CACHE_DIR" PUNO_SWEEP_THREADS="${PUNO_SWEEP_THREADS:-4}" \
    cargo run --offline --release -q -p puno-harness --bin sweep_all -- 0.05 1 --filter ssca2 \
    > "$CACHE_DIR/clean.txt" 2> "$CACHE_DIR/clean.err"
sed '/^simulator throughput/,$d' "$CACHE_DIR/clean.txt" > "$CACHE_DIR/clean.det.txt"
diff "$CACHE_DIR/cold.det.txt" "$CACHE_DIR/clean.det.txt" \
    || { echo "sweep output changed after compaction"; exit 1; }
grep -q "result cache: 4 hits, 0 misses" "$CACHE_DIR/clean.err" \
    || { echo "post-compaction cache missed a warm cell:"; cat "$CACHE_DIR/clean.err"; exit 1; }
! grep -q "result cache recovered" "$CACHE_DIR/clean.err" \
    || { echo "compacted file still held skippable records"; exit 1; }
echo "corruption smoke OK (1 record skipped, re-simulated, compacted away)"

echo "== resilience smoke (mid-flight kill + resume from the result cache) =="
# Kill a cold sweep partway (a cold 0.05 sweep takes about 0.3 s on a
# 2-core host, so a kill at 0.1 s lands mid-flight; on any host the check
# only varies in how many cells the re-run replays), then re-run it over
# the same result cache: the
# re-run replays the cells the killed run stored (a torn final append, if
# the kill landed mid-write, costs only its cell), simulates the rest, and
# must produce the same deterministic aggregate output as an uninterrupted
# sweep, leaving all 32 cells in the cache. The host-perf section is
# stripped from the diff — wall-clock readings are the one part of the
# report that is honestly not reproducible.
cargo build --offline --release -q -p puno-harness --bin sweep_all
SWEEP_BIN="target/release/sweep_all"
PUNO_SWEEP_THREADS=4 "$SWEEP_BIN" 0.05 1 \
    > "$RES_DIR/ref.txt" 2> /dev/null
RESUME_DIR="$RES_DIR/resume"
timeout -s KILL 0.1 env PUNO_RESULT_CACHE="$RESUME_DIR" PUNO_SWEEP_THREADS=4 \
    "$SWEEP_BIN" 0.05 1 > /dev/null 2>&1 || true
PUNO_RESULT_CACHE="$RESUME_DIR" PUNO_SWEEP_THREADS=4 "$SWEEP_BIN" 0.05 1 \
    > "$RES_DIR/resumed.txt" 2> "$RES_DIR/resumed.err"
sed '/^simulator throughput/,$d' "$RES_DIR/ref.txt" > "$RES_DIR/ref.det.txt"
sed '/^simulator throughput/,$d' "$RES_DIR/resumed.txt" > "$RES_DIR/resumed.det.txt"
grep -q "Table I check" "$RES_DIR/ref.det.txt" || { echo "reference sweep printed no report"; exit 1; }
diff "$RES_DIR/ref.det.txt" "$RES_DIR/resumed.det.txt" \
    || { echo "the resumed sweep diverged from the uninterrupted run"; exit 1; }
grep -q "(32 entries)" "$RES_DIR/resumed.err" \
    || { echo "the resumed sweep did not leave 32 cells cached:"; cat "$RES_DIR/resumed.err"; exit 1; }
echo "kill-and-resume smoke OK (resume matches uninterrupted aggregate output;" \
    "$(grep -o '[0-9]* hits' "$RES_DIR/resumed.err") replayed from the killed run)"

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

echo "== warehouse smoke (two recorded runs, cross-run queries, byte-diff) =="
# A sweep with the warehouse sink on must record one row per cell and leave
# the deterministic stdout byte-identical to the plain sweep captured above
# (ref.det.txt).
WH_DIR="$RES_DIR/wh"
mkdir -p "$WH_DIR"
PUNO_WAREHOUSE="$WH_DIR/wh" PUNO_RUN_ID=ci-a PUNO_SWEEP_THREADS=1 \
    "$SWEEP_BIN" 0.05 1 > "$WH_DIR/wh_on.txt" 2> "$WH_DIR/wh_on.err" \
    || { echo "warehouse-enabled sweep failed"; cat "$WH_DIR/wh_on.err"; exit 1; }
sed '/^simulator throughput/,$d' "$WH_DIR/wh_on.txt" > "$WH_DIR/wh_on.det.txt"
diff "$RES_DIR/ref.det.txt" "$WH_DIR/wh_on.det.txt" \
    || { echo "the warehouse sink changed the deterministic sweep output"; exit 1; }
# Record a second (filtered) run under another run id, then reproduce the
# cross-run aggregates from the persisted warehouse alone.
PUNO_WAREHOUSE="$WH_DIR/wh" PUNO_RUN_ID=ci-b PUNO_SWEEP_THREADS=1 \
    "$SWEEP_BIN" 0.05 1 --filter ssca2 > /dev/null 2>/dev/null
cargo build --offline --release -q -p puno-harness --bin warehouse
WAREHOUSE_BIN="target/release/warehouse"
"$WAREHOUSE_BIN" --dir "$WH_DIR/wh" stats > "$WH_DIR/wh_stats.txt"
grep -q "across 2 run(s)" "$WH_DIR/wh_stats.txt" \
    || { echo "warehouse did not record both runs:"; cat "$WH_DIR/wh_stats.txt"; exit 1; }
"$WAREHOUSE_BIN" --dir "$WH_DIR/wh" trend > "$WH_DIR/wh_trend.txt"
grep -q "ci-a" "$WH_DIR/wh_trend.txt" && grep -q "ci-b" "$WH_DIR/wh_trend.txt" \
    || { echo "throughput trend is missing a recorded run:"; cat "$WH_DIR/wh_trend.txt"; exit 1; }
"$WAREHOUSE_BIN" --dir "$WH_DIR/wh" delta > "$WH_DIR/wh_delta.txt"
grep -q "ci-b.*ssca2" "$WH_DIR/wh_delta.txt" \
    || { echo "abort-rate delta missing for the second run:"; cat "$WH_DIR/wh_delta.txt"; exit 1; }
echo "warehouse smoke OK (2-run warehouse aggregates, stdout byte-identical)"

echo "== warehouse corruption smoke (a bad byte costs only its row) =="
# Set the high bit of one byte inside the second row of a copy of the
# two-run warehouse. The byte is now invalid UTF-8; `stats` must count
# exactly that row corrupt and keep every other row.
cp -r "$WH_DIR/wh" "$WH_DIR/wh_bad"
WH_FILE="$WH_DIR/wh_bad/warehouse.jsonl"
WH_ROWS="$(sed -n 's/^warehouse .*: \([0-9]*\) row(s) across.*/\1/p' "$WH_DIR/wh_stats.txt")"
BAD_AT=$(( $(head -n 1 "$WH_FILE" | wc -c) + 2 ))
BAD_BYTE="$(od -An -tu1 -j "$BAD_AT" -N1 "$WH_FILE" | tr -d ' ')"
printf "\\$(printf '%03o' $(( BAD_BYTE | 128 )))" \
    | dd of="$WH_FILE" bs=1 seek="$BAD_AT" conv=notrunc status=none
"$WAREHOUSE_BIN" --dir "$WH_DIR/wh_bad" stats > "$WH_DIR/wh_bad_stats.txt" 2> /dev/null
grep -q ": $(( WH_ROWS - 1 )) row(s) across" "$WH_DIR/wh_bad_stats.txt" \
    || { echo "a bad byte cost more than its row ($WH_ROWS before):"; cat "$WH_DIR/wh_bad_stats.txt"; exit 1; }
grep -q "^load recovery: 1 corrupt," "$WH_DIR/wh_bad_stats.txt" \
    || { echo "the damaged row was not counted corrupt:"; cat "$WH_DIR/wh_bad_stats.txt"; exit 1; }
echo "warehouse corruption smoke OK ($WH_ROWS rows -> $(( WH_ROWS - 1 )) kept, 1 corrupt)"

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
