//! Records written by an engine whose host block still carried the NoC
//! express counters load and replay.
//!
//! `ENGINE_VERSION` stayed 4 when the express path was removed: no
//! simulated metric moved, only the host counters `express_packets` and
//! `express_hops` and the warehouse's `express_packets` column went away.
//! The fixtures are a result-cache record and a warehouse row written by
//! that earlier engine for one cell (ssca2, baseline, 4x4, scale 0.05,
//! seed 1). Both must verify their checksums, load, and reproduce a fresh
//! run's simulated metrics.

use puno_harness::cache::{cell_digest, ResultCache};
use puno_harness::run::run_with_config;
use puno_harness::{Mechanism, RunMetrics, SystemConfig, Warehouse};
use puno_workloads::WorkloadId;
use std::path::{Path, PathBuf};

const SEED: u64 = 1;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/engine4_express")
}

/// A scratch directory holding a copy of one fixture file.
fn scratch_with(tag: &str, file: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("puno-compat-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(fixture_dir().join(file), dir.join(file)).unwrap();
    dir
}

fn cell() -> (SystemConfig, puno_workloads::WorkloadParams) {
    (
        SystemConfig::paper(Mechanism::Baseline),
        WorkloadId::Ssca2.params().scaled(0.05),
    )
}

fn simulated(metrics: &RunMetrics) -> String {
    serde_json::to_string(&metrics.deterministic()).unwrap()
}

fn assert_serves_cell(dir: &Path, fresh: &RunMetrics) {
    let cache = ResultCache::open(dir).unwrap();
    let stats = cache.stats();
    assert_eq!(
        (stats.entries, stats.corrupt_skipped, stats.stale_skipped),
        (1, 0, 0),
        "the earlier engine's record must verify and load"
    );
    let (config, params) = cell();
    let cached = cache
        .lookup(cell_digest(&config, &params, SEED))
        .expect("the record serves its cell");
    assert_eq!(simulated(&cached), simulated(fresh));
    assert!(cached.host.events_dispatched > 0, "host block kept");
}

#[test]
fn cache_record_with_express_counters_replays() {
    let (config, params) = cell();
    let fresh = run_with_config(config, &params, SEED);
    let dir = scratch_with("cache", "results.jsonl");
    assert_serves_cell(&dir, &fresh);
    // Compaction rewrites the record in this build's shape; the rewritten
    // record verifies and serves the cell too.
    let compacted = ResultCache::open(&dir).unwrap().compact().unwrap();
    assert_eq!(
        (compacted.kept, compacted.dropped_corrupt),
        (1, 0),
        "{compacted:?}"
    );
    let text = std::fs::read_to_string(dir.join("results.jsonl")).unwrap();
    assert!(!text.contains("express"));
    assert!(
        !text.contains("prefix_digest"),
        "compaction drops the retired column"
    );
    assert_serves_cell(&dir, &fresh);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warehouse_row_with_express_column_loads() {
    let (config, params) = cell();
    let fresh = run_with_config(config, &params, SEED);
    let dir = scratch_with("warehouse", "warehouse.jsonl");
    let (rows, stats) = Warehouse::open(&dir).unwrap().load();
    assert_eq!(
        (stats.kept, stats.corrupt_skipped, stats.stale_skipped),
        (1, 0, 0),
        "the earlier engine's row must verify and load"
    );
    let row = &rows[0];
    assert_eq!(row.digest, cell_digest(&config, &params, SEED));
    assert_eq!(
        (row.cycles, row.committed, row.aborts),
        (fresh.cycles, fresh.committed, fresh.htm.aborts.get())
    );
    let _ = std::fs::remove_dir_all(&dir);
}
