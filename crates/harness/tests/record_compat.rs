//! Records written by engine version 4, whose host block still carried the
//! NoC express counters, verify but are stale.
//!
//! The fixtures are a result-cache record and a warehouse row written by
//! that engine for one cell (ssca2, baseline, 4x4, scale 0.05, seed 1).
//! The retired express columns (the host counters `express_packets` and
//! `express_hops`, the warehouse's `express_packets`) still parse and
//! verify. Version 5 fixed the directory's holder set for meshes past 64
//! nodes, so records of version 4 are classified stale: not corrupt, never
//! served, and dropped by compaction. The 4x4 cell itself did not move,
//! so the old record's metrics still equal a fresh run's.

use puno_harness::cache::{cell_digest, ResultCache, ENGINE_VERSION};
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

/// The fixture's one line, parsed.
fn fixture_line(file: &str) -> serde_json::Value {
    let text = std::fs::read_to_string(fixture_dir().join(file)).unwrap();
    serde_json::from_str(text.trim_end()).unwrap()
}

fn assert_stale(dir: &Path) {
    let cache = ResultCache::open(dir).unwrap();
    let stats = cache.stats();
    assert_eq!(
        (stats.entries, stats.skips.corrupt, stats.skips.stale),
        (0, 0, 1),
        "the earlier engine's record verifies and is stale"
    );
    let digest = fixture_line("results.jsonl")
        .get("digest")
        .unwrap()
        .as_u64();
    assert!(cache.lookup(digest.unwrap()).is_none(), "never served");
}

#[test]
fn cache_record_with_express_counters_is_stale() {
    let (config, params) = cell();
    let fresh = run_with_config(config, &params, SEED);
    let line = fixture_line("results.jsonl");
    assert_eq!(line.get("engine_version").unwrap().as_u64(), Some(4));
    assert_ne!(ENGINE_VERSION, 4);
    let old: RunMetrics = serde_json::from_value(line.get("metrics").unwrap()).unwrap();
    assert_eq!(simulated(&old), simulated(&fresh));
    assert!(old.host.events_dispatched > 0, "host block parsed");

    let dir = scratch_with("cache", "results.jsonl");
    assert_stale(&dir);
    let compacted = ResultCache::open(&dir).unwrap().compact().unwrap();
    assert_eq!(
        (compacted.kept, compacted.corrupt, compacted.stale),
        (0, 0, 1),
        "{compacted:?}"
    );
    let text = std::fs::read_to_string(dir.join("results.jsonl")).unwrap();
    assert!(text.is_empty(), "compaction drops the stale record: {text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warehouse_row_with_express_column_is_stale() {
    let (config, params) = cell();
    let fresh = run_with_config(config, &params, SEED);
    let dir = scratch_with("warehouse", "warehouse.jsonl");
    let (rows, stats) = Warehouse::open(&dir).unwrap().load();
    // The warehouse decodes a row before it tells stale from valid, so a
    // stale count means the row verified and parsed.
    assert_eq!(
        (rows.len(), stats.kept, stats.corrupt, stats.stale),
        (0, 0, 0, 1),
        "the earlier engine's row verifies and is stale"
    );
    let row = fixture_line("warehouse.jsonl");
    let field = |key: &str| row.get(key).and_then(serde_json::Value::as_u64);
    // The digest folds in the engine version: the old key names no cell
    // of this build.
    assert_ne!(field("digest"), Some(cell_digest(&config, &params, SEED)));
    assert_eq!(
        (field("cycles"), field("committed"), field("aborts")),
        (
            Some(fresh.cycles),
            Some(fresh.committed),
            Some(fresh.htm.aborts.get())
        )
    );
    let _ = std::fs::remove_dir_all(&dir);
}
