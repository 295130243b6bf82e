//! Bit-identity guard for the sweep-scale execution engine.
//!
//! `try_sweep` runs cells through two paths a plain
//! `System::new(..).try_run_recycled()` never touches: workload traces
//! shared across mechanism cells (`ProgramSet` fed to
//! `System::new_shared`), and persistent result-cache replay. Each path
//! must be invisible in the metrics. This test runs the same 16 cells as
//! `golden_metrics.rs` (8 workloads x {baseline, puno}, seed 42, scale
//! 0.05) through a cold sweep and then a warm sweep against the same cache
//! directory, and compares every cell byte-for-byte against the committed
//! golden snapshots — which are produced by fresh single-cell runs. Any
//! divergence between fresh construction, shared programs, or cached
//! replay fails here.

use puno_harness::sweep::{try_sweep, CellOutcome, SweepOptions};
use puno_harness::{Mechanism, ResultCache};
use puno_workloads::WorkloadId;
use std::path::PathBuf;
use std::sync::Arc;

const GOLDEN_SEED: u64 = 42;
const GOLDEN_SCALE: f64 = 0.05;
const MECHANISMS: [Mechanism; 2] = [Mechanism::Baseline, Mechanism::Puno];

fn golden_json(workload: WorkloadId, mechanism: Mechanism) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}_{}.json", workload.name(), mechanism.name()));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {path:?} ({e})"))
        .trim_end()
        .to_string()
}

fn assert_outcomes_match_golden(outcomes: &[CellOutcome], label: &str) {
    assert_eq!(outcomes.len(), WorkloadId::ALL.len() * MECHANISMS.len());
    let mut idx = 0;
    for &workload in &WorkloadId::ALL {
        for &mechanism in &MECHANISMS {
            let outcome = &outcomes[idx];
            idx += 1;
            let metrics = outcome
                .metrics()
                .unwrap_or_else(|| panic!("{label}: {workload:?}/{mechanism:?} failed"));
            let got =
                serde_json::to_string(&metrics.deterministic()).expect("RunMetrics must serialize");
            assert_eq!(
                got,
                golden_json(workload, mechanism),
                "{label}: {workload:?}/{mechanism:?} diverged from the golden snapshot \
                 (the sweep fast path is not bit-identical to a fresh run)",
            );
        }
    }
}

/// All 16 golden cells through the shared-program sweep path (cold), then
/// again through cached replay (warm) — both bit-identical to the fresh
/// single-cell runs pinned by the golden snapshots.
#[test]
fn sweep_engine_paths_are_bit_identical_to_fresh_runs() {
    let dir = std::env::temp_dir().join(format!("puno-sweep-engine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut opts = SweepOptions::new(GOLDEN_SEED, GOLDEN_SCALE);
    opts.result_cache = Some(Arc::new(ResultCache::open(&dir).expect("cache dir")));

    // Cold pass: every cell simulates (shared programs) and is stored.
    let cold = try_sweep(&WorkloadId::ALL, &MECHANISMS, &opts);
    assert_outcomes_match_golden(&cold, "cold sweep");
    let stats = opts.result_cache.as_ref().unwrap().stats();
    assert_eq!(stats.hits, 0, "cold sweep must not hit");
    assert_eq!(stats.stores, 16, "cold sweep must store every cell");

    // Warm pass against a fresh handle over the same directory: every cell
    // must replay from disk without simulating, still bit-identical.
    let mut warm_opts = SweepOptions::new(GOLDEN_SEED, GOLDEN_SCALE);
    warm_opts.result_cache = Some(Arc::new(ResultCache::open(&dir).expect("cache dir")));
    let warm = try_sweep(&WorkloadId::ALL, &MECHANISMS, &warm_opts);
    assert_outcomes_match_golden(&warm, "warm sweep");
    let stats = warm_opts.result_cache.as_ref().unwrap().stats();
    assert_eq!(stats.hits, 16, "warm sweep must hit every cell");
    assert_eq!(stats.stores, 0, "warm sweep must not re-store");

    // The replayed metrics carry the cold run's host block verbatim (minus
    // the worker stamp applied per sweep): the full records, not just the
    // deterministic views, round-trip.
    for (c, w) in cold.iter().zip(&warm) {
        let c = c.metrics().unwrap();
        let w = w.metrics().unwrap();
        assert_eq!(
            serde_json::to_string(c).unwrap(),
            serde_json::to_string(w).unwrap(),
            "cached replay must be byte-identical including host counters",
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A fully warm sweep simulates nothing, so it has no wall-clocks to teach
/// the cost model: `costs.jsonl` must come out byte-identical.
#[test]
fn warm_sweep_leaves_the_cost_model_untouched() {
    let dir = std::env::temp_dir().join(format!("puno-sweep-costs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let workloads = [WorkloadId::Ssca2];
    let sweep_with_fresh_handle = || {
        let mut opts = SweepOptions::new(GOLDEN_SEED, GOLDEN_SCALE);
        let cache = Arc::new(ResultCache::open(&dir).expect("cache dir"));
        opts.result_cache = Some(cache.clone());
        try_sweep(&workloads, &MECHANISMS, &opts);
        cache.stats()
    };
    let costs = dir.join("costs.jsonl");

    assert_eq!(sweep_with_fresh_handle().stores, 2);
    let cold = std::fs::read(&costs).expect("the cold sweep records its costs");
    assert_eq!(cold.iter().filter(|&&b| b == b'\n').count(), 2);

    assert_eq!(sweep_with_fresh_handle().hits, 2);
    assert_eq!(
        std::fs::read(&costs).unwrap(),
        cold,
        "cache hits fed costs.jsonl"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
