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
//! replay fails here. `sweep_configs`, the same machinery over cells that
//! each bring their own configuration, is checked against fresh
//! `run_with_config` runs of the same cells.

use puno_harness::cache::CacheStats;
use puno_harness::run::run_with_config;
use puno_harness::sweep::{
    sweep_configs, try_sweep, try_sweep_rows, try_sweep_with, CellOutcome, RetryPolicy,
    SweepOptions,
};
use puno_harness::{cell_digest, Mechanism, ResultCache, SystemConfig, ENGINE_VERSION};
use puno_sim::FaultPlan;
use puno_workloads::{fnv1a_64, WorkloadId};
use std::path::{Path, PathBuf};
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

/// Every row's digest — the sweep folds it from each mechanism's
/// configuration and each workload's parameters, formatted once per sweep
/// — equals `cell_digest` and the FNV-1a of the joined string it is
/// defined as, for the whole grid on all three meshes at two seeds. A
/// changed digest would silently orphan every cache already on disk.
#[test]
fn sweep_digests_are_cell_digests() {
    let canned = run_with_config(
        SystemConfig::paper(Mechanism::Baseline),
        &WorkloadId::Ssca2.params().scaled(GOLDEN_SCALE),
        GOLDEN_SEED,
    );
    for (label, config) in [
        (
            "paper",
            SystemConfig::paper as fn(Mechanism) -> SystemConfig,
        ),
        ("mesh8", SystemConfig::mesh8),
        ("mesh16", SystemConfig::mesh16),
    ] {
        for seed in [1, GOLDEN_SEED] {
            let mut opts = SweepOptions::new(seed, GOLDEN_SCALE);
            opts.result_cache = None;
            opts.config = config;
            let (outcomes, rows) =
                try_sweep_with(&WorkloadId::ALL, &Mechanism::ALL, &opts, |_, _, _, _| {
                    Ok(canned.clone())
                });
            assert_eq!(rows.len(), WorkloadId::ALL.len() * Mechanism::ALL.len());
            for (outcome, row) in outcomes.iter().zip(&rows) {
                let key = outcome.key();
                let params = key.workload.params().scaled(GOLDEN_SCALE);
                let joined = format!(
                    "engine-v{ENGINE_VERSION}|{:?}|{params:?}|seed={seed}",
                    config(key.mechanism)
                );
                let expected = cell_digest(&config(key.mechanism), &params, seed);
                assert_eq!(expected, fnv1a_64(joined.as_bytes()), "{label} {key:?}");
                assert_eq!(row.digest, expected, "{label} {key:?}");
            }
        }
    }
}

fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("puno-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const SSCA2_KMEANS: [WorkloadId; 2] = [WorkloadId::Ssca2, WorkloadId::Kmeans];

/// A sweep of `workloads` x {baseline, puno} under `faults` on a fresh
/// handle over `dir`'s cache, through `try_sweep_rows` or (`rows` false)
/// `try_sweep`: the outcomes, each row's cache-hit flag (none without
/// rows), and the handle's counters.
fn cached_sweep(
    dir: &Path,
    workloads: &[WorkloadId],
    faults: FaultPlan,
    rows: bool,
) -> (Vec<CellOutcome>, Vec<bool>, CacheStats) {
    let mut opts = SweepOptions::new(GOLDEN_SEED, GOLDEN_SCALE);
    let cache = Arc::new(ResultCache::open(dir).expect("cache dir"));
    opts.result_cache = Some(cache.clone());
    opts.fault_plan = faults;
    let (outcomes, hit_flags) = if rows {
        let cells: Vec<_> = workloads
            .iter()
            .flat_map(|&w| MECHANISMS.map(|m| (w, m)))
            .collect();
        let (outcomes, rows) = try_sweep_rows(&cells, &opts);
        (outcomes, rows.iter().map(|r| r.cache_hit).collect())
    } else {
        (try_sweep(workloads, &MECHANISMS, &opts), Vec::new())
    };
    (outcomes, hit_flags, cache.stats())
}

fn as_json(outcomes: &[CellOutcome], deterministic: bool) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| {
            let metrics = o.metrics().expect("every cell succeeds");
            if deterministic {
                serde_json::to_string(&metrics.deterministic()).unwrap()
            } else {
                serde_json::to_string(metrics).unwrap()
            }
        })
        .collect()
}

/// `try_sweep`, which builds no warehouse rows, and `try_sweep_rows`
/// return the same outcomes: cold (the simulated part; wall-clocks differ
/// between runs) and warm (byte for byte, host block included).
#[test]
fn both_sweep_entry_points_agree_cold_and_warm() {
    let (a, b) = (cache_dir("entry-a"), cache_dir("entry-b"));
    let (cold, _, stats) = cached_sweep(&a, &SSCA2_KMEANS, FaultPlan::none(), false);
    assert_eq!(stats.hits, 0);
    let (cold_rows, _, stats) = cached_sweep(&b, &SSCA2_KMEANS, FaultPlan::none(), true);
    assert_eq!(stats.hits, 0);
    assert_eq!(
        cold.iter().map(CellOutcome::key).collect::<Vec<_>>(),
        cold_rows.iter().map(CellOutcome::key).collect::<Vec<_>>()
    );
    assert_eq!(as_json(&cold, true), as_json(&cold_rows, true));

    let (warm, _, stats) = cached_sweep(&a, &SSCA2_KMEANS, FaultPlan::none(), false);
    assert_eq!(stats.hits, 4);
    let (warm_rows, _, stats) = cached_sweep(&a, &SSCA2_KMEANS, FaultPlan::none(), true);
    assert_eq!(stats.hits, 4);
    assert_eq!(as_json(&warm, false), as_json(&warm_rows, false));
    assert_eq!(as_json(&warm, false), as_json(&cold, false));
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}

/// A killed sweep resumes from the result cache: the cells a first sweep
/// over ssca2 stored are served to a second sweep over ssca2 and kmeans,
/// which simulates only kmeans. Warehouse rows flag exactly the served
/// cells.
#[test]
fn a_re_run_sweep_resumes_from_the_cache() {
    let dir = cache_dir("resume");
    let (first, hit_flags, stats) =
        cached_sweep(&dir, &[WorkloadId::Ssca2], FaultPlan::none(), true);
    assert_eq!((stats.hits, stats.stores), (0, 2));
    assert_eq!(hit_flags, [false, false], "cold rows flagged as cache hits");

    let (second, hit_flags, stats) = cached_sweep(&dir, &SSCA2_KMEANS, FaultPlan::none(), true);
    assert_eq!(
        (stats.hits, stats.misses, stats.stores),
        (2, 2, 2),
        "only the kmeans cells simulate"
    );
    assert_eq!(hit_flags, [true, true, false, false]);
    assert_eq!(as_json(&second[..2], true), as_json(&first, true));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fault plans change simulated behaviour, so a faulted sweep neither reads
/// nor writes the cache: over a warm fault-free cache it hits nothing,
/// stores nothing and really runs faulted. A fault-free sweep afterwards
/// still replays the golden metrics.
#[test]
fn a_faulted_sweep_bypasses_the_result_cache() {
    let dir = cache_dir("faulted");
    let (_, _, stats) = cached_sweep(&dir, &WorkloadId::ALL, FaultPlan::none(), false);
    assert_eq!(stats.stores, 16);

    let (faulted, _, stats) =
        cached_sweep(&dir, &WorkloadId::ALL, FaultPlan::background(1, 0.5), false);
    assert_eq!(
        (stats.hits, stats.stores),
        (0, 0),
        "a faulted sweep used the cache"
    );
    for outcome in &faulted {
        let metrics = outcome.metrics().expect("faulted cells complete");
        assert!(
            metrics.faults.total() > 0,
            "{:?} ran without faults",
            outcome.key()
        );
    }

    let (warm, _, stats) = cached_sweep(&dir, &WorkloadId::ALL, FaultPlan::none(), false);
    assert_eq!((stats.hits, stats.stores), (16, 0));
    assert_outcomes_match_golden(&warm, "fault-free sweep after a faulted one");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Three distinct cells on explicit configurations: one outside the paper
/// grid (`rollover_factor = 4`) and two grid cells.
fn configured_cells() -> Vec<(SystemConfig, WorkloadId)> {
    let mut rollover4 = SystemConfig::paper(Mechanism::Puno);
    rollover4.puno.rollover_factor = 4;
    vec![
        (rollover4, WorkloadId::Intruder),
        (SystemConfig::paper(Mechanism::Baseline), WorkloadId::Ssca2),
        (SystemConfig::paper(Mechanism::Puno), WorkloadId::Ssca2),
    ]
}

/// `sweep_configs` under `opts` with no result cache, checked cell by cell
/// against a fresh `run_with_config` of the same cell.
fn assert_sweep_configs_match_fresh_runs(cells: &[(SystemConfig, WorkloadId)]) {
    let mut opts = SweepOptions::new(GOLDEN_SEED, GOLDEN_SCALE);
    opts.result_cache = None;
    let swept = sweep_configs(cells, &opts);
    assert_eq!(swept.len(), cells.len());
    for (i, (&(config, workload), metrics)) in cells.iter().zip(&swept).enumerate() {
        let fresh = run_with_config(config, &workload.params().scaled(GOLDEN_SCALE), GOLDEN_SEED);
        assert_eq!(
            serde_json::to_string(&metrics.deterministic()).unwrap(),
            serde_json::to_string(&fresh.deterministic()).unwrap(),
            "entry {i}: {workload:?} on {} nodes",
            config.nodes()
        );
    }
}

/// `sweep_configs` returns, in input order, what a fresh single-cell run
/// of each entry returns, a duplicate and a non-grid configuration
/// included.
#[test]
fn sweep_configs_equals_fresh_runs_in_input_order() {
    let mut cells = configured_cells();
    cells.insert(2, cells[0]);
    assert_sweep_configs_match_fresh_runs(&cells);
}

/// Cells on the 4x4 and the 8x8 mesh in one list each run on their own
/// mesh's programs.
#[test]
fn sweep_configs_runs_each_mesh_on_its_own_programs() {
    assert_sweep_configs_match_fresh_runs(&[
        (SystemConfig::paper(Mechanism::Puno), WorkloadId::Ssca2),
        (SystemConfig::mesh8(Mechanism::Puno), WorkloadId::Ssca2),
        (SystemConfig::paper(Mechanism::Baseline), WorkloadId::Ssca2),
    ]);
}

/// A second `sweep_configs` call over a warm cache is served entirely
/// from it.
#[test]
fn a_second_sweep_configs_call_is_served_from_the_cache() {
    let dir = cache_dir("configs");
    let cells = configured_cells();
    let run = || {
        let cache = Arc::new(ResultCache::open(&dir).expect("cache dir"));
        let mut opts = SweepOptions::new(GOLDEN_SEED, GOLDEN_SCALE);
        opts.result_cache = Some(cache.clone());
        (sweep_configs(&cells, &opts), cache.stats())
    };
    let (cold, stats) = run();
    assert_eq!((stats.hits, stats.stores), (0, 3), "3 distinct cells");
    let (warm, stats) = run();
    assert_eq!((stats.hits, stats.misses, stats.stores), (3, 0, 0));
    let json = |runs: &[puno_harness::RunMetrics]| -> Vec<String> {
        runs.iter()
            .map(|m| serde_json::to_string(m).unwrap())
            .collect()
    };
    assert_eq!(json(&warm), json(&cold));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cell that trips `max_cycles` fails as a livelock, and `sweep_configs`
/// panics naming it.
#[test]
fn a_failing_sweep_configs_cell_panics_naming_the_cell() {
    let mut hostile = SystemConfig::paper(Mechanism::Baseline);
    hostile.max_cycles = 1_000;
    let cells = [
        (SystemConfig::paper(Mechanism::Baseline), WorkloadId::Ssca2),
        (hostile, WorkloadId::Kmeans),
    ];
    let mut opts = SweepOptions::new(GOLDEN_SEED, GOLDEN_SCALE);
    opts.result_cache = None;
    opts.retry = RetryPolicy::new(1);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sweep_configs(&cells, &opts)
    }))
    .expect_err("a livelocked cell must panic");
    let message = payload
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    assert!(
        message.starts_with("sweep cell Kmeans/Baseline @ seed 42 (entry 1, digest "),
        "{message}"
    );
    assert!(message.contains("failed: livelock"), "{message}");
}
