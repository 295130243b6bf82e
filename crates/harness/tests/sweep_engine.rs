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

use puno_harness::run::run_with_config;
use puno_harness::sweep::{
    try_sweep, try_sweep_rows, try_sweep_with, try_sweep_with_rows, CellOutcome, SweepOptions,
};
use puno_harness::{cell_digest, Mechanism, ResultCache, SystemConfig, ENGINE_VERSION};
use puno_sim::FaultPlan;
use puno_workloads::{fnv1a_64, WorkloadId, WorkloadParams};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
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

/// A fully warm sweep simulates nothing: every warehouse row is flagged as
/// a cache hit, and with no wall-clocks to teach the cost model,
/// `costs.jsonl` must come out byte-identical.
#[test]
fn warm_sweep_leaves_the_cost_model_untouched() {
    let dir = std::env::temp_dir().join(format!("puno-sweep-costs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let workloads = [WorkloadId::Ssca2];
    let sweep_with_fresh_handle = || {
        let mut opts = SweepOptions::new(GOLDEN_SEED, GOLDEN_SCALE);
        let cache = Arc::new(ResultCache::open(&dir).expect("cache dir"));
        opts.result_cache = Some(cache.clone());
        let (_, rows) = try_sweep_rows(&workloads, &MECHANISMS, &opts);
        let hit_flags: Vec<bool> = rows.iter().map(|r| r.cache_hit).collect();
        (cache.stats(), hit_flags)
    };
    let costs = dir.join("costs.jsonl");

    let (stats, hit_flags) = sweep_with_fresh_handle();
    assert_eq!(stats.stores, 2);
    assert_eq!(hit_flags, [false, false], "cold rows flagged as cache hits");
    let cold = std::fs::read(&costs).expect("the cold sweep records its costs");
    assert_eq!(cold.iter().filter(|&&b| b == b'\n').count(), 2);

    let (stats, hit_flags) = sweep_with_fresh_handle();
    assert_eq!(stats.hits, 2);
    assert_eq!(
        hit_flags,
        [true, true],
        "warm rows not flagged as cache hits"
    );
    assert_eq!(
        std::fs::read(&costs).unwrap(),
        cold,
        "cache hits fed costs.jsonl"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpointed sweep over ssca2 x {baseline, puno} at `scale` under
/// `config`: the outcomes, and how many cells the runner simulated.
fn checkpointed_sweep(
    checkpoint: Option<&Path>,
    scale: f64,
    config: fn(Mechanism) -> SystemConfig,
) -> (Vec<String>, u32) {
    let mut opts = SweepOptions::new(GOLDEN_SEED, scale);
    opts.result_cache = None;
    opts.checkpoint = checkpoint.map(Path::to_path_buf);
    opts.config = config;
    let runs = AtomicU32::new(0);
    let outcomes = try_sweep_with(
        &[WorkloadId::Ssca2],
        &MECHANISMS,
        &opts,
        |m, params, seed, _| {
            runs.fetch_add(1, Ordering::SeqCst);
            Ok(run_with_config(config(m), params, seed))
        },
    );
    let simulated = outcomes
        .iter()
        .map(|o| {
            let metrics = o.metrics().expect("every cell succeeds");
            serde_json::to_string(&metrics.deterministic()).unwrap()
        })
        .collect();
    (simulated, runs.into_inner())
}

fn checkpoint_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("puno-ckpt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("checkpoint.jsonl")
}

/// A checkpoint resumes only cells with the same full identity: cells
/// written at scale 0.05 on the 4x4 mesh re-simulate when the sweep is
/// resumed at scale 0.1 or on the 8x8 mesh, and match a sweep run without
/// a checkpoint.
#[test]
fn checkpoint_resume_is_keyed_by_the_full_cell_identity() {
    let path = checkpoint_path("identity");
    let (written, runs) = checkpointed_sweep(Some(&path), GOLDEN_SCALE, SystemConfig::paper);
    assert_eq!(runs, 2);
    let (resumed, runs) = checkpointed_sweep(Some(&path), GOLDEN_SCALE, SystemConfig::paper);
    assert_eq!((runs, &resumed), (0, &written), "same identity resumes");

    for (label, scale, config) in [
        (
            "scale 0.1",
            0.1,
            SystemConfig::paper as fn(Mechanism) -> SystemConfig,
        ),
        ("mesh8", GOLDEN_SCALE, SystemConfig::mesh8),
    ] {
        let (resumed, runs) = checkpointed_sweep(Some(&path), scale, config);
        assert_eq!(runs, 2, "{label}: every cell must re-simulate");
        let (fresh, _) = checkpointed_sweep(None, scale, config);
        assert_eq!(
            resumed, fresh,
            "{label}: resumed sweep differs from a fresh one"
        );
        assert_ne!(resumed, written, "{label}: served the 0.05 4x4 metrics");
    }
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// Installing a fault plan changes every cell's checkpoint key: cells
/// written without faults re-simulate under a plan.
#[test]
fn checkpoint_resume_is_keyed_by_the_fault_plan() {
    let path = checkpoint_path("faults");
    checkpointed_sweep(Some(&path), GOLDEN_SCALE, SystemConfig::paper);
    let mut opts = SweepOptions::new(GOLDEN_SEED, GOLDEN_SCALE);
    opts.result_cache = None;
    opts.checkpoint = Some(path.clone());
    opts.fault_plan = FaultPlan::background(1, 0.5);
    let runs = AtomicU32::new(0);
    let count_runs = |m: Mechanism, params: &WorkloadParams, seed| {
        runs.fetch_add(1, Ordering::SeqCst);
        Ok(run_with_config(SystemConfig::paper(m), params, seed))
    };
    try_sweep_with(&[WorkloadId::Ssca2], &MECHANISMS, &opts, |m, p, s, _| {
        count_runs(m, p, s)
    });
    assert_eq!(
        runs.load(Ordering::SeqCst),
        2,
        "a fault plan resumed fault-free cells"
    );
    try_sweep_with(&[WorkloadId::Ssca2], &MECHANISMS, &opts, |m, p, s, _| {
        count_runs(m, p, s)
    });
    assert_eq!(
        runs.load(Ordering::SeqCst),
        2,
        "the same plan resumes its own cells"
    );
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// One changed digit inside a checkpoint record's metrics fails its
/// checksum: that cell re-simulates and the sweep matches a fresh run.
#[test]
fn a_damaged_checkpoint_record_re_runs_its_cell() {
    let path = checkpoint_path("damaged");
    let (written, _) = checkpointed_sweep(Some(&path), GOLDEN_SCALE, SystemConfig::paper);
    let text = std::fs::read_to_string(&path).unwrap();
    let metrics_at = text.find("\"metrics\":{").expect("a checkpoint record");
    let cycles_at = metrics_at + text[metrics_at..].find("\"cycles\":").unwrap();
    let digits_end = cycles_at
        + "\"cycles\":".len()
        + text[cycles_at + "\"cycles\":".len()..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap();
    let last = text.as_bytes()[digits_end - 1];
    let mut damaged = text.into_bytes();
    damaged[digits_end - 1] = if last == b'9' { b'0' } else { last + 1 };
    std::fs::write(&path, damaged).unwrap();

    let (resumed, runs) = checkpointed_sweep(Some(&path), GOLDEN_SCALE, SystemConfig::paper);
    assert_eq!(runs, 1, "exactly the damaged cell re-runs");
    assert_eq!(resumed, written, "the damaged value was served");
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
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
            opts.checkpoint = None;
            opts.config = config;
            let (outcomes, rows) =
                try_sweep_with_rows(&WorkloadId::ALL, &Mechanism::ALL, &opts, |_, _, _, _| {
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

/// A sweep of ssca2 and kmeans x {baseline, puno} on a fresh handle over
/// `dir`'s cache, through `try_sweep_rows` or `try_sweep`.
fn cached_sweep(dir: &Path, rows: bool) -> (Vec<CellOutcome>, u64) {
    let mut opts = SweepOptions::new(GOLDEN_SEED, GOLDEN_SCALE);
    let cache = Arc::new(ResultCache::open(dir).expect("cache dir"));
    opts.result_cache = Some(cache.clone());
    opts.checkpoint = None;
    let workloads = [WorkloadId::Ssca2, WorkloadId::Kmeans];
    let outcomes = if rows {
        try_sweep_rows(&workloads, &MECHANISMS, &opts).0
    } else {
        try_sweep(&workloads, &MECHANISMS, &opts)
    };
    (outcomes, cache.stats().hits)
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
/// between runs) and warm (byte for byte, host block included). A fully
/// warm sweep gives those outcomes even when `costs.jsonl` holds garbage,
/// and leaves the garbage as it found it.
#[test]
fn both_sweep_entry_points_agree_cold_and_warm() {
    let (a, b) = (cache_dir("entry-a"), cache_dir("entry-b"));
    let (cold, hits) = cached_sweep(&a, false);
    assert_eq!(hits, 0);
    let (cold_rows, hits) = cached_sweep(&b, true);
    assert_eq!(hits, 0);
    assert_eq!(
        cold.iter().map(CellOutcome::key).collect::<Vec<_>>(),
        cold_rows.iter().map(CellOutcome::key).collect::<Vec<_>>()
    );
    assert_eq!(as_json(&cold, true), as_json(&cold_rows, true));

    let (warm, hits) = cached_sweep(&a, false);
    assert_eq!(hits, 4);
    let (warm_rows, hits) = cached_sweep(&a, true);
    assert_eq!(hits, 4);
    assert_eq!(as_json(&warm, false), as_json(&warm_rows, false));
    assert_eq!(as_json(&warm, false), as_json(&cold, false));

    let garbage = b"not json\n{\"workload\":\n\x00\xff{{{\n".to_vec();
    std::fs::write(a.join("costs.jsonl"), &garbage).unwrap();
    let (warm_on_garbage, hits) = cached_sweep(&a, false);
    assert_eq!(hits, 4);
    assert_eq!(as_json(&warm_on_garbage, false), as_json(&warm, false));
    assert_eq!(std::fs::read(a.join("costs.jsonl")).unwrap(), garbage);
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}
