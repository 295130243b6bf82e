//! Thread-parallel experiment sweeps with failure containment and resume.
//!
//! Each simulation run is single-threaded and deterministic; the sweep fans
//! (workload x mechanism) combinations across OS threads and reassembles
//! results in a deterministic order. A failing cell — structured
//! [`RunError`] or outright panic — no longer takes the process (and every
//! sibling cell) down: it is caught, optionally retried with the message
//! trace ring enabled, and reported as a [`CellOutcome::Err`] while the
//! remaining cells complete. With a checkpoint path set, successful cells
//! are appended to a checksummed `results.jsonl`-format file (a
//! [`RecordFile`]) as they complete, keyed by their full cell identity,
//! and a re-run resumes from it, skipping cells that already succeeded.

use crate::cache::{cell_digest, global_cache, CostRecord, RecordFile, ResultCache};
use crate::error::RunError;
use crate::metrics::RunMetrics;
use crate::system::System;
use crate::warehouse::{self, WarehouseRow};
use crate::{Mechanism, SystemConfig};
use puno_sim::FaultPlan;
use puno_workloads::{fnv1a_64_fold, params_digest, ProgramSet, WorkloadId, WorkloadParams};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// One sweep cell: the workload, the mechanism, and the run result.
#[derive(Clone, Debug)]
pub struct SweepResult {
    pub workload: WorkloadId,
    pub mechanism: Mechanism,
    pub metrics: RunMetrics,
}

/// Identity of one (workload, mechanism, seed) sweep cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellKey {
    pub workload: WorkloadId,
    pub mechanism: Mechanism,
    pub seed: u64,
}

/// The outcome of one cell: a `Result` that also records the attempts a
/// failure took and whether it was quarantined.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum CellOutcome {
    Ok {
        key: CellKey,
        metrics: RunMetrics,
    },
    /// The cell failed and the sweep ran without a retry budget.
    Err {
        key: CellKey,
        error: RunError,
        /// Total attempts made (1 + retries actually used).
        attempts: u32,
    },
    /// The cell exhausted an escalating [`RetryPolicy`] — every attempt
    /// including the traced final one failed — and was quarantined: the
    /// sweep completed degraded around it. `error` is the final attempt's
    /// failure, whose trace holds the events leading into it. Like failed
    /// cells, quarantined cells are not checkpointed, so a resumed sweep
    /// re-attempts them.
    Quarantined {
        key: CellKey,
        error: RunError,
        attempts: u32,
    },
}

impl CellOutcome {
    pub fn key(&self) -> CellKey {
        match self {
            CellOutcome::Ok { key, .. }
            | CellOutcome::Err { key, .. }
            | CellOutcome::Quarantined { key, .. } => *key,
        }
    }

    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok { .. })
    }

    pub fn is_quarantined(&self) -> bool {
        matches!(self, CellOutcome::Quarantined { .. })
    }

    pub fn metrics(&self) -> Option<&RunMetrics> {
        match self {
            CellOutcome::Ok { metrics, .. } => Some(metrics),
            CellOutcome::Err { .. } | CellOutcome::Quarantined { .. } => None,
        }
    }

    pub fn error(&self) -> Option<&RunError> {
        match self {
            CellOutcome::Ok { .. } => None,
            CellOutcome::Err { error, .. } | CellOutcome::Quarantined { error, .. } => Some(error),
        }
    }

    /// Attempts consumed (None for successful cells).
    pub fn attempts(&self) -> Option<u32> {
        match self {
            CellOutcome::Ok { .. } => None,
            CellOutcome::Err { attempts, .. } | CellOutcome::Quarantined { attempts, .. } => {
                Some(*attempts)
            }
        }
    }
}

/// Escalating per-cell retry policy. The first attempt runs plain; every
/// retry runs with an all-channel trace ring of `RETRY_TRACE_CAPACITY`
/// events, so a persistent failure's final error carries the events
/// leading into the stall.
/// Between attempts the worker sleeps a multiplicative, seed-jittered
/// host-side backoff (never visible to simulated behaviour). A cell that
/// exhausts a multi-attempt budget is recorded as
/// [`CellOutcome::Quarantined`] and the sweep completes degraded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum total attempts per cell (clamped to >= 1; 1 = no retries).
    pub max_attempts: u32,
    /// Host-side backoff before the first retry, in milliseconds (0
    /// disables sleeping — the default, so tests and CI stay fast).
    pub backoff_base_ms: u64,
    /// Backoff multiplier per further attempt.
    pub backoff_multiplier: u32,
}

/// Ceiling on one backoff sleep regardless of attempt count.
const RETRY_BACKOFF_CAP_MS: u64 = 5_000;

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::new(1)
    }
}

impl RetryPolicy {
    pub fn new(max_attempts: u32) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            backoff_base_ms: 0,
            backoff_multiplier: 2,
        }
    }

    /// Extra attempts after the first.
    pub fn retries(&self) -> u32 {
        self.max_attempts - 1
    }

    /// Policy from the `PUNO_RETRY_MAX` environment variable (maximum
    /// total attempts per cell; unset or unparsable = 1, i.e. no retries).
    pub fn from_env() -> Self {
        let max = std::env::var("PUNO_RETRY_MAX")
            .ok()
            .and_then(|v| v.trim().parse::<u32>().ok())
            .unwrap_or(1);
        Self::new(max)
    }

    /// Host-side sleep before attempt `next_attempt` (2-based): the base
    /// backoff multiplied per prior retry, scaled by a deterministic
    /// ±25% jitter derived from the cell seed so workers retrying
    /// simultaneously spread out, and capped.
    fn backoff(&self, next_attempt: u32, seed: u64) -> std::time::Duration {
        if self.backoff_base_ms == 0 {
            return std::time::Duration::ZERO;
        }
        let exp = next_attempt.saturating_sub(2).min(16);
        let base = self
            .backoff_base_ms
            .saturating_mul((self.backoff_multiplier.max(1) as u64).saturating_pow(exp));
        let jitter_src =
            puno_workloads::fnv1a_64(format!("retry|{seed}|{next_attempt}").as_bytes());
        // Scale into [0.75, 1.25) of the base.
        let ms = (base.saturating_mul(768 + jitter_src % 512) / 1024).min(RETRY_BACKOFF_CAP_MS);
        std::time::Duration::from_millis(ms)
    }
}

/// Options for a resilient sweep.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    pub seed: u64,
    /// Shrinks or grows each workload's transaction count (1.0 = paper-sized
    /// runs).
    pub scale: f64,
    /// Fault plan installed in every cell (empty = fault-free and
    /// bit-identical to a plain sweep).
    pub fault_plan: FaultPlan,
    /// Escalating retry policy (attempt budget, seed-jittered backoff).
    /// Retries re-run with the message trace ring enabled, so a persistent
    /// failure's final error carries the trace leading up to it; cells that
    /// exhaust a multi-attempt budget are quarantined instead of failing the
    /// sweep.
    /// [`SweepOptions::new`] honours the `PUNO_RETRY_MAX` env override.
    pub retry: RetryPolicy,
    /// Checkpoint path: successful cells are appended as they complete, as
    /// `results.jsonl`-format records keyed by the full cell identity (see
    /// `checkpoint_key`), and a cell whose record verifies there is not
    /// re-run. Failed and quarantined cells are not written, so they are
    /// re-attempted. [`SweepOptions::new`] takes the path from
    /// `PUNO_SWEEP_CHECKPOINT`, so a killed `sweep_all` can resume where it
    /// died.
    pub checkpoint: Option<PathBuf>,
    /// Persistent result cache (see [`crate::cache`]): fault-free cells
    /// whose digest is present replay the stored metrics instead of
    /// simulating; fresh results are stored as they complete. Also the
    /// source of the cost model behind the longest-first job ordering.
    /// [`SweepOptions::new`] wires in the process-wide `PUNO_RESULT_CACHE`
    /// cache; tests inject their own.
    pub result_cache: Option<Arc<ResultCache>>,
    /// System configuration per mechanism — [`SystemConfig::paper`] (the
    /// 4x4 Table II machine) by default; big-mesh scaling sweeps substitute
    /// [`SystemConfig::mesh8`] / [`SystemConfig::mesh16`]. Cache digests
    /// already cover the full config, so differently-configured sweeps
    /// never collide in the result cache.
    pub config: fn(Mechanism) -> SystemConfig,
}

impl SweepOptions {
    pub fn new(seed: u64, scale: f64) -> Self {
        Self {
            seed,
            scale,
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::from_env(),
            checkpoint: crate::knobs::env_setting("PUNO_SWEEP_CHECKPOINT").map(PathBuf::from),
            result_cache: global_cache(),
            config: SystemConfig::paper,
        }
    }
}

/// Events kept in the all-channel trace ring when a retry runs traced. A
/// failing run's error carries the ring as it stands when the watchdog
/// fires, so these are the last events leading into the stall.
const RETRY_TRACE_CAPACITY: usize = 4096;

/// Run `workloads x mechanisms` under `opts`, containing per-cell failures.
/// Outcomes come back in deterministic (workload-major) order regardless of
/// worker scheduling or resume state.
///
/// The cell body is the sweep-scale fast path: each workload's trace is
/// generated once per `(params, seed)` and shared immutably across its
/// mechanism cells and retries (each cell builds its `System` with
/// [`System::new_shared`]); and with a result cache configured, fault-free
/// cells whose inputs are unchanged replay their stored metrics without
/// simulating at all. Both paths are bit-identical to a fresh
/// `System::new(..).try_run_recycled()` per cell.
pub fn try_sweep(
    workloads: &[WorkloadId],
    mechanisms: &[Mechanism],
    opts: &SweepOptions,
) -> Vec<CellOutcome> {
    try_sweep_rows(workloads, mechanisms, opts).0
}

/// [`try_sweep`] additionally returning one flattened [`WarehouseRow`] per
/// cell (deterministic cell order, same `run_id` for the whole sweep) —
/// what `sweep_all --json` emits and what the `PUNO_WAREHOUSE` sink
/// records.
pub fn try_sweep_rows(
    workloads: &[WorkloadId],
    mechanisms: &[Mechanism],
    opts: &SweepOptions,
) -> (Vec<CellOutcome>, Vec<WarehouseRow>) {
    let programs: Mutex<HashMap<(u64, u64), Arc<ProgramSet>>> = Mutex::new(HashMap::new());
    // Fault plans perturb simulated behaviour, so those runs are neither
    // served from nor stored into the cache.
    let cache = opts
        .result_cache
        .as_deref()
        .filter(|_| opts.fault_plan.is_empty());
    try_sweep_with_rows(
        workloads,
        mechanisms,
        opts,
        move |mechanism, params, seed, traced| {
            let config = (opts.config)(mechanism);
            let digest = cell_digest(&config, params, seed);
            crate::run::cache_through(cache, digest, seed, || {
                let program_set = {
                    let key = (params_digest(params), seed);
                    let mut map = programs.lock().unwrap_or_else(|e| e.into_inner());
                    map.entry(key)
                        .or_insert_with(|| {
                            Arc::new(ProgramSet::generate(params, config.nodes(), seed))
                        })
                        .clone()
                };
                let mut sys = System::new_shared(config, params, seed, &program_set);
                if traced {
                    sys.enable_trace(RETRY_TRACE_CAPACITY);
                }
                if !opts.fault_plan.is_empty() {
                    sys.set_fault_plan(opts.fault_plan.clone());
                }
                sys.try_run_recycled()
            })
        },
    )
}

/// [`try_sweep`] parameterized over the per-cell runner — the containment,
/// retry, and checkpoint machinery is identical, but tests (and custom
/// harnesses) can substitute their own cell body. The runner's `traced`
/// flag is false on the first attempt and true on retries.
pub fn try_sweep_with<F>(
    workloads: &[WorkloadId],
    mechanisms: &[Mechanism],
    opts: &SweepOptions,
    runner: F,
) -> Vec<CellOutcome>
where
    F: Fn(Mechanism, &WorkloadParams, u64, bool) -> Result<RunMetrics, RunError> + Sync,
{
    try_sweep_with_rows(workloads, mechanisms, opts, runner).0
}

/// [`try_sweep_with`] additionally returning one [`WarehouseRow`] per cell.
/// A row is flagged `cache_hit` when [`try_sweep_rows`]'s runner replayed
/// the cell from the result cache; such a cell's wall-clock is also kept
/// out of the persisted cost model. With `PUNO_WAREHOUSE` set the rows are
/// appended to the cross-run warehouse. Recording is host-side only — cell
/// outcomes are bit-identical with the sink on or off.
pub fn try_sweep_with_rows<F>(
    workloads: &[WorkloadId],
    mechanisms: &[Mechanism],
    opts: &SweepOptions,
    runner: F,
) -> (Vec<CellOutcome>, Vec<WarehouseRow>)
where
    F: Fn(Mechanism, &WorkloadParams, u64, bool) -> Result<RunMetrics, RunError> + Sync,
{
    let cells: Vec<(CellKey, WorkloadParams)> = workloads
        .iter()
        .flat_map(|&w| {
            let params = w.params().scaled(opts.scale);
            mechanisms.iter().map(move |&m| {
                (
                    CellKey {
                        workload: w,
                        mechanism: m,
                        seed: opts.seed,
                    },
                    params.clone(),
                )
            })
        })
        .collect();

    let checkpoint: Option<RecordFile> = opts.checkpoint.as_deref().map(|path| {
        RecordFile::open(path)
            .unwrap_or_else(|e| panic!("cannot open sweep checkpoint {path:?}: {e}"))
    });

    // Slot per cell; resumed successes are filled in up front, the rest run.
    let mut slots: Vec<Option<CellOutcome>> = cells
        .iter()
        .map(|(key, params)| {
            let metrics = checkpoint
                .as_ref()?
                .get(checkpoint_key(opts, key, params))?;
            Some(CellOutcome::Ok { key: *key, metrics })
        })
        .collect();
    let mut jobs: Vec<usize> = (0..cells.len()).filter(|&i| slots[i].is_none()).collect();

    // Cost-aware scheduling: order the queue longest-estimated-first (LPT)
    // so the expensive cells start immediately and a straggler cannot end
    // up alone at the tail of the sweep with every other worker idle.
    // Estimates come from prior cell wall-clocks persisted next to the
    // result cache, falling back to a parameter-derived heuristic for
    // never-seen cells; ties (and the no-information case) preserve the
    // original deterministic cell order. Output order is unaffected.
    let cost_model = opts
        .result_cache
        .as_deref()
        .map(ResultCache::load_costs)
        .unwrap_or_default();
    let estimates: Vec<f64> = cells
        .iter()
        .map(|(key, params)| cost_model.estimate(key.workload.name(), key.mechanism.name(), params))
        .collect();
    jobs.sort_by(|&a, &b| {
        estimates[b]
            .partial_cmp(&estimates[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let done: Mutex<Vec<(usize, CellOutcome, bool)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let threads = effective_workers(jobs.len());

    std::thread::scope(|s| {
        let (jobs, cells, done, next) = (&jobs, &cells, &done, &next);
        let (runner, checkpoint, retry) = (&runner, &checkpoint, &opts.retry);
        for _ in 0..threads {
            s.spawn(move || loop {
                let j = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if j >= jobs.len() {
                    break;
                }
                let i = jobs[j];
                let (key, ref params) = cells[i];
                let outcome = run_cell(runner, key, params, retry);
                let cache_hit = crate::run::take_cache_hit();
                if let (Some(file), CellOutcome::Ok { metrics, .. }) = (checkpoint, &outcome) {
                    file.put(checkpoint_key(opts, &key, params), key.seed, metrics);
                }
                done.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push((i, outcome, cache_hit));
            });
        }
    });

    // Feed observed wall-clocks back into the persisted cost model (only
    // cells that actually simulated this sweep: resumed cells are skipped,
    // and a cache hit carries the wall-clock of the run that stored it,
    // which the model has already seen).
    let mut cost_records: Vec<CostRecord> = Vec::new();
    let mut cache_hits = vec![false; cells.len()];
    for (i, outcome, cache_hit) in done.into_inner().unwrap_or_else(|e| e.into_inner()) {
        cache_hits[i] = cache_hit;
        if let CellOutcome::Ok { key, metrics } = &outcome {
            if !cache_hit && metrics.host.wall_secs > 0.0 {
                cost_records.push(CostRecord {
                    workload: key.workload.name().to_string(),
                    mechanism: key.mechanism.name().to_string(),
                    tx_per_node: cells[i].1.tx_per_node,
                    wall_secs: metrics.host.wall_secs,
                });
            }
        }
        slots[i] = Some(outcome);
    }
    if let Some(cache) = &opts.result_cache {
        cache.append_costs(&cost_records);
    }

    let outcomes: Vec<CellOutcome> = slots
        .into_iter()
        .map(|s| {
            let mut outcome = s.expect("every sweep cell resolved");
            // Record the sweep's effective worker count in every cell's
            // host-side perf block (non-deterministic observability only —
            // excluded from golden comparisons like the rest of HostPerf).
            if let CellOutcome::Ok { metrics, .. } = &mut outcome {
                metrics.host.sweep_workers = threads as u64;
            }
            outcome
        })
        .collect();

    // Flatten every cell into a warehouse row (deterministic order, one
    // run_id for the whole sweep) and record them when the sink is on.
    let recorded_unix = warehouse::unix_now();
    let run_id = warehouse::run_id_from_env(recorded_unix);
    let rows: Vec<WarehouseRow> = outcomes
        .iter()
        .zip(cells.iter())
        .enumerate()
        .map(|(i, (outcome, (key, params)))| {
            let digest = cell_digest(&(opts.config)(key.mechanism), params, key.seed);
            match outcome {
                CellOutcome::Ok { metrics, .. } => WarehouseRow::from_metrics(
                    &run_id,
                    recorded_unix,
                    digest,
                    "ok",
                    cache_hits[i],
                    metrics,
                ),
                CellOutcome::Err { .. } | CellOutcome::Quarantined { .. } => {
                    WarehouseRow::placeholder(
                        &run_id,
                        recorded_unix,
                        digest,
                        key.workload.name(),
                        key.mechanism.name(),
                        key.seed,
                        if outcome.is_quarantined() {
                            "quarantined"
                        } else {
                            "err"
                        },
                    )
                }
            }
        })
        .collect();
    if let Some(dir) = warehouse::env_warehouse() {
        let appended = warehouse::Warehouse::open(&dir).and_then(|wh| wh.append(&rows));
        if let Err(e) = appended {
            eprintln!(
                "warning: PUNO_WAREHOUSE={} unusable ({e}); rows not recorded",
                dir.display()
            );
        }
    }

    (outcomes, rows)
}

/// Effective sweep worker count — the single place it is decided.
///
/// Starts from `available_parallelism`. The `PUNO_SWEEP_THREADS` env
/// override can only lower that count, never raise it: it is a cap, not a
/// pin, so a request for 4 workers runs 2 on a 2-core host (per-cell
/// results are deterministic at any thread count). The result is then
/// clamped to the number of runnable jobs so a small or mostly-resumed
/// sweep does not spawn idle threads. Unparsable or zero overrides fall
/// back to the hardware count.
pub fn effective_workers(jobs: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let capped = match std::env::var("PUNO_SWEEP_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => hw.min(n),
        _ => hw,
    };
    capped.min(jobs.max(1))
}

/// Run one cell with panic containment under the escalating retry policy.
/// A cell that exhausts a multi-attempt budget comes back
/// [`CellOutcome::Quarantined`]; with no retry budget a failure stays a
/// plain [`CellOutcome::Err`].
fn run_cell<F>(
    runner: &F,
    key: CellKey,
    params: &WorkloadParams,
    policy: &RetryPolicy,
) -> CellOutcome
where
    F: Fn(Mechanism, &WorkloadParams, u64, bool) -> Result<RunMetrics, RunError> + Sync,
{
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let traced = attempts > 1;
        let result = catch_unwind(AssertUnwindSafe(|| {
            runner(key.mechanism, params, key.seed, traced)
        }));
        let error = match result {
            Ok(Ok(metrics)) => return CellOutcome::Ok { key, metrics },
            Ok(Err(error)) => error,
            Err(payload) => RunError::WorkerPanic {
                payload: panic_payload_string(payload),
            },
        };
        if attempts >= policy.max_attempts {
            return if policy.max_attempts > 1 {
                CellOutcome::Quarantined {
                    key,
                    error,
                    attempts,
                }
            } else {
                CellOutcome::Err {
                    key,
                    error,
                    attempts,
                }
            };
        }
        let delay = policy.backoff(attempts + 1, key.seed);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }
}

fn panic_payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "(non-string panic payload)".to_string()
    }
}

/// A cell's key in the sweep checkpoint: its full identity, the
/// [`cell_digest`] of the sweep's configuration, parameters and seed, with
/// the fault plan folded in when one is installed. A checkpoint written at
/// another scale, configuration or fault plan resumes nothing.
fn checkpoint_key(opts: &SweepOptions, key: &CellKey, params: &WorkloadParams) -> u64 {
    let digest = cell_digest(&(opts.config)(key.mechanism), params, key.seed);
    if opts.fault_plan.is_empty() {
        digest
    } else {
        fnv1a_64_fold(digest, format!("|faults={:?}", opts.fault_plan).as_bytes())
    }
}

/// Run `workloads x mechanisms` (single seed) in parallel, panicking if any
/// cell fails — the strict interface the report/figure generators build on.
pub fn sweep(
    workloads: &[WorkloadId],
    mechanisms: &[Mechanism],
    seed: u64,
    scale: f64,
) -> Vec<SweepResult> {
    let opts = SweepOptions::new(seed, scale);
    try_sweep(workloads, mechanisms, &opts)
        .into_iter()
        .map(|outcome| match outcome {
            CellOutcome::Ok { key, metrics } => SweepResult {
                workload: key.workload,
                mechanism: key.mechanism,
                metrics,
            },
            CellOutcome::Err { key, error, .. } | CellOutcome::Quarantined { key, error, .. } => {
                panic!(
                    "sweep cell {:?}/{:?} @ seed {} failed: {error}",
                    key.workload, key.mechanism, key.seed
                )
            }
        })
        .collect()
}

/// Find one cell in a sweep result set.
pub fn find(
    results: &[SweepResult],
    workload: WorkloadId,
    mechanism: Mechanism,
) -> Option<&RunMetrics> {
    results
        .iter()
        .find(|r| r.workload == workload && r.mechanism == mechanism)
        .map(|r| &r.metrics)
}

/// [`find`], panicking with the missing key when the cell is absent — for
/// report/figure generators that have already validated the sweep grid.
pub fn find_expect(
    results: &[SweepResult],
    workload: WorkloadId,
    mechanism: Mechanism,
) -> &RunMetrics {
    find(results, workload, mechanism)
        .unwrap_or_else(|| panic!("missing cell {workload:?}/{mechanism:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_workload;

    #[test]
    fn sweep_returns_all_cells_in_order() {
        let workloads = [WorkloadId::Ssca2, WorkloadId::Kmeans];
        let mechanisms = [Mechanism::Baseline, Mechanism::Puno];
        let results = sweep(&workloads, &mechanisms, 1, 0.05);
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].workload, WorkloadId::Ssca2);
        assert_eq!(results[0].mechanism, Mechanism::Baseline);
        assert_eq!(results[3].workload, WorkloadId::Kmeans);
        assert_eq!(results[3].mechanism, Mechanism::Puno);
        let m = find_expect(&results, WorkloadId::Kmeans, Mechanism::Puno);
        assert!(m.committed > 0);
    }

    #[test]
    fn parallel_sweep_matches_serial_run() {
        let results = sweep(&[WorkloadId::Ssca2], &[Mechanism::Baseline], 7, 0.05);
        let serial = run_workload(
            Mechanism::Baseline,
            &WorkloadId::Ssca2.params().scaled(0.05),
            7,
        );
        assert_eq!(results[0].metrics.cycles, serial.cycles);
        assert_eq!(results[0].metrics.htm.aborts.get(), serial.htm.aborts.get());
    }

    #[test]
    fn find_returns_none_for_missing_cell() {
        let results = sweep(&[WorkloadId::Ssca2], &[Mechanism::Baseline], 1, 0.05);
        assert!(find(&results, WorkloadId::Ssca2, Mechanism::Puno).is_none());
        assert!(find(&results, WorkloadId::Ssca2, Mechanism::Baseline).is_some());
    }

    /// A runner that panics on exactly one cell: the others must still
    /// complete and the failure must surface as a structured outcome.
    #[test]
    fn one_panicking_cell_does_not_sink_the_sweep() {
        let workloads = [WorkloadId::Ssca2, WorkloadId::Kmeans];
        let mechanisms = [Mechanism::Baseline];
        let opts = SweepOptions::new(3, 0.05);
        let outcomes = try_sweep_with(&workloads, &mechanisms, &opts, |m, params, seed, _| {
            if params.name.contains("kmeans") {
                panic!("injected cell failure");
            }
            Ok(crate::run::run_workload(m, params, seed))
        });
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes[0].is_ok(), "healthy cell must complete");
        let err = outcomes[1].error().expect("kmeans cell must fail");
        assert_eq!(err.kind(), "worker_panic");
        assert!(err.to_string().contains("injected cell failure"));
    }

    /// Retries re-run the cell; a first-attempt-only failure recovers.
    #[test]
    fn retry_recovers_a_transient_failure() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let attempts = AtomicU32::new(0);
        let mut opts = SweepOptions::new(3, 0.05);
        opts.retry = RetryPolicy::new(2);
        let outcomes = try_sweep_with(
            &[WorkloadId::Ssca2],
            &[Mechanism::Baseline],
            &opts,
            |m, params, seed, traced| {
                if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                    assert!(!traced, "first attempt runs untraced");
                    panic!("transient");
                }
                assert!(traced, "retry must run traced");
                Ok(crate::run::run_workload(m, params, seed))
            },
        );
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
        assert!(outcomes[0].is_ok());
    }

    /// A cell forced into a genuine livelock (hostile cycle budget) must
    /// surface as a structured `RunError` whose retry captured a message
    /// trace, while the sibling cell completes.
    #[test]
    fn forced_livelock_cell_reports_structured_error_with_trace() {
        let workloads = [WorkloadId::Ssca2, WorkloadId::Kmeans];
        let mechanisms = [Mechanism::Baseline];
        let mut opts = SweepOptions::new(5, 0.05);
        opts.retry = RetryPolicy::new(2);
        let outcomes = try_sweep_with(&workloads, &mechanisms, &opts, |m, params, seed, traced| {
            let mut config = SystemConfig::paper(m);
            if params.name.contains("kmeans") {
                // Hostile budget: the watchdog window cannot see a commit.
                config.watchdog_window = 50;
            }
            let mut sys = System::new(config, params, seed);
            if traced {
                sys.enable_trace(64);
            }
            sys.try_run_recycled()
        });
        assert!(outcomes[0].is_ok(), "healthy cell must complete");
        let err = outcomes[1].error().expect("hostile cell must fail");
        assert_eq!(err.kind(), "livelock");
        assert!(
            !err.trace().is_empty(),
            "the traced retry must capture the message trace"
        );
        assert!(
            outcomes[1].is_quarantined(),
            "an exhausted retry budget must quarantine the cell"
        );
        assert_eq!(outcomes[1].attempts(), Some(2));
    }

    /// Interrupted sweep: first pass checkpoints its one success (the
    /// failed cell is not written); the resumed pass re-runs only the
    /// failed cell.
    #[test]
    fn checkpoint_resume_skips_completed_cells() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let dir = std::env::temp_dir().join(format!(
            "puno-sweep-ckpt-{}-{}",
            std::process::id(),
            "resume"
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.jsonl");
        let _ = std::fs::remove_file(&path);

        let workloads = [WorkloadId::Ssca2, WorkloadId::Kmeans];
        let mechanisms = [Mechanism::Baseline];
        let mut opts = SweepOptions::new(3, 0.05);
        opts.checkpoint = Some(path.clone());

        let first = try_sweep_with(&workloads, &mechanisms, &opts, |m, params, seed, _| {
            if params.name.contains("kmeans") {
                panic!("fails on the first pass");
            }
            Ok(crate::run::run_workload(m, params, seed))
        });
        assert!(first[0].is_ok());
        assert!(!first[1].is_ok());

        // Second pass: the healthy cell must NOT re-run (it would trip the
        // counter), the failed one runs and now succeeds.
        let reruns = AtomicU32::new(0);
        let second = try_sweep_with(&workloads, &mechanisms, &opts, |m, params, seed, _| {
            reruns.fetch_add(1, Ordering::SeqCst);
            assert!(
                params.name.contains("kmeans"),
                "resume re-ran an already-successful cell"
            );
            Ok(crate::run::run_workload(m, params, seed))
        });
        assert_eq!(reruns.load(Ordering::SeqCst), 1);
        assert!(second[0].is_ok() && second[1].is_ok());
        assert_eq!(
            second[0].metrics().unwrap().workload,
            WorkloadId::Ssca2.name()
        );

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
