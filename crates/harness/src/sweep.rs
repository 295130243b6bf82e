//! Thread-parallel experiment sweeps with failure containment and resume.
//!
//! Each simulation run is single-threaded and deterministic; the sweep fans
//! (workload x mechanism) combinations across OS threads and reassembles
//! results in a deterministic order. A failing cell — structured
//! [`RunError`] or outright panic — no longer takes the process (and every
//! sibling cell) down: it is caught, optionally retried with the message
//! trace ring enabled, and reported as a [`CellOutcome::Err`] while the
//! remaining cells complete. With a checkpoint path set, finished cells are
//! appended to a JSONL file as they complete, and a re-run resumes from it,
//! skipping cells that already succeeded.

use crate::cache::{cell_digest, global_cache, CostRecord, ResultCache};
use crate::error::RunError;
use crate::metrics::RunMetrics;
use crate::obs;
use crate::system::System;
use crate::warehouse::{self, WarehouseRow};
use crate::{Mechanism, SystemConfig};
use puno_sim::FaultPlan;
use puno_workloads::{params_digest, ProgramSet, WorkloadId, WorkloadParams};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

/// One sweep cell: the workload, the mechanism, and the run result.
#[derive(Clone, Debug)]
pub struct SweepResult {
    pub workload: WorkloadId,
    pub mechanism: Mechanism,
    pub metrics: RunMetrics,
}

/// Identity of one (workload, mechanism, seed) sweep cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellKey {
    pub workload: WorkloadId,
    pub mechanism: Mechanism,
    pub seed: u64,
}

/// The checkpointed outcome of one cell (one JSONL record per cell). A
/// hand-rolled `Result`: the serde shim has no blanket `Result` impl (and
/// no `Box` impl either, hence the unboxed — large — `Ok` variant).
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, Serialize, Deserialize)]
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
    /// including the traced, snapshot-armed final one failed — and was
    /// quarantined: the sweep completed degraded around it. `error` is the
    /// final attempt's failure (with its rewind-and-dump trace when the
    /// snapshot ring engaged). On checkpoint resume, quarantined cells are
    /// re-attempted like failed ones.
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
/// retry runs with the message trace ring enabled and (on the cell-runner
/// path) the snapshot ring armed, so a persistent failure's final error
/// carries a rewind-and-dump trace of the cycles leading into the stall.
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
    /// Retries re-run with the message trace ring enabled and the snapshot
    /// ring armed, so a persistent failure's final error carries the
    /// rewind-and-dump trace leading up to it; cells that exhaust a
    /// multi-attempt budget are quarantined instead of failing the sweep.
    /// [`SweepOptions::new`] honours the `PUNO_RETRY_MAX` env override.
    pub retry: RetryPolicy,
    /// JSONL checkpoint path: finished cells are appended as they complete;
    /// an existing file's successful cells are skipped on resume (failed
    /// and quarantined cells are re-attempted). [`SweepOptions::new`] takes
    /// the path from `PUNO_SWEEP_CHECKPOINT`, so a killed `sweep_all` can
    /// resume where it died.
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
            checkpoint: std::env::var_os("PUNO_SWEEP_CHECKPOINT").map(PathBuf::from),
            result_cache: global_cache(),
            config: SystemConfig::paper,
        }
    }
}

/// Messages kept in the trace ring when a retry runs traced.
const RETRY_TRACE_CAPACITY: usize = 512;

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
                    // Auto-arm the snapshot ring so a persistently failing
                    // cell's final error is a rewind-and-dump of the stalled
                    // window. `PUNO_SNAPSHOT_EVERY` overrides the interval
                    // (an explicit 0 keeps it off).
                    let every = crate::run::env_snapshot_every()
                        .unwrap_or_else(|| (config.watchdog_window / 2).max(1));
                    if every > 0 {
                        sys.set_snapshot_every(every);
                    }
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
/// Also the home of the live-observability publication: with the registry
/// enabled (see [`crate::obs`]) the sweep publishes cells started/
/// completed/cache-hit/retry counters, per-worker busy gauges, done/total
/// progress gauges, and a cell wall-clock histogram *while running*; with
/// `PUNO_PROGRESS` set it additionally prints a throttled stderr heartbeat
/// whose ETA comes from the same LPT cost estimates that order the job
/// queue; with `PUNO_WAREHOUSE` set the rows are appended to the cross-run
/// warehouse. All of it is host-side only — cell outcomes are bit-identical
/// with every sink on or off.
pub fn try_sweep_with_rows<F>(
    workloads: &[WorkloadId],
    mechanisms: &[Mechanism],
    opts: &SweepOptions,
    runner: F,
) -> (Vec<CellOutcome>, Vec<WarehouseRow>)
where
    F: Fn(Mechanism, &WorkloadParams, u64, bool) -> Result<RunMetrics, RunError> + Sync,
{
    obs::init_from_env();
    let registry = obs::global();
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

    let resumed: Vec<CellOutcome> = opts
        .checkpoint
        .as_deref()
        .map(load_checkpoint)
        .unwrap_or_default();

    // Slot per cell; resumed successes are filled in up front, the rest run.
    let mut slots: Vec<Option<CellOutcome>> = cells
        .iter()
        .map(|(key, _)| {
            resumed
                .iter()
                .find(|o| o.is_ok() && o.key() == *key)
                .cloned()
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

    let checkpoint_file: Option<Mutex<std::fs::File>> = opts.checkpoint.as_deref().map(|path| {
        Mutex::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .unwrap_or_else(|e| panic!("cannot open sweep checkpoint {path:?}: {e}")),
        )
    });

    let done: Mutex<Vec<(usize, CellOutcome, bool)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let started = std::sync::atomic::AtomicUsize::new(0);
    let threads = effective_workers(jobs.len());

    // Registered up front so a scrape early in the sweep already sees every
    // family; `None` (the default) keeps every publish site to one branch.
    let sweep_obs = registry.map(|reg| SweepObs::new(reg, cells.len(), jobs.len()));
    let heartbeat = obs::env_progress().map(|interval| Heartbeat {
        interval,
        alive: Mutex::new(threads),
        cv: Condvar::new(),
    });
    let job_weight_total: f64 = jobs.iter().map(|&i| estimates[i]).sum();
    let resumed_count = cells.len() - jobs.len();
    let sweep_start = std::time::Instant::now();

    std::thread::scope(|s| {
        let (jobs, cells, done, next, started) = (&jobs, &cells, &done, &next, &started);
        let (runner, checkpoint_file, retry) = (&runner, &checkpoint_file, &opts.retry);
        let (sweep_obs, heartbeat, estimates) =
            (sweep_obs.as_ref(), heartbeat.as_ref(), &estimates);
        for w in 0..threads {
            s.spawn(move || {
                obs::set_worker(&format!("s{w}"));
                let busy = sweep_obs.map(|o| o.worker_busy(w));
                loop {
                    let j = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if j >= jobs.len() {
                        break;
                    }
                    let i = jobs[j];
                    let (key, ref params) = cells[i];
                    started.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if let Some(o) = sweep_obs {
                        o.cells_started.inc();
                    }
                    if let Some(b) = &busy {
                        b.set(1.0);
                    }
                    let t0 = std::time::Instant::now();
                    let outcome =
                        run_cell(runner, key, params, retry, sweep_obs.map(|o| &o.retries));
                    let cache_hit = obs::take_cache_hit();
                    if let Some(o) = sweep_obs {
                        o.observe_outcome(&outcome, cache_hit, t0.elapsed().as_secs_f64());
                    }
                    if let Some(b) = &busy {
                        b.set(0.0);
                    }
                    if let Some(file) = &checkpoint_file {
                        let line = serde_json::to_string(&outcome)
                            .expect("sweep cell outcome must serialize");
                        let mut f = file.lock().unwrap_or_else(|e| e.into_inner());
                        let _ = writeln!(f, "{line}");
                    }
                    done.lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((i, outcome, cache_hit));
                }
                if let Some(hb) = heartbeat {
                    hb.worker_done();
                }
            });
        }
        if let Some(hb) = heartbeat {
            s.spawn(move || {
                hb.run(
                    sweep_start,
                    resumed_count,
                    cells.len(),
                    job_weight_total,
                    started,
                    done,
                    estimates,
                );
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
        match appended {
            Ok(()) => {
                if let Some(o) = &sweep_obs {
                    o.warehouse_rows.add(rows.len() as u64);
                }
            }
            Err(e) => eprintln!(
                "warning: PUNO_WAREHOUSE={} unusable ({e}); rows not recorded",
                dir.display()
            ),
        }
    }

    // Surface the result cache's maintenance history (corrupt/stale skips
    // at open, last compaction) through the registry — previously these
    // totals were only visible on stderr at open time.
    if let (Some(reg), Some(cache)) = (registry, opts.result_cache.as_deref()) {
        publish_cache_stats(reg, cache);
    }

    (outcomes, rows)
}

/// The sweep driver's registered metric families (see [`crate::obs`]).
struct SweepObs {
    registry: &'static obs::MetricsRegistry,
    cells_started: obs::Counter,
    done_ok: obs::Counter,
    done_err: obs::Counter,
    done_quarantined: obs::Counter,
    cache_hits: obs::Counter,
    retries: obs::Counter,
    warehouse_rows: obs::Counter,
    quiesced_cycles: obs::Counter,
    cells_total: obs::Gauge,
    cells_done: obs::Gauge,
    cell_wall: obs::Histogram,
}

impl SweepObs {
    fn new(registry: &'static obs::MetricsRegistry, total: usize, jobs: usize) -> Self {
        let outcome_counter = |outcome: &str| {
            registry.counter(
                "puno_sweep_cells_completed_total",
                "Sweep cells finished, by outcome.",
                &[("outcome", outcome)],
            )
        };
        let o = Self {
            registry,
            cells_started: registry.counter(
                "puno_sweep_cells_started_total",
                "Sweep cells handed to a worker (attempt 1).",
                &[],
            ),
            done_ok: outcome_counter("ok"),
            done_err: outcome_counter("err"),
            done_quarantined: outcome_counter("quarantined"),
            cache_hits: registry.counter(
                "puno_sweep_cache_hits_total",
                "Sweep cells replayed from the result cache without simulating.",
                &[],
            ),
            retries: registry.counter(
                "puno_sweep_cell_retries_total",
                "Escalating (traced, snapshot-armed) cell retry attempts.",
                &[],
            ),
            warehouse_rows: registry.counter(
                "puno_warehouse_rows_total",
                "Rows appended to the PUNO_WAREHOUSE result warehouse.",
                &[],
            ),
            quiesced_cycles: registry.counter(
                "puno_net_quiesced_cycles_total",
                "Simulated cycles the NoC step token skipped with nothing to do.",
                &[],
            ),
            cells_total: registry.gauge(
                "puno_sweep_cells",
                "Cells in the current sweep grid (resumed cells included).",
                &[],
            ),
            cells_done: registry.gauge(
                "puno_sweep_cells_done",
                "Cells resolved so far (resumed cells included).",
                &[],
            ),
            cell_wall: registry.histogram(
                "puno_sweep_cell_wall_seconds",
                "Wall-clock per resolved sweep cell (cache hits included).",
                &[],
                &[0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0],
            ),
        };
        o.cells_total.set(total as f64);
        o.cells_done.set((total - jobs) as f64);
        o
    }

    fn worker_busy(&self, w: usize) -> obs::Gauge {
        let label = format!("s{w}");
        self.registry.gauge(
            "puno_sweep_worker_busy",
            "1 while this sweep worker is running a cell, else 0.",
            &[("worker", label.as_str())],
        )
    }

    fn observe_outcome(&self, outcome: &CellOutcome, cache_hit: bool, wall_secs: f64) {
        match outcome {
            CellOutcome::Ok { metrics, .. } => {
                self.done_ok.inc();
                self.quiesced_cycles.add(metrics.host.quiesced_cycles);
            }
            CellOutcome::Err { .. } => self.done_err.inc(),
            CellOutcome::Quarantined { .. } => self.done_quarantined.inc(),
        }
        if cache_hit {
            self.cache_hits.inc();
        }
        self.cells_done.add(1.0);
        self.cell_wall.observe(wall_secs);
    }
}

/// Publish the result cache's hit/skip/compaction totals as gauges (set,
/// not added — the cache is process-wide and its stats are cumulative, so
/// repeated sweeps republish the current totals idempotently).
fn publish_cache_stats(registry: &obs::MetricsRegistry, cache: &ResultCache) {
    let set = |name: &str, help: &str, v: f64| registry.gauge(name, help, &[]).set(v);
    let s = cache.stats();
    set(
        "puno_cache_entries",
        "Live records in the result cache.",
        s.entries as f64,
    );
    set(
        "puno_cache_hits",
        "Result-cache lookups served from memory.",
        s.hits as f64,
    );
    set(
        "puno_cache_misses",
        "Result-cache lookups that missed.",
        s.misses as f64,
    );
    set(
        "puno_cache_stores",
        "Fresh results appended to the cache.",
        s.stores as f64,
    );
    set(
        "puno_cache_corrupt_skipped",
        "Corrupt records skipped: torn, misshapen or checksum-failed at open, undecodable at first lookup.",
        s.corrupt_skipped as f64,
    );
    set(
        "puno_cache_stale_skipped",
        "Stale-engine-version records skipped at cache open.",
        s.stale_skipped as f64,
    );
    if let Some(c) = cache.last_compact() {
        set(
            "puno_cache_compact_kept",
            "Records kept by the most recent cache compaction.",
            c.kept as f64,
        );
        set(
            "puno_cache_compact_dropped_corrupt",
            "Corrupt lines dropped by the most recent cache compaction.",
            c.dropped_corrupt as f64,
        );
        set(
            "puno_cache_compact_dropped_stale",
            "Stale records dropped by the most recent cache compaction.",
            c.dropped_stale as f64,
        );
        set(
            "puno_cache_compact_dropped_duplicate",
            "Superseded duplicates dropped by the most recent cache compaction.",
            c.dropped_duplicate as f64,
        );
    }
}

/// The sweep's stderr progress sink: a dedicated thread beating every
/// `interval` until the last worker signals, with an ETA extrapolated from
/// the LPT cost estimates (work-weighted, so a long straggler cell keeps
/// the ETA honest where a plain cells/second rate would not).
struct Heartbeat {
    interval: std::time::Duration,
    /// Workers still running; the last one out notifies the condvar.
    alive: Mutex<usize>,
    cv: Condvar,
}

impl Heartbeat {
    fn worker_done(&self) {
        let mut alive = self.alive.lock().unwrap_or_else(|e| e.into_inner());
        *alive = alive.saturating_sub(1);
        if *alive == 0 {
            self.cv.notify_all();
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        start: std::time::Instant,
        resumed: usize,
        total: usize,
        job_weight_total: f64,
        started: &std::sync::atomic::AtomicUsize,
        done: &Mutex<Vec<(usize, CellOutcome, bool)>>,
        estimates: &[f64],
    ) {
        loop {
            let finished = {
                let alive = self.alive.lock().unwrap_or_else(|e| e.into_inner());
                if *alive == 0 {
                    true
                } else {
                    let (alive, _) = self
                        .cv
                        .wait_timeout(alive, self.interval)
                        .unwrap_or_else(|e| e.into_inner());
                    *alive == 0
                }
            };
            let (finished_jobs, done_weight) = {
                let d = done.lock().unwrap_or_else(|e| e.into_inner());
                (
                    d.len(),
                    d.iter().map(|(i, _, _)| estimates[*i]).sum::<f64>(),
                )
            };
            let running = started
                .load(std::sync::atomic::Ordering::Relaxed)
                .saturating_sub(finished_jobs);
            let elapsed = start.elapsed().as_secs_f64();
            let eta = (done_weight > 0.0 && elapsed > 0.0)
                .then(|| (job_weight_total - done_weight).max(0.0) * elapsed / done_weight);
            eprintln!(
                "{}",
                obs::render_heartbeat(resumed + finished_jobs, total, running, elapsed, eta)
            );
            if finished {
                return;
            }
        }
    }
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
    obs_retries: Option<&obs::Counter>,
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
        if let Some(counter) = obs_retries {
            counter.inc();
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

/// Parse a JSONL checkpoint, skipping unparsable (e.g. torn) lines.
fn load_checkpoint(path: &Path) -> Vec<CellOutcome> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| serde_json::from_str::<CellOutcome>(l).ok())
        .collect()
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

    /// Interrupted sweep: first pass checkpoints one success and one
    /// failure; the resumed pass re-runs only the failed cell.
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
