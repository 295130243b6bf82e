//! Thread-parallel experiment sweeps with failure containment and resume.
//!
//! Each simulation run is single-threaded and deterministic; the sweep fans
//! a list of cells across OS threads and reassembles results in a
//! deterministic order. Every batch of cells runs here: the
//! (workload x mechanism) grids of [`try_sweep`] and [`try_sweep_rows`],
//! and cells that each bring their own configuration ([`sweep_configs`]). A failing cell — structured
//! [`RunError`] or outright panic — no longer takes the process (and every
//! sibling cell) down: it is caught, optionally retried with the message
//! trace ring enabled, and reported as a [`CellOutcome::Err`] while the
//! remaining cells complete. The result cache is the sweep's only on-disk
//! state: each fault-free cell is stored into it as it completes, so a
//! killed sweep re-run over the same cache replays the cells that finished
//! and simulates only the rest.

use crate::cache::{config_digest_state, finish_cell_digest, global_cache, ResultCache};
use crate::error::RunError;
use crate::knobs::HostOptions;
use crate::metrics::RunMetrics;
use crate::store;
use crate::system::System;
use crate::warehouse::{self, WarehouseRow};
use crate::{Mechanism, SystemConfig};
use puno_sim::FaultPlan;
use puno_workloads::{ProgramSet, WorkloadId, WorkloadParams};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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
    /// cells, quarantined cells are not stored in the result cache, so a
    /// re-run sweep re-attempts them.
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
/// retry runs at once, with an all-channel trace ring of
/// `RETRY_TRACE_CAPACITY` events, so a persistent failure's final error
/// carries the events leading into the stall. A cell that exhausts a
/// multi-attempt budget is recorded as [`CellOutcome::Quarantined`] and the
/// sweep completes degraded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum total attempts per cell (clamped to >= 1; 1 = no retries).
    pub max_attempts: u32,
}

impl RetryPolicy {
    pub fn new(max_attempts: u32) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
        }
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
    /// Escalating retry policy (attempt budget). Retries re-run with the
    /// message trace ring enabled, so a persistent failure's final error
    /// carries the trace leading up to it; cells that exhaust a
    /// multi-attempt budget are quarantined instead of failing the sweep.
    /// [`SweepOptions::new`] takes `PUNO_RETRY_MAX` from [`HostOptions`].
    pub retry: RetryPolicy,
    /// Persistent result cache (see [`crate::cache`]): fault-free cells
    /// whose digest is present replay the stored metrics instead of
    /// simulating; fresh results are stored as they complete, so a killed
    /// sweep resumes from it. Failed and quarantined cells are not stored,
    /// so they re-attempt. Sweeps with a fault plan neither read nor write
    /// it. [`SweepOptions::new`] wires in the process-wide
    /// `PUNO_RESULT_CACHE` cache; tests inject their own.
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
            retry: HostOptions::get().retry,
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
/// worker scheduling or cache state.
///
/// The cell body is the sweep-scale fast path: each workload's trace is
/// generated once per sweep and mesh and shared immutably across its
/// cells and retries (each cell builds its `System` with
/// [`System::new_shared`]); and with a result cache configured, fault-free
/// cells whose inputs are unchanged replay their stored metrics without
/// simulating at all. Both paths are bit-identical to a fresh
/// `System::new(..).try_run_recycled()` per cell. Warehouse rows are built
/// only for the `PUNO_WAREHOUSE` sink; [`try_sweep_rows`] returns them.
pub fn try_sweep(
    workloads: &[WorkloadId],
    mechanisms: &[Mechanism],
    opts: &SweepOptions,
) -> Vec<CellOutcome> {
    let plan = Plan::new(grid_cells(workloads, mechanisms, opts), opts);
    let (outcomes, cache_hits) = simulating_sweep(&plan, opts);
    record_rows(&plan, &outcomes, &cache_hits, false);
    outcomes
}

/// [`try_sweep`] over an explicit `(workload, mechanism)` cell list, in
/// its order, additionally returning one flattened [`WarehouseRow`] per
/// cell (same `run_id` for the whole sweep) — what `sweep_all --json`
/// emits and what the `PUNO_WAREHOUSE` sink records. A row is flagged
/// `cache_hit` when the cell was replayed from the result cache.
pub fn try_sweep_rows(
    cells: &[(WorkloadId, Mechanism)],
    opts: &SweepOptions,
) -> (Vec<CellOutcome>, Vec<WarehouseRow>) {
    let plan = Plan::new(cells.iter().map(|&(w, m)| ((opts.config)(m), w)), opts);
    let (outcomes, cache_hits) = simulating_sweep(&plan, opts);
    let rows = record_rows(&plan, &outcomes, &cache_hits, true);
    (outcomes, rows)
}

/// The cells of `workloads x mechanisms` on `opts.config`, workload-major.
fn grid_cells(
    workloads: &[WorkloadId],
    mechanisms: &[Mechanism],
    opts: &SweepOptions,
) -> Vec<(SystemConfig, WorkloadId)> {
    let configs: Vec<SystemConfig> = mechanisms.iter().map(|&m| (opts.config)(m)).collect();
    workloads
        .iter()
        .flat_map(|&w| configs.iter().map(move |&c| (c, w)))
        .collect()
}

/// The sweep behind every simulating entry point: the result cache serves
/// what it holds, and the rest simulates on programs shared per workload
/// and mesh.
fn simulating_sweep(plan: &Plan, opts: &SweepOptions) -> (Vec<CellOutcome>, Vec<bool>) {
    let programs: Vec<OnceLock<ProgramSet>> =
        (0..plan.program_sets).map(|_| OnceLock::new()).collect();
    // Fault plans perturb simulated behaviour, so those runs are neither
    // served from nor stored into the cache.
    let cache = opts
        .result_cache
        .as_deref()
        .filter(|_| opts.fault_plan.is_empty());
    run_sweep(plan, opts, cache, |cell, traced| {
        let params = &plan.params[cell.workload];
        let program_set = programs[cell.programs]
            .get_or_init(|| ProgramSet::generate(params, cell.config.nodes(), cell.key.seed));
        let mut sys = System::new_shared(cell.config, params, cell.key.seed, program_set);
        if traced {
            sys.enable_trace(RETRY_TRACE_CAPACITY);
        }
        if !opts.fault_plan.is_empty() {
            sys.set_fault_plan(opts.fault_plan.clone());
        }
        sys.try_run_recycled()
    })
}

/// [`try_sweep_rows`] over `workloads x mechanisms` with the per-cell
/// runner substituted — the containment and retry machinery is identical,
/// so tests (and custom harnesses) can fake or perturb the cell body. The
/// runner's `traced` flag is false on the first attempt and true on
/// retries. The result cache is left to the runner: none is consulted
/// here.
pub fn try_sweep_with<F>(
    workloads: &[WorkloadId],
    mechanisms: &[Mechanism],
    opts: &SweepOptions,
    runner: F,
) -> (Vec<CellOutcome>, Vec<WarehouseRow>)
where
    F: Fn(Mechanism, &WorkloadParams, u64, bool) -> Result<RunMetrics, RunError> + Sync,
{
    let plan = Plan::new(grid_cells(workloads, mechanisms, opts), opts);
    let (outcomes, cache_hits) = run_sweep(&plan, opts, None, |cell, traced| {
        let params = &plan.params[cell.workload];
        runner(cell.key.mechanism, params, cell.key.seed, traced)
    });
    let rows = record_rows(&plan, &outcomes, &cache_hits, true);
    (outcomes, rows)
}

/// One sweep cell with its identity and inputs resolved once per sweep.
struct Cell {
    key: CellKey,
    config: SystemConfig,
    /// Index of the cell's workload parameters in [`Plan::params`].
    workload: usize,
    /// Index of the cell's program set: one per (workload, node count).
    programs: usize,
    /// The cell's [`crate::cache::cell_digest`]: its result-cache key and
    /// its warehouse row's `digest`.
    digest: u64,
}

/// The cells of one sweep, in output order, and the scaled workload
/// parameters they run.
struct Plan {
    params: Vec<WorkloadParams>,
    cells: Vec<Cell>,
    /// Distinct (workload, node count) pairs: the program sets to generate.
    program_sets: usize,
}

impl Plan {
    /// `(config, workload)` cells at `opts`' seed and scale. Each distinct
    /// configuration and each workload's parameters are `Debug`-formatted
    /// once for the whole sweep, and every cell digest is folded from
    /// those pieces.
    fn new(
        cells: impl IntoIterator<Item = (SystemConfig, WorkloadId)>,
        opts: &SweepOptions,
    ) -> Self {
        let (mut configs, mut config_states) = (Vec::new(), Vec::new());
        let (mut workloads, mut params, mut params_debug) = (Vec::new(), Vec::new(), Vec::new());
        let mut program_sets = Vec::new();
        let mut planned = Vec::new();
        for (config, workload) in cells {
            let c = position_or_push(&mut configs, config);
            if c == config_states.len() {
                config_states.push(config_digest_state(&config));
            }
            let w = position_or_push(&mut workloads, workload);
            if w == params.len() {
                let scaled = workload.params().scaled(opts.scale);
                params_debug.push(format!("{scaled:?}"));
                params.push(scaled);
            }
            planned.push(Cell {
                key: CellKey {
                    workload,
                    mechanism: config.mechanism,
                    seed: opts.seed,
                },
                config,
                workload: w,
                programs: position_or_push(&mut program_sets, (w, config.nodes())),
                digest: finish_cell_digest(config_states[c], &params_debug[w], opts.seed),
            });
        }
        Self {
            params,
            cells: planned,
            program_sets: program_sets.len(),
        }
    }
}

/// The index of `item` in `items`, appending it first if it is absent.
fn position_or_push<T: PartialEq>(items: &mut Vec<T>, item: T) -> usize {
    items.iter().position(|x| *x == item).unwrap_or_else(|| {
        items.push(item);
        items.len() - 1
    })
}

/// The sweep machinery every entry point shares: the outcome of each of
/// `plan`'s cells, in order, and whether `cache` served it. `cache` hits
/// are served on the calling thread; only the cells left over are
/// scheduled onto workers, so a fully served sweep spawns no thread. A
/// cell that `runner` completes is stored into `cache`.
fn run_sweep<F>(
    plan: &Plan,
    opts: &SweepOptions,
    cache: Option<&ResultCache>,
    runner: F,
) -> (Vec<CellOutcome>, Vec<bool>)
where
    F: Fn(&Cell, bool) -> Result<RunMetrics, RunError> + Sync,
{
    let cells = &plan.cells;
    // Slot per cell. Cache hits are filled in here and flagged for their
    // warehouse rows.
    let mut cache_hits = vec![false; cells.len()];
    let mut slots: Vec<Option<CellOutcome>> = cells
        .iter()
        .zip(&mut cache_hits)
        .map(|(cell, hit)| {
            let metrics = cache?.lookup(cell.digest)?;
            *hit = true;
            Some(CellOutcome::Ok {
                key: cell.key,
                metrics,
            })
        })
        .collect();
    // The worker count is decided over every cell, cache hits included, so
    // a warm replay reports the count its cold run did.
    let workers = effective_workers(cells.len());
    let mut jobs: Vec<usize> = (0..cells.len()).filter(|&i| slots[i].is_none()).collect();

    // Longest-first (LPT): the cells expected to run longest start first,
    // so a straggler cannot end up alone at the tail of the sweep with
    // every other worker idle. Ties keep the deterministic cell order;
    // output order is unaffected.
    let ops: Vec<f64> = plan.params.iter().map(expected_ops).collect();
    jobs.sort_by(|&a, &b| {
        ops[cells[b].workload]
            .total_cmp(&ops[cells[a].workload])
            .then(a.cmp(&b))
    });

    let done: Mutex<Vec<(usize, CellOutcome)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let (jobs, done, next) = (&jobs, &done, &next);
        let (runner, retry) = (&runner, &opts.retry);
        for _ in 0..workers.min(jobs.len()) {
            s.spawn(move || loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= jobs.len() {
                    break;
                }
                let cell = &cells[jobs[j]];
                let outcome = run_cell(cell.key, retry, |traced| runner(cell, traced));
                if let (CellOutcome::Ok { metrics, .. }, Some(cache)) = (&outcome, cache) {
                    cache.store(cell.digest, 0, cell.key.seed, metrics);
                }
                store::lock(done).push((jobs[j], outcome));
            });
        }
    });
    for (i, outcome) in done.into_inner().unwrap_or_else(|e| e.into_inner()) {
        slots[i] = Some(outcome);
    }

    let outcomes = slots
        .into_iter()
        .map(|s| {
            let mut outcome = s.expect("every sweep cell resolved");
            // Record the sweep's effective worker count in every cell's
            // host-side perf block (non-deterministic observability only —
            // excluded from golden comparisons like the rest of HostPerf).
            if let CellOutcome::Ok { metrics, .. } = &mut outcome {
                metrics.host.sweep_workers = workers as u64;
            }
            outcome
        })
        .collect();
    (outcomes, cache_hits)
}

/// The sweep's warehouse rows, built when `want_rows` is set or the
/// `PUNO_WAREHOUSE` sink is on, and appended to that sink. Recording is
/// host-side only: cell outcomes are bit-identical with the sink on or
/// off.
fn record_rows(
    plan: &Plan,
    outcomes: &[CellOutcome],
    cache_hits: &[bool],
    want_rows: bool,
) -> Vec<WarehouseRow> {
    let host = HostOptions::get();
    if !want_rows && host.warehouse.is_none() {
        return Vec::new();
    }
    let rows = warehouse_rows(&host.run_id, outcomes, &plan.cells, cache_hits);
    if let Some(dir) = &host.warehouse {
        let appended = warehouse::Warehouse::open(dir).and_then(|wh| wh.append(&rows));
        if let Err(e) = appended {
            eprintln!(
                "warning: PUNO_WAREHOUSE={} unusable ({e}); rows not recorded",
                dir.display()
            );
        }
    }
    rows
}

/// Flatten every cell into a warehouse row: deterministic order, one
/// `run_id` for the whole sweep.
fn warehouse_rows(
    run_id: &str,
    outcomes: &[CellOutcome],
    cells: &[Cell],
    cache_hits: &[bool],
) -> Vec<WarehouseRow> {
    let recorded_unix = warehouse::unix_now();
    outcomes
        .iter()
        .zip(cells)
        .zip(cache_hits)
        .map(|((outcome, cell), &cache_hit)| match outcome {
            CellOutcome::Ok { metrics, .. } => WarehouseRow::from_metrics(
                run_id,
                recorded_unix,
                cell.digest,
                "ok",
                cache_hit,
                metrics,
            ),
            CellOutcome::Err { .. } | CellOutcome::Quarantined { .. } => WarehouseRow::placeholder(
                run_id,
                recorded_unix,
                cell.digest,
                cell.key.workload.name(),
                cell.key.mechanism.name(),
                cell.key.seed,
                if outcome.is_quarantined() {
                    "quarantined"
                } else {
                    "err"
                },
            ),
        })
        .collect()
}

/// Effective sweep worker count — the single place it is decided.
///
/// Starts from `available_parallelism`, read once per process (it reads
/// the cgroup quota files on every call, and the answer does not change
/// while the process runs). `PUNO_SWEEP_THREADS` ([`HostOptions`]) can
/// only lower that count, never raise it: it is a cap, not a pin, so a
/// request for 4 workers runs 2 on a 2-core host (per-cell results are
/// deterministic at any thread count). The result is then clamped to the
/// number of runnable jobs so a small or mostly-resumed sweep does not
/// spawn idle threads.
pub fn effective_workers(jobs: usize) -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    let hw = *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });
    let capped = HostOptions::get()
        .sweep_threads
        .map_or(hw, |n| hw.min(n.get()));
    capped.min(jobs.max(1))
}

/// A cell's expected length for job ordering: transactional plus
/// non-transactional operations per node, from its parameters alone. Only
/// the relative order of two cells matters.
fn expected_ops(params: &WorkloadParams) -> f64 {
    let weight_sum: f64 = params
        .static_txs
        .iter()
        .map(|t| t.weight)
        .sum::<f64>()
        .max(1e-9);
    let ops_per_tx: f64 = params
        .static_txs
        .iter()
        .map(|t| {
            let reads = (t.reads.0 + t.reads.1) as f64 / 2.0;
            let writes = (t.writes.0 + t.writes.1) as f64 / 2.0;
            t.weight * (reads + writes)
        })
        .sum::<f64>()
        / weight_sum;
    params.tx_per_node as f64 * (ops_per_tx + params.non_tx_accesses as f64)
}

/// Run one cell (`attempt`, given whether it runs traced) with panic
/// containment under the escalating retry policy. A cell that exhausts a
/// multi-attempt budget comes back [`CellOutcome::Quarantined`]; with no
/// retry budget a failure stays a plain [`CellOutcome::Err`].
fn run_cell(
    key: CellKey,
    policy: &RetryPolicy,
    attempt: impl Fn(bool) -> Result<RunMetrics, RunError>,
) -> CellOutcome {
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let traced = attempts > 1;
        let result = catch_unwind(AssertUnwindSafe(|| attempt(traced)));
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
        .map(|outcome| {
            let key = outcome.key();
            SweepResult {
                workload: key.workload,
                mechanism: key.mechanism,
                metrics: expect_ok(outcome, String::new),
            }
        })
        .collect()
}

/// Run each `(config, workload)` cell under `opts` through the sweep —
/// result cache, workers, retry policy and program sharing as for
/// [`try_sweep`]; `opts.config` is not read, each cell brings its own —
/// and return its metrics in input order. Panics, naming the cell, if any
/// cell fails. It records no warehouse rows: the warehouse groups rows by
/// workload and mechanism name, which do not tell two configurations of
/// one mechanism apart.
pub fn sweep_configs(cells: &[(SystemConfig, WorkloadId)], opts: &SweepOptions) -> Vec<RunMetrics> {
    let plan = Plan::new(cells.iter().copied(), opts);
    let (outcomes, _) = simulating_sweep(&plan, opts);
    outcomes
        .into_iter()
        .zip(&plan.cells)
        .enumerate()
        .map(|(i, (outcome, cell))| {
            expect_ok(outcome, || {
                format!(" (entry {i}, digest {:016x})", cell.digest)
            })
        })
        .collect()
}

/// The metrics of a completed cell; panics naming the cell, with
/// `detail()` appended, for one that failed.
fn expect_ok(outcome: CellOutcome, detail: impl FnOnce() -> String) -> RunMetrics {
    match outcome {
        CellOutcome::Ok { metrics, .. } => metrics,
        CellOutcome::Err { key, error, .. } | CellOutcome::Quarantined { key, error, .. } => {
            panic!(
                "sweep cell {:?}/{:?} @ seed {}{} failed: {error}",
                key.workload,
                key.mechanism,
                key.seed,
                detail()
            )
        }
    }
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
        let (outcomes, _) = try_sweep_with(&workloads, &mechanisms, &opts, |m, params, seed, _| {
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
        let (outcomes, _) = try_sweep_with(
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
        let (outcomes, _) =
            try_sweep_with(&workloads, &mechanisms, &opts, |m, params, seed, traced| {
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
}
