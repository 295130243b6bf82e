//! Thread-parallel experiment sweeps with failure containment and resume.
//!
//! Each simulation run is single-threaded and deterministic; the sweep fans
//! (workload x mechanism) combinations across OS threads and reassembles
//! results in a deterministic order. A failing cell — structured
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
/// generated once per sweep and shared immutably across its mechanism
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
    simulating_sweep(workloads, mechanisms, opts, false).0
}

/// [`try_sweep`] additionally returning one flattened [`WarehouseRow`] per
/// cell (deterministic cell order, same `run_id` for the whole sweep) —
/// what `sweep_all --json` emits and what the `PUNO_WAREHOUSE` sink
/// records. A row is flagged `cache_hit` when the cell was replayed from
/// the result cache.
pub fn try_sweep_rows(
    workloads: &[WorkloadId],
    mechanisms: &[Mechanism],
    opts: &SweepOptions,
) -> (Vec<CellOutcome>, Vec<WarehouseRow>) {
    simulating_sweep(workloads, mechanisms, opts, true)
}

/// The sweep behind [`try_sweep`] and [`try_sweep_rows`]: the result cache
/// serves what it holds, and the rest simulates on shared programs.
fn simulating_sweep(
    workloads: &[WorkloadId],
    mechanisms: &[Mechanism],
    opts: &SweepOptions,
    want_rows: bool,
) -> (Vec<CellOutcome>, Vec<WarehouseRow>) {
    let programs: Vec<OnceLock<ProgramSet>> = workloads.iter().map(|_| OnceLock::new()).collect();
    // Fault plans perturb simulated behaviour, so those runs are neither
    // served from nor stored into the cache.
    let cache = opts
        .result_cache
        .as_deref()
        .filter(|_| opts.fault_plan.is_empty());
    run_sweep(
        workloads,
        mechanisms,
        opts,
        cache,
        want_rows,
        |cell, params, traced| {
            let config = (opts.config)(cell.key.mechanism);
            let program_set = programs[cell.workload]
                .get_or_init(|| ProgramSet::generate(params, config.nodes(), cell.key.seed));
            let mut sys = System::new_shared(config, params, cell.key.seed, program_set);
            if traced {
                sys.enable_trace(RETRY_TRACE_CAPACITY);
            }
            if !opts.fault_plan.is_empty() {
                sys.set_fault_plan(opts.fault_plan.clone());
            }
            sys.try_run_recycled()
        },
    )
}

/// [`try_sweep`] parameterized over the per-cell runner — the containment
/// and retry machinery is identical, but tests (and custom
/// harnesses) can substitute their own cell body. The runner's `traced`
/// flag is false on the first attempt and true on retries. The result
/// cache is left to the runner: none is consulted here.
pub fn try_sweep_with<F>(
    workloads: &[WorkloadId],
    mechanisms: &[Mechanism],
    opts: &SweepOptions,
    runner: F,
) -> Vec<CellOutcome>
where
    F: Fn(Mechanism, &WorkloadParams, u64, bool) -> Result<RunMetrics, RunError> + Sync,
{
    run_sweep(
        workloads,
        mechanisms,
        opts,
        None,
        false,
        |cell, params, traced| runner(cell.key.mechanism, params, cell.key.seed, traced),
    )
    .0
}

/// [`try_sweep_with`] additionally returning one [`WarehouseRow`] per cell.
/// With `PUNO_WAREHOUSE` set the rows are appended to the cross-run
/// warehouse. Recording is host-side only — cell outcomes are
/// bit-identical with the sink on or off.
pub fn try_sweep_with_rows<F>(
    workloads: &[WorkloadId],
    mechanisms: &[Mechanism],
    opts: &SweepOptions,
    runner: F,
) -> (Vec<CellOutcome>, Vec<WarehouseRow>)
where
    F: Fn(Mechanism, &WorkloadParams, u64, bool) -> Result<RunMetrics, RunError> + Sync,
{
    run_sweep(
        workloads,
        mechanisms,
        opts,
        None,
        true,
        |cell, params, traced| runner(cell.key.mechanism, params, cell.key.seed, traced),
    )
}

/// One sweep cell with its identity resolved once per sweep.
struct Cell {
    key: CellKey,
    /// Index of the cell's workload in the sweep (and its parameters).
    workload: usize,
    /// The cell's [`crate::cache::cell_digest`]: its result-cache key and
    /// its warehouse row's `digest`.
    digest: u64,
}

/// Each workload's scaled parameters, and the `workloads x mechanisms`
/// cells in workload-major order. Each mechanism's configuration and each
/// workload's parameters are `Debug`-formatted once for the whole grid,
/// and every cell digest is folded from those pieces.
fn grid(
    workloads: &[WorkloadId],
    mechanisms: &[Mechanism],
    opts: &SweepOptions,
) -> (Vec<WorkloadParams>, Vec<Cell>) {
    let config_states: Vec<u64> = mechanisms
        .iter()
        .map(|&m| config_digest_state(&(opts.config)(m)))
        .collect();
    let mut params = Vec::with_capacity(workloads.len());
    let mut cells = Vec::with_capacity(workloads.len() * mechanisms.len());
    for (index, &workload) in workloads.iter().enumerate() {
        let scaled = workload.params().scaled(opts.scale);
        let debug = format!("{scaled:?}");
        cells.extend(
            mechanisms
                .iter()
                .zip(&config_states)
                .map(|(&mechanism, &state)| Cell {
                    key: CellKey {
                        workload,
                        mechanism,
                        seed: opts.seed,
                    },
                    workload: index,
                    digest: finish_cell_digest(state, &debug, opts.seed),
                }),
        );
        params.push(scaled);
    }
    (params, cells)
}

/// The sweep machinery every entry point shares. `cache` hits are served
/// on the calling thread; only the cells left over are scheduled onto
/// workers, so a fully served sweep spawns no thread. A cell that `runner`
/// completes is stored into `cache`. Rows are built when `want_rows` is set
/// or the `PUNO_WAREHOUSE` sink is on.
fn run_sweep<F>(
    workloads: &[WorkloadId],
    mechanisms: &[Mechanism],
    opts: &SweepOptions,
    cache: Option<&ResultCache>,
    want_rows: bool,
    runner: F,
) -> (Vec<CellOutcome>, Vec<WarehouseRow>)
where
    F: Fn(&Cell, &WorkloadParams, bool) -> Result<RunMetrics, RunError> + Sync,
{
    let (params, cells) = grid(workloads, mechanisms, opts);

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
    let ops: Vec<f64> = params.iter().map(expected_ops).collect();
    jobs.sort_by(|&a, &b| {
        ops[cells[b].workload]
            .total_cmp(&ops[cells[a].workload])
            .then(a.cmp(&b))
    });

    let done: Mutex<Vec<(usize, CellOutcome)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let (jobs, cells, params, done, next) = (&jobs, &cells, &params, &done, &next);
        let (runner, retry) = (&runner, &opts.retry);
        for _ in 0..workers.min(jobs.len()) {
            s.spawn(move || loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= jobs.len() {
                    break;
                }
                let i = jobs[j];
                let cell = &cells[i];
                let params = &params[cell.workload];
                let outcome = run_cell(cell.key, retry, |traced| runner(cell, params, traced));
                if let (CellOutcome::Ok { metrics, .. }, Some(cache)) = (&outcome, cache) {
                    cache.store(cell.digest, 0, cell.key.seed, metrics);
                }
                store::lock(done).push((i, outcome));
            });
        }
    });
    for (i, outcome) in done.into_inner().unwrap_or_else(|e| e.into_inner()) {
        slots[i] = Some(outcome);
    }

    let outcomes: Vec<CellOutcome> = slots
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

    let host = HostOptions::get();
    if !want_rows && host.warehouse.is_none() {
        return (outcomes, Vec::new());
    }
    let rows = warehouse_rows(&host.run_id, &outcomes, &cells, &cache_hits);
    if let Some(dir) = &host.warehouse {
        let appended = warehouse::Warehouse::open(dir).and_then(|wh| wh.append(&rows));
        if let Err(e) = appended {
            eprintln!(
                "warning: PUNO_WAREHOUSE={} unusable ({e}); rows not recorded",
                dir.display()
            );
        }
    }
    (outcomes, rows)
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
}
