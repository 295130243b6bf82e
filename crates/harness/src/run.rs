//! Single-cell entry points: [`run_workload`], [`run_with_config`] and the
//! cached [`run_with_config_cached`], all built on one
//! `System::new(..).try_run_recycled()`.
//!
//! These entry points, and only these, install the run-level tracer knobs
//! `PUNO_TRACE` / `PUNO_TRACE_OUT` (see [`env_tracer`]) on the system they
//! build; its ring becomes the trace of a deadlock/livelock error. Sweeps
//! ([`mod@crate::sweep`]), and so the grid of the `figures` binary, ignore
//! `PUNO_TRACE`: their retry attempts run traced on their own. To trace one
//! sweep cell, use `sweep_all --trace <workload>:<mechanism>`.

use crate::cache::ResultCache;
use crate::config::SystemConfig;
use crate::error::RunError;
use crate::mechanism::Mechanism;
use crate::metrics::RunMetrics;
use crate::system::System;
use puno_sim::{TraceConfig, Tracer};
use puno_workloads::WorkloadParams;
use std::path::{Path, PathBuf};

/// Where the JSONL stream for one run goes. `out` set as an existing
/// directory gets a per-cell file name inside it; anything else is taken
/// verbatim as the file path.
pub fn resolve_trace_out(out: &Path, workload: &str, mechanism: &str, seed: u64) -> PathBuf {
    if out.is_dir() {
        out.join(format!("trace_{workload}_{mechanism}_s{seed}.jsonl"))
    } else {
        out.to_path_buf()
    }
}

/// Build the tracer described by `PUNO_TRACE` / `PUNO_TRACE_OUT`, or `None`
/// when tracing is off (read by this module's entry points only). Panics on
/// a malformed channel spec — a typo must not silently run untraced — and
/// reports (but survives) an unwritable JSONL path.
pub fn env_tracer(workload: &str, mechanism: &str, seed: u64) -> Option<Tracer> {
    let cfg = match TraceConfig::from_env() {
        Ok(Some(cfg)) => cfg,
        Ok(None) => return None,
        Err(e) => panic!("{e}"),
    };
    let mut tracer = Tracer::ring(cfg.mask, puno_sim::trace::DEFAULT_RING_CAPACITY);
    if let Some(out) = &cfg.out {
        let path = resolve_trace_out(out, workload, mechanism, seed);
        if let Err(e) = tracer.set_jsonl_path(&path) {
            eprintln!("warning: cannot open trace output {}: {e}", path.display());
        }
    }
    Some(tracer)
}

/// Apply the run-level env knobs (`PUNO_TRACE`, `PUNO_TRACE_OUT`) to a
/// freshly built system.
fn install_env_knobs(sys: &mut System, params: &WorkloadParams, seed: u64) {
    if let Some(tracer) = env_tracer(&params.name, sys.mechanism().name(), seed) {
        sys.install_tracer(tracer);
    }
}

/// Run `params` under `mechanism` on the paper's Table II system.
pub fn run_workload(mechanism: Mechanism, params: &WorkloadParams, seed: u64) -> RunMetrics {
    run_with_config(SystemConfig::paper(mechanism), params, seed)
}

/// Run with a custom configuration (ablations, sensitivity sweeps).
/// Panics on deadlock/livelock with the rendered [`RunError`].
pub fn run_with_config(config: SystemConfig, params: &WorkloadParams, seed: u64) -> RunMetrics {
    let mut sys = System::new(config, params, seed);
    install_env_knobs(&mut sys, params, seed);
    sys.try_run_recycled().unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_with_config`] through the process-wide result cache (see
/// [`crate::cache::global_cache`]): with `PUNO_RESULT_CACHE` set, a cell
/// whose `(config, params, seed, engine-version)` digest is already stored
/// replays the persisted metrics without simulating; fresh results are
/// stored on completion. Without the env var this is exactly
/// [`run_with_config`]. A cache hit replays no events, so it emits no
/// trace — use `sweep_all --trace` (which bypasses the cache) to trace a
/// cached cell.
pub fn run_with_config_cached(
    config: SystemConfig,
    params: &WorkloadParams,
    seed: u64,
) -> RunMetrics {
    let digest = crate::cache::cell_digest(&config, params, seed);
    let cache = crate::cache::global_cache();
    cache_through(cache.as_deref(), digest, seed, || {
        Ok(run_with_config(config, params, seed))
    })
    .unwrap_or_else(|e| panic!("{e}"))
}

/// The cache-through path of one cell behind [`run_with_config_cached`]:
/// serve `digest` from `cache` when it is stored, else `run` the cell and
/// store a successful result. A failed run is never stored.
fn cache_through(
    cache: Option<&ResultCache>,
    digest: u64,
    seed: u64,
    run: impl FnOnce() -> Result<RunMetrics, RunError>,
) -> Result<RunMetrics, RunError> {
    if let Some(metrics) = cache.and_then(|c| c.lookup(digest)) {
        return Ok(metrics);
    }
    let metrics = run()?;
    if let Some(cache) = cache {
        cache.store(digest, 0, seed, &metrics);
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use puno_workloads::micro;

    #[test]
    fn all_mechanisms_complete_the_same_offered_load() {
        let params = micro::read_mostly(15);
        let mut committed = Vec::new();
        for mech in Mechanism::ALL {
            let m = run_workload(mech, &params, 2);
            committed.push(m.committed);
        }
        assert!(committed.windows(2).all(|w| w[0] == w[1]), "{committed:?}");
    }
}
