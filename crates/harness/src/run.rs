//! Single-cell entry points: [`run_workload`], [`run_with_config`] and the
//! cached [`run_with_config_cached`], all built on one
//! `System::new(..).try_run_recycled()`.
//!
//! These entry points, and only these, attach the tracer that `PUNO_TRACE`
//! / `PUNO_TRACE_OUT` ask for (see [`HostOptions::install_tracer`]) to the
//! system they build; its ring becomes the trace of a deadlock/livelock
//! error. Sweeps ([`mod@crate::sweep`]), and so the grid of the `figures`
//! binary, ignore `PUNO_TRACE`: their retry attempts run traced on their
//! own. To trace one sweep cell, use `sweep_all --trace
//! <workload>:<mechanism>`.

use crate::cache::ResultCache;
use crate::config::SystemConfig;
use crate::error::RunError;
use crate::knobs::HostOptions;
use crate::mechanism::Mechanism;
use crate::metrics::RunMetrics;
use crate::system::System;
use puno_workloads::WorkloadParams;

/// Run `params` under `mechanism` on the paper's Table II system.
pub fn run_workload(mechanism: Mechanism, params: &WorkloadParams, seed: u64) -> RunMetrics {
    run_with_config(SystemConfig::paper(mechanism), params, seed)
}

/// Run with a custom configuration (ablations, sensitivity sweeps).
/// Panics on deadlock/livelock with the rendered [`RunError`].
pub fn run_with_config(config: SystemConfig, params: &WorkloadParams, seed: u64) -> RunMetrics {
    let mut sys = System::new(config, params, seed);
    HostOptions::get().install_tracer(&mut sys, &params.name, seed);
    sys.try_run_recycled().unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_with_config`] through the process-wide result cache (see
/// [`crate::cache::global_cache`]): with `PUNO_RESULT_CACHE` set, a cell
/// whose `(config, params, seed, engine-version)` digest is already stored
/// replays the persisted metrics without simulating; fresh results are
/// stored on completion. Without the cache this is exactly
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
