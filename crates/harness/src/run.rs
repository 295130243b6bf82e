//! Single-experiment entry point.

use crate::config::SystemConfig;
use crate::error::RunError;
use crate::mechanism::Mechanism;
use crate::metrics::RunMetrics;
use crate::system::System;
use puno_sim::{FaultPlan, TraceConfig, Tracer};
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
/// when tracing is off. Panics on a malformed channel spec — a typo must
/// not silently run untraced — and reports (but survives) an unwritable
/// JSONL path.
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

/// Apply the env-var tracing configuration to a freshly built system.
fn install_env_tracer(sys: &mut System, params: &WorkloadParams, seed: u64) {
    crate::obs::init_from_env();
    if let Some(tracer) = env_tracer(&params.name, sys.mechanism().name(), seed) {
        sys.install_tracer(tracer);
    }
    arm_env_snapshots(sys);
}

/// Parse `PUNO_SNAPSHOT_EVERY`: the cycle interval between periodic ring
/// snapshots (see [`System::set_snapshot_every`]). `None` when unset or
/// unparsable; an explicit `Some(0)` means off (and overrides any
/// auto-arming, e.g. on traced sweep retries).
pub fn env_snapshot_every() -> Option<u64> {
    std::env::var("PUNO_SNAPSHOT_EVERY")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
}

/// Arm the snapshot ring on a freshly built system when
/// `PUNO_SNAPSHOT_EVERY` asks for it.
fn arm_env_snapshots(sys: &mut System) {
    if let Some(every) = env_snapshot_every() {
        if every > 0 {
            sys.set_snapshot_every(every);
        }
    }
}

/// Run `params` under `mechanism` on the paper's Table II system.
pub fn run_workload(mechanism: Mechanism, params: &WorkloadParams, seed: u64) -> RunMetrics {
    let config = SystemConfig::paper(mechanism);
    let mut sys = System::new(config, params, seed);
    install_env_tracer(&mut sys, params, seed);
    sys.run()
}

/// Like [`run_workload`] but reporting deadlock/livelock as a structured
/// [`RunError`] instead of panicking.
pub fn try_run_workload(
    mechanism: Mechanism,
    params: &WorkloadParams,
    seed: u64,
) -> Result<RunMetrics, RunError> {
    let config = SystemConfig::paper(mechanism);
    let mut sys = System::new(config, params, seed);
    install_env_tracer(&mut sys, params, seed);
    sys.try_run()
}

/// Run on the paper system with `plan` installed, reporting failures as
/// structured [`RunError`]s. Fault counts land in `RunMetrics::faults`.
pub fn run_workload_with_faults(
    mechanism: Mechanism,
    params: &WorkloadParams,
    seed: u64,
    plan: FaultPlan,
) -> Result<RunMetrics, RunError> {
    let config = SystemConfig::paper(mechanism);
    let mut sys = System::new(config, params, seed);
    sys.set_fault_plan(plan);
    install_env_tracer(&mut sys, params, seed);
    sys.try_run()
}

/// Run with a custom configuration (ablations, sensitivity sweeps).
pub fn run_with_config(config: SystemConfig, params: &WorkloadParams, seed: u64) -> RunMetrics {
    let mut sys = System::new(config, params, seed);
    install_env_tracer(&mut sys, params, seed);
    sys.run()
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
    let Some(cache) = crate::cache::global_cache() else {
        return run_with_config(config, params, seed);
    };
    let digest = crate::cache::cell_digest(&config, params, seed);
    if let Some(metrics) = cache.lookup(digest) {
        return metrics;
    }
    let metrics = run_with_config(config, params, seed);
    cache.store(digest, 0, seed, &metrics);
    metrics
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
