//! Single-cell entry points: [`run_workload`] and [`run_with_config`],
//! both one `System::new(..).try_run_recycled()` with no result cache.
//! Batches of cells, the paper grid and the `figures` binary's ablation
//! and sensitivity cells alike, go through [`mod@crate::sweep`].
//!
//! These entry points, and only these, attach the tracer that `PUNO_TRACE`
//! / `PUNO_TRACE_OUT` ask for (see [`HostOptions::install_tracer`]) to the
//! system they build; its ring becomes the trace of a deadlock/livelock
//! error. Sweeps, and so every cell of the `figures` binary, ignore
//! `PUNO_TRACE`: their retry attempts run traced on their own. To trace
//! one sweep cell, use `sweep_all --trace <workload>:<mechanism>`.

use crate::config::SystemConfig;
use crate::knobs::HostOptions;
use crate::mechanism::Mechanism;
use crate::metrics::RunMetrics;
use crate::system::System;
use puno_workloads::WorkloadParams;

/// Run `params` under `mechanism` on the paper's Table II system.
pub fn run_workload(mechanism: Mechanism, params: &WorkloadParams, seed: u64) -> RunMetrics {
    run_with_config(SystemConfig::paper(mechanism), params, seed)
}

/// Run `params` on a custom configuration. Panics on deadlock/livelock
/// with the rendered [`crate::error::RunError`].
pub fn run_with_config(config: SystemConfig, params: &WorkloadParams, seed: u64) -> RunMetrics {
    let mut sys = System::new(config, params, seed);
    HostOptions::get().install_tracer(&mut sys, &params.name, seed);
    sys.try_run_recycled().unwrap_or_else(|e| panic!("{e}"))
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
