//! Sensitivity sweeps over PUNO's design parameters — the design-space
//! exploration behind the `figures` ablation and sensitivity artifacts and
//! the tuning notes in DESIGN.md.
//!
//! Each sweep takes the caller's cell runner, `run(config, workload)`, so
//! the caller decides scale, seed and where a cell's metrics come from (a
//! fresh run, the result cache, or a grid it already swept).

use crate::config::SystemConfig;
use crate::mechanism::Mechanism;
use crate::metrics::RunMetrics;
use puno_workloads::WorkloadId;
use serde::Serialize;

/// Result of one sensitivity point, aggregated over a workload set.
#[derive(Clone, Debug, Serialize)]
pub struct SensitivityPoint {
    pub label: String,
    pub aborts: u64,
    pub cycles: u64,
    pub traffic: u64,
    pub unicasts: u64,
    pub mispredictions: u64,
    pub false_victims: u64,
}

impl SensitivityPoint {
    fn from_runs(label: String, runs: &[RunMetrics]) -> Self {
        Self {
            label,
            aborts: runs.iter().map(|m| m.htm.aborts.get()).sum(),
            cycles: runs.iter().map(|m| m.cycles).sum(),
            traffic: runs.iter().map(|m| m.traffic_router_traversals).sum(),
            unicasts: runs.iter().map(|m| m.puno.unicasts.get()).sum(),
            mispredictions: runs.iter().map(|m| m.puno.mispredictions.get()).sum(),
            false_victims: runs
                .iter()
                .map(|m| m.oracle.false_aborted_transactions)
                .sum(),
        }
    }

    pub fn accuracy(&self) -> f64 {
        if self.unicasts == 0 {
            1.0
        } else {
            1.0 - self.mispredictions as f64 / self.unicasts as f64
        }
    }
}

fn run_point(
    label: String,
    config: SystemConfig,
    workloads: &[WorkloadId],
    run: &mut impl FnMut(SystemConfig, WorkloadId) -> RunMetrics,
) -> SensitivityPoint {
    let runs: Vec<RunMetrics> = workloads.iter().map(|&w| run(config, w)).collect();
    SensitivityPoint::from_runs(label, &runs)
}

/// Sweep the rollover factor (priority freshness window).
pub fn sweep_rollover_factor(
    factors: &[u64],
    workloads: &[WorkloadId],
    run: &mut impl FnMut(SystemConfig, WorkloadId) -> RunMetrics,
) -> Vec<SensitivityPoint> {
    factors
        .iter()
        .map(|&f| {
            let mut c = SystemConfig::paper(Mechanism::Puno);
            c.puno.rollover_factor = f;
            run_point(format!("rollover-{f}x"), c, workloads, run)
        })
        .collect()
}

/// Sweep the validity-counter trust threshold.
pub fn sweep_validity_threshold(
    thresholds: &[u8],
    workloads: &[WorkloadId],
    run: &mut impl FnMut(SystemConfig, WorkloadId) -> RunMetrics,
) -> Vec<SensitivityPoint> {
    thresholds
        .iter()
        .map(|&t| {
            let mut c = SystemConfig::paper(Mechanism::Puno);
            c.puno.validity_threshold = t;
            run_point(format!("validity-{t}"), c, workloads, run)
        })
        .collect()
}

/// Sweep the notification backoff cap.
pub fn sweep_notification_cap(
    caps: &[u64],
    workloads: &[WorkloadId],
    run: &mut impl FnMut(SystemConfig, WorkloadId) -> RunMetrics,
) -> Vec<SensitivityPoint> {
    caps.iter()
        .map(|&cap| {
            let mut c = SystemConfig::paper(Mechanism::Puno);
            c.backoff.notification_cap = cap;
            let label = if cap == u64::MAX {
                "ncap-inf".to_string()
            } else {
                format!("ncap-{cap}")
            };
            run_point(label, c, workloads, run)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_with_config;

    fn small_cell(config: SystemConfig, w: WorkloadId) -> RunMetrics {
        run_with_config(config, &w.params().scaled(0.05), 1)
    }

    #[test]
    fn rollover_sweep_produces_distinct_behaviour() {
        let pts = sweep_rollover_factor(&[1, 8], &[WorkloadId::Intruder], &mut small_cell);
        assert_eq!(pts.len(), 2);
        // A longer freshness window must not reduce unicast volume.
        assert!(
            pts[1].unicasts >= pts[0].unicasts,
            "8x {} vs 1x {}",
            pts[1].unicasts,
            pts[0].unicasts
        );
        for p in &pts {
            assert!(p.cycles > 0);
            assert!((0.0..=1.0).contains(&p.accuracy()));
        }
    }

    #[test]
    fn validity_sweep_trades_coverage_for_accuracy() {
        let pts = sweep_validity_threshold(&[2, 3], &[WorkloadId::Intruder], &mut small_cell);
        assert!(
            pts[1].unicasts <= pts[0].unicasts,
            "stricter threshold cannot unicast more"
        );
    }
}
