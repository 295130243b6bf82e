//! Sensitivity sweeps over PUNO's design parameters — the design-space
//! exploration behind the `figures` ablation and sensitivity artifacts and
//! the tuning notes in DESIGN.md.
//!
//! Each sweep is a list of labelled PUNO configurations. The caller runs
//! each point on its workload set (the `figures` binary runs every point
//! in one [`crate::sweep::sweep_configs`] batch, next to the ablation) and
//! [`SensitivityPoint::from_runs`] aggregates a point's metrics.

use crate::config::SystemConfig;
use crate::mechanism::Mechanism;
use crate::metrics::RunMetrics;
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
    /// One point's totals over the runs of its workload set.
    pub fn from_runs(label: String, runs: &[&RunMetrics]) -> Self {
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

/// A sensitivity point: its label and its configuration.
pub type Point = (String, SystemConfig);

/// PUNO on the paper's configuration with one parameter changed.
pub fn puno_with(edit: impl FnOnce(&mut SystemConfig)) -> SystemConfig {
    let mut c = SystemConfig::paper(Mechanism::Puno);
    edit(&mut c);
    c
}

/// The rollover factor (priority freshness window).
pub fn rollover_factor_points(factors: &[u64]) -> Vec<Point> {
    let config = |f| puno_with(|c| c.puno.rollover_factor = f);
    factors
        .iter()
        .map(|&f| (format!("rollover-{f}x"), config(f)))
        .collect()
}

/// The validity-counter trust threshold.
pub fn validity_threshold_points(thresholds: &[u8]) -> Vec<Point> {
    let config = |t| puno_with(|c| c.puno.validity_threshold = t);
    thresholds
        .iter()
        .map(|&t| (format!("validity-{t}"), config(t)))
        .collect()
}

/// The notification backoff cap.
pub fn notification_cap_points(caps: &[u64]) -> Vec<Point> {
    let label = |cap| match cap {
        u64::MAX => "ncap-inf".to_string(),
        _ => format!("ncap-{cap}"),
    };
    let config = |cap| puno_with(|c| c.backoff.notification_cap = cap);
    caps.iter().map(|&cap| (label(cap), config(cap))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{sweep_configs, SweepOptions};
    use puno_workloads::WorkloadId;

    /// Each point run on intruder at scale 0.05, seed 1.
    fn on_intruder(points: &[Point]) -> Vec<SensitivityPoint> {
        let cells: Vec<_> = points
            .iter()
            .map(|(_, c)| (*c, WorkloadId::Intruder))
            .collect();
        let runs = sweep_configs(&cells, &SweepOptions::new(1, 0.05));
        points
            .iter()
            .zip(&runs)
            .map(|((label, _), run)| SensitivityPoint::from_runs(label.clone(), &[run]))
            .collect()
    }

    #[test]
    fn rollover_sweep_produces_distinct_behaviour() {
        let pts = on_intruder(&rollover_factor_points(&[1, 8]));
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
        let pts = on_intruder(&validity_threshold_points(&[2, 3]));
        assert!(
            pts[1].unicasts <= pts[0].unicasts,
            "stricter threshold cannot unicast more"
        );
    }
}
