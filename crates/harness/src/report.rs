//! Report formatting: normalized metric tables in the shape of the paper's
//! figures, plus geometric-mean summaries.

use crate::mechanism::Mechanism;
use crate::sweep::{find_expect, SweepResult};
use puno_workloads::WorkloadId;

/// The metric a figure plots, extracted from a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FigureMetric {
    /// Figure 10: transaction aborts.
    Aborts,
    /// Figure 11: router traversals by all flits.
    NetworkTraffic,
    /// Figure 12: mean directory blocking cycles per transactional GETX.
    DirectoryBlocking,
    /// Figure 13: execution time (cycles for the fixed offered load).
    ExecutionTime,
    /// Figure 14: good/discarded transaction effort ratio.
    GdRatio,
}

impl FigureMetric {
    pub fn extract(self, m: &crate::metrics::RunMetrics) -> f64 {
        match self {
            FigureMetric::Aborts => m.htm.aborts.get() as f64,
            FigureMetric::NetworkTraffic => m.traffic_router_traversals as f64,
            FigureMetric::DirectoryBlocking => m.dir_blocking_per_tx_getx(),
            FigureMetric::ExecutionTime => m.cycles as f64,
            FigureMetric::GdRatio => m.htm.gd_ratio(),
        }
    }

    /// For most figures smaller is better; the G/D ratio is
    /// larger-is-better.
    pub fn larger_is_better(self) -> bool {
        matches!(self, FigureMetric::GdRatio)
    }

    pub fn name(self) -> &'static str {
        match self {
            FigureMetric::Aborts => "transaction aborts",
            FigureMetric::NetworkTraffic => "network traffic (router traversals)",
            FigureMetric::DirectoryBlocking => "directory blocking (cycles/TxGETX)",
            FigureMetric::ExecutionTime => "execution time (cycles)",
            FigureMetric::GdRatio => "G/D ratio",
        }
    }
}

/// One figure: per-workload values for each mechanism, normalized to the
/// baseline (baseline = 1.0), exactly how the paper plots them.
#[derive(Clone, Debug)]
pub struct NormalizedFigure {
    pub metric: FigureMetric,
    pub mechanisms: Vec<Mechanism>,
    pub workloads: Vec<WorkloadId>,
    /// `values[w][m]`, normalized.
    pub values: Vec<Vec<f64>>,
}

impl NormalizedFigure {
    pub fn build(
        metric: FigureMetric,
        results: &[SweepResult],
        workloads: &[WorkloadId],
        mechanisms: &[Mechanism],
    ) -> Self {
        let mut values = Vec::new();
        for &w in workloads {
            let base = metric.extract(find_expect(results, w, Mechanism::Baseline));
            let row: Vec<f64> = mechanisms
                .iter()
                .map(|&m| {
                    let v = metric.extract(find_expect(results, w, m));
                    if base == 0.0 || !base.is_finite() {
                        // Degenerate baseline (e.g. zero aborts): report the
                        // ratio as 1.0 when the value matches, else raw.
                        if v == base {
                            1.0
                        } else if base == 0.0 {
                            f64::INFINITY
                        } else {
                            1.0
                        }
                    } else {
                        v / base
                    }
                })
                .collect();
            values.push(row);
        }
        Self {
            metric,
            mechanisms: mechanisms.to_vec(),
            workloads: workloads.to_vec(),
            values,
        }
    }

    /// Multi-seed variant: normalize within each seed's sweep (each seed
    /// has its own baseline), then geometric-mean the per-seed ratios —
    /// the standard way to aggregate normalized metrics across repetitions.
    pub fn build_multi(
        metric: FigureMetric,
        per_seed: &[Vec<SweepResult>],
        workloads: &[WorkloadId],
        mechanisms: &[Mechanism],
    ) -> Self {
        assert!(!per_seed.is_empty());
        let figs: Vec<NormalizedFigure> = per_seed
            .iter()
            .map(|results| Self::build(metric, results, workloads, mechanisms))
            .collect();
        let values: Vec<Vec<f64>> = (0..workloads.len())
            .map(|wi| {
                (0..mechanisms.len())
                    .map(|mi| {
                        let ratios: Vec<f64> = figs
                            .iter()
                            .map(|f| f.values[wi][mi])
                            .filter(|v| v.is_finite() && *v > 0.0)
                            .collect();
                        geomean(&ratios)
                    })
                    .collect()
            })
            .collect();
        Self {
            metric,
            mechanisms: mechanisms.to_vec(),
            workloads: workloads.to_vec(),
            values,
        }
    }

    pub fn value(&self, workload: WorkloadId, mechanism: Mechanism) -> f64 {
        let wi = self
            .workloads
            .iter()
            .position(|&w| w == workload)
            .expect("workload not in figure");
        let mi = self
            .mechanisms
            .iter()
            .position(|&m| m == mechanism)
            .expect("mechanism not in figure");
        self.values[wi][mi]
    }

    /// Geometric mean over a workload subset for one mechanism (how the
    /// paper summarizes "high contention benchmarks").
    pub fn geomean(&self, subset: &[WorkloadId], mechanism: Mechanism) -> f64 {
        let mi = self
            .mechanisms
            .iter()
            .position(|&m| m == mechanism)
            .unwrap();
        // Only aggregate workloads whose ratios are finite for EVERY
        // mechanism, so the summary rows always compare the same set
        // (a degenerate zero baseline would otherwise drop a workload from
        // one column but not the others).
        let vals: Vec<f64> = self
            .workloads
            .iter()
            .enumerate()
            .filter(|(i, w)| {
                subset.contains(w) && self.values[*i].iter().all(|v| v.is_finite() && *v > 0.0)
            })
            .map(|(i, _)| self.values[i][mi])
            .collect();
        geomean(&vals)
    }

    /// Render an aligned text table (the figure as numbers).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("normalized {}\n", self.metric.name()));
        out.push_str(&format!("{:<12}", "workload"));
        for m in &self.mechanisms {
            out.push_str(&format!("{:>12}", m.name()));
        }
        out.push('\n');
        for (i, w) in self.workloads.iter().enumerate() {
            out.push_str(&format!("{:<12}", w.name()));
            for v in &self.values[i] {
                out.push_str(&format!("{:>12.3}", v));
            }
            out.push('\n');
        }
        let hc: Vec<WorkloadId> = self
            .workloads
            .iter()
            .copied()
            .filter(|w| w.is_high_contention())
            .collect();
        if !hc.is_empty() {
            out.push_str(&format!("{:<12}", "geomean-hc"));
            for &m in &self.mechanisms {
                out.push_str(&format!("{:>12.3}", self.geomean(&hc, m)));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<12}", "geomean-all"));
        for &m in &self.mechanisms {
            out.push_str(&format!("{:>12.3}", self.geomean(&self.workloads, m)));
        }
        out.push('\n');
        out
    }
}

/// Per-cell simulator throughput table: host wall-clock and event rates for
/// every (workload, mechanism) cell of a sweep. These are *host-side*
/// observability numbers (how fast the simulator itself ran), not simulated
/// results — they vary run to run and are excluded from golden comparisons.
///
/// The simulated side is pinned by `tests/golden_metrics.rs`: perf-only
/// refactors must pass it unchanged, and intentional behavior changes are
/// re-blessed with `PUNO_BLESS_GOLDEN=1 cargo test -p puno-harness --test
/// golden_metrics`.
pub fn render_host_perf(results: &[SweepResult]) -> String {
    let mut out = String::new();
    out.push_str("simulator throughput (host-side, per cell)\n");
    out.push_str(&format!(
        "{:<12}{:<10}{:>10}{:>14}{:>14}{:>12}{:>10}\n",
        "workload", "mech", "wall-s", "Mcycles/s", "Mevents/s", "peak-queue", "scan%"
    ));
    for r in results {
        let h = &r.metrics.host;
        out.push_str(&format!(
            "{:<12}{:<10}{:>10.3}{:>14.3}{:>14.3}{:>12}{:>10.1}\n",
            r.workload.name(),
            r.mechanism.name(),
            h.wall_secs,
            h.sim_cycles_per_sec / 1e6,
            h.events_per_sec / 1e6,
            h.peak_queue_depth,
            h.noc_active_scan_ratio * 100.0,
        ));
    }
    let wall: f64 = results.iter().map(|r| r.metrics.host.wall_secs).sum();
    let events: u64 = results
        .iter()
        .map(|r| r.metrics.host.events_dispatched)
        .sum();
    let workers = results
        .iter()
        .map(|r| r.metrics.host.sweep_workers)
        .max()
        .unwrap_or(0);
    out.push_str(&format!(
        "total: {wall:.3}s host wall-clock, {events} events dispatched, \
         {workers} sweep worker(s)\n"
    ));
    out
}

/// Render the degraded-sweep section: one line per cell the sweep could
/// not complete — quarantined cells (exhausted retry budget) first, plain
/// failures after — with the failure kind and attempts consumed. `None`
/// when every cell succeeded, so healthy reports are byte-identical to a
/// sweep without the resilience layer.
pub fn render_quarantine(outcomes: &[crate::sweep::CellOutcome]) -> Option<String> {
    use crate::sweep::CellOutcome;
    let mut lines: Vec<String> = Vec::new();
    for pass in [true, false] {
        for o in outcomes {
            let quarantined = o.is_quarantined();
            if o.is_ok() || quarantined != pass {
                continue;
            }
            let (key, error, attempts) = match o {
                CellOutcome::Quarantined {
                    key,
                    error,
                    attempts,
                }
                | CellOutcome::Err {
                    key,
                    error,
                    attempts,
                } => (key, error, attempts),
                CellOutcome::Ok { .. } => unreachable!("filtered above"),
            };
            lines.push(format!(
                "  {:<12}{:<10} seed {:<6} {:<12} after {} attempt(s){}",
                key.workload.name(),
                key.mechanism.name(),
                key.seed,
                error.kind(),
                attempts,
                if quarantined { "  [quarantined]" } else { "" },
            ));
        }
    }
    if lines.is_empty() {
        return None;
    }
    let mut out = String::new();
    out.push_str("== Quarantined / failed cells (sweep completed degraded) ==\n");
    out.push_str(&lines.join("\n"));
    out.push('\n');
    Some(out)
}

/// Geometric mean of positive values (empty -> 1.0).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunMetrics;
    use crate::oracle::FalseAbortOracle;
    use puno_coherence::DirStats;
    use puno_core::PunoStats;
    use puno_htm::{AbortCause, HtmStats};
    use puno_noc::TrafficStats;

    fn fake(workload: WorkloadId, mechanism: Mechanism, aborts: u64, cycles: u64) -> SweepResult {
        let mut htm = HtmStats::default();
        htm.record_commit(10);
        for _ in 0..aborts {
            htm.record_abort(AbortCause::TxWriteInvalidation, 5);
        }
        SweepResult {
            workload,
            mechanism,
            metrics: RunMetrics::from_parts(
                workload.name(),
                mechanism.name(),
                0,
                cycles,
                htm,
                DirStats::default(),
                &TrafficStats::default(),
                1.0,
                FalseAbortOracle::default(),
                PunoStats::default(),
                puno_sim::FaultStats::default(),
                crate::metrics::HostPerf::default(),
                None,
            ),
        }
    }

    #[test]
    fn normalization_against_baseline() {
        let results = vec![
            fake(WorkloadId::Bayes, Mechanism::Baseline, 100, 1000),
            fake(WorkloadId::Bayes, Mechanism::Puno, 40, 800),
        ];
        let fig = NormalizedFigure::build(
            FigureMetric::Aborts,
            &results,
            &[WorkloadId::Bayes],
            &[Mechanism::Baseline, Mechanism::Puno],
        );
        assert!((fig.value(WorkloadId::Bayes, Mechanism::Baseline) - 1.0).abs() < 1e-12);
        assert!((fig.value(WorkloadId::Bayes, Mechanism::Puno) - 0.4).abs() < 1e-12);
        let time = NormalizedFigure::build(
            FigureMetric::ExecutionTime,
            &results,
            &[WorkloadId::Bayes],
            &[Mechanism::Baseline, Mechanism::Puno],
        );
        assert!((time.value(WorkloadId::Bayes, Mechanism::Puno) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn multi_seed_build_geomeans_per_seed_ratios() {
        let seed_a = vec![
            fake(WorkloadId::Bayes, Mechanism::Baseline, 100, 1000),
            fake(WorkloadId::Bayes, Mechanism::Puno, 25, 800),
        ];
        let seed_b = vec![
            fake(WorkloadId::Bayes, Mechanism::Baseline, 200, 1000),
            fake(WorkloadId::Bayes, Mechanism::Puno, 200, 800),
        ];
        let fig = NormalizedFigure::build_multi(
            FigureMetric::Aborts,
            &[seed_a, seed_b],
            &[WorkloadId::Bayes],
            &[Mechanism::Baseline, Mechanism::Puno],
        );
        // geomean(0.25, 1.0) = 0.5.
        assert!((fig.value(WorkloadId::Bayes, Mechanism::Puno) - 0.5).abs() < 1e-12);
        assert!((fig.value(WorkloadId::Bayes, Mechanism::Baseline) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[0.25, 1.0]) - 0.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn host_perf_table_lists_every_cell() {
        let mut results = vec![
            fake(WorkloadId::Bayes, Mechanism::Baseline, 100, 1000),
            fake(WorkloadId::Bayes, Mechanism::Puno, 50, 900),
        ];
        results[0].metrics.host = crate::metrics::HostPerf {
            wall_secs: 2.0,
            events_dispatched: 4_000_000,
            peak_queue_depth: 37,
            noc_active_scan_ratio: 0.125,
            ..Default::default()
        }
        .finish(1000);
        let text = render_host_perf(&results);
        assert!(text.contains("bayes"));
        assert!(text.contains("puno"));
        assert!(text.contains("37"), "peak queue depth column: {text}");
        assert!(text.contains("12.5"), "scan ratio as percent: {text}");
        assert!(
            text.contains("4000000 events dispatched"),
            "total line: {text}"
        );
    }

    #[test]
    fn render_contains_all_cells() {
        let results = vec![
            fake(WorkloadId::Bayes, Mechanism::Baseline, 100, 1000),
            fake(WorkloadId::Bayes, Mechanism::Puno, 50, 900),
        ];
        let fig = NormalizedFigure::build(
            FigureMetric::Aborts,
            &results,
            &[WorkloadId::Bayes],
            &[Mechanism::Baseline, Mechanism::Puno],
        );
        let text = fig.render();
        assert!(text.contains("bayes"));
        assert!(text.contains("puno"));
        assert!(text.contains("geomean-all"));
    }

    #[test]
    fn quarantine_section_names_only_the_degraded_cells() {
        use crate::error::RunError;
        use crate::sweep::{CellKey, CellOutcome};

        let ok = CellOutcome::Ok {
            key: CellKey {
                workload: WorkloadId::Bayes,
                mechanism: Mechanism::Baseline,
                seed: 1,
            },
            metrics: fake(WorkloadId::Bayes, Mechanism::Baseline, 1, 10).metrics,
        };
        assert!(render_quarantine(std::slice::from_ref(&ok)).is_none());

        let quarantined = CellOutcome::Quarantined {
            key: CellKey {
                workload: WorkloadId::Vacation,
                mechanism: Mechanism::Puno,
                seed: 7,
            },
            error: RunError::Livelock {
                workload: "vacation".into(),
                seed: 7,
                cycles: 99,
                commit_window: 0,
                wait_for: String::new(),
                trace: String::new(),
            },
            attempts: 3,
        };
        let failed = CellOutcome::Err {
            key: CellKey {
                workload: WorkloadId::Bayes,
                mechanism: Mechanism::RandomBackoff,
                seed: 2,
            },
            error: RunError::WorkerPanic {
                payload: "boom".into(),
            },
            attempts: 1,
        };
        let text = render_quarantine(&[failed, ok, quarantined]).expect("degraded section");
        assert!(text.contains("sweep completed degraded"), "{text}");
        assert!(text.contains("vacation"), "{text}");
        assert!(text.contains("livelock"), "{text}");
        assert!(text.contains("[quarantined]"), "{text}");
        assert!(
            text.contains("worker-panic") || text.contains("panic"),
            "{text}"
        );
        // Quarantined cells are listed before plain failures.
        let q_at = text.find("vacation").unwrap();
        let e_at = text.find("bayes").unwrap();
        assert!(q_at < e_at, "{text}");
        // The healthy cell never appears as a row: `bayes` occurs only for
        // the failed Eager cell.
        assert_eq!(text.matches("bayes").count(), 1, "{text}");
    }
}
