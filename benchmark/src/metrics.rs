//! Metric catalogue, sample statistics, and the paper-fidelity arithmetic.
//!
//! The two tables below define what the benchmark reports: `BENCHMARK.json`
//! at the repository root must list exactly these names, units, directions
//! and bounds (the `benchmark_json_matches_catalogue` test enforces it).

use puno_harness::report::{FigureMetric, NormalizedFigure};
use puno_harness::sweep::{find_expect, SweepResult};
use puno_harness::Mechanism;
use puno_workloads::WorkloadId;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue. `bound` is the share of the reference median
/// by which an end-to-end metric may worsen before it counts as a
/// regression; per-layer metrics carry none.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees, measured on untraced runs. Other
/// load on a shared 2-core host slows whole runs by 10-60 % for minutes at
/// a time, and the allocator's retained memory moves the peak by up to a
/// sixth, so every bound is the widest allowed; a smaller change needs the
/// paired protocol of `benchmark compare`.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("wall_s", "s", Lower, 0.25),
    e2e("ktx_per_s", "ktx/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Per-layer split: spans around public calls, counters `RunMetrics`
/// already publishes, and the traced pass's NoC replay.
pub const PER_LAYER: [MetricDef; 53] = [
    layer("workloads.gen_s", "s", Lower),
    layer("system.build_s", "s", Lower),
    layer("sim.cycles", "cycles", Lower),
    layer("sim.events", "count", Lower),
    layer("sim.ns_per_event", "ns", Lower),
    layer("sim.mcycles_per_s", "Mcycles/s", Higher),
    layer("sim.peak_queue_depth", "count", Lower),
    layer("noc.packets", "count", Lower),
    layer("noc.flits", "count", Lower),
    layer("noc.router_traversals", "count", Lower),
    layer("noc.replay_s", "s", Lower),
    layer("noc.share", "frac", Lower),
    layer("noc.ns_per_traversal", "ns", Lower),
    layer("noc.replay_steps", "count", Lower),
    layer("noc.active_scan_ratio", "frac", Lower),
    layer("noc.express_frac", "frac", Higher),
    layer("noc.quiesced_frac", "frac", Higher),
    layer("dir.requests", "count", Lower),
    layer("dir.mem_fetches", "count", Lower),
    layer("dir.invalidations", "count", Lower),
    layer("dir.unicasts", "count", Higher),
    layer("dir.queued", "count", Lower),
    layer("dir.blocking_per_txgetx", "cycles", Lower),
    layer("htm.attempts", "count", Lower),
    layer("htm.commits", "count", Higher),
    layer("htm.aborts", "count", Lower),
    layer("htm.commit_frac", "frac", Higher),
    layer("htm.nacks", "count", Lower),
    layer("htm.backoff_cycles", "cycles", Lower),
    layer("htm.good_frac", "frac", Higher),
    layer("pred.opportunities", "count", Higher),
    layer("pred.unicasts", "count", Higher),
    layer("pred.accuracy", "frac", Higher),
    layer("pred.notifications", "count", Higher),
    layer("system.residual_s", "s", Lower),
    layer("system.residual_share", "frac", Higher),
    layer("sweep.workers", "count", Higher),
    layer("sweep.worker_util", "frac", Higher),
    layer("sweep.lpt_slack_s", "s", Lower),
    layer("sweep.prefix_cycles_frac", "frac", Higher),
    layer("sweep.cell_s_p50", "s", Lower),
    layer("sweep.cell_s_p90", "s", Lower),
    layer("cache.open_s", "s", Lower),
    layer("cache.records", "count", Higher),
    layer("cache.bytes", "bytes", Lower),
    layer("cache.lookup_us", "us", Lower),
    layer("cache.hits", "count", Higher),
    layer("cache.store_us", "us", Lower),
    layer("trace.overhead_frac", "frac", Lower),
    layer("fidelity.fig2_gap_pp", "pp", Lower),
    layer("fidelity.fig10_gap", "ratio", Lower),
    layer("fidelity.fig11_gap", "ratio", Lower),
    layer("fidelity.fig13_gap", "ratio", Lower),
];

pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Median, quartiles, extremes and sample count of one metric over a
/// run's reps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles by the same rule as Python's
    /// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
    /// numbers printed here match what an outside script computes from them.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (p25, p75) = if n == 1 {
            (v[0], v[0])
        } else {
            (quartile(&v, 1), quartile(&v, 3))
        };
        Summary {
            median,
            p25,
            p75,
            min: v[0],
            max: v[n - 1],
            n,
        }
    }

    /// The value a run reports for `def`. An end-to-end metric reports its
    /// best rep: other load on the host only ever slows a rep down (or, for
    /// memory, the allocator only ever adds to the peak), and on a shared
    /// 2-core box that load covers whole seconds of a run, so the median
    /// rep moves with it while the best one holds still. A per-layer metric
    /// reports its median.
    pub fn value(&self, def: &MetricDef) -> f64 {
        match (def.bound, def.better) {
            (None, _) => self.median,
            (Some(_), Better::Lower) => self.min,
            (Some(_), Better::Higher) => self.max,
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }
}

fn quartile(sorted: &[f64], i: usize) -> f64 {
    let ld = sorted.len();
    let m = ld + 1;
    let j = (i * m / 4).clamp(1, ld - 1);
    // Negative for very short inputs: Python then extrapolates too.
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// The paper's published values the fidelity gaps are measured against.
const PAPER_FIG2_FALSE_ABORT_PCT: f64 = 41.0;
const PAPER_FIG10_HC_ABORTS: f64 = 0.39;
const PAPER_FIG11_HC_TRAFFIC: f64 = 0.67;
const PAPER_FIG13_HC_CYCLES: f64 = 0.88;

/// Distance of this reproduction from four of the paper's headline numbers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fidelity {
    /// |41 − mean baseline false-aborting TxGETX %| over the 8 workloads.
    pub fig2_gap_pp: f64,
    /// |paper − PUNO high-contention geomean| of normalized aborts,
    /// router traversals and cycles.
    pub fig10_gap: f64,
    pub fig11_gap: f64,
    pub fig13_gap: f64,
}

/// |paper − PUNO's geomean over the high-contention workloads| of `fig`.
pub fn hc_gap(fig: &NormalizedFigure, paper: f64) -> f64 {
    (paper - fig.geomean(&WorkloadId::HIGH_CONTENTION, Mechanism::Puno)).abs()
}

/// |41 − mean of the per-workload baseline false-aborting fractions (0..1)|.
pub fn fig2_gap(false_abort_fractions: &[f64]) -> f64 {
    let mean_pct =
        100.0 * false_abort_fractions.iter().sum::<f64>() / false_abort_fractions.len() as f64;
    (PAPER_FIG2_FALSE_ABORT_PCT - mean_pct).abs()
}

/// Fidelity of a full 8-workload × 4-mechanism grid.
pub fn fidelity(results: &[SweepResult]) -> Fidelity {
    let figure =
        |metric| NormalizedFigure::build(metric, results, &WorkloadId::ALL, &Mechanism::ALL);
    let fractions: Vec<f64> = WorkloadId::ALL
        .iter()
        .map(|&w| {
            find_expect(results, w, Mechanism::Baseline)
                .oracle
                .false_abort_fraction()
        })
        .collect();
    Fidelity {
        fig2_gap_pp: fig2_gap(&fractions),
        fig10_gap: hc_gap(&figure(FigureMetric::Aborts), PAPER_FIG10_HC_ABORTS),
        fig11_gap: hc_gap(
            &figure(FigureMetric::NetworkTraffic),
            PAPER_FIG11_HC_TRAFFIC,
        ),
        fig13_gap: hc_gap(&figure(FigureMetric::ExecutionTime), PAPER_FIG13_HC_CYCLES),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for m in &all {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(m.name.len() <= 64, "metric name too long: {}", m.name);
            assert!(
                m.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {:?} on {}",
                m.unit,
                m.name
            );
            let dupes = all.iter().filter(|o| o.name == m.name).count();
            assert_eq!(dupes, 1, "metric {} listed twice", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((s.p25, s.median, s.p75, s.n), (2.75, 5.5, 8.25, 10));
        assert_eq!((s.min, s.max), (1.0, 10.0));
        assert_eq!(s.value(lookup("wall_s").unwrap()), 1.0);
        assert_eq!(s.value(lookup("ktx_per_s").unwrap()), 10.0);
        assert_eq!(s.value(lookup("sim.ns_per_event").unwrap()), 5.5);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.p25, s.median, s.p75), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.p25, s.median, s.p75), (0.75, 1.5, 2.25));
        let s = Summary::of(&[3.0]);
        assert_eq!((s.p25, s.median, s.p75, s.n), (3.0, 3.0, 3.0, 1));
    }

    #[test]
    fn fidelity_gap_arithmetic_on_a_synthetic_figure() {
        // Four high-contention rows where PUNO sits at 0.5, 0.5, 2.0, 0.5 of
        // the baseline (geomean 0.5^(3/4) * 2^(1/4) = 0.7071...), plus a
        // low-contention row that must not enter the geomean.
        let workloads = [
            WorkloadId::Bayes,
            WorkloadId::Intruder,
            WorkloadId::Labyrinth,
            WorkloadId::Yada,
            WorkloadId::Kmeans,
        ];
        let puno = [0.5, 0.5, 2.0, 0.5, 0.01];
        let fig = NormalizedFigure {
            metric: FigureMetric::Aborts,
            mechanisms: vec![Mechanism::Baseline, Mechanism::Puno],
            workloads: workloads.to_vec(),
            values: puno.iter().map(|&p| vec![1.0, p]).collect(),
        };
        let geomean = 0.5f64.powf(0.75) * 2f64.powf(0.25);
        assert!((hc_gap(&fig, 0.39) - (geomean - 0.39)).abs() < 1e-12);
        assert!((hc_gap(&fig, 0.88) - (0.88 - geomean)).abs() < 1e-12);
        // Mean false-aborting share 10% -> 31 points short of the paper.
        assert!((fig2_gap(&[0.05, 0.15, 0.10, 0.10]) - 31.0).abs() < 1e-12);
        assert!((fig2_gap(&[0.50, 0.50]) - 9.0).abs() < 1e-12);
    }
}
