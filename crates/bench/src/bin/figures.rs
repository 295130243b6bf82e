//! Every paper artifact from one swept grid: Tables I–III, Figures 2, 3
//! and 10–14, the PUNO ablation, the sensitivity curves and the workload
//! characterization (DESIGN.md §4).
//!
//! Usage: `figures [scale] [seed] [nseeds] [--out DIR]` (defaults `0.5 1 1`
//! and `results`). `scale` multiplies each workload's per-node transaction
//! count, so `1.0` is a paper-sized run and `0.1` a quick smoke run.
//!
//! The 8 workloads × 4 mechanisms grid is swept once per seed
//! `seed..seed + nseeds`, through the result cache and the sweep workers.
//! Figures 10–14 geomean the per-seed normalized ratios; every other
//! artifact reads the first seed's grid. Only the ablation variants and the
//! sensitivity points simulate beyond the grid: each distinct cell the
//! first seed's grid does not hold runs once, in one more sweep
//! (`sweep_configs`), so those cells share the grid's result cache,
//! workers and retry policy, and like every sweep cell they ignore
//! `PUNO_TRACE` and record no `PUNO_WAREHOUSE` row.
//! Each artifact is written as `DIR/<name>.txt`, the aligned text table in
//! the shape of the paper's artifact, and `DIR/<name>.json` (Table II is
//! text only).

#![forbid(unsafe_code)]

#[path = "../../../harness/src/bin/args/mod.rs"]
mod args;

use puno_harness::cache::cell_digest;
use puno_harness::report::{FigureMetric, NormalizedFigure};
use puno_harness::sensitivity::{
    notification_cap_points, puno_with, rollover_factor_points, validity_threshold_points, Point,
    SensitivityPoint,
};
use puno_harness::sweep::{find_expect, sweep, sweep_configs, SweepOptions, SweepResult};
use puno_harness::{Mechanism, RunMetrics, SystemConfig};
use puno_sim::NodeId;
use puno_workloads::{characterize, generate_program, table1_rows, WorkloadId};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// One artifact: its file stem, its text, and its JSON if it has one.
struct Artifact {
    name: &'static str,
    text: String,
    json: Option<Value>,
}

impl Artifact {
    fn new(name: &'static str, text: String, json: Value) -> Self {
        Self {
            name,
            text,
            json: Some(json),
        }
    }
}

/// The metrics of every cell an artifact reads, by cache digest: the first
/// seed's grid and the ablation and sensitivity cells beyond it.
struct Runs {
    scale: f64,
    seed: u64,
    by_digest: HashMap<u64, RunMetrics>,
    /// Cells run (or read from the result cache) beyond the grid.
    beyond_grid: usize,
}

impl Runs {
    /// `grid`, then every ablation and sensitivity cell it does not hold,
    /// swept in one batch. A configuration both name, or one equal to a
    /// paper default, runs once.
    fn new(grid: &[SweepResult], scale: f64, seed: u64) -> Self {
        let digest = |config: &SystemConfig, workload: WorkloadId| {
            cell_digest(config, &workload.params().scaled(scale), seed)
        };
        let mut by_digest: HashMap<u64, RunMetrics> = grid
            .iter()
            .map(|r| {
                let config = SystemConfig::paper(r.mechanism);
                (digest(&config, r.workload), r.metrics.clone())
            })
            .collect();
        let (mut beyond, mut digests) = (Vec::new(), Vec::new());
        let configs = ablation_variants().into_iter().map(|(_, c)| c);
        let points = sensitivity_curves().into_iter().flat_map(|(_, _, p)| p);
        for config in configs.chain(points.map(|(_, c)| c)) {
            for w in WorkloadId::HIGH_CONTENTION {
                let d = digest(&config, w);
                if !by_digest.contains_key(&d) && !digests.contains(&d) {
                    beyond.push((config, w));
                    digests.push(d);
                }
            }
        }
        let metrics = sweep_configs(&beyond, &SweepOptions::new(seed, scale));
        by_digest.extend(digests.into_iter().zip(metrics));
        Self {
            scale,
            seed,
            by_digest,
            beyond_grid: beyond.len(),
        }
    }

    /// The metrics of `config` on each high-contention workload.
    fn high_contention(&self, config: &SystemConfig) -> Vec<&RunMetrics> {
        WorkloadId::HIGH_CONTENTION
            .iter()
            .map(|w| {
                let params = w.params().scaled(self.scale);
                &self.by_digest[&cell_digest(config, &params, self.seed)]
            })
            .collect()
    }
}

/// Every artifact, in `results/` order. `grids` holds one swept grid per
/// seed, the first at `runs`' seed.
fn artifacts(grids: &[Vec<SweepResult>], runs: &Runs) -> Vec<Artifact> {
    let (grid, scale, seed) = (&grids[0], runs.scale, runs.seed);
    vec![
        table1(grid, scale, seed),
        table2(),
        table3(),
        fig2(grid, scale, seed),
        fig3(grid, scale, seed),
        figure(
            "fig10",
            FigureMetric::Aborts,
            grids,
            &[
                "Paper: PUNO reduces aborts by 61% on average in high-contention",
                "workloads (43% across all), beats random backoff by 17%, and",
                "RMW-Pred helps only the low-contention kmeans/ssca2.",
            ],
        ),
        figure(
            "fig11",
            FigureMetric::NetworkTraffic,
            grids,
            &[
                "Paper: PUNO eliminates 33% of traffic in high-contention workloads",
                "(17% across all) via unicast, throttled polling, and fewer aborts.",
            ],
        ),
        figure(
            "fig12",
            FigureMetric::DirectoryBlocking,
            grids,
            &[
                "Paper: PUNO eliminates 18% of blocking (42% in Labyrinth, whose",
                "whole-grid read sets make writers wait on many sharers).",
            ],
        ),
        figure(
            "fig13",
            FigureMetric::ExecutionTime,
            grids,
            &[
                "Paper: PUNO improves execution time by 12% in high-contention",
                "workloads (8% across all); random backoff over-serializes",
                "Labyrinth; RMW-Pred suffers a 1.83x slowdown in high contention.",
            ],
        ),
        figure(
            "fig14",
            FigureMetric::GdRatio,
            grids,
            &[
                "Paper: PUNO's G/D ratio exceeds baseline / random backoff /",
                "RMW-Pred by 1.65x / 1.24x / 2.11x on average.",
            ],
        ),
        ablation(runs),
        sensitivity(runs),
        characterization(grid, scale, seed),
    ]
}

/// Table I: benchmark input parameters and baseline abort rates,
/// paper-reported vs measured on this simulator.
fn table1(grid: &[SweepResult], scale: f64, seed: u64) -> Artifact {
    let mut out =
        format!("Table I — benchmark inputs and abort rates (scale {scale}, seed {seed})\n");
    out.push_str(&format!(
        "{:<11}{:<36}{:>10}{:>10}  {:>6}\n",
        "benchmark", "paper input parameters", "paper %", "ours %", "band"
    ));
    let mut rows = Vec::new();
    for row in table1_rows() {
        let m = find_expect(grid, row.workload, Mechanism::Baseline);
        let rate = m.htm.abort_rate() * 100.0;
        let in_band = rate >= row.expected_abort_band.0 && rate <= row.expected_abort_band.1;
        out.push_str(&format!(
            "{:<11}{:<36}{:>10.1}{:>10.1}  {:>6}\n",
            row.workload.name(),
            row.paper_inputs,
            row.paper_abort_pct,
            rate,
            if in_band { "ok" } else { "MISS" }
        ));
        rows.push(json!({
            "workload": row.workload.name(),
            "paper_inputs": row.paper_inputs,
            "paper_abort_pct": row.paper_abort_pct,
            "measured_abort_pct": rate,
            "in_band": in_band,
        }));
    }
    Artifact::new("table1", out, Value::Array(rows))
}

/// Table II: the simulated system configuration.
fn table2() -> Artifact {
    let c = SystemConfig::paper(Mechanism::Puno);
    let rows = [
        (
            "Core",
            format!("{} in-order cores (SPARC-class), single clock domain", c.nodes()),
        ),
        (
            "L1 Cache",
            format!(
                "{} KB, {}-way associative, write-back, 1-cycle",
                c.l1.sets * c.l1.ways * 64 / 1024,
                c.l1.ways
            ),
        ),
        (
            "L2 Cache",
            format!("8 MB shared, static NUCA banks, {}-cycle latency", c.dir.l2_latency),
        ),
        (
            "Coherence",
            "MESI protocol, static cache bank directory (blocking)".to_string(),
        ),
        ("Memory", format!("{}-cycle latency", c.dir.mem_latency)),
        (
            "Network",
            format!(
                "{}x{} 2D mesh, XY DOR, VC flow control, {}-stage routers",
                c.mesh.width, c.mesh.height, c.noc.pipeline_depth
            ),
        ),
        (
            "HTM",
            format!(
                "eager version mgmt + eager conflict detection, timestamp policy, {}-cycle nack backoff",
                c.backoff.fixed_nack
            ),
        ),
        (
            "PUNO",
            format!(
                "{}-entry P-Buffer/bank, {}-entry TxLB/node, {}-cycle prediction",
                c.puno.pbuffer_entries, c.puno.txlb_entries, c.puno.decision_latency
            ),
        ),
    ];
    let mut out = "Table II — system configuration\n".to_string();
    for (k, v) in rows {
        out.push_str(&format!("{k:<11} {v}\n"));
    }
    Artifact {
        name: "table2",
        text: out,
        json: None,
    }
}

/// Table III: VLSI area and power overhead of the PUNO structures, from
/// the calibrated analytic SRAM model, normalized against the Sun Rock
/// per-core figures.
fn table3() -> Artifact {
    let t = puno_vlsi::table3();
    let mut out = "Table III — area and power overhead (65 nm, 2.3 GHz, 0.9 V)\n".to_string();
    out.push_str(&format!(
        "{:<14}{:>12}{:>12}{:>14}{:>12}\n",
        "component", "area um^2", "power mW", "paper um^2", "paper mW"
    ));
    for row in &t.rows {
        out.push_str(&format!(
            "{:<14}{:>12.0}{:>12.2}{:>14.0}{:>12.2}\n",
            row.component, row.area_um2, row.power_mw, row.paper_area_um2, row.paper_power_mw
        ));
    }
    out.push_str(&format!(
        "{:<14}{:>12.0}{:>12.2}\n",
        "overall", t.total_area_um2, t.total_power_mw
    ));
    out.push_str(&format!(
        "overhead vs one Rock core: area {:.2}%  power {:.2}%  (paper: 0.41% / 0.31%)\n",
        t.area_overhead_pct, t.power_overhead_pct
    ));
    let json = serde_json::to_value(&t).expect("Table III serializes");
    Artifact::new("table3", out, json)
}

/// Figure 2: percentage of transactional GETX requests that trigger false
/// aborts, measured on the baseline HTM.
fn fig2(grid: &[SweepResult], scale: f64, seed: u64) -> Artifact {
    let mut out = format!(
        "Figure 2 — transactional GETX requests incurring false aborting (baseline, scale {scale}, seed {seed})\n"
    );
    out.push_str(&format!(
        "{:<11}{:>12}{:>14}{:>12}\n",
        "workload", "false %", "nacked %", "episodes"
    ));
    let mut rows = Vec::new();
    let mut sum = 0.0;
    for &w in &WorkloadId::ALL {
        let m = find_expect(grid, w, Mechanism::Baseline);
        let frac = m.oracle.false_abort_fraction() * 100.0;
        sum += frac;
        out.push_str(&format!(
            "{:<11}{:>11.1}%{:>13.1}%{:>12}\n",
            w.name(),
            frac,
            m.oracle.nack_fraction() * 100.0,
            m.oracle.tx_getx_episodes
        ));
        rows.push(json!({
            "workload": w.name(),
            "false_abort_pct": frac,
            "nacked_pct": m.oracle.nack_fraction() * 100.0,
        }));
    }
    out.push_str(&format!(
        "{:<11}{:>11.1}%   (paper reports 41% average)\n",
        "average",
        sum / 8.0
    ));
    Artifact::new("fig2", out, Value::Array(rows))
}

/// Figure 3: distribution of the number of transactions aborted
/// unnecessarily per false-aborting request (baseline).
fn fig3(grid: &[SweepResult], scale: f64, seed: u64) -> Artifact {
    let mut out = format!(
        "Figure 3 — victims per false-aborting request (baseline, scale {scale}, seed {seed})\n"
    );
    let mut rows = Vec::new();
    for &w in &WorkloadId::ALL {
        let h = &find_expect(grid, w, Mechanism::Baseline)
            .oracle
            .victims_per_episode;
        if h.count() == 0 {
            out.push_str(&format!("{:<11} (no false aborting)\n", w.name()));
            continue;
        }
        out.push_str(&format!("{:<11}", w.name()));
        let mut dist = Vec::new();
        for victims in 1..=8usize {
            let frac = h.fraction(victims) * 100.0;
            out.push_str(&format!(" {victims}:{frac:>5.1}%"));
            dist.push(frac);
        }
        let tail: f64 = (9..17).map(|v| h.fraction(v)).sum::<f64>() * 100.0
            + h.overflow() as f64 / h.count() as f64 * 100.0;
        out.push_str(&format!("  9+:{tail:>5.1}%  mean {:.2}\n", h.mean()));
        rows.push(json!({
            "workload": w.name(),
            "pct_by_victims_1_to_8": dist,
            "tail_pct": tail,
            "mean": h.mean(),
        }));
    }
    out.push_str("\nThe long tail mirrors the paper's observation that a single nacked\n");
    out.push_str("request can disrupt many concurrent transactions.\n");
    Artifact::new("fig3", out, Value::Array(rows))
}

/// Figures 10–14: one metric under the four mechanisms, normalized to the
/// baseline and geomeaned across the per-seed grids, with the paper's
/// claim for it.
fn figure(
    name: &'static str,
    metric: FigureMetric,
    grids: &[Vec<SweepResult>],
    paper: &[&str],
) -> Artifact {
    let fig = NormalizedFigure::build_multi(metric, grids, &WorkloadId::ALL, &Mechanism::ALL);
    let mut out = format!("== {name}: {} ==\n{}", metric.name(), fig.render());
    for line in paper {
        out.push_str(line);
        out.push('\n');
    }
    let json = json!({
        "metric": fig.metric.name(),
        "mechanisms": fig.mechanisms.iter().map(|m| m.name()).collect::<Vec<_>>(),
        "workloads": fig.workloads.iter().map(|w| w.name()).collect::<Vec<_>>(),
        "values": fig.values,
    });
    Artifact::new(name, out, json)
}

/// PUNO's design choices (the DESIGN.md A1/A2 index), one variant each:
/// unicast-only (no notification) and shared-state-only prediction (no
/// owner-state probes) against full PUNO; validity threshold 3 against the
/// paper's 2; rollover factor 1 and 4 against 2; the age gate; the §VI
/// future-work wake-up hints; and the baseline.
fn ablation_variants() -> Vec<(&'static str, SystemConfig)> {
    vec![
        ("puno-full", SystemConfig::paper(Mechanism::Puno)),
        (
            "unicast-only",
            puno_with(|c| c.puno.notification_enabled = false),
        ),
        (
            "shared-state-only",
            puno_with(|c| c.puno.predict_owner_state = false),
        ),
        ("validity-3", puno_with(|c| c.puno.validity_threshold = 3)),
        ("rollover-1x", puno_with(|c| c.puno.rollover_factor = 1)),
        ("rollover-4x", puno_with(|c| c.puno.rollover_factor = 4)),
        ("age-gate-2x", puno_with(|c| c.puno.age_gate_factor = 2)),
        ("wakeup-hints", puno_with(|c| c.puno.wakeup_hints = true)),
        ("baseline", SystemConfig::paper(Mechanism::Baseline)),
    ]
}

/// The ablation on the high-contention group, where the mechanism matters.
fn ablation(runs: &Runs) -> Artifact {
    let mut out = format!(
        "PUNO ablations on the high-contention group (scale {}, seed {})\n",
        runs.scale, runs.seed
    );
    out.push_str(&format!(
        "{:<18}{:>10}{:>12}{:>12}{:>10}{:>10}\n",
        "variant", "aborts", "cycles", "traffic", "unicasts", "acc %"
    ));
    let mut rows = Vec::new();
    for (name, config) in ablation_variants() {
        let p = SensitivityPoint::from_runs(name.to_string(), &runs.high_contention(&config));
        let acc = if p.unicasts > 0 {
            p.accuracy() * 100.0
        } else {
            f64::NAN
        };
        out.push_str(&format!(
            "{name:<18}{:>10}{:>12}{:>12}{:>10}{acc:>10.1}\n",
            p.aborts, p.cycles, p.traffic, p.unicasts
        ));
        rows.push(json!({
            "variant": name,
            "aborts": p.aborts,
            "cycles": p.cycles,
            "traffic": p.traffic,
            "unicasts": p.unicasts,
            "accuracy_pct": acc,
        }));
    }
    Artifact::new("ablation", out, Value::Array(rows))
}

/// Design-space curves over PUNO's tunables on the high-contention group,
/// complementing the ablation's single points: each curve's title, JSON
/// key and points.
fn sensitivity_curves() -> [(&'static str, &'static str, Vec<Point>); 3] {
    [
        (
            "rollover factor (priority freshness window)",
            "rollover_factor",
            rollover_factor_points(&[1, 2, 4, 8]),
        ),
        (
            "validity threshold (trust bar for prediction)",
            "validity_threshold",
            validity_threshold_points(&[1, 2, 3]),
        ),
        (
            "notification backoff cap",
            "notification_cap",
            notification_cap_points(&[100, 400, 1600, u64::MAX]),
        ),
    ]
}

/// The sensitivity curves, each point aggregated over the high-contention
/// group.
fn sensitivity(runs: &Runs) -> Artifact {
    let mut out = format!(
        "PUNO sensitivity on the high-contention group (scale {}, seed {})\n",
        runs.scale, runs.seed
    );
    let mut json = Vec::new();
    for (title, key, points) in sensitivity_curves() {
        let points: Vec<SensitivityPoint> = points
            .into_iter()
            .map(|(label, config)| {
                SensitivityPoint::from_runs(label, &runs.high_contention(&config))
            })
            .collect();
        out.push_str(&sensitivity_table(title, &points));
        json.push((key.to_string(), json!(points)));
    }
    Artifact::new("sensitivity", out, Value::Object(json))
}

fn sensitivity_table(title: &str, points: &[SensitivityPoint]) -> String {
    let mut out = format!("\n== {title} ==\n");
    out.push_str(&format!(
        "{:<16}{:>10}{:>12}{:>12}{:>10}{:>9}{:>10}\n",
        "point", "aborts", "cycles", "traffic", "unicasts", "acc %", "victims"
    ));
    for p in points {
        out.push_str(&format!(
            "{:<16}{:>10}{:>12}{:>12}{:>10}{:>9.1}{:>10}\n",
            p.label,
            p.aborts,
            p.cycles,
            p.traffic,
            p.unicasts,
            p.accuracy() * 100.0,
            p.false_victims
        ));
    }
    out
}

/// The static program shape of every STAMP-analogue generator next to its
/// measured baseline behaviour — Table I, Figure 2 and Figure 3 in one
/// place, plus the NoC hotspot skew that the aggregate figures hide.
fn characterization(grid: &[SweepResult], scale: f64, seed: u64) -> Artifact {
    let mut out = format!("workload characterization (scale {scale}, seed {seed})\n\n");
    out.push_str(&format!(
        "{:<11}{:>7}{:>8}{:>8}{:>10}{:>8}{:>9}{:>9}{:>10}{:>8}\n",
        "workload",
        "rd/tx",
        "wr/tx",
        "rmw%",
        "readers*",
        "abort%",
        "false%",
        "vict/ep",
        "linkskew",
        "Mcycles"
    ));
    let mut rows = Vec::new();
    for w in WorkloadId::ALL {
        let params = w.params().scaled(scale);
        let programs: Vec<_> = (0..16)
            .map(|i| generate_program(&params, NodeId(i), seed))
            .collect();
        let shape = characterize(&programs, params.shared_lines);
        let run = find_expect(grid, w, Mechanism::Baseline);
        out.push_str(&format!(
            "{:<11}{:>7.1}{:>8.1}{:>7.0}%{:>10.1}{:>7.1}%{:>8.1}%{:>9.2}{:>10.2}{:>8.2}\n",
            w.name(),
            shape.mean_reads_per_tx,
            shape.mean_writes_per_tx,
            shape.rmw_write_fraction * 100.0,
            shape.mean_readers_of_written_lines,
            run.htm.abort_rate() * 100.0,
            run.oracle.false_abort_fraction() * 100.0,
            run.oracle.victims_per_episode.mean(),
            run.traffic_link_skew,
            run.cycles as f64 / 1e6,
        ));
        rows.push(json!({
            "workload": w.name(),
            "shape": shape,
            "abort_rate": run.htm.abort_rate(),
            "false_abort_fraction": run.oracle.false_abort_fraction(),
            "link_skew": run.traffic_link_skew,
            "cycles": run.cycles,
        }));
    }
    out.push_str("\n* mean distinct reader nodes per written shared line\n");
    Artifact::new("characterize", out, Value::Array(rows))
}

/// The command line: `[scale] [seed] [nseeds] [--out DIR]`.
struct Args {
    scale: f64,
    seed: u64,
    nseeds: u64,
    out: PathBuf,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut argv = argv.into_iter();
    let mut out = PathBuf::from("results");
    let mut positional = Vec::new();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--out" => out = argv.next().ok_or("--out needs a directory")?.into(),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => positional.push(arg),
        }
    }
    if positional.len() > 3 {
        return Err(format!("unexpected argument {}", positional[3]));
    }
    let arg = |i: usize| positional.get(i).map(String::as_str);
    let args = Args {
        scale: args::scale(arg(0), 0.5)?,
        seed: args::number(arg(1), "seed", 1)?,
        nseeds: args::number(arg(2), "nseeds", 1u64)?.max(1),
        out,
    };
    if args.seed.checked_add(args.nseeds).is_none() {
        return Err("seed + nseeds overflows".to_string());
    }
    Ok(args)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        args::exit_usage("figures", "figures [scale] [seed] [nseeds] [--out DIR]", &e)
    });
    puno_harness::knobs::HostOptions::for_main("figures");
    let grids: Vec<Vec<SweepResult>> = (args.seed..args.seed + args.nseeds)
        .map(|seed| sweep(&WorkloadId::ALL, &Mechanism::ALL, seed, args.scale))
        .collect();
    let runs = Runs::new(&grids[0], args.scale, args.seed);
    let artifacts = artifacts(&grids, &runs);
    if let Err(e) = write_all(&args.out, &artifacts) {
        eprintln!("figures: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "figures: wrote {} artifacts to {} ({} cells beyond the grid)",
        artifacts.len(),
        args.out.display(),
        runs.beyond_grid
    );
}

/// Write each artifact as `out/<name>.txt` and, if it has JSON,
/// `out/<name>.json`.
fn write_all(out: &Path, artifacts: &[Artifact]) -> Result<(), String> {
    let write = |path: PathBuf, contents: &str| {
        std::fs::write(&path, contents)
            .map_err(|e| format!("could not write {}: {e}", path.display()))
    };
    std::fs::create_dir_all(out).map_err(|e| format!("could not create {}: {e}", out.display()))?;
    for artifact in artifacts {
        let stem = out.join(artifact.name);
        write(stem.with_extension("txt"), &artifact.text)?;
        if let Some(json) = &artifact.json {
            write(
                stem.with_extension("json"),
                &serde_json::to_string_pretty(json).expect("a JSON value serializes"),
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The artifact names in DESIGN.md §4's experiment index: the last
    /// column of each row of its table.
    fn design_index() -> BTreeSet<String> {
        let design = include_str!("../../../../DESIGN.md");
        let section = design
            .split("\n## 4. ")
            .nth(1)
            .and_then(|s| s.split("\n## ").next())
            .expect("DESIGN.md has a §4");
        section
            .lines()
            .filter(|line| line.starts_with("| ") && !line.starts_with("| Exp "))
            .filter_map(|line| line.trim_end_matches('|').rsplit('|').next())
            .map(|cell| cell.trim().trim_matches('`').to_string())
            .collect()
    }

    #[test]
    fn every_artifact_builds_from_one_grid() {
        let (scale, seed) = (0.05, 1);
        let grids = vec![sweep(&WorkloadId::ALL, &Mechanism::ALL, seed, scale)];
        let runs = Runs::new(&grids[0], scale, seed);
        let artifacts = artifacts(&grids, &runs);

        let names: BTreeSet<String> = artifacts.iter().map(|a| a.name.to_string()).collect();
        assert_eq!(names.len(), artifacts.len(), "duplicate artifact names");
        assert_eq!(names, design_index());
        for a in &artifacts {
            assert!(!a.text.is_empty(), "{} has no text", a.name);
            match &a.json {
                None => assert_eq!(a.name, "table2", "only Table II is text-only"),
                Some(json) => {
                    let text = serde_json::to_string_pretty(json).unwrap();
                    serde_json::from_str::<Value>(&text)
                        .unwrap_or_else(|e| panic!("{}.json does not read back: {e}", a.name));
                }
            }
        }
        // Beyond the grid, the distinct configurations are the ablation's
        // seven non-default variants plus sensitivity's rollover 8x,
        // validity 1 and the three finite notification caps; the
        // sensitivity points equal to an ablation variant or to the paper
        // default are read, not run again.
        assert_eq!(runs.beyond_grid, 12 * WorkloadId::HIGH_CONTENTION.len());
    }

    #[test]
    fn arguments_keep_the_old_defaults_and_refuse_junk() {
        let args = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        let a = args(&[]).unwrap();
        assert_eq!((a.scale, a.seed, a.nseeds), (0.5, 1, 1));
        assert_eq!(a.out, PathBuf::from("results"));
        let a = args(&["0.05", "3", "0", "--out", "x"]).unwrap();
        assert_eq!((a.scale, a.seed, a.nseeds), (0.05, 3, 1));
        assert_eq!(a.out, PathBuf::from("x"));
        assert!(args(&["half"]).is_err());
        assert!(args(&["0"]).is_err());
        assert!(args(&["NaN"]).is_err());
        assert!(args(&["0.5", &u64::MAX.to_string()]).is_err());
        assert!(args(&["0.5", "1", "1", "1"]).is_err());
        assert!(args(&["--json"]).is_err());
        assert!(args(&["--out"]).is_err());
    }
}
