//! Shared plumbing for the per-table/per-figure regenerator binaries.
//!
//! Every binary accepts `[scale] [seed]` positional arguments (defaults
//! `0.5` and `1`): `scale` multiplies each workload's per-node transaction
//! count, so `1.0` is a paper-sized run and `0.1` a quick smoke run. Results
//! are printed as aligned text tables in the shape of the paper's artifact
//! and, when `PUNO_JSON_DIR` is set, also saved as JSON for downstream
//! plotting.

#![forbid(unsafe_code)]

use puno_harness::report::{FigureMetric, NormalizedFigure};
use puno_harness::sweep::{sweep, SweepResult};
use puno_harness::Mechanism;
use puno_workloads::WorkloadId;
use std::path::PathBuf;

/// Common CLI arguments.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub scale: f64,
    pub seed: u64,
    /// Repetitions: seeds `seed..seed + nseeds` are swept and figures
    /// geomean the per-seed normalized ratios.
    pub nseeds: u64,
}

pub fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    Args {
        scale: argv.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.5),
        seed: argv.get(2).and_then(|s| s.parse().ok()).unwrap_or(1),
        nseeds: argv.get(3).and_then(|s| s.parse().ok()).unwrap_or(1).max(1),
    }
}

/// Run the full workload x mechanism sweep for every requested seed.
pub fn full_sweep(args: Args) -> Vec<Vec<SweepResult>> {
    (args.seed..args.seed + args.nseeds)
        .map(|seed| sweep(&WorkloadId::ALL, &Mechanism::ALL, seed, args.scale))
        .collect()
}

/// Run the baseline only (for the characterization artifacts: Table I,
/// Figures 2 and 3).
pub fn baseline_sweep(args: Args) -> Vec<SweepResult> {
    sweep(
        &WorkloadId::ALL,
        &[Mechanism::Baseline],
        args.seed,
        args.scale,
    )
}

/// Build, print and (optionally) save one normalized figure, aggregating
/// across seeds when more than one sweep is supplied.
pub fn emit_figure(name: &str, metric: FigureMetric, per_seed: &[Vec<SweepResult>]) {
    let fig = NormalizedFigure::build_multi(metric, per_seed, &WorkloadId::ALL, &Mechanism::ALL);
    println!("== {name}: {} ==", metric.name());
    print!("{}", fig.render());
    save_json(name, &figure_json(&fig));
}

fn figure_json(fig: &NormalizedFigure) -> serde_json::Value {
    serde_json::json!({
        "metric": fig.metric.name(),
        "mechanisms": fig.mechanisms.iter().map(|m| m.name()).collect::<Vec<_>>(),
        "workloads": fig.workloads.iter().map(|w| w.name()).collect::<Vec<_>>(),
        "values": fig.values,
    })
}

/// Save a JSON artifact when `PUNO_JSON_DIR` is set.
pub fn save_json(name: &str, value: &serde_json::Value) {
    let Ok(dir) = std::env::var("PUNO_JSON_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    if std::fs::create_dir_all(&dir).is_err() {
        eprintln!("could not create {dir:?}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::write(&path, serde_json::to_string_pretty(value).unwrap()) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args_are_sane() {
        let a = parse_args();
        assert!(a.scale > 0.0);
        let _ = full_sweep; // type-check the public API
        let _ = baseline_sweep;
        let _ = emit_figure;
    }
}
