//! `benchmark compare A.json… -- B.json…`: set the end-to-end values of two
//! groups of result files side by side and judge each workload × metric.
//!
//! Each file contributes the one value per metric it reported (the best rep
//! of its run), and each side is summarized by the median and quartiles of
//! those values. A metric is `better` when B wins at least nine tenths of
//! all (A, B) pairs and the medians differ by more than A's inter-quartile
//! distance; else `unresolved` when either side's spread is wider than the
//! metric's bound; else `worse` when B's median is worse than A's by more
//! than the bound; else `within bound`.

use crate::metrics::{Better, MetricDef, Summary, END_TO_END};
use serde_json::Value;
use std::path::Path;

/// Per workload, per metric: the value one file reported.
type Values = Vec<(String, Vec<(&'static str, f64)>)>;

fn load(path: &Path) -> Result<Values, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc: Value =
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no `workloads` array", path.display()))?;
    let mut out = Vec::new();
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: workload without a name", path.display()))?;
        let reported = END_TO_END
            .iter()
            .filter_map(|m| {
                let v = w.get("metrics")?.get(m.name)?.get("value")?.as_f64()?;
                Some((m.name, v))
            })
            .collect();
        out.push((name.to_string(), reported));
    }
    Ok(out)
}

fn values(files: &[Values], workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .flat_map(|f| f.iter().filter(|(w, _)| w == workload))
        .flat_map(|(_, ms)| ms.iter().filter(|(m, _)| *m == metric).map(|(_, v)| *v))
        .collect()
}

/// Share of all (a, b) pairs where `b` is strictly better; ties count for
/// neither side.
fn win_fraction(def: &MetricDef, a: &[f64], b: &[f64]) -> f64 {
    let better = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let wins = a
        .iter()
        .flat_map(|&x| b.iter().filter(move |&&y| better(y, x)))
        .count();
    wins as f64 / (a.len() * b.len()) as f64
}

fn verdict(def: &MetricDef, a: &Summary, b: &Summary, wins: f64) -> &'static str {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let worse_by = match def.better {
        Better::Lower => b.median / a.median - 1.0,
        Better::Higher => 1.0 - b.median / a.median,
    };
    if wins >= 0.9 && worse_by < 0.0 && (b.median - a.median).abs() > a.p75 - a.p25 {
        "better"
    } else if a.spread().max(b.spread()) > bound {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "within bound"
    }
}

pub fn run(args: &[String]) -> Result<(), String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: benchmark compare A.json... -- B.json...")?;
    let (a_paths, b_paths) = (&args[..split], &args[split + 1..]);
    if a_paths.is_empty() || b_paths.is_empty() {
        return Err("both sides need at least one result file".into());
    }
    let load_all = |paths: &[String]| -> Result<Vec<Values>, String> {
        paths.iter().map(|p| load(Path::new(p))).collect()
    };
    let (a_files, b_files) = (load_all(a_paths)?, load_all(b_paths)?);
    println!(
        "{:<14} {:<12} {:>12} {:>23} {:>12} {:>23} {:>7} {:>5}  verdict",
        "workload", "metric", "A median", "A [p25, p75]", "B median", "B [p25, p75]", "B/A", "wins"
    );
    let mut workloads: Vec<&str> = Vec::new();
    for (w, _) in a_files.iter().flatten() {
        if !workloads.contains(&w.as_str()) {
            workloads.push(w);
        }
    }
    for w in workloads {
        for def in &END_TO_END {
            let (a, b) = (values(&a_files, w, def.name), values(&b_files, w, def.name));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (sa, sb) = (Summary::of(&a), Summary::of(&b));
            let wins = win_fraction(def, &a, &b);
            println!(
                "{w:<14} {:<12} {:>12.6} [{:>10.6}, {:>10.6}] {:>12.6} [{:>10.6}, {:>10.6}] {:>7.4} {:>5.2}  {}",
                def.name,
                sa.median,
                sa.p25,
                sa.p75,
                sb.median,
                sb.p25,
                sb.p75,
                sb.median / sa.median,
                wins,
                verdict(def, &sa, &sb, wins)
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::lookup;

    #[test]
    fn verdicts_follow_spread_bound_and_wins() {
        let wall = lookup("wall_s").unwrap();
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let faster = [0.80, 0.81, 0.79, 0.80, 0.82];
        let slower = [1.30, 1.31, 1.29, 1.30, 1.32];
        let same = [1.00, 1.01, 0.99, 1.00, 1.01];
        let noisy = [0.7, 1.3, 1.0, 0.8, 1.2];
        let judge = |b: &[f64]| {
            verdict(
                wall,
                &Summary::of(&a),
                &Summary::of(b),
                win_fraction(wall, &a, b),
            )
        };
        assert_eq!(judge(&faster), "better");
        assert_eq!(judge(&slower), "worse");
        assert_eq!(judge(&same), "within bound");
        assert_eq!(judge(&noisy), "unresolved");
        let ktx = lookup("ktx_per_s").unwrap();
        assert_eq!(win_fraction(ktx, &[1.0, 2.0], &[3.0, 1.0]), 0.5);
    }
}
