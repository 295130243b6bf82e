//! Offline queries over the cross-run result warehouse (see
//! `puno_harness::warehouse`).
//!
//! Usage: `warehouse [--dir <path>] <trend|delta|regress|stats|rows>
//! [--baseline <path>]`
//!
//! The warehouse directory comes from `--dir` or `PUNO_WAREHOUSE`. Sweeps
//! append one checksummed JSONL row per completed cell there (grouped by
//! `PUNO_RUN_ID`); this binary answers the longitudinal questions:
//!
//! - `trend`: per-workload simulator-throughput trend across recorded runs
//!   (mean simulated Mcycles per wall second; cache-hit rows excluded).
//! - `delta`: per-run PUNO-vs-baseline abort-rate delta per workload, in
//!   percentage points (negative = PUNO aborts less, the paper's claim).
//! - `regress`: compare the latest run's mean wall time per cell against
//!   the persisted bench baseline (`--baseline`, default
//!   `results/BENCH_substrate_baseline.json`); flags ratios above 1.25x
//!   and exits 1 when any workload regresses.
//! - `stats`: row counts and load-recovery counters (corrupt / stale /
//!   duplicate records skipped).
//! - `rows`: dump every valid row as JSONL (for ad-hoc downstream tooling).

use puno_harness::knobs::HostOptions;
use puno_harness::warehouse::{
    abort_rate_deltas, compare_vs_bench_baseline, runs_in_order, throughput_trend, Warehouse,
};
use std::path::PathBuf;

const DEFAULT_BASELINE: &str = "results/BENCH_substrate_baseline.json";

/// `regress` flags a workload whose latest mean wall time per cell exceeds
/// this multiple of the bench baseline.
const REGRESS_RATIO: f64 = 1.25;

fn usage() -> ! {
    eprintln!(
        "usage: warehouse [--dir <path>] <trend|delta|regress|stats|rows> [--baseline <path>]\n\
         the warehouse directory comes from --dir or PUNO_WAREHOUSE"
    );
    std::process::exit(2);
}

fn main() {
    let mut dir: Option<PathBuf> = None;
    let mut baseline = PathBuf::from(DEFAULT_BASELINE);
    let mut command: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--dir" => match argv.next() {
                Some(v) => dir = Some(PathBuf::from(v)),
                None => usage(),
            },
            "--baseline" => match argv.next() {
                Some(v) => baseline = PathBuf::from(v),
                None => usage(),
            },
            "trend" | "delta" | "regress" | "stats" | "rows" if command.is_none() => {
                command = Some(arg)
            }
            _ => usage(),
        }
    }
    let Some(command) = command else { usage() };
    let host = HostOptions::for_main("warehouse");
    let Some(dir) = dir.or_else(|| host.warehouse.clone()) else {
        eprintln!("no warehouse directory: pass --dir <path> or set PUNO_WAREHOUSE");
        std::process::exit(2);
    };
    let wh = match Warehouse::open(&dir) {
        Ok(wh) => wh,
        Err(e) => {
            eprintln!("cannot open warehouse {}: {e}", dir.display());
            std::process::exit(2);
        }
    };
    let (rows, stats) = wh.load();
    if stats.corrupt > 0 || stats.stale > 0 || stats.duplicate > 0 {
        eprintln!(
            "warehouse recovered: {} corrupt, {} stale row(s) skipped, {} duplicate(s) collapsed",
            stats.corrupt, stats.stale, stats.duplicate
        );
    }

    match command.as_str() {
        "stats" => {
            println!(
                "warehouse {}: {} row(s) across {} run(s)",
                wh.rows_path().display(),
                stats.kept,
                runs_in_order(&rows).len()
            );
            println!(
                "load recovery: {} corrupt, {} stale skipped; {} duplicate(s) collapsed",
                stats.corrupt, stats.stale, stats.duplicate
            );
            for (run_id, start) in runs_in_order(&rows) {
                let n = rows.iter().filter(|r| r.run_id == run_id).count();
                let hits = rows
                    .iter()
                    .filter(|r| r.run_id == run_id && r.cache_hit)
                    .count();
                println!("  run {run_id} (t={start}): {n} cell(s), {hits} cache hit(s)");
            }
        }
        "rows" => print!("{}", puno_harness::store::to_jsonl(&rows)),
        "trend" => {
            if rows.is_empty() {
                println!("warehouse is empty — record a sweep with PUNO_WAREHOUSE set");
                return;
            }
            println!("== simulator throughput trend (mean Mcycles/s per simulated cell) ==");
            for (workload, points) in throughput_trend(&rows) {
                println!("{workload}:");
                for p in points {
                    println!(
                        "  {:<24} {:>8.2} Mcycles/s  ({} cell(s))",
                        p.run_id, p.mean_mcycles_per_sec, p.cells
                    );
                }
            }
        }
        "delta" => {
            let deltas = abort_rate_deltas(&rows);
            if deltas.is_empty() {
                println!(
                    "no (baseline, puno) pairs recorded — sweep both mechanisms \
                     with PUNO_WAREHOUSE set"
                );
                return;
            }
            println!("== PUNO vs baseline abort rate by recorded run ==");
            for d in deltas {
                println!(
                    "{:<24} {:<10} baseline {:>5.1}%  puno {:>5.1}%  delta {:>+6.2} pp",
                    d.run_id,
                    d.workload,
                    d.baseline_rate * 100.0,
                    d.puno_rate * 100.0,
                    d.delta_pp
                );
            }
        }
        "regress" => {
            let baseline_json = match std::fs::read_to_string(&baseline) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read bench baseline {}: {e}", baseline.display());
                    std::process::exit(2);
                }
            };
            let cmps = compare_vs_bench_baseline(&rows, &baseline_json);
            if cmps.is_empty() {
                println!(
                    "nothing to compare: need simulated (non-cache-hit) rows for workloads \
                     with a system/throughput/<workload> baseline entry"
                );
                return;
            }
            println!(
                "== latest run vs bench baseline {} (flagging > {REGRESS_RATIO}x) ==",
                baseline.display()
            );
            let mut regressed = false;
            for c in &cmps {
                let flag = c.ratio > REGRESS_RATIO;
                regressed |= flag;
                println!(
                    "{:<10} run {:<24} {:>10.0} us/cell vs baseline {:>10.0} us  ratio {:>5.2} {}",
                    c.workload,
                    c.run_id,
                    c.mean_wall_us,
                    c.baseline_us,
                    c.ratio,
                    if flag { "REGRESSED" } else { "ok" }
                );
            }
            if regressed {
                std::process::exit(1);
            }
        }
        _ => usage(),
    }
}
