//! Quickstart: simulate one STAMP-like workload on the paper's 16-core CMP
//! under the baseline HTM and under PUNO, and compare the headline metrics.
//!
//! ```sh
//! cargo run --release --example quickstart [workload] [scale]
//! ```

#[path = "../crates/harness/src/bin/args/mod.rs"]
mod args;

use puno_repro::prelude::*;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let name = argv.first().map(String::as_str).unwrap_or("intruder");
    let scale = args::scale(argv.get(1).map(String::as_str), 0.25)
        .unwrap_or_else(|e| args::exit_usage("quickstart", "quickstart [workload] [scale]", &e));

    let workload = WorkloadId::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| {
            eprintln!("unknown workload {name}; pick one of:");
            for w in WorkloadId::ALL {
                eprintln!("  {}", w.name());
            }
            std::process::exit(1);
        });
    let params = workload.params().scaled(scale);

    println!(
        "simulating `{}` (x{scale} scale) on a 4x4-mesh, 16-core CMP...",
        params.name
    );
    let base = run_workload(Mechanism::Baseline, &params, 42);
    let puno = run_workload(Mechanism::Puno, &params, 42);

    println!("\n                      baseline        PUNO       delta");
    let row = |label: &str, b: f64, p: f64| {
        let delta = if b != 0.0 { (p / b - 1.0) * 100.0 } else { 0.0 };
        println!("{label:<18}{b:>12.0}{p:>12.0}{delta:>+10.1}%");
    };
    row("commits", base.committed as f64, puno.committed as f64);
    row(
        "aborts",
        base.htm.aborts.get() as f64,
        puno.htm.aborts.get() as f64,
    );
    row(
        "false-abort evts",
        base.oracle.false_abort_episodes as f64,
        puno.oracle.false_abort_episodes as f64,
    );
    row(
        "router traversals",
        base.traffic_router_traversals as f64,
        puno.traffic_router_traversals as f64,
    );
    row("cycles", base.cycles as f64, puno.cycles as f64);
    println!(
        "\nPUNO predictor: {} unicasts, {:.1}% accurate, {} notifications sent",
        puno.puno.unicasts.get(),
        puno.puno.accuracy() * 100.0,
        puno.htm.notifications_sent.get()
    );
}
