//! Mechanism shootout: the paper's full comparison matrix — baseline,
//! randomized linear backoff [17], the RMW predictor [5], and PUNO — on one
//! workload, with every metric the evaluation section reports.
//!
//! ```sh
//! cargo run --release --example mechanism_shootout [workload] [scale] [seed]
//! ```

#[path = "../crates/harness/src/bin/args/mod.rs"]
mod args;

use puno_repro::prelude::*;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize| argv.get(i).map(String::as_str);
    let name = arg(0).unwrap_or("bayes");
    let (scale, seed) = args::scale(arg(1), 0.25)
        .and_then(|scale| Ok((scale, args::number(arg(2), "seed", 1u64)?)))
        .unwrap_or_else(|e| {
            let usage = "mechanism_shootout [workload] [scale] [seed]";
            args::exit_usage("mechanism_shootout", usage, &e)
        });

    let workload = WorkloadId::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .expect("unknown workload");
    let params = workload.params().scaled(scale);

    println!(
        "{} (x{scale}, seed {seed}): 16 cores, MESI directory, eager HTM\n",
        params.name
    );
    println!(
        "{:<11}{:>9}{:>9}{:>8}{:>11}{:>11}{:>9}{:>8}",
        "mechanism", "commits", "aborts", "rate%", "traffic", "cycles", "blk/req", "G/D"
    );
    for mech in Mechanism::ALL {
        let m = run_workload(mech, &params, seed);
        println!(
            "{:<11}{:>9}{:>9}{:>8.1}{:>11}{:>11}{:>9.1}{:>8.2}",
            mech.name(),
            m.committed,
            m.htm.aborts.get(),
            m.htm.abort_rate() * 100.0,
            m.traffic_router_traversals,
            m.cycles,
            m.dir_blocking_per_tx_getx(),
            m.htm.gd_ratio(),
        );
    }
    println!("\nColumns map to the paper's figures: aborts = Fig 10, traffic = Fig 11,");
    println!("blk/req = Fig 12, cycles = Fig 13, G/D = Fig 14.");
}
