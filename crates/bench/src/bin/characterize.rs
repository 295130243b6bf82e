//! Workload characterization report: the static program shape of every
//! STAMP-analogue generator next to its measured baseline behaviour —
//! Table I, Figure 2 and Figure 3 in one place, plus the NoC hotspot skew
//! that the aggregate figures hide.
//!
//! Usage: `characterize [scale] [seed]`

use puno_bench::{parse_args, save_json};
use puno_harness::{run_workload, Mechanism};
use puno_sim::NodeId;
use puno_workloads::{characterize, generate_program, WorkloadId};

fn main() {
    let args = parse_args();
    println!(
        "workload characterization (scale {}, seed {})\n",
        args.scale, args.seed
    );
    println!(
        "{:<11}{:>7}{:>8}{:>8}{:>10}{:>8}{:>9}{:>9}{:>10}{:>8}",
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
    );
    let mut json = Vec::new();
    for w in WorkloadId::ALL {
        let params = w.params().scaled(args.scale);
        let programs: Vec<_> = (0..16)
            .map(|i| generate_program(&params, NodeId(i), args.seed))
            .collect();
        let shape = characterize(&programs, params.shared_lines);
        let run = run_workload(Mechanism::Baseline, &params, args.seed);
        println!(
            "{:<11}{:>7.1}{:>8.1}{:>7.0}%{:>10.1}{:>7.1}%{:>8.1}%{:>9.2}{:>10.2}{:>8.2}",
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
        );
        json.push(serde_json::json!({
            "workload": w.name(),
            "shape": shape,
            "abort_rate": run.htm.abort_rate(),
            "false_abort_fraction": run.oracle.false_abort_fraction(),
            "link_skew": run.traffic_link_skew,
            "cycles": run.cycles,
        }));
    }
    println!("\n* mean distinct reader nodes per written shared line");
    save_json("characterize", &serde_json::Value::Array(json));
}
