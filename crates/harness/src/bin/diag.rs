//! Quick diagnostic: dump mechanism-comparison stats for one workload on
//! the paper's Table II system. Parameter curves are the `figures`
//! sensitivity artifact's job.
//! Usage: `diag [workload|micro-name] [scale]`

mod args;

use puno_harness::Mechanism;
use puno_workloads::{micro, WorkloadId, WorkloadParams};

const USAGE: &str = "diag [workload|hotspot|counter|read-mostly] [scale]";

fn params_by_name(name: &str) -> Option<WorkloadParams> {
    match name {
        "hotspot" => Some(micro::hotspot(30)),
        "counter" => Some(micro::counter(4, 25)),
        "read-mostly" => Some(micro::read_mostly(30)),
        other => WorkloadId::ALL
            .iter()
            .find(|w| w.name() == other)
            .map(|w| w.params()),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let name = argv.first().map(String::as_str).unwrap_or("hotspot");
    let scale = args::scale(argv.get(1).map(String::as_str), 1.0)
        .unwrap_or_else(|e| args::exit_usage("diag", USAGE, &e));
    let params = params_by_name(name)
        .unwrap_or_else(|| args::exit_usage("diag", USAGE, &format!("unknown workload {name}")))
        .scaled(scale);
    puno_harness::knobs::HostOptions::for_main("diag");
    println!("== {} (scale {scale}) ==", params.name);
    for mech in Mechanism::ALL {
        let m = puno_harness::run_workload(mech, &params, 5);
        println!(
            "{:>9}: cycles {:>9} commits {:>6} aborts {:>7} (rate {:.1}%) nacks {:>7} retries {:>7}",
            mech.name(),
            m.cycles,
            m.committed,
            m.htm.aborts.get(),
            m.htm.abort_rate() * 100.0,
            m.htm.nacks_received.get(),
            m.htm.retries.get(),
        );
        println!(
            "           traffic {:>10} blocking/txgetx {:>8.1} gd {:>6.2} backoff_cy {:>9}",
            m.traffic_router_traversals,
            m.dir_blocking_per_tx_getx(),
            m.htm.gd_ratio(),
            m.htm.backoff_cycles.get(),
        );
        // The `htm.aborts_by_cause` split.
        println!(
            "           causes: inv {:>6} rdconf {:>6} nontx {:>4} capacity {:>4}",
            m.htm.aborts_for(puno_htm::AbortCause::TxWriteInvalidation),
            m.htm.aborts_for(puno_htm::AbortCause::TxReadConflict),
            m.htm.aborts_for(puno_htm::AbortCause::NonTxConflict),
            m.htm.aborts_for(puno_htm::AbortCause::Capacity),
        );
        println!(
            "           oracle: episodes {:>7} nacked {:>7} false {:>6} victims {:>7} (frac {:.1}%)",
            m.oracle.tx_getx_episodes,
            m.oracle.nacked_episodes,
            m.oracle.false_abort_episodes,
            m.oracle.false_aborted_transactions,
            m.oracle.false_abort_fraction() * 100.0
        );
        if mech == Mechanism::Puno {
            println!(
                "           puno: opp {} unicast {} declined {} mispred {} acc {:.1}% timeouts {} notif {}",
                m.puno.opportunities.get(),
                m.puno.unicasts.get(),
                m.puno.declined.get(),
                m.puno.mispredictions.get(),
                m.puno.accuracy() * 100.0,
                m.puno.timeouts.get(),
                m.htm.notifications_sent.get(),
            );
        }
    }
}
