//! Quick diagnostic: dump mechanism-comparison stats for one workload.
//! Usage: `diag [workload|micro-name] [scale]`

use puno_harness::Mechanism;
use puno_workloads::{micro, WorkloadId, WorkloadParams};

fn params_by_name(name: &str) -> WorkloadParams {
    match name {
        "hotspot" => micro::hotspot(30),
        "counter" => micro::counter(4, 25),
        "read-mostly" => micro::read_mostly(30),
        other => WorkloadId::ALL
            .iter()
            .find(|w| w.name() == other)
            .map(|w| w.params())
            .unwrap_or_else(|| panic!("unknown workload {other}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("hotspot");
    let scale: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let params = params_by_name(name).scaled(scale);
    let ncap: u64 = std::env::var("PUNO_NCAP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(u64::MAX);
    println!("== {} (scale {scale}, ncap {ncap}) ==", params.name);
    for mech in Mechanism::ALL {
        let mut config = puno_harness::SystemConfig::paper(mech);
        config.backoff.notification_cap = ncap;
        if let Ok(f) = std::env::var("PUNO_RFACTOR") {
            config.puno.rollover_factor = f.parse().unwrap();
        }
        if let Ok(v) = std::env::var("PUNO_VTH") {
            config.puno.validity_threshold = v.parse().unwrap();
        }
        let m = puno_harness::run::run_with_config(config, &params, 5);
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
