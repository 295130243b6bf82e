//! CI fault smoke: a small sweep with background fault injection must
//! complete every cell without a single structured failure, and the faults
//! must actually have fired. Exits non-zero (for CI) on any failed cell.
//! Usage: `fault_smoke [scale] [intensity] [seed]`

mod args;

use puno_harness::sweep::{try_sweep, SweepOptions};
use puno_harness::Mechanism;
use puno_sim::FaultPlan;
use puno_workloads::WorkloadId;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize| argv.get(i).map(String::as_str);
    let parsed = (|| {
        let scale = args::scale(arg(0), 0.05)?;
        let intensity: f64 = args::number(arg(1), "intensity", 1.0)?;
        if !(intensity.is_finite() && intensity >= 0.0) {
            return Err(format!("intensity must be at least 0, not {intensity}"));
        }
        Ok((scale, intensity, args::number(arg(2), "seed", 1u64)?))
    })();
    let (scale, intensity, seed) = parsed.unwrap_or_else(|e: String| {
        args::exit_usage("fault_smoke", "fault_smoke [scale] [intensity] [seed]", &e)
    });
    puno_harness::knobs::HostOptions::for_main("fault_smoke");

    let workloads = [WorkloadId::Ssca2, WorkloadId::Kmeans, WorkloadId::Intruder];
    let mechanisms = [Mechanism::Baseline, Mechanism::Puno];
    let mut opts = SweepOptions::new(seed, scale);
    opts.fault_plan = FaultPlan::background(seed ^ 0xFA, intensity);

    let t0 = std::time::Instant::now();
    let outcomes = try_sweep(&workloads, &mechanisms, &opts);
    eprintln!("fault smoke took {:.1}s", t0.elapsed().as_secs_f64());

    let mut failures = 0usize;
    let mut total_faults = 0u64;
    for o in &outcomes {
        let key = o.key();
        match (o.metrics(), o.error()) {
            (Some(m), _) => {
                total_faults += m.faults.total();
                println!(
                    "{:<10} {:<14} commits {:>6}  faults {:>5} (jit {} stall {} nack {} abort {})",
                    key.workload.name(),
                    format!("{:?}", key.mechanism),
                    m.committed,
                    m.faults.total(),
                    m.faults.delay_jitters.get(),
                    m.faults.link_stalls.get(),
                    m.faults.spurious_nacks.get(),
                    m.faults.forced_aborts.get(),
                );
            }
            (_, Some(e)) => {
                failures += 1;
                println!(
                    "{:<10} {:<14} FAILED [{}]: {e}",
                    key.workload.name(),
                    format!("{:?}", key.mechanism),
                    e.kind()
                );
            }
            _ => unreachable!(),
        }
    }

    if failures > 0 {
        eprintln!("fault smoke: {failures} cell(s) failed");
        std::process::exit(1);
    }
    if intensity > 0.0 && total_faults == 0 {
        eprintln!("fault smoke: intensity {intensity} but zero faults fired");
        std::process::exit(1);
    }
    println!(
        "fault smoke: all {} cells clean, {total_faults} faults injected",
        outcomes.len()
    );
}
