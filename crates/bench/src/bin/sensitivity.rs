//! Design-space sensitivity sweeps over PUNO's tunables, on the
//! high-contention group. Complements `ablation` with full curves.
//!
//! Usage: `sensitivity [scale] [seed]`

use puno_bench::{parse_args, save_json};
use puno_harness::sensitivity::{
    sweep_notification_cap, sweep_rollover_factor, sweep_validity_threshold, SensitivityPoint,
};
use puno_workloads::WorkloadId;

fn print_points(title: &str, pts: &[SensitivityPoint]) {
    println!("\n== {title} ==");
    println!(
        "{:<16}{:>10}{:>12}{:>12}{:>10}{:>9}{:>10}",
        "point", "aborts", "cycles", "traffic", "unicasts", "acc %", "victims"
    );
    for p in pts {
        println!(
            "{:<16}{:>10}{:>12}{:>12}{:>10}{:>9.1}{:>10}",
            p.label,
            p.aborts,
            p.cycles,
            p.traffic,
            p.unicasts,
            p.accuracy() * 100.0,
            p.false_victims
        );
    }
}

fn main() {
    let args = parse_args();
    let hc = WorkloadId::HIGH_CONTENTION;
    println!(
        "PUNO sensitivity on the high-contention group (scale {}, seed {})",
        args.scale, args.seed
    );

    let rollover = sweep_rollover_factor(&[1, 2, 4, 8], &hc, args.scale, args.seed);
    print_points("rollover factor (priority freshness window)", &rollover);

    let validity = sweep_validity_threshold(&[1, 2, 3], &hc, args.scale, args.seed);
    print_points("validity threshold (trust bar for prediction)", &validity);

    let ncap = sweep_notification_cap(&[100, 400, 1600, u64::MAX], &hc, args.scale, args.seed);
    print_points("notification backoff cap", &ncap);

    save_json(
        "sensitivity",
        &serde_json::json!({
            "rollover_factor": rollover,
            "validity_threshold": validity,
            "notification_cap": ncap,
        }),
    );
}
