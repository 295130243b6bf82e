//! End-to-end serializability: every committed transactional write is an
//! increment, so under *any* mechanism and seed, the final memory values
//! must sum to exactly the number of committed writes — no lost updates, no
//! duplicated effects, no leakage from aborted transactions.

use puno_repro::prelude::*;
use puno_repro::sim::LineAddr;

fn check_counter(mechanism: Mechanism, lines: u64, tx_per_node: u32, seed: u64) {
    let params = micro::counter(lines, tx_per_node);
    let config = SystemConfig::paper(mechanism);
    let mut sys = System::new(config, &params, seed);
    let metrics = sys.try_run_recycled().unwrap();
    let memory = sys.memory();
    assert_eq!(
        metrics.committed,
        16 * tx_per_node as u64,
        "{mechanism:?}/seed{seed}: wrong commit count"
    );
    let total: u64 = (0..lines).map(|i| memory.read(LineAddr(i))).sum();
    assert_eq!(
        total,
        16 * tx_per_node as u64,
        "{mechanism:?}/seed{seed}: committed increments lost or duplicated"
    );
}

#[test]
fn counter_is_serializable_under_baseline() {
    check_counter(Mechanism::Baseline, 4, 15, 1);
}

#[test]
fn counter_is_serializable_under_random_backoff() {
    check_counter(Mechanism::RandomBackoff, 4, 15, 2);
}

#[test]
fn counter_is_serializable_under_rmw_pred() {
    check_counter(Mechanism::RmwPred, 4, 15, 3);
}

#[test]
fn counter_is_serializable_under_puno() {
    check_counter(Mechanism::Puno, 4, 15, 4);
}

#[test]
fn counter_is_serializable_on_a_single_line() {
    // Maximum conflict: every transaction increments the same line.
    for mech in Mechanism::ALL {
        check_counter(mech, 1, 10, 7);
    }
}

#[test]
fn counter_is_serializable_across_seeds() {
    for seed in 10..15 {
        check_counter(Mechanism::Puno, 2, 8, seed);
    }
}

#[test]
fn mixed_workload_conserves_committed_writes() {
    // The hotspot micro workload writes 1-2 lines per tx; sum of memory
    // values must equal the number of committed transactional writes plus
    // non-tx writes (hotspot has none).
    let params = micro::hotspot(10);
    let config = SystemConfig::paper(Mechanism::Puno);
    let mut sys = System::new(config, &params, 5);
    let metrics = sys.try_run_recycled().unwrap();
    let memory = sys.memory();
    let total: u64 = (0..8).map(|i| memory.read(LineAddr(i))).sum();
    assert!(metrics.committed > 0);
    assert!(total > 0, "committed writes must land");
    // Each commit wrote 1..=2 shared lines.
    assert!(total >= metrics.committed && total <= 2 * metrics.committed);
}
