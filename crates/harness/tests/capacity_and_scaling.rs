//! Capacity-abort injection and mesh-size scaling tests.

use puno_coherence::l1::L1Config;
use puno_harness::run::run_with_config;
use puno_harness::{Mechanism, SystemConfig};
use puno_noc::Mesh;
use puno_workloads::{micro, StaticTxParams, WorkloadParams};

/// A workload whose write sets are guaranteed to exceed a pathologically
/// small L1's per-set pinning capacity.
fn fat_write_workload() -> WorkloadParams {
    WorkloadParams {
        name: "fat-writes".into(),
        static_txs: vec![StaticTxParams {
            weight: 1.0,
            reads: (0, 0),
            writes: (10, 14),
            rmw_fraction: 0.0,
            read_shared_fraction: 0.0,
            write_shared_fraction: 1.0,
            think_per_op: 2,
            scan_shared: 0,
            lead_reads: 0,
        }],
        // All writes land in a tiny shared region that maps to few L1 sets.
        shared_lines: 8,
        zipf_theta: 0.0,
        private_lines_per_node: 8,
        tx_per_node: 6,
        inter_tx_think: 20,
        non_tx_accesses: 0,
    }
}

#[test]
fn overflow_evictions_occur_and_the_system_still_completes() {
    // LogTM-style overflow: write sets larger than the L1 set capacity
    // force sticky writebacks; conflict detection survives at the home and
    // the transactions still commit (no capacity aborts, no deadlock).
    let mut config = SystemConfig::paper(Mechanism::Baseline);
    // 2 sets x 2 ways: a >4-line write set must overflow.
    config.l1 = L1Config { sets: 2, ways: 2 };
    let params = fat_write_workload();
    let m = run_with_config(config, &params, 3);
    assert_eq!(m.committed, 16 * 6, "every transaction must still commit");
    assert!(
        m.htm.overflow_evictions.get() > 0,
        "pathological L1 must overflow"
    );
}

#[test]
fn overflowed_transactions_commit_under_puno_too() {
    let mut config = SystemConfig::paper(Mechanism::Puno);
    config.l1 = L1Config { sets: 2, ways: 2 };
    let m = run_with_config(config, &fat_write_workload(), 5);
    assert_eq!(m.committed, 16 * 6);
    assert!(m.htm.overflow_evictions.get() > 0);
}

#[test]
fn overflowed_runs_stay_serializable() {
    // Counters on a tiny L1: overflow cannot corrupt committed values.
    use puno_harness::System;
    use puno_sim::LineAddr;
    let mut config = SystemConfig::paper(Mechanism::Baseline);
    config.l1 = L1Config { sets: 2, ways: 2 };
    let params = micro::counter(8, 10);
    let mut sys = System::new(config, &params, 7);
    let metrics = sys.try_run_recycled().unwrap();
    let memory = sys.memory();
    assert_eq!(metrics.committed, 16 * 10);
    let total: u64 = (0..8).map(|i| memory.read(LineAddr(i))).sum();
    assert_eq!(total, 16 * 10, "overflow must not lose committed writes");
}

#[test]
fn table_ii_l1_never_overflows_this_workload() {
    // Sanity inverse: the Table II L1 (128 sets) absorbs the same write
    // sets without any overflow.
    let config = SystemConfig::paper(Mechanism::Baseline);
    let m = run_with_config(config, &fat_write_workload(), 3);
    assert_eq!(m.htm.overflow_evictions.get(), 0);
}

#[test]
fn two_by_two_mesh_runs() {
    let mut config = SystemConfig::paper(Mechanism::Puno);
    config.mesh = Mesh::new(2, 2);
    let m = run_with_config(config, &micro::hotspot(10), 1);
    assert_eq!(m.committed, 4 * 10);
    assert!(m.cycles > 0);
}

#[test]
fn eight_by_eight_mesh_runs_and_puno_still_engages() {
    let mut config = SystemConfig::paper(Mechanism::Puno);
    config.mesh = Mesh::new(8, 8);
    let params = micro::hotspot(4);
    let m = run_with_config(config, &params, 1);
    assert_eq!(m.committed, 64 * 4);
    assert!(
        m.puno.unicasts.get() > 0,
        "predictor must engage on 64 nodes"
    );

    let mut base_cfg = SystemConfig::paper(Mechanism::Baseline);
    base_cfg.mesh = Mesh::new(8, 8);
    let base = run_with_config(base_cfg, &params, 1);
    assert_eq!(base.committed, m.committed);
    assert!(
        m.oracle.false_aborted_transactions <= base.oracle.false_aborted_transactions,
        "PUNO should not increase false aborts at 64 nodes ({} vs {})",
        m.oracle.false_aborted_transactions,
        base.oracle.false_aborted_transactions
    );
}

#[test]
fn rectangular_mesh_runs() {
    let mut config = SystemConfig::paper(Mechanism::Baseline);
    config.mesh = Mesh::new(4, 2);
    let m = run_with_config(config, &micro::counter(4, 8), 2);
    assert_eq!(m.committed, 8 * 8);
}
