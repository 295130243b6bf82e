//! Focused node-controller tests: writeback-buffer races, upgrade flows,
//! sticky sharers, and non-transactional conflict handling — the corner
//! cases of the protocol that unit tests inside `node.rs` do not reach
//! end-to-end.

use puno_coherence::l1::L1Config;
use puno_harness::run::run_with_config;
use puno_harness::{Mechanism, SystemConfig};
use puno_workloads::{micro, StaticTxParams, WorkloadParams};

/// A workload engineered to churn the L1 hard (private footprint much
/// larger than the cache) while also doing transactional work, so dirty
/// and clean-exclusive evictions (PUTX/PUTS) interleave with transactional
/// forwards and the writeback buffer actually gets exercised.
fn churn_workload() -> WorkloadParams {
    WorkloadParams {
        name: "churn".into(),
        static_txs: vec![StaticTxParams {
            weight: 1.0,
            reads: (2, 4),
            writes: (1, 2),
            rmw_fraction: 0.5,
            read_shared_fraction: 0.6,
            write_shared_fraction: 0.6,
            think_per_op: 3,
            scan_shared: 0,
            lead_reads: 1,
        }],
        shared_lines: 16,
        zipf_theta: 0.7,
        private_lines_per_node: 256,
        tx_per_node: 30,
        inter_tx_think: 10,
        non_tx_accesses: 8,
    }
}

#[test]
fn heavy_eviction_churn_completes_under_all_mechanisms() {
    // Tiny L1 -> constant evictions of private (dirty) and shared lines,
    // PUTX/PUTS racing forwards. The run completing at all proves the
    // writeback-buffer protocol has no deadlocks or lost lines.
    for mech in Mechanism::ALL {
        let mut config = SystemConfig::paper(mech);
        config.l1 = L1Config { sets: 4, ways: 2 };
        let m = run_with_config(config, &churn_workload(), 11);
        assert_eq!(m.committed, 16 * 30, "{mech:?}");
    }
}

#[test]
fn eviction_churn_is_deterministic() {
    let mut config = SystemConfig::paper(Mechanism::Puno);
    config.l1 = L1Config { sets: 4, ways: 2 };
    let a = run_with_config(config, &churn_workload(), 13);
    let b = run_with_config(config, &churn_workload(), 13);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.htm.aborts.get(), b.htm.aborts.get());
}

#[test]
fn read_mostly_sharing_keeps_upgrades_flowing() {
    // Readers + occasional writers -> plenty of S->M upgrades (UpgradeAck
    // path) and sticky stale sharers being invalidated without aborts.
    let m = run_with_config(
        SystemConfig::paper(Mechanism::Baseline),
        &micro::read_mostly(25),
        17,
    );
    assert_eq!(m.committed, 16 * 25);
    assert!(m.htm.aborts.get() > 0, "writers must occasionally clash");
}

#[test]
fn non_tx_heavy_interleaving_never_aborts_anyone_without_sharing() {
    // Non-transactional accesses only touch private lines, so even a
    // non-tx-heavy run must see zero NonTxConflict aborts.
    let m = run_with_config(
        SystemConfig::paper(Mechanism::Baseline),
        &churn_workload(),
        19,
    );
    assert_eq!(
        m.htm.aborts_for(puno_htm::AbortCause::NonTxConflict),
        0,
        "private non-tx traffic must not conflict with transactions"
    );
}

#[test]
fn trace_ring_captures_protocol_messages() {
    use puno_harness::System;
    let params = micro::counter(2, 3);
    let mut sys = System::new(SystemConfig::paper(Mechanism::Baseline), &params, 3);
    sys.enable_trace(128);
    let metrics = sys.try_run_recycled().unwrap();
    let trace = sys.trace_dump();
    assert_eq!(metrics.committed, 16 * 3);
    // The retained window must contain real protocol messages, newest last.
    assert!(trace.contains("Unblock"), "trace:\n{trace}");
    assert!(trace.contains("N"), "node ids rendered");
}
