//! Randomized whole-system tests: random workload shapes and seeds must
//! never violate the simulator's global invariants. Shapes are generated
//! from a fixed-seed `SimRng` (the registryless build cannot use proptest),
//! so every case is reproducible by its index.

use puno_repro::prelude::*;
use puno_repro::sim::{LineAddr, SimRng};
use puno_repro::workloads::{StaticTxParams, WorkloadParams};

fn gen_params(rng: &mut SimRng) -> WorkloadParams {
    let r0 = rng.gen_range(6) as u32;
    let dr = rng.gen_range(4) as u32;
    let w0 = rng.gen_range(3) as u32;
    let dw = rng.gen_range(3) as u32;
    WorkloadParams {
        name: "prop".into(),
        static_txs: vec![StaticTxParams {
            weight: 1.0,
            reads: (r0, r0 + dr),
            writes: (w0, w0 + dw),
            rmw_fraction: rng.gen_f64(),
            read_shared_fraction: 0.9,
            write_shared_fraction: 0.9,
            think_per_op: 1 + rng.gen_range(19),
            scan_shared: 0,
            lead_reads: rng.gen_range(3) as u32,
        }],
        shared_lines: 1 + rng.gen_range(63),
        zipf_theta: rng.gen_f64(),
        private_lines_per_node: 16,
        tx_per_node: 2 + rng.gen_range(8) as u32,
        inter_tx_think: 20,
        non_tx_accesses: 1,
    }
}

/// Any random workload completes under every mechanism with the full offered
/// load committed, and committed writes are value-conserving.
#[test]
fn random_workloads_complete_and_conserve() {
    let mut rng = SimRng::new(0x5eed_0006);
    for case in 0..24 {
        let params = gen_params(&mut rng);
        let seed = rng.gen_range(1000);
        let mechanism = Mechanism::ALL[rng.gen_range(4) as usize];
        let config = SystemConfig::paper(mechanism);
        let mut sys = System::new(config, &params, seed);
        let metrics = sys.try_run_recycled().unwrap();
        let memory = sys.memory();

        // Fixed offered load: every transaction eventually commits.
        assert_eq!(
            metrics.committed,
            16 * params.tx_per_node as u64,
            "case {case} ({mechanism:?} seed {seed})"
        );

        // Value conservation: every write (tx committed or non-tx) is an
        // increment; aborted increments must have been rolled back. The
        // shared-region sum therefore equals the committed tx write count;
        // we can bound it by ops statically.
        let shared_sum: u64 = (0..params.shared_lines)
            .map(|i| memory.read(LineAddr(i)))
            .sum();
        let max_writes = metrics.committed * (params.static_txs[0].writes.1 as u64);
        assert!(
            shared_sum <= max_writes,
            "case {case}: shared sum {shared_sum} exceeds maximum committed writes {max_writes}"
        );

        // Abort bookkeeping matches the per-cause split.
        let causes: u64 = puno_repro::htm::AbortCause::ALL
            .iter()
            .map(|&c| metrics.htm.aborts_for(c))
            .sum();
        assert_eq!(causes, metrics.htm.aborts.get(), "case {case}");
    }
}

/// Determinism: identical (params, seed, mechanism) yield identical metrics.
#[test]
fn runs_are_reproducible() {
    let mut rng = SimRng::new(0x5eed_0007);
    for case in 0..8 {
        let params = gen_params(&mut rng);
        let seed = rng.gen_range(100);
        let a = run_workload(Mechanism::Puno, &params, seed);
        let b = run_workload(Mechanism::Puno, &params, seed);
        assert_eq!(a.cycles, b.cycles, "case {case}");
        assert_eq!(a.htm.aborts.get(), b.htm.aborts.get(), "case {case}");
        assert_eq!(
            a.traffic_router_traversals, b.traffic_router_traversals,
            "case {case}"
        );
        assert_eq!(
            a.oracle.false_aborted_transactions, b.oracle.false_aborted_transactions,
            "case {case}"
        );
    }
}
