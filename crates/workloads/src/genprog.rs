//! Program generation: turn a `WorkloadParams` into one deterministic
//! `NodeProgram` per node.

use crate::addresses::AddressMap;
use crate::op::{DynTxSpec, NodeProgram, TxOp, WorkItem};
use crate::params::WorkloadParams;
use puno_sim::{LineAddr, NodeId, SimRng, StaticTxId, ZipfSampler};

/// Generate node `node`'s program for `params`, deterministically derived
/// from `seed`. The same `(params, node, seed)` always yields the same
/// program, so all mechanisms replay identical offered load. Generating
/// every node of a mesh goes through [`crate::ProgramSet::generate`], which
/// builds the per-params set-up once instead of once per node.
pub fn generate_program(params: &WorkloadParams, node: NodeId, seed: u64) -> NodeProgram {
    ProgramGen::new(params).program(node, seed)
}

/// Everything program generation derives from the params alone, built once
/// and reused for every node: the validated address map, the Zipf constants
/// (an O(`shared_lines`) harmonic sum), the static-tx weight total, and two
/// scratch buffers sized from the static txs' upper bounds.
pub(crate) struct ProgramGen<'a> {
    params: &'a WorkloadParams,
    map: AddressMap,
    zipf: ZipfSampler,
    total_weight: f64,
    /// The transaction body under construction. Each finished body is
    /// copied out at its exact length, so the buffer never grows once sized.
    ops: Vec<TxOp>,
    /// Lines the body under construction has read (the RMW write pool).
    read_lines: Vec<LineAddr>,
}

impl<'a> ProgramGen<'a> {
    pub(crate) fn new(params: &'a WorkloadParams) -> Self {
        params.validate();
        let (max_ops, max_reads) = params
            .static_txs
            .iter()
            .map(|st| {
                let think = usize::from(st.think_per_op > 0);
                let scan = st.scan_shared as usize;
                let reads = st.lead_reads as usize + scan + st.reads.1 as usize;
                let ops = st.lead_reads as usize
                    + scan
                    + think * usize::from(scan > 0)
                    + (1 + think) * (st.reads.1 as usize + st.writes.1 as usize);
                (ops, reads)
            })
            .fold((0, 0), |(o, r), (so, sr)| (o.max(so), r.max(sr)));
        Self {
            params,
            map: AddressMap::new(params.shared_lines, params.private_lines_per_node.max(1)),
            zipf: ZipfSampler::new(params.shared_lines, params.zipf_theta),
            total_weight: params.static_txs.iter().map(|t| t.weight).sum(),
            ops: Vec::with_capacity(max_ops),
            read_lines: Vec::with_capacity(max_reads),
        }
    }

    /// Node `node`'s program under `seed` (see [`generate_program`]).
    pub(crate) fn program(&mut self, node: NodeId, seed: u64) -> NodeProgram {
        let Self {
            params,
            map,
            zipf,
            total_weight,
            ops,
            read_lines,
        } = self;
        let mut rng = SimRng::new(seed).derive(0x9E3779B9 ^ node.0 as u64);

        // Each transaction adds one item, its think phase one more, and
        // each non-transactional access one: the count is exact.
        let per_tx = usize::from(params.inter_tx_think > 0) + params.non_tx_accesses as usize + 1;
        let mut items = Vec::with_capacity(params.tx_per_node as usize * per_tx);
        for _ in 0..params.tx_per_node {
            // Inter-transaction non-transactional phase.
            if params.inter_tx_think > 0 {
                items.push(WorkItem::Think(
                    rng.gen_geometric(params.inter_tx_think as f64).max(1),
                ));
            }
            for k in 0..params.non_tx_accesses {
                let idx = rng.gen_range(map.private_lines_per_node);
                items.push(WorkItem::Access {
                    addr: map.private(node, idx),
                    is_write: k % 2 == 0,
                });
            }

            // Pick the static transaction by weight.
            let mut pick = rng.gen_f64() * *total_weight;
            let mut static_idx = 0;
            for (i, st) in params.static_txs.iter().enumerate() {
                if pick < st.weight {
                    static_idx = i;
                    break;
                }
                pick -= st.weight;
            }
            let st = &params.static_txs[static_idx];

            // Build the body: optional global scan, then reads, then writes
            // (read-compute-update, the dominant STAMP shape).
            ops.clear();
            read_lines.clear();
            let think = |rng: &mut SimRng, ops: &mut Vec<TxOp>| {
                if st.think_per_op > 0 {
                    ops.push(TxOp::Think(
                        rng.gen_geometric(st.think_per_op as f64).max(1),
                    ));
                }
            };

            for _ in 0..st.lead_reads {
                let addr = map.shared(zipf.sample(&mut rng));
                ops.push(TxOp::Read(addr));
                read_lines.push(addr);
            }

            if st.scan_shared > 0 {
                // Evenly strided scan so the read set spans all home banks.
                let stride = (params.shared_lines / st.scan_shared as u64).max(1);
                for i in 0..st.scan_shared as u64 {
                    let addr = map.shared((i * stride) % params.shared_lines);
                    ops.push(TxOp::Read(addr));
                    read_lines.push(addr);
                }
                think(&mut rng, ops);
            }

            let n_reads = rng.gen_range_inclusive(st.reads.0 as u64, st.reads.1 as u64);
            for _ in 0..n_reads {
                think(&mut rng, ops);
                let addr = if rng.gen_bool(st.read_shared_fraction) {
                    map.shared(zipf.sample(&mut rng))
                } else {
                    map.private(node, rng.gen_range(map.private_lines_per_node))
                };
                ops.push(TxOp::Read(addr));
                read_lines.push(addr);
            }

            let n_writes = rng.gen_range_inclusive(st.writes.0 as u64, st.writes.1 as u64);
            for _ in 0..n_writes {
                think(&mut rng, ops);
                let addr = if !read_lines.is_empty() && rng.gen_bool(st.rmw_fraction) {
                    *rng.choose(read_lines)
                } else if rng.gen_bool(st.write_shared_fraction) {
                    map.shared(zipf.sample(&mut rng))
                } else {
                    map.private(node, rng.gen_range(map.private_lines_per_node))
                };
                ops.push(TxOp::Write(addr));
            }

            items.push(WorkItem::Transaction(DynTxSpec {
                static_tx: StaticTxId(static_idx as u32),
                ops: ops.to_vec(),
            }));
        }
        NodeProgram { items }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::StaticTxParams;

    fn params() -> WorkloadParams {
        WorkloadParams {
            name: "gen-test".into(),
            static_txs: vec![
                StaticTxParams {
                    weight: 3.0,
                    ..StaticTxParams::simple()
                },
                StaticTxParams {
                    weight: 1.0,
                    reads: (10, 12),
                    ..StaticTxParams::simple()
                },
            ],
            shared_lines: 128,
            zipf_theta: 0.9,
            private_lines_per_node: 32,
            tx_per_node: 200,
            inter_tx_think: 30,
            non_tx_accesses: 2,
        }
    }

    #[test]
    fn deterministic_per_node_and_seed() {
        let a = generate_program(&params(), NodeId(3), 42);
        let b = generate_program(&params(), NodeId(3), 42);
        assert_eq!(a, b);
        let c = generate_program(&params(), NodeId(4), 42);
        assert_ne!(a, c, "different nodes draw different programs");
        let d = generate_program(&params(), NodeId(3), 43);
        assert_ne!(a, d, "different seeds draw different programs");
    }

    #[test]
    fn produces_requested_transaction_count() {
        let p = generate_program(&params(), NodeId(0), 1);
        assert_eq!(p.tx_count(), 200);
    }

    #[test]
    fn static_tx_mix_respects_weights() {
        let p = generate_program(&params(), NodeId(0), 7);
        let s0 = p
            .transactions()
            .filter(|t| t.static_tx == StaticTxId(0))
            .count();
        let s1 = p.tx_count() - s0;
        // weight 3:1 -> roughly 150:50.
        assert!(s0 > 2 * s1, "mix {s0}:{s1} should skew to static tx 0");
        assert!(s1 > 10, "static tx 1 must still appear");
    }

    #[test]
    fn read_write_set_sizes_in_range() {
        let p = generate_program(&params(), NodeId(0), 9);
        for t in p.transactions() {
            let reads = t.ops.iter().filter(|o| matches!(o, TxOp::Read(_))).count() as u32;
            let writes = t.ops.iter().filter(|o| matches!(o, TxOp::Write(_))).count() as u32;
            match t.static_tx {
                StaticTxId(0) => {
                    assert!((2..=4).contains(&reads));
                }
                StaticTxId(1) => {
                    assert!((10..=12).contains(&reads));
                }
                _ => unreachable!(),
            }
            assert!((1..=2).contains(&writes));
        }
    }

    #[test]
    fn rmw_writes_come_from_read_lines() {
        let mut p = params();
        p.static_txs.truncate(1);
        p.static_txs[0].rmw_fraction = 1.0;
        let prog = generate_program(&p, NodeId(0), 11);
        for t in prog.transactions() {
            let reads: Vec<LineAddr> = t
                .ops
                .iter()
                .filter_map(|o| match o {
                    TxOp::Read(a) => Some(*a),
                    _ => None,
                })
                .collect();
            for op in &t.ops {
                if let TxOp::Write(a) = op {
                    assert!(reads.contains(a), "pure-RMW write must target a read line");
                }
            }
        }
    }

    #[test]
    fn scan_reads_span_the_shared_region() {
        let mut p = params();
        p.static_txs.truncate(1);
        p.static_txs[0].scan_shared = 32;
        p.static_txs[0].reads = (0, 0);
        let prog = generate_program(&p, NodeId(0), 3);
        let t = prog.transactions().next().unwrap();
        let reads: Vec<u64> = t
            .ops
            .iter()
            .filter_map(|o| match o {
                TxOp::Read(a) => Some(a.0),
                _ => None,
            })
            .collect();
        assert_eq!(reads.len(), 32);
        // Strided: consecutive reads differ by shared_lines / scan = 4.
        assert_eq!(reads[1] - reads[0], 4);
        let max = reads.iter().max().unwrap();
        assert!(*max >= 124, "scan should reach the top of the region");
    }

    #[test]
    fn private_accesses_stay_private() {
        let p = generate_program(&params(), NodeId(5), 13);
        let map = AddressMap::new(128, 32);
        for item in &p.items {
            if let WorkItem::Access { addr, .. } = item {
                assert!(map.is_private_of(*addr, NodeId(5)));
            }
        }
    }
}
