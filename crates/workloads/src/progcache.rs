//! Shared program sets and workload-parameter digesting.
//!
//! A sweep runs every mechanism against the *same* offered load, so the
//! per-node programs for one `(params, seed)` pair are identical across all
//! mechanism cells — and across retries of the same cell. [`ProgramSet`]
//! generates them once and hands out immutable [`Arc`] clones, eliminating
//! the dominant per-cell setup cost without any behavioural change: each
//! program is produced by the exact same [`generate_program`] call a fresh
//! `System` would have made.
//!
//! [`params_digest`] gives a stable content digest of a `WorkloadParams`
//! used both as the program-cache key and as one component of the
//! persistent result-cache key in `puno-harness`.

use std::sync::Arc;

use crate::genprog::generate_program;
use crate::op::NodeProgram;
use crate::params::WorkloadParams;
use puno_sim::NodeId;

/// FNV-1a 64-bit offset basis: the hash of the empty string, and the
/// starting state for [`fnv1a_64_fold`].
pub const FNV1A_64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit over an arbitrary byte string. Hand-rolled so digests are
/// stable across runs and hosts without pulling in a hashing crate.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a_64_fold(FNV1A_64_OFFSET, bytes)
}

/// Continue an FNV-1a 64-bit hash over more bytes: folding the pieces of a
/// string one after another gives the hash of their concatenation, so a
/// caller can hash text that sits in several places without joining it.
pub fn fnv1a_64_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Stable content digest of a `WorkloadParams`.
///
/// Digests the `Debug` rendering, which spells out every field by name: any
/// parameter perturbation (count, fraction, name, a static-tx tweak) changes
/// the digest, while re-digesting unchanged params is always identical.
pub fn params_digest(params: &WorkloadParams) -> u64 {
    fnv1a_64(format!("{params:?}").as_bytes())
}

/// One workload trace, generated once per `(params-digest, seed)` and shared
/// immutably across every mechanism cell (and retry) that replays it.
#[derive(Clone, Debug)]
pub struct ProgramSet {
    /// Digest of the generating params (see [`params_digest`]).
    pub params_digest: u64,
    /// Seed the programs were derived from.
    pub seed: u64,
    programs: Vec<Arc<NodeProgram>>,
}

impl ProgramSet {
    /// Generate the per-node programs for `nodes` nodes. Bit-identical to
    /// calling [`generate_program`] per node, by construction.
    pub fn generate(params: &WorkloadParams, nodes: u16, seed: u64) -> Self {
        let programs = (0..nodes)
            .map(|i| Arc::new(generate_program(params, NodeId(i), seed)))
            .collect();
        ProgramSet {
            params_digest: params_digest(params),
            seed,
            programs,
        }
    }

    /// Number of node programs in the set.
    pub fn nodes(&self) -> u16 {
        self.programs.len() as u16
    }

    /// Node `node`'s program, shared.
    pub fn node(&self, node: NodeId) -> Arc<NodeProgram> {
        Arc::clone(&self.programs[node.0 as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamp::WorkloadId;

    #[test]
    fn fnv_fold_over_pieces_hashes_their_concatenation() {
        let whole = b"cache|42|v4|ssca2|baseline|1|{}";
        for split in 0..=whole.len() {
            let (a, b) = whole.split_at(split);
            let folded = fnv1a_64_fold(fnv1a_64_fold(FNV1A_64_OFFSET, a), b);
            assert_eq!(folded, fnv1a_64(whole), "split at {split}");
        }
        assert_eq!(fnv1a_64(b""), FNV1A_64_OFFSET);
    }

    #[test]
    fn program_set_matches_fresh_generation() {
        let params = WorkloadId::Genome.params().scaled(0.05);
        let set = ProgramSet::generate(&params, 4, 42);
        assert_eq!(set.nodes(), 4);
        for i in 0..4 {
            let fresh = generate_program(&params, NodeId(i), 42);
            assert_eq!(*set.node(NodeId(i)), fresh, "node {i} program must match");
        }
    }

    #[test]
    fn digest_is_stable_across_calls() {
        let params = WorkloadId::Kmeans.params();
        assert_eq!(params_digest(&params), params_digest(&params));
        assert_eq!(params_digest(&params.clone()), params_digest(&params));
    }

    #[test]
    fn digest_distinguishes_workloads() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WorkloadId::ALL {
            assert!(
                seen.insert(params_digest(&w.params())),
                "digest collision for {}",
                w.name()
            );
        }
    }

    #[test]
    fn digest_changes_on_any_perturbation() {
        let base = WorkloadId::Vacation.params();
        let d0 = params_digest(&base);

        let mut p = base.clone();
        p.tx_per_node += 1;
        assert_ne!(params_digest(&p), d0, "tx_per_node");

        let mut p = base.clone();
        p.shared_lines += 1;
        assert_ne!(params_digest(&p), d0, "shared_lines");

        let mut p = base.clone();
        p.zipf_theta += 1e-9;
        assert_ne!(params_digest(&p), d0, "zipf_theta");

        let mut p = base.clone();
        p.name.push('x');
        assert_ne!(params_digest(&p), d0, "name");

        let mut p = base.clone();
        p.static_txs[0].reads.1 += 1;
        assert_ne!(params_digest(&p), d0, "static tx reads");

        let mut p = base.clone();
        p.static_txs[0].rmw_fraction *= 0.999;
        assert_ne!(params_digest(&p), d0, "static tx rmw_fraction");
    }

    #[test]
    fn digest_changes_on_scaling() {
        let base = WorkloadId::Ssca2.params();
        assert_ne!(
            params_digest(&base.clone().scaled(0.05)),
            params_digest(&base),
            "scaled params must digest differently"
        );
    }
}
