//! System configuration (the paper's Table II plus simulator knobs).

use crate::mechanism::Mechanism;
use puno_coherence::directory::DirConfig;
use puno_coherence::l1::L1Config;
use puno_core::PunoConfig;
use puno_htm::backoff::BackoffConfig;
use puno_htm::unit::AbortTiming;
use puno_noc::{LatencyModel, Mesh, NocConfig};

/// Full system configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemConfig {
    pub mesh: Mesh,
    pub noc: NocConfig,
    pub l1: L1Config,
    pub dir: DirConfig,
    pub abort_timing: AbortTiming,
    pub backoff: BackoffConfig,
    pub puno: PunoConfig,
    pub mechanism: Mechanism,
    /// Signature-based conflict detection ablation: when set, HTM units
    /// answer conflict checks from Bloom signatures of this geometry
    /// (LogTM-SE style) instead of exact sets, adding alias-induced
    /// conflicts. `None` (default) is the paper's precise baseline.
    pub signatures: Option<puno_htm::SignatureConfig>,
    /// Commit pipeline drain cost.
    pub commit_latency: u64,
    /// Safety valve: a run exceeding this many cycles fails with a
    /// [`crate::error::RunError::Livelock`] (a protocol livelock, not a
    /// slow workload).
    pub max_cycles: u64,
    /// Forward-progress watchdog: every this-many cycles the run loop
    /// samples system-wide commits + retired nodes; a window with no change
    /// fails the run with a `Livelock` error and a NACK wait-for dump long
    /// before `max_cycles` burns down. Must comfortably exceed the longest
    /// legitimate commit-to-commit gap.
    pub watchdog_window: u64,
}

impl SystemConfig {
    /// The paper's Table II configuration: 16 nodes on a 4x4 mesh, 32 KB
    /// 4-way L1, 8 MB shared L2 (20-cycle banks), MESI static-bank
    /// directory, 200-cycle memory, 4-stage VC routers, 16-entry P-Buffer,
    /// 32-entry TxLB, fixed 20-cycle nack backoff.
    pub fn paper(mechanism: Mechanism) -> Self {
        Self::with_mesh(mechanism, Mesh::paper())
    }

    /// The Table II configuration on an arbitrary mesh: everything except
    /// the geometry (and the topology-derived notification allowance) is
    /// held at the paper's values, so big-mesh scaling runs differ from
    /// `paper()` in node count alone.
    pub fn with_mesh(mechanism: Mechanism, mesh: Mesh) -> Self {
        let noc = NocConfig::default();
        let backoff = BackoffConfig {
            round_trip_allowance: LatencyModel::new(mesh, noc).round_trip_allowance(),
            ..BackoffConfig::default()
        };
        Self {
            mesh,
            noc,
            l1: L1Config::default(),
            dir: DirConfig::default(),
            abort_timing: AbortTiming::default(),
            backoff,
            puno: PunoConfig::default(),
            mechanism,
            signatures: None,
            commit_latency: 5,
            max_cycles: 200_000_000,
            watchdog_window: 25_000_000,
        }
    }

    /// The paper configuration scaled to an 8x8 mesh (64 nodes) — the
    /// regime where directory-protocol mismatch effects grow.
    pub fn mesh8(mechanism: Mechanism) -> Self {
        Self::with_mesh(mechanism, Mesh::new(8, 8))
    }

    /// The paper configuration scaled to a 16x16 mesh (256 nodes).
    pub fn mesh16(mechanism: Mechanism) -> Self {
        Self::with_mesh(mechanism, Mesh::new(16, 16))
    }

    /// A small 2x2 system for fast unit/property tests.
    ///
    /// Note: deliberately built by mutating `paper()` rather than via
    /// `with_mesh`, so the notification allowance keeps the paper's
    /// 4x4-derived value (goldens depend on it).
    pub fn tiny(mechanism: Mechanism) -> Self {
        let mut c = Self::paper(mechanism);
        c.mesh = Mesh::new(2, 2);
        c.puno.pbuffer_entries = 4;
        c
    }

    pub fn nodes(&self) -> u16 {
        self.mesh.nodes() as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table_ii() {
        let c = SystemConfig::paper(Mechanism::Baseline);
        assert_eq!(c.nodes(), 16);
        assert_eq!(c.l1.sets * c.l1.ways * 64, 32 * 1024);
        assert_eq!(c.dir.l2_latency, 20);
        assert_eq!(c.dir.mem_latency, 200);
        assert_eq!(c.noc.pipeline_depth, 4);
        assert_eq!(c.backoff.fixed_nack, 20);
        assert_eq!(c.puno.pbuffer_entries, 16);
        assert_eq!(c.puno.txlb_entries, 32);
    }

    #[test]
    fn notification_allowance_derived_from_topology() {
        let c = SystemConfig::paper(Mechanism::Puno);
        // 2 x mean control latency on the 4x4 mesh (see puno-noc tests).
        assert_eq!(c.backoff.round_trip_allowance, 30);
    }

    #[test]
    fn tiny_config_shrinks_mesh() {
        let c = SystemConfig::tiny(Mechanism::Puno);
        assert_eq!(c.nodes(), 4);
    }

    #[test]
    fn big_meshes_scale_nodes_and_rederive_allowance() {
        let c8 = SystemConfig::mesh8(Mechanism::Puno);
        assert_eq!(c8.nodes(), 64);
        let c16 = SystemConfig::mesh16(Mechanism::Puno);
        assert_eq!(c16.nodes(), 256);
        // The notification allowance tracks the topology's round trip, so
        // bigger meshes must grant strictly more than the 4x4's 30 cycles.
        let c4 = SystemConfig::paper(Mechanism::Puno);
        assert!(c8.backoff.round_trip_allowance > c4.backoff.round_trip_allowance);
        assert!(c16.backoff.round_trip_allowance > c8.backoff.round_trip_allowance);
        // Everything else stays at Table II values.
        assert_eq!(c8.dir.l2_latency, c4.dir.l2_latency);
        assert_eq!(c8.commit_latency, c4.commit_latency);
    }
}
