//! Per-link utilization accounting and hotspot analysis.
//!
//! The aggregate router-traversal count (Figure 11) hides *where* traffic
//! concentrates; coherence multicasts from a hot home bank load that bank's
//! router links far above the mesh average. This module tracks flit counts
//! per directed link so experiments (and the `workload_atlas`-style
//! examples) can report utilization skew, and so NoC-level effects of PUNO
//! (fewer multicast fan-outs from hot homes) are observable directly.

use crate::topology::{Mesh, Port};
use puno_sim::NodeId;

/// Per-link flit counters for a mesh.
#[derive(Clone, Debug)]
pub struct LinkStats {
    /// `flits[router][port]`
    flits: Vec<[u64; 5]>,
}

impl LinkStats {
    pub fn new(mesh: Mesh) -> Self {
        Self {
            flits: vec![[0; 5]; mesh.nodes()],
        }
    }

    #[inline]
    pub fn record(&mut self, router: NodeId, port: Port, flits: u32) {
        self.flits[router.index()][port.index()] += flits as u64;
    }

    pub fn total(&self) -> u64 {
        self.flits.iter().flatten().sum()
    }

    /// Max/mean utilization skew over non-idle links (1.0 = perfectly
    /// balanced).
    pub fn skew(&self) -> f64 {
        let busy: Vec<u64> = self
            .flits
            .iter()
            .flatten()
            .copied()
            .filter(|&c| c > 0)
            .collect();
        if busy.is_empty() {
            return 1.0;
        }
        let max = *busy.iter().max().unwrap() as f64;
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_totals() {
        let mut s = LinkStats::new(Mesh::paper());
        s.record(NodeId(0), Port::East, 5);
        s.record(NodeId(0), Port::East, 1);
        s.record(NodeId(3), Port::Local, 2);
        assert_eq!(s.total(), 8);
    }

    #[test]
    fn skew_of_balanced_traffic_is_one() {
        let mut s = LinkStats::new(Mesh::paper());
        for r in 0..16u16 {
            s.record(NodeId(r), Port::East, 4);
        }
        assert!((s.skew() - 1.0).abs() < 1e-12);
        s.record(NodeId(0), Port::East, 36);
        assert!(s.skew() > 2.0);
    }
}
