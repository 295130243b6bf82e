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
use serde::Serialize;

/// Directed link identifier: the output `port` of router `from` (Local =
/// ejection into the node).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct LinkId {
    pub from: NodeId,
    pub port_index: u8,
}

/// Per-link flit counters for a mesh.
#[derive(Clone, Debug, Serialize)]
pub struct LinkStats {
    nodes: usize,
    /// `flits[router][port]`
    flits: Vec<[u64; 5]>,
}

impl LinkStats {
    pub fn new(mesh: Mesh) -> Self {
        Self {
            nodes: mesh.nodes(),
            flits: vec![[0; 5]; mesh.nodes()],
        }
    }

    #[inline]
    pub fn record(&mut self, router: NodeId, port: Port, flits: u32) {
        self.flits[router.index()][port.index()] += flits as u64;
    }

    pub fn flits_on(&self, router: NodeId, port: Port) -> u64 {
        self.flits[router.index()][port.index()]
    }

    pub fn total(&self) -> u64 {
        self.flits.iter().flatten().sum()
    }

    /// The busiest directed link and its flit count.
    pub fn hottest(&self) -> Option<(LinkId, u64)> {
        let mut best: Option<(LinkId, u64)> = None;
        for (r, ports) in self.flits.iter().enumerate() {
            for (p, &count) in ports.iter().enumerate() {
                if count > 0 && best.is_none_or(|(_, b)| count > b) {
                    best = Some((
                        LinkId {
                            from: NodeId(r as u16),
                            port_index: p as u8,
                        },
                        count,
                    ));
                }
            }
        }
        best
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

    pub fn merge(&mut self, other: &LinkStats) {
        assert_eq!(self.nodes, other.nodes);
        for (a, b) in self.flits.iter_mut().zip(&other.flits) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
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
        assert_eq!(s.flits_on(NodeId(0), Port::East), 6);
        assert_eq!(s.total(), 8);
    }

    #[test]
    fn hottest_link_detection() {
        let mut s = LinkStats::new(Mesh::paper());
        assert_eq!(s.hottest(), None);
        s.record(NodeId(1), Port::South, 3);
        s.record(NodeId(2), Port::West, 9);
        let (link, count) = s.hottest().unwrap();
        assert_eq!(link.from, NodeId(2));
        assert_eq!(count, 9);
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

    #[test]
    fn merge_accumulates() {
        let mut a = LinkStats::new(Mesh::paper());
        let mut b = LinkStats::new(Mesh::paper());
        a.record(NodeId(0), Port::East, 1);
        b.record(NodeId(0), Port::East, 2);
        a.merge(&b);
        assert_eq!(a.flits_on(NodeId(0), Port::East), 3);
    }
}
