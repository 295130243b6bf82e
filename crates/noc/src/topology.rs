//! 2D mesh topology and XY dimension-order routing.

use puno_sim::NodeId;
use serde::{Deserialize, Serialize};

/// Output port of a router.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Port {
    /// Eject to the local node.
    Local,
    East,
    West,
    North,
    South,
}

impl Port {
    pub const ALL: [Port; 5] = [
        Port::Local,
        Port::East,
        Port::West,
        Port::North,
        Port::South,
    ];

    #[inline]
    pub fn index(self) -> usize {
        match self {
            Port::Local => 0,
            Port::East => 1,
            Port::West => 2,
            Port::North => 3,
            Port::South => 4,
        }
    }
}

/// A `width x height` mesh with nodes numbered row-major: node `(x, y)` has
/// id `y * width + x`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mesh {
    pub width: u16,
    pub height: u16,
}

impl Mesh {
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "degenerate mesh");
        Self { width, height }
    }

    /// The paper's 16-node 4x4 mesh.
    pub fn paper() -> Self {
        Self::new(4, 4)
    }

    #[inline]
    pub fn nodes(&self) -> usize {
        self.width as usize * self.height as usize
    }

    #[inline]
    pub fn coords(&self, node: NodeId) -> (u16, u16) {
        debug_assert!(node.index() < self.nodes());
        (node.0 % self.width, node.0 / self.width)
    }

    #[inline]
    pub fn node_at(&self, x: u16, y: u16) -> NodeId {
        debug_assert!(x < self.width && y < self.height);
        NodeId(y * self.width + x)
    }

    /// Manhattan hop distance between two nodes.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u16 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// Next output port under XY dimension-order routing: route fully in X
    /// first, then in Y, then eject. DOR on a mesh is minimal and
    /// deadlock-free (no turn from Y back to X).
    pub fn route_xy(&self, here: NodeId, dst: NodeId) -> Port {
        let (hx, hy) = self.coords(here);
        let (dx, dy) = self.coords(dst);
        if dx > hx {
            Port::East
        } else if dx < hx {
            Port::West
        } else if dy > hy {
            Port::South
        } else if dy < hy {
            Port::North
        } else {
            Port::Local
        }
    }

    /// Neighbor of `node` through `port`, if it exists.
    pub fn neighbor(&self, node: NodeId, port: Port) -> Option<NodeId> {
        let (x, y) = self.coords(node);
        match port {
            Port::Local => None,
            Port::East => (x + 1 < self.width).then(|| self.node_at(x + 1, y)),
            Port::West => (x > 0).then(|| self.node_at(x - 1, y)),
            Port::South => (y + 1 < self.height).then(|| self.node_at(x, y + 1)),
            Port::North => (y > 0).then(|| self.node_at(x, y - 1)),
        }
    }

    /// The full XY path from `src` to `dst`, inclusive of both endpoints.
    pub fn path_xy(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut path = vec![src];
        let mut here = src;
        while here != dst {
            let port = self.route_xy(here, dst);
            here = self
                .neighbor(here, port)
                .expect("XY routing stepped off the mesh");
            path.push(here);
        }
        path
    }

    /// Mean Manhattan distance over all ordered pairs of distinct nodes.
    /// Feeds the notification backoff rule's "average cache-to-cache latency"
    /// (paper Section III-D: `T_est` minus twice this latency).
    ///
    /// Closed form: the ordered pairs of one `W`-wide row hold
    /// `(W³ − W) / 3` total X distance, and each row pair repeats it for all
    /// `H²` pairs of Y coordinates (likewise for Y). The total is an exact
    /// integer, so the quotient has the same bits as summing every pair.
    pub fn mean_hops(&self) -> f64 {
        let n = self.nodes() as u64;
        if n < 2 {
            return 0.0;
        }
        let (w, h) = (self.width as u64, self.height as u64);
        let total = h * h * (w * w * w - w) / 3 + w * w * (h * h * h - h) / 3;
        total as f64 / (n * (n - 1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_round_trip() {
        let m = Mesh::paper();
        for i in 0..16u16 {
            let (x, y) = m.coords(NodeId(i));
            assert_eq!(m.node_at(x, y), NodeId(i));
        }
    }

    #[test]
    fn hops_is_manhattan() {
        let m = Mesh::paper();
        assert_eq!(m.hops(NodeId(0), NodeId(15)), 6); // (0,0) -> (3,3)
        assert_eq!(m.hops(NodeId(5), NodeId(5)), 0);
        assert_eq!(m.hops(NodeId(0), NodeId(3)), 3);
    }

    #[test]
    fn xy_routes_x_first() {
        let m = Mesh::paper();
        // From (0,0) to (3,3): must head East until x matches.
        assert_eq!(m.route_xy(NodeId(0), NodeId(15)), Port::East);
        assert_eq!(m.route_xy(NodeId(3), NodeId(15)), Port::South);
        assert_eq!(m.route_xy(NodeId(15), NodeId(15)), Port::Local);
    }

    #[test]
    fn path_is_minimal_and_follows_xy() {
        let m = Mesh::paper();
        let p = m.path_xy(NodeId(0), NodeId(15));
        assert_eq!(p.len() as u16, m.hops(NodeId(0), NodeId(15)) + 1);
        assert_eq!(
            p,
            vec![
                NodeId(0),
                NodeId(1),
                NodeId(2),
                NodeId(3),
                NodeId(7),
                NodeId(11),
                NodeId(15)
            ]
        );
    }

    #[test]
    fn neighbors_respect_edges() {
        let m = Mesh::paper();
        assert_eq!(m.neighbor(NodeId(0), Port::West), None);
        assert_eq!(m.neighbor(NodeId(0), Port::North), None);
        assert_eq!(m.neighbor(NodeId(0), Port::East), Some(NodeId(1)));
        assert_eq!(m.neighbor(NodeId(0), Port::South), Some(NodeId(4)));
        assert_eq!(m.neighbor(NodeId(15), Port::East), None);
    }

    #[test]
    fn mean_hops_of_4x4() {
        // Closed form for the 4x4 mesh over ordered *distinct* pairs:
        // sum of Manhattan distances = 640 over 240 pairs = 8/3.
        let m = Mesh::paper();
        assert!(
            (m.mean_hops() - 8.0 / 3.0).abs() < 1e-9,
            "{}",
            m.mean_hops()
        );
    }

    #[test]
    fn mean_hops_matches_the_pair_sum_bit_for_bit() {
        for width in 1..=16u16 {
            for height in 1..=16u16 {
                let m = Mesh::new(width, height);
                let n = m.nodes() as u16;
                let (mut total, mut pairs) = (0u64, 0u64);
                for a in 0..n {
                    for b in (0..n).filter(|&b| b != a) {
                        total += m.hops(NodeId(a), NodeId(b)) as u64;
                        pairs += 1;
                    }
                }
                let brute = if pairs == 0 {
                    0.0
                } else {
                    total as f64 / pairs as f64
                };
                assert_eq!(m.mean_hops().to_bits(), brute.to_bits(), "{width}x{height}");
            }
        }
    }

    #[test]
    fn route_xy_never_leaves_mesh() {
        let m = Mesh::new(3, 5);
        for a in 0..m.nodes() as u16 {
            for b in 0..m.nodes() as u16 {
                let p = m.path_xy(NodeId(a), NodeId(b));
                assert_eq!(p.len() as u16, m.hops(NodeId(a), NodeId(b)) + 1);
            }
        }
    }
}
