//! Sharer-list bitmask, sized for up to 64 nodes.

use puno_sim::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Set of nodes sharing a line, stored as a bitmask (a real directory entry
/// stores exactly this full-map vector for a 16-node CMP).
#[derive(Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharerSet(pub u64);

impl SharerSet {
    pub const EMPTY: SharerSet = SharerSet(0);

    pub fn single(node: NodeId) -> Self {
        let mut s = Self::EMPTY;
        s.insert(node);
        s
    }

    #[inline]
    pub fn insert(&mut self, node: NodeId) {
        debug_assert!(node.0 < 64);
        self.0 |= 1 << node.0;
    }

    #[inline]
    pub fn remove(&mut self, node: NodeId) {
        self.0 &= !(1 << node.0);
    }

    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.0 & (1 << node.0) != 0
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    #[inline]
    pub fn len(&self) -> u32 {
        self.0.count_ones()
    }

    /// Iterate members in ascending node order (deterministic), one step
    /// per member: each step takes the lowest set bit and clears it.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let node = NodeId(bits.trailing_zeros() as u16);
            bits &= bits - 1;
            Some(node)
        })
    }

    pub fn union(self, other: SharerSet) -> SharerSet {
        SharerSet(self.0 | other.0)
    }

    pub fn intersect(self, other: SharerSet) -> SharerSet {
        SharerSet(self.0 & other.0)
    }

    pub fn difference(self, other: SharerSet) -> SharerSet {
        SharerSet(self.0 & !other.0)
    }
}

impl FromIterator<NodeId> for SharerSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let mut s = Self::EMPTY;
        for n in iter {
            s.insert(n);
        }
        s
    }
}

impl fmt::Debug for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = SharerSet::default();
        assert!(s.is_empty());
        s.insert(NodeId(3));
        s.insert(NodeId(15));
        assert!(s.contains(NodeId(3)));
        assert!(!s.contains(NodeId(4)));
        assert_eq!(s.len(), 2);
        s.remove(NodeId(3));
        assert!(!s.contains(NodeId(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iter_is_sorted() {
        let s: SharerSet = [NodeId(9), NodeId(1), NodeId(4)].into_iter().collect();
        let v: Vec<NodeId> = s.iter().collect();
        assert_eq!(v, vec![NodeId(1), NodeId(4), NodeId(9)]);
    }

    /// `iter` walks set bits with `trailing_zeros`; on seeded random masks
    /// (sparse, dense, and the edge cases) it yields exactly what testing
    /// all 64 bits in order does.
    #[test]
    fn iter_equals_the_64_bit_filter() {
        let filter = |bits: u64| -> Vec<NodeId> {
            (0..64u16)
                .filter(|i| bits & (1 << i) != 0)
                .map(NodeId)
                .collect()
        };
        let mut rng = puno_sim::SimRng::new(0x5A4E);
        let mut masks = vec![0, 1, 1 << 63, u64::MAX, (1 << 63) | 1];
        for _ in 0..2000 {
            let (a, b) = (rng.next_u64(), rng.next_u64());
            masks.extend([a, a & b, a | b, a & b & rng.next_u64()]);
        }
        for bits in masks {
            assert_eq!(
                SharerSet(bits).iter().collect::<Vec<_>>(),
                filter(bits),
                "{bits:#x}"
            );
        }
    }

    #[test]
    fn set_algebra() {
        let a: SharerSet = [NodeId(1), NodeId(2)].into_iter().collect();
        let b: SharerSet = [NodeId(2), NodeId(3)].into_iter().collect();
        assert_eq!(a.union(b).len(), 3);
        assert_eq!(a.intersect(b).iter().collect::<Vec<_>>(), vec![NodeId(2)]);
        assert_eq!(a.difference(b).iter().collect::<Vec<_>>(), vec![NodeId(1)]);
    }

    #[test]
    fn idempotent_insert() {
        let mut s = SharerSet::default();
        s.insert(NodeId(5));
        s.insert(NodeId(5));
        assert_eq!(s.len(), 1);
    }
}
