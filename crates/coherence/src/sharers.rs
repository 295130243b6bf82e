//! Full-map holder set, one bit per node, sized for every mesh the system
//! accepts (up to [`SharerSet::CAPACITY`] nodes).

use puno_sim::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Words in a [`SharerSet`].
const WORDS: usize = 4;

/// Set of nodes (a line's holders, an episode's nackers), stored as a
/// full-map bit vector: node `n` is bit `n % 64` of word `n / 64`, so a
/// 64-node mesh uses word 0 alone.
#[derive(Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharerSet(pub [u64; WORDS]);

impl SharerSet {
    pub const EMPTY: SharerSet = SharerSet([0; WORDS]);

    /// The largest node count a set can hold (a 16x16 mesh).
    pub const CAPACITY: usize = 64 * WORDS;

    pub fn single(node: NodeId) -> Self {
        let mut s = Self::EMPTY;
        s.insert(node);
        s
    }

    #[inline]
    fn bit(node: NodeId) -> (usize, u64) {
        let n = node.0 as usize;
        (n / 64, 1 << (n % 64))
    }

    #[inline]
    pub fn insert(&mut self, node: NodeId) {
        let (word, bit) = Self::bit(node);
        self.0[word] |= bit;
    }

    #[inline]
    pub fn remove(&mut self, node: NodeId) {
        let (word, bit) = Self::bit(node);
        self.0[word] &= !bit;
    }

    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let (word, bit) = Self::bit(node);
        self.0[word] & bit != 0
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == [0; WORDS]
    }

    #[inline]
    pub fn len(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Iterate members in ascending node order (deterministic), one step
    /// per member: each step takes the lowest set bit of the current word
    /// and clears it, moving to the next word once it is empty.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let (mut word, mut bits) = (0, self.0[0]);
        std::iter::from_fn(move || {
            while bits == 0 {
                word += 1;
                bits = *self.0.get(word)?;
            }
            let node = NodeId((word * 64) as u16 + bits.trailing_zeros() as u16);
            bits &= bits - 1;
            Some(node)
        })
    }

    fn zip(self, other: SharerSet, f: impl Fn(u64, u64) -> u64) -> SharerSet {
        SharerSet(std::array::from_fn(|i| f(self.0[i], other.0[i])))
    }

    pub fn union(self, other: SharerSet) -> SharerSet {
        self.zip(other, |a, b| a | b)
    }

    pub fn intersect(self, other: SharerSet) -> SharerSet {
        self.zip(other, |a, b| a & b)
    }

    pub fn difference(self, other: SharerSet) -> SharerSet {
        self.zip(other, |a, b| a & !b)
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

    /// The first and last ID of each word, and the last ID of the set.
    const EDGES: [u16; 6] = [0, 63, 64, 127, 128, 255];

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
    fn word_edges_insert_remove_contains_and_count() {
        let mut s = SharerSet::EMPTY;
        for (i, &n) in EDGES.iter().enumerate() {
            s.insert(NodeId(n));
            assert_eq!(s.len(), i as u32 + 1, "after inserting N{n}");
        }
        for n in 0..SharerSet::CAPACITY as u16 {
            assert_eq!(s.contains(NodeId(n)), EDGES.contains(&n), "N{n}");
        }
        assert_eq!(s.iter().map(|n| n.0).collect::<Vec<_>>(), EDGES);
        for (i, &n) in EDGES.iter().enumerate() {
            s.remove(NodeId(n));
            assert!(!s.contains(NodeId(n)));
            assert_eq!(s.len(), (EDGES.len() - i - 1) as u32, "after removing N{n}");
        }
        assert!(s.is_empty());
        // Node IDs below 64 keep the bits they had in the one-word set.
        assert_eq!(SharerSet::single(NodeId(63)).0, [1 << 63, 0, 0, 0]);
        assert_eq!(SharerSet::single(NodeId(64)).0, [0, 1, 0, 0]);
    }

    #[test]
    fn iter_is_sorted() {
        let s: SharerSet = [NodeId(9), NodeId(1), NodeId(4)].into_iter().collect();
        let v: Vec<NodeId> = s.iter().collect();
        assert_eq!(v, vec![NodeId(1), NodeId(4), NodeId(9)]);
    }

    /// `iter` walks set bits with `trailing_zeros` word by word; on seeded
    /// random masks (sparse, dense, single words, and the edge cases) it
    /// yields exactly what testing all 256 bits in order does.
    #[test]
    fn iter_equals_the_256_bit_filter() {
        let filter = |s: SharerSet| -> Vec<NodeId> {
            (0..SharerSet::CAPACITY as u16)
                .filter(|&i| s.0[i as usize / 64] & (1 << (i % 64)) != 0)
                .map(NodeId)
                .collect()
        };
        let mut rng = puno_sim::SimRng::new(0x5A4E);
        let mut word = || rng.next_u64();
        let mut masks = vec![
            [0; 4],
            [1, 0, 0, 0],
            [0, 0, 0, 1 << 63],
            [u64::MAX; 4],
            [1 << 63, 1, 1 << 63, 1],
            [0, u64::MAX, 0, 0],
        ];
        for _ in 0..2000 {
            let (a, b): ([u64; 4], [u64; 4]) = (
                std::array::from_fn(|_| word()),
                std::array::from_fn(|_| word()),
            );
            let sparse: [u64; 4] = std::array::from_fn(|i| a[i] & b[i] & word());
            let lone = std::array::from_fn(|i| if i == (b[0] % 4) as usize { a[i] } else { 0 });
            masks.extend([a, sparse, lone, std::array::from_fn(|i| a[i] | b[i])]);
        }
        for bits in masks {
            let s = SharerSet(bits);
            assert_eq!(s.iter().collect::<Vec<_>>(), filter(s), "{bits:#x?}");
            assert_eq!(s.len() as usize, filter(s).len(), "{bits:#x?}");
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
    fn set_algebra_across_words() {
        let set = |ids: &[u16]| ids.iter().map(|&n| NodeId(n)).collect::<SharerSet>();
        let ids = |s: SharerSet| s.iter().map(|n| n.0).collect::<Vec<_>>();
        let a = set(&[3, 63, 70, 128, 200]);
        let b = set(&[63, 64, 200, 255]);
        assert_eq!(ids(a.union(b)), [3, 63, 64, 70, 128, 200, 255]);
        assert_eq!(ids(a.intersect(b)), [63, 200]);
        assert_eq!(ids(a.difference(b)), [3, 70, 128]);
        assert_eq!(ids(b.difference(a)), [64, 255]);
        assert!(set(&[64]).intersect(set(&[0])).is_empty());
        assert!(set(&[255]).difference(set(&[255])).is_empty());
    }

    #[test]
    fn idempotent_insert() {
        let mut s = SharerSet::default();
        s.insert(NodeId(5));
        s.insert(NodeId(5));
        assert_eq!(s.len(), 1);
    }
}
