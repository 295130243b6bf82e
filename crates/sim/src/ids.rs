//! Strongly-typed identifiers shared across the simulator.
//!
//! Newtypes keep node indices, cache-line addresses and transaction ids from
//! being mixed up at call sites; all of them are `Copy` and order-comparable
//! so they can key `BTreeMap`s (deterministic iteration) without ceremony.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a node (core + L1 + HTM unit + L2/directory bank) on the CMP.
///
/// The paper's system has 16 nodes arranged in a 4x4 mesh; the simulator
/// supports any `width * height` mesh.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u16);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Address of a 64-byte cache line (already shifted: one unit = one line).
///
/// The simulator never needs byte offsets; every data structure (read/write
/// sets, directory, caches) works at line granularity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LineAddr(pub u64);

impl LineAddr {
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// Identity of one *dynamic* transaction instance.
///
/// A new `TxId` is minted for every `TX_BEGIN` that is not a retry of an
/// aborted instance; retries keep their id (and their timestamp) so that the
/// time-based conflict policy ages transactions toward victory, guaranteeing
/// progress exactly as in the paper's baseline \[11\].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxId(pub u64);

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tx{}", self.0)
    }
}

/// Identity of a *static* transaction: a `TX_BEGIN`/`TX_END` pair in the
/// program text. The paper's TxLB (Transaction Length Buffer) tracks average
/// dynamic length per static transaction (Section III-D).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StaticTxId(pub u32);

impl StaticTxId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StaticTxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Transaction timestamp used by the time-based conflict resolution policy
/// [Rajwar & Goodman]: assigned at first `TX_BEGIN`, *kept across retries* so
/// transactions age toward victory. **Smaller timestamp = older = higher
/// priority.**
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// True when `self` has priority over (is older than) `other`.
    #[inline]
    pub fn outranks(self, other: Timestamp) -> bool {
        self < other
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn older_timestamp_outranks() {
        assert!(Timestamp(10).outranks(Timestamp(20)));
        assert!(!Timestamp(20).outranks(Timestamp(10)));
        assert!(!Timestamp(10).outranks(Timestamp(10)));
    }

    #[test]
    fn node_id_ordering_and_index() {
        assert!(NodeId(3) < NodeId(12));
        assert_eq!(NodeId(7).index(), 7);
    }

    #[test]
    fn debug_formats_are_compact() {
        assert_eq!(format!("{:?}", NodeId(4)), "N4");
        assert_eq!(format!("{:?}", LineAddr(0x40)), "L0x40");
        assert_eq!(format!("{:?}", TxId(9)), "Tx9");
        assert_eq!(format!("{:?}", StaticTxId(2)), "S2");
    }
}
