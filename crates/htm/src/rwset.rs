//! Per-transaction read and write sets.
//!
//! The hardware tracks transactional footprints at cache-line granularity;
//! the simulator keeps exact sets (a hardware design would add signatures,
//! but the paper's baseline is a LogTM-style design with precise tracking
//! backed by sticky directory state, which our silent-S-eviction protocol
//! reproduces).
//!
//! Layout: each direction (reads, writes) is a `TrackedSet` pairing a
//! small Bloom signature ([`crate::signature`]) as a *fast-negative* filter
//! with exact tracking split between a small inline array (the common case:
//! STAMP-signature footprints are tens of lines) and a [`LineSet`] spill.
//! Conflict checks against lines outside the footprint — the overwhelming
//! majority of forwarded-request probes — short-circuit on the filter
//! without touching the exact structures. Filter false positives cost only
//! the exact lookup; correctness always comes from the exact side.
//!
//! `clear` is O(1)-class: reset the inline length, bump the spill's
//! generation, zero the fixed 8-word filter. Abort→retry therefore reuses
//! the same allocations instead of deallocating and re-growing a `BTreeSet`
//! per attempt.
//!
//! **Determinism**: the exact storage order is insertion-dependent, so
//! [`ReadWriteSets::reads`]/[`ReadWriteSets::writes`] sort on iterate —
//! everything that feeds metrics or message emission sees ascending address
//! order, exactly as the old `BTreeSet` implementation did.

use crate::signature::{Signature, SignatureConfig};
use puno_sim::{LineAddr, LineSet};

/// Inline capacity per direction before spilling to the hash set. Sized so
/// small transactions never touch the spill path.
const INLINE: usize = 12;

/// Geometry of the fast-negative filter: 512 bits / k=1 keeps the clear at
/// 8 words and one probe per membership test; at HTM-scale footprints
/// (tens of lines) the false-positive rate stays in the low percent range,
/// and a false positive only costs the exact lookup it would have done
/// anyway.
const FILTER: SignatureConfig = SignatureConfig {
    bits: 512,
    hashes: 1,
};

/// One direction of the footprint: filter + inline array + spill.
#[derive(Clone, Debug)]
struct TrackedSet {
    filter: Signature,
    inline: [u64; INLINE],
    inline_len: u8,
    spill: LineSet<LineAddr>,
}

impl Default for TrackedSet {
    fn default() -> Self {
        Self {
            filter: Signature::new(FILTER),
            inline: [0; INLINE],
            inline_len: 0,
            spill: LineSet::new(),
        }
    }
}

impl TrackedSet {
    #[inline]
    fn contains(&self, addr: LineAddr) -> bool {
        // Fast negative: most probes are for lines outside the footprint.
        if !self.filter.maybe_contains(addr) {
            return false;
        }
        self.contains_exact(addr)
    }

    #[inline]
    fn contains_exact(&self, addr: LineAddr) -> bool {
        self.inline[..self.inline_len as usize].contains(&addr.0) || self.spill.contains(addr)
    }

    fn insert(&mut self, addr: LineAddr) {
        if self.filter.maybe_contains(addr) && self.contains_exact(addr) {
            return;
        }
        self.filter.insert(addr);
        if (self.inline_len as usize) < INLINE {
            self.inline[self.inline_len as usize] = addr.0;
            self.inline_len += 1;
        } else {
            self.spill.insert(addr);
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.inline_len as usize + self.spill.len()
    }

    fn clear(&mut self) {
        self.inline_len = 0;
        self.spill.clear();
        self.filter.clear();
    }

    /// Members in ascending address order (sort-on-iterate).
    fn sorted(&self) -> Vec<LineAddr> {
        let mut v: Vec<u64> = self.inline[..self.inline_len as usize].to_vec();
        v.extend(self.spill.iter().map(|a| a.0));
        v.sort_unstable();
        v.into_iter().map(LineAddr).collect()
    }
}

/// Exact read/write sets for one transaction attempt.
#[derive(Clone, Debug, Default)]
pub struct ReadWriteSets {
    reads: TrackedSet,
    writes: TrackedSet,
}

impl ReadWriteSets {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record_read(&mut self, addr: LineAddr) {
        self.reads.insert(addr);
    }

    pub fn record_write(&mut self, addr: LineAddr) {
        self.writes.insert(addr);
    }

    #[inline]
    pub fn in_read_set(&self, addr: LineAddr) -> bool {
        self.reads.contains(addr)
    }

    #[inline]
    pub fn in_write_set(&self, addr: LineAddr) -> bool {
        self.writes.contains(addr)
    }

    /// Does an incoming access conflict with this footprint under the
    /// single-writer / multi-reader invariant?
    pub fn conflicts_with(&self, addr: LineAddr, incoming_is_write: bool) -> bool {
        if incoming_is_write {
            self.in_read_set(addr) || self.in_write_set(addr)
        } else {
            self.in_write_set(addr)
        }
    }

    pub fn read_count(&self) -> usize {
        self.reads.len()
    }

    pub fn write_count(&self) -> usize {
        self.writes.len()
    }

    /// Read-set lines in ascending address order.
    pub fn reads(&self) -> impl Iterator<Item = LineAddr> {
        self.reads.sorted().into_iter()
    }

    /// Write-set lines in ascending address order.
    pub fn writes(&self) -> impl Iterator<Item = LineAddr> {
        self.writes.sorted().into_iter()
    }

    /// O(1)-class wipe for abort→retry reuse: no deallocation, no re-grow.
    pub fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_read_sharing_is_not_a_conflict() {
        let mut s = ReadWriteSets::new();
        s.record_read(LineAddr(1));
        assert!(!s.conflicts_with(LineAddr(1), false));
        assert!(s.conflicts_with(LineAddr(1), true));
    }

    #[test]
    fn write_conflicts_with_everything() {
        let mut s = ReadWriteSets::new();
        s.record_write(LineAddr(2));
        assert!(s.conflicts_with(LineAddr(2), false));
        assert!(s.conflicts_with(LineAddr(2), true));
    }

    #[test]
    fn untouched_lines_never_conflict() {
        let s = ReadWriteSets::new();
        assert!(!s.conflicts_with(LineAddr(9), true));
    }

    #[test]
    fn counts_and_clear() {
        let mut s = ReadWriteSets::new();
        s.record_read(LineAddr(1));
        s.record_read(LineAddr(1));
        s.record_read(LineAddr(2));
        s.record_write(LineAddr(2));
        assert_eq!(s.read_count(), 2);
        assert_eq!(s.write_count(), 1);
        s.clear();
        assert_eq!(s.read_count(), 0);
        assert_eq!(s.write_count(), 0);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut s = ReadWriteSets::new();
        s.record_write(LineAddr(9));
        s.record_write(LineAddr(3));
        let v: Vec<_> = s.writes().collect();
        assert_eq!(v, vec![LineAddr(3), LineAddr(9)]);
    }

    #[test]
    fn spill_past_inline_capacity_keeps_exact_membership() {
        let mut s = ReadWriteSets::new();
        let n = (INLINE * 4) as u64;
        for i in 0..n {
            s.record_read(LineAddr(i * 3));
        }
        assert_eq!(s.read_count(), n as usize);
        for i in 0..n {
            assert!(s.in_read_set(LineAddr(i * 3)));
            assert!(!s.in_read_set(LineAddr(i * 3 + 1)));
        }
        let sorted: Vec<_> = s.reads().collect();
        assert_eq!(sorted.len(), n as usize);
        assert!(sorted.windows(2).all(|w| w[0] < w[1]), "reads() not sorted");
    }

    #[test]
    fn clear_resets_spilled_sets_without_leaks() {
        let mut s = ReadWriteSets::new();
        for round in 0..50u64 {
            for i in 0..(INLINE as u64 * 2) {
                s.record_write(LineAddr(round * 1000 + i));
            }
            assert_eq!(s.write_count(), INLINE * 2);
            // Previous rounds' lines must be gone (filter included).
            if round > 0 {
                assert!(!s.in_write_set(LineAddr((round - 1) * 1000)));
            }
            s.clear();
            assert_eq!(s.write_count(), 0);
        }
    }
}
