//! Private L1 data cache model (Table II: 32 KB, 4-way, write-back, 1-cycle).
//!
//! Line-granular, set-associative, true-LRU. Transactional write-set lines
//! are *pinned*: eager version management writes speculative data in place,
//! so the line must stay in the cache until commit or abort. If a fill cannot
//! find an unpinned victim the access raises a capacity conflict and the
//! surrounding transaction aborts — the standard bounded-HTM capacity abort.
//!
//! Read-set lines are never pinned: shared lines evict *silently* (no PUTS in
//! this protocol), so the home directory keeps the node in the sharer list
//! and conflicting writers still forward invalidations to it. That stale-
//! sharer behaviour is what lets eager conflict detection keep working after
//! a read-set line falls out of the L1 (the same "sticky" effect LogTM-SE
//! engineers explicitly).

use puno_sim::LineAddr;
use serde::{Deserialize, Serialize};

/// Stable MESI states a line can hold in the L1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LineState {
    Shared,
    Exclusive,
    Modified,
}

impl LineState {
    /// Can a store proceed without a coherence request?
    #[inline]
    pub fn writable(self) -> bool {
        matches!(self, LineState::Exclusive | LineState::Modified)
    }
}

/// L1 geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct L1Config {
    pub sets: u32,
    pub ways: u32,
}

impl Default for L1Config {
    fn default() -> Self {
        // 32 KB / 64 B lines / 4 ways = 128 sets.
        Self { sets: 128, ways: 4 }
    }
}

#[derive(Clone, Debug)]
struct Way {
    addr: LineAddr,
    state: LineState,
    pinned: bool,
    /// Larger = more recently used.
    lru: u64,
}

/// Result of a local access check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Present with sufficient permission.
    Hit(LineState),
    /// Present but needs an upgrade (S and the access is a store).
    UpgradeNeeded,
    /// Not present.
    Miss,
}

/// What a fill displaced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Eviction {
    None,
    /// Shared line dropped silently; the directory keeps the node in the
    /// sharer list (the "sticky" behaviour conflict detection relies on).
    Silent(LineAddr),
    /// Clean exclusive line: the directory must be told the owner is gone
    /// (PUTS), else it would keep forwarding requests here.
    CleanOwned(LineAddr),
    /// Dirty line that must be written back (PUTX).
    Dirty(LineAddr),
}

/// Error: the target set has no unpinned victim — transactional overflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CapacityConflict;

#[derive(Clone)]
pub struct L1Cache {
    config: L1Config,
    /// Flat preallocated tag array, `sets × ways` slots: set `s` owns
    /// `ways[s*W .. (s+1)*W]`. One contiguous allocation sized at
    /// construction — a fill or invalidation never allocates, and a set scan
    /// is a short linear walk over adjacent slots.
    ways: Vec<Option<Way>>,
    tick: u64,
}

impl L1Cache {
    pub fn new(config: L1Config) -> Self {
        assert!(config.sets.is_power_of_two() && config.ways >= 1);
        Self {
            config,
            ways: vec![None; (config.sets * config.ways) as usize],
            tick: 0,
        }
    }

    #[inline]
    fn set_of(&self, addr: LineAddr) -> u32 {
        (addr.0 % self.config.sets as u64) as u32
    }

    /// Slot range of the set holding `addr`.
    #[inline]
    fn set_range(&self, addr: LineAddr) -> std::ops::Range<usize> {
        let start = self.set_of(addr) as usize * self.config.ways as usize;
        start..start + self.config.ways as usize
    }

    fn way_mut(&mut self, addr: LineAddr) -> Option<&mut Way> {
        let range = self.set_range(addr);
        self.ways[range]
            .iter_mut()
            .filter_map(|s| s.as_mut())
            .find(|w| w.addr == addr)
    }

    fn way(&self, addr: LineAddr) -> Option<&Way> {
        let range = self.set_range(addr);
        self.ways[range]
            .iter()
            .filter_map(|s| s.as_ref())
            .find(|w| w.addr == addr)
    }

    /// Current state of a resident line.
    pub fn state(&self, addr: LineAddr) -> Option<LineState> {
        self.way(addr).map(|w| w.state)
    }

    /// Check an access without modifying LRU.
    pub fn probe(&self, addr: LineAddr, is_store: bool) -> LookupOutcome {
        match self.state(addr) {
            None => LookupOutcome::Miss,
            Some(s) if is_store && !s.writable() => LookupOutcome::UpgradeNeeded,
            Some(s) => LookupOutcome::Hit(s),
        }
    }

    /// Access for real: updates LRU on hit.
    pub fn access(&mut self, addr: LineAddr, is_store: bool) -> LookupOutcome {
        self.tick += 1;
        let tick = self.tick;
        match self.way_mut(addr) {
            None => LookupOutcome::Miss,
            Some(w) => {
                w.lru = tick;
                if is_store && !w.state.writable() {
                    LookupOutcome::UpgradeNeeded
                } else {
                    LookupOutcome::Hit(w.state)
                }
            }
        }
    }

    /// Install a line, force-evicting a pinned victim if the set is full of
    /// pinned lines (transactional overflow — the caller must issue a
    /// *sticky* writeback so conflict detection survives, LogTM-style).
    pub fn fill_forced(&mut self, addr: LineAddr, state: LineState) -> Eviction {
        match self.fill(addr, state) {
            Ok(ev) => ev,
            Err(CapacityConflict) => {
                let range = self.set_range(addr);
                // Evict the LRU pinned way (LRU ticks are unique, so the
                // min is deterministic).
                let victim = self.ways[range]
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.as_ref().map(|w| (i, w.lru)))
                    .min_by_key(|&(_, lru)| lru)
                    .map(|(i, _)| i)
                    .expect("full set must have ways");
                let slot = self.set_range(addr).start + victim;
                let w = self.ways[slot].take().expect("victim slot occupied");
                self.tick += 1;
                self.ways[slot] = Some(Way {
                    addr,
                    state,
                    pinned: false,
                    lru: self.tick,
                });
                match w.state {
                    LineState::Modified => Eviction::Dirty(w.addr),
                    LineState::Exclusive => Eviction::CleanOwned(w.addr),
                    LineState::Shared => Eviction::Silent(w.addr),
                }
            }
        }
    }

    /// Install a line, evicting if needed. The caller handles `Dirty`
    /// evictions by issuing a PUTX writeback.
    pub fn fill(&mut self, addr: LineAddr, state: LineState) -> Result<Eviction, CapacityConflict> {
        if let Some(w) = self.way_mut(addr) {
            // Refill of a resident line is a state change.
            w.state = state;
            return Ok(Eviction::None);
        }
        let range = self.set_range(addr);
        // Free slot, else LRU among unpinned ways (unique ticks make the
        // min deterministic whatever the slot order).
        let (slot, evicted) = match self.ways[range.clone()].iter().position(|s| s.is_none()) {
            Some(free) => (range.start + free, Eviction::None),
            None => {
                let victim = self.ways[range.clone()]
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.as_ref().map(|w| (i, w)))
                    .filter(|(_, w)| !w.pinned)
                    .min_by_key(|&(_, w)| w.lru)
                    .map(|(i, _)| i)
                    .ok_or(CapacityConflict)?;
                let slot = range.start + victim;
                let w = self.ways[slot].take().expect("victim slot occupied");
                let ev = match w.state {
                    LineState::Modified => Eviction::Dirty(w.addr),
                    LineState::Exclusive => Eviction::CleanOwned(w.addr),
                    LineState::Shared => Eviction::Silent(w.addr),
                };
                (slot, ev)
            }
        };
        self.tick += 1;
        self.ways[slot] = Some(Way {
            addr,
            state,
            pinned: false,
            lru: self.tick,
        });
        Ok(evicted)
    }

    /// Upgrade/downgrade a resident line's state.
    pub fn set_state(&mut self, addr: LineAddr, state: LineState) {
        if let Some(w) = self.way_mut(addr) {
            w.state = state;
        }
    }

    /// Drop a line (invalidation or eviction completion). No-op if absent.
    pub fn invalidate(&mut self, addr: LineAddr) {
        let range = self.set_range(addr);
        for slot in &mut self.ways[range] {
            if slot.as_ref().is_some_and(|w| w.addr == addr) {
                *slot = None;
                return;
            }
        }
    }

    /// Pin a transactional write-set line against eviction.
    pub fn pin(&mut self, addr: LineAddr) {
        if let Some(w) = self.way_mut(addr) {
            w.pinned = true;
        }
    }

    /// Unpin every pinned line (commit or abort finished).
    pub fn unpin_all(&mut self) {
        for w in self.ways.iter_mut().flatten() {
            w.pinned = false;
        }
    }

    pub fn is_pinned(&self, addr: LineAddr) -> bool {
        self.way(addr).is_some_and(|w| w.pinned)
    }

    /// Number of resident lines (for tests/diagnostics).
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> L1Cache {
        L1Cache::new(L1Config { sets: 2, ways: 2 })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(LineAddr(4), false), LookupOutcome::Miss);
        c.fill(LineAddr(4), LineState::Shared).unwrap();
        assert_eq!(
            c.access(LineAddr(4), false),
            LookupOutcome::Hit(LineState::Shared)
        );
    }

    #[test]
    fn store_to_shared_needs_upgrade() {
        let mut c = tiny();
        c.fill(LineAddr(4), LineState::Shared).unwrap();
        assert_eq!(c.access(LineAddr(4), true), LookupOutcome::UpgradeNeeded);
        c.set_state(LineAddr(4), LineState::Modified);
        assert_eq!(
            c.access(LineAddr(4), true),
            LookupOutcome::Hit(LineState::Modified)
        );
    }

    #[test]
    fn exclusive_is_writable_silently() {
        let mut c = tiny();
        c.fill(LineAddr(6), LineState::Exclusive).unwrap();
        assert_eq!(
            c.access(LineAddr(6), true),
            LookupOutcome::Hit(LineState::Exclusive)
        );
    }

    #[test]
    fn lru_eviction_prefers_oldest() {
        let mut c = tiny();
        // Addresses 0, 2, 4 all map to set 0 (addr % 2 == 0).
        c.fill(LineAddr(0), LineState::Shared).unwrap();
        c.fill(LineAddr(2), LineState::Shared).unwrap();
        c.access(LineAddr(0), false); // 0 now MRU; 2 is LRU.
        let ev = c.fill(LineAddr(4), LineState::Shared).unwrap();
        assert_eq!(ev, Eviction::Silent(LineAddr(2)));
        assert!(c.state(LineAddr(0)).is_some());
        assert!(c.state(LineAddr(2)).is_none());
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.fill(LineAddr(0), LineState::Modified).unwrap();
        c.fill(LineAddr(2), LineState::Shared).unwrap();
        c.access(LineAddr(2), false);
        // Evicting LineAddr(0) (LRU, Modified) must demand a writeback.
        let ev = c.fill(LineAddr(4), LineState::Shared).unwrap();
        assert_eq!(ev, Eviction::Dirty(LineAddr(0)));
    }

    #[test]
    fn pinned_lines_never_evict() {
        let mut c = tiny();
        c.fill(LineAddr(0), LineState::Modified).unwrap();
        c.pin(LineAddr(0));
        c.fill(LineAddr(2), LineState::Modified).unwrap();
        c.pin(LineAddr(2));
        // Set 0 is full of pinned lines: overflow.
        assert_eq!(
            c.fill(LineAddr(4), LineState::Shared),
            Err(CapacityConflict)
        );
        c.unpin_all();
        assert!(c.fill(LineAddr(4), LineState::Shared).is_ok());
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(LineAddr(3), LineState::Shared).unwrap();
        assert_eq!(c.occupancy(), 1);
        c.invalidate(LineAddr(3));
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.access(LineAddr(3), false), LookupOutcome::Miss);
        // Invalidating an absent line is fine (stale-sharer invalidations).
        c.invalidate(LineAddr(3));
    }

    #[test]
    fn refill_resident_line_changes_state() {
        let mut c = tiny();
        c.fill(LineAddr(1), LineState::Shared).unwrap();
        assert_eq!(c.fill(LineAddr(1), LineState::Modified), Ok(Eviction::None));
        assert_eq!(c.state(LineAddr(1)), Some(LineState::Modified));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn probe_does_not_touch_lru() {
        let mut c = tiny();
        c.fill(LineAddr(0), LineState::Shared).unwrap();
        c.fill(LineAddr(2), LineState::Shared).unwrap();
        // Probe 0 (should NOT refresh it), then fill: 0 is still LRU.
        assert_eq!(
            c.probe(LineAddr(0), false),
            LookupOutcome::Hit(LineState::Shared)
        );
        let ev = c.fill(LineAddr(4), LineState::Shared).unwrap();
        assert_eq!(ev, Eviction::Silent(LineAddr(0)));
    }

    #[test]
    fn default_geometry_matches_table_ii() {
        let c = L1Config::default();
        // 128 sets * 4 ways * 64 B = 32 KB.
        assert_eq!(c.sets * c.ways * 64, 32 * 1024);
    }
}
