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
use std::ops::Range;

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

/// One tag-array way, 16 bytes. An empty way has no `state`.
#[derive(Clone, Copy, Debug)]
struct Way {
    addr: LineAddr,
    /// Recency rank within the set: 0 is the most recently used resident
    /// way, and the resident ways of a set hold ranks `0..resident` exactly
    /// once. So the largest rank is the true-LRU way, as the smallest
    /// use-tick would be, in a quarter of a tick's bytes. An empty way
    /// ranks `u32::MAX`, older than every resident one.
    age: u32,
    state: Option<LineState>,
    pinned: bool,
}

impl Way {
    const EMPTY: Way = Way {
        addr: LineAddr(0),
        age: u32::MAX,
        state: None,
        pinned: false,
    };

    #[inline]
    fn holds(&self, addr: LineAddr) -> bool {
        self.state.is_some() && self.addr == addr
    }
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
    ways: Vec<Way>,
    /// Slots whose way went from unpinned to pinned since the last
    /// `unpin_all`, so unpinning visits only those. A slot may be listed
    /// twice, or now hold an unpinned line (its pinned way was evicted or
    /// invalidated); clearing such a slot again is harmless.
    pinned_slots: Vec<usize>,
}

impl L1Cache {
    pub fn new(config: L1Config) -> Self {
        assert!(config.sets.is_power_of_two() && config.ways >= 1);
        Self {
            config,
            ways: vec![Way::EMPTY; (config.sets * config.ways) as usize],
            pinned_slots: Vec::new(),
        }
    }

    /// Slot range of the set holding `addr` (`sets` is a power of two).
    #[inline]
    fn set_range(&self, addr: LineAddr) -> Range<usize> {
        let set = (addr.0 & (u64::from(self.config.sets) - 1)) as usize;
        let ways = self.config.ways as usize;
        set * ways..(set + 1) * ways
    }

    /// Slot holding `addr`, if resident.
    fn slot_of(&self, addr: LineAddr) -> Option<usize> {
        let set = self.set_range(addr);
        let start = set.start;
        self.ways[set]
            .iter()
            .position(|w| w.holds(addr))
            .map(|i| start + i)
    }

    fn way(&self, addr: LineAddr) -> Option<&Way> {
        self.ways[self.set_range(addr)]
            .iter()
            .find(|w| w.holds(addr))
    }

    fn way_mut(&mut self, addr: LineAddr) -> Option<&mut Way> {
        let set = self.set_range(addr);
        self.ways[set].iter_mut().find(|w| w.holds(addr))
    }

    /// Make way `i` of `set` its most recently used: every way used after
    /// it ages by one. An empty way (a fill into a free slot) is older than
    /// all, so every resident way ages; empty ways never do.
    #[inline]
    fn touch(set: &mut [Way], i: usize) {
        let age = set[i].age;
        for w in set.iter_mut() {
            w.age += u32::from(w.age < age);
        }
        set[i].age = 0;
    }

    /// Put `addr` in way `i` of `set` as its most recently used, reporting
    /// the line it displaced.
    fn install(set: &mut [Way], i: usize, addr: LineAddr, state: LineState) -> Eviction {
        let old = set[i];
        // Rank the way before it changes hands: a replaced victim ages the
        // ways used after it exactly as its removal and a fresh fill would.
        Self::touch(set, i);
        set[i] = Way {
            addr,
            age: 0,
            state: Some(state),
            pinned: false,
        };
        match old.state {
            None => Eviction::None,
            Some(LineState::Modified) => Eviction::Dirty(old.addr),
            Some(LineState::Exclusive) => Eviction::CleanOwned(old.addr),
            Some(LineState::Shared) => Eviction::Silent(old.addr),
        }
    }

    /// Current state of a resident line.
    pub fn state(&self, addr: LineAddr) -> Option<LineState> {
        self.way(addr).and_then(|w| w.state)
    }

    /// Check an access without modifying LRU.
    pub fn probe(&self, addr: LineAddr, is_store: bool) -> LookupOutcome {
        Self::outcome(self.state(addr), is_store)
    }

    fn outcome(state: Option<LineState>, is_store: bool) -> LookupOutcome {
        match state {
            None => LookupOutcome::Miss,
            Some(s) if is_store && !s.writable() => LookupOutcome::UpgradeNeeded,
            Some(s) => LookupOutcome::Hit(s),
        }
    }

    /// Access for real: updates LRU on hit.
    pub fn access(&mut self, addr: LineAddr, is_store: bool) -> LookupOutcome {
        let range = self.set_range(addr);
        let set = &mut self.ways[range];
        let Some(i) = set.iter().position(|w| w.holds(addr)) else {
            return LookupOutcome::Miss;
        };
        Self::touch(set, i);
        Self::outcome(set[i].state, is_store)
    }

    /// Install a line, force-evicting a pinned victim if the set is full of
    /// pinned lines (transactional overflow — the caller must issue a
    /// *sticky* writeback so conflict detection survives, LogTM-style).
    pub fn fill_forced(&mut self, addr: LineAddr, state: LineState) -> Eviction {
        match self.fill(addr, state) {
            Ok(ev) => ev,
            Err(CapacityConflict) => {
                // Evict the LRU pinned way (ranks are unique, so the max is
                // deterministic).
                let range = self.set_range(addr);
                let set = &mut self.ways[range];
                let victim = (0..set.len())
                    .max_by_key(|&i| set[i].age)
                    .expect("full set must have ways");
                Self::install(set, victim, addr, state)
            }
        }
    }

    /// Install a line, evicting if needed. The caller handles `Dirty`
    /// evictions by issuing a PUTX writeback.
    pub fn fill(&mut self, addr: LineAddr, state: LineState) -> Result<Eviction, CapacityConflict> {
        let range = self.set_range(addr);
        let set = &mut self.ways[range];
        // One walk over the set: the resident way, else the first free
        // slot, else the LRU unpinned way (unique ranks make the max
        // deterministic whatever the slot order).
        let (mut free, mut victim) = (None, None::<(usize, u32)>);
        for (i, w) in set.iter_mut().enumerate() {
            match w.state {
                None => {
                    free.get_or_insert(i);
                }
                Some(_) if w.addr == addr => {
                    // Refill of a resident line is a state change.
                    w.state = Some(state);
                    return Ok(Eviction::None);
                }
                Some(_) if !w.pinned && victim.is_none_or(|(_, age)| w.age > age) => {
                    victim = Some((i, w.age));
                }
                Some(_) => {}
            }
        }
        let i = match (free, victim) {
            (Some(i), _) | (None, Some((i, _))) => i,
            (None, None) => return Err(CapacityConflict),
        };
        Ok(Self::install(set, i, addr, state))
    }

    /// Upgrade/downgrade a resident line's state.
    pub fn set_state(&mut self, addr: LineAddr, state: LineState) {
        if let Some(w) = self.way_mut(addr) {
            w.state = Some(state);
        }
    }

    /// Drop a line (invalidation or eviction completion). No-op if absent.
    pub fn invalidate(&mut self, addr: LineAddr) {
        let range = self.set_range(addr);
        let set = &mut self.ways[range];
        let Some(i) = set.iter().position(|w| w.holds(addr)) else {
            return;
        };
        let age = set[i].age;
        set[i] = Way::EMPTY;
        // The resident ways used before it move up one rank.
        for w in set.iter_mut() {
            if w.state.is_some() && w.age > age {
                w.age -= 1;
            }
        }
    }

    /// Pin a transactional write-set line against eviction. The only way a
    /// line becomes pinned, so `pinned_slots` sees every pinned way.
    pub fn pin(&mut self, addr: LineAddr) {
        let Some(slot) = self.slot_of(addr) else {
            return;
        };
        let w = &mut self.ways[slot];
        if !w.pinned {
            w.pinned = true;
            self.pinned_slots.push(slot);
        }
    }

    /// Unpin every pinned line (commit or abort finished).
    pub fn unpin_all(&mut self) {
        for slot in self.pinned_slots.drain(..) {
            self.ways[slot].pinned = false;
        }
    }

    pub fn is_pinned(&self, addr: LineAddr) -> bool {
        self.way(addr).is_some_and(|w| w.pinned)
    }

    /// Number of resident lines (for tests/diagnostics).
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.state.is_some()).count()
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
    fn unpin_all_clears_exactly_the_pinned_lines_under_random_traffic() {
        use puno_sim::SimRng;
        use std::collections::BTreeSet;

        fn scan(c: &L1Cache) -> BTreeSet<LineAddr> {
            c.ways
                .iter()
                .filter(|w| w.state.is_some() && w.pinned)
                .map(|w| w.addr)
                .collect()
        }
        fn evicted(ev: Eviction) -> Option<LineAddr> {
            match ev {
                Eviction::None => None,
                Eviction::Silent(a) | Eviction::CleanOwned(a) | Eviction::Dirty(a) => Some(a),
            }
        }

        let states = [LineState::Shared, LineState::Exclusive, LineState::Modified];
        for seed in 0..16 {
            let mut rng = SimRng::new(seed);
            let mut c = L1Cache::new(L1Config { sets: 4, ways: 2 });
            // Which lines should be pinned, tracked independently of the cache.
            let mut model = BTreeSet::new();
            let mut forced = 0;
            for _ in 0..2_000 {
                let addr = LineAddr(rng.gen_range(24));
                match rng.gen_range(10) {
                    0..=3 => {
                        let state = *rng.choose(&states);
                        let ev = match c.fill(addr, state) {
                            Ok(ev) => ev,
                            Err(CapacityConflict) => {
                                forced += 1;
                                c.fill_forced(addr, state)
                            }
                        };
                        if let Some(victim) = evicted(ev) {
                            model.remove(&victim);
                        }
                    }
                    4..=6 => {
                        c.pin(addr);
                        if c.state(addr).is_some() {
                            model.insert(addr);
                        }
                    }
                    7..=8 => {
                        c.invalidate(addr);
                        model.remove(&addr);
                    }
                    _ => {
                        c.unpin_all();
                        model.clear();
                        assert!(scan(&c).is_empty(), "seed {seed}: a way stayed pinned");
                    }
                }
                assert_eq!(scan(&c), model, "seed {seed}");
                for a in 0..24 {
                    let a = LineAddr(a);
                    assert_eq!(c.is_pinned(a), model.contains(&a), "seed {seed}: {a:?}");
                }
            }
            assert!(
                forced > 0,
                "seed {seed}: no pinned victim was force-evicted"
            );
        }
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
    fn an_l1_way_is_at_most_two_words() {
        assert!(std::mem::size_of::<Way>() <= 16);
    }

    /// The tick-stamped true-LRU tag array the rank-based one replaced,
    /// kept as the reference its outcomes must match.
    mod tick_lru {
        use super::super::{CapacityConflict, Eviction, L1Config, LineState, LookupOutcome};
        use puno_sim::LineAddr;

        #[derive(Clone, Debug)]
        struct Way {
            addr: LineAddr,
            state: LineState,
            pinned: bool,
            lru: u64,
        }

        pub struct TickL1 {
            config: L1Config,
            ways: Vec<Option<Way>>,
            tick: u64,
        }

        fn evicted(w: Way) -> Eviction {
            match w.state {
                LineState::Modified => Eviction::Dirty(w.addr),
                LineState::Exclusive => Eviction::CleanOwned(w.addr),
                LineState::Shared => Eviction::Silent(w.addr),
            }
        }

        impl TickL1 {
            pub fn new(config: L1Config) -> Self {
                Self {
                    config,
                    ways: vec![None; (config.sets * config.ways) as usize],
                    tick: 0,
                }
            }

            fn set_range(&self, addr: LineAddr) -> std::ops::Range<usize> {
                let set = (addr.0 % self.config.sets as u64) as usize;
                let start = set * self.config.ways as usize;
                start..start + self.config.ways as usize
            }

            fn way_mut(&mut self, addr: LineAddr) -> Option<&mut Way> {
                let range = self.set_range(addr);
                self.ways[range]
                    .iter_mut()
                    .flatten()
                    .find(|w| w.addr == addr)
            }

            fn way(&self, addr: LineAddr) -> Option<&Way> {
                let range = self.set_range(addr);
                self.ways[range].iter().flatten().find(|w| w.addr == addr)
            }

            pub fn state(&self, addr: LineAddr) -> Option<LineState> {
                self.way(addr).map(|w| w.state)
            }

            pub fn is_pinned(&self, addr: LineAddr) -> bool {
                self.way(addr).is_some_and(|w| w.pinned)
            }

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

            /// The slot of the least recently used way `eligible` picks.
            fn lru(&self, addr: LineAddr, eligible: impl Fn(&Way) -> bool) -> Option<usize> {
                let range = self.set_range(addr);
                let start = range.start;
                self.ways[range]
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.as_ref().map(|w| (i, w)))
                    .filter(|(_, w)| eligible(w))
                    .min_by_key(|(_, w)| w.lru)
                    .map(|(i, _)| start + i)
            }

            fn put(&mut self, slot: usize, addr: LineAddr, state: LineState) -> Eviction {
                self.tick += 1;
                let new = Way {
                    addr,
                    state,
                    pinned: false,
                    lru: self.tick,
                };
                self.ways[slot].replace(new).map_or(Eviction::None, evicted)
            }

            pub fn fill(
                &mut self,
                addr: LineAddr,
                state: LineState,
            ) -> Result<Eviction, CapacityConflict> {
                if let Some(w) = self.way_mut(addr) {
                    w.state = state;
                    return Ok(Eviction::None);
                }
                let range = self.set_range(addr);
                let slot = match self.ways[range.clone()].iter().position(Option::is_none) {
                    Some(free) => range.start + free,
                    None => self.lru(addr, |w| !w.pinned).ok_or(CapacityConflict)?,
                };
                Ok(self.put(slot, addr, state))
            }

            pub fn fill_forced(&mut self, addr: LineAddr, state: LineState) -> Eviction {
                match self.fill(addr, state) {
                    Ok(ev) => ev,
                    Err(CapacityConflict) => {
                        let slot = self.lru(addr, |_| true).expect("full set");
                        self.put(slot, addr, state)
                    }
                }
            }

            pub fn set_state(&mut self, addr: LineAddr, state: LineState) {
                if let Some(w) = self.way_mut(addr) {
                    w.state = state;
                }
            }

            pub fn invalidate(&mut self, addr: LineAddr) {
                let range = self.set_range(addr);
                for slot in &mut self.ways[range] {
                    if slot.as_ref().is_some_and(|w| w.addr == addr) {
                        *slot = None;
                    }
                }
            }

            pub fn pin(&mut self, addr: LineAddr) {
                if let Some(w) = self.way_mut(addr) {
                    w.pinned = true;
                }
            }

            pub fn unpin_all(&mut self) {
                for w in self.ways.iter_mut().flatten() {
                    w.pinned = false;
                }
            }

            pub fn occupancy(&self) -> usize {
                self.ways.iter().flatten().count()
            }
        }
    }

    #[test]
    fn rank_lru_matches_the_tick_lru_reference_under_random_traffic() {
        use puno_sim::SimRng;
        use tick_lru::TickL1;

        let states = [LineState::Shared, LineState::Exclusive, LineState::Modified];
        let geometries = [
            L1Config { sets: 2, ways: 2 },
            L1Config { sets: 128, ways: 4 },
            L1Config { sets: 8, ways: 1 },
        ];
        for config in geometries {
            let (sets, ways) = (u64::from(config.sets), u64::from(config.ways));
            let (mut conflicts, mut evictions) = (0, 0);
            for seed in 0..8 {
                let mut rng = SimRng::new(seed);
                let mut c = L1Cache::new(config);
                let mut r = TickL1::new(config);
                for step in 0..20_000 {
                    // Twice as many lines as ways per set, so sets overflow;
                    // half the traffic goes to two hot sets, so pinned
                    // lines fill them before an unpin.
                    let set = match rng.gen_range(2) {
                        0 => rng.gen_range(2.min(sets)),
                        _ => rng.gen_range(sets),
                    };
                    let addr = LineAddr(set + sets * rng.gen_range(2 * ways));
                    let state = *rng.choose(&states);
                    let at = format!("{config:?} seed {seed} step {step} {addr:?}");
                    match rng.gen_range(16) {
                        0..=4 => {
                            let store = rng.gen_range(2) == 0;
                            assert_eq!(c.access(addr, store), r.access(addr, store), "{at}");
                        }
                        5..=8 => {
                            let ev = c.fill(addr, state);
                            assert_eq!(ev, r.fill(addr, state), "{at}");
                            conflicts += usize::from(ev.is_err());
                            evictions += usize::from(ev.is_ok_and(|e| e != Eviction::None));
                        }
                        9 => assert_eq!(
                            c.fill_forced(addr, state),
                            r.fill_forced(addr, state),
                            "{at}"
                        ),
                        10 | 11 => {
                            c.pin(addr);
                            r.pin(addr);
                        }
                        12 => {
                            c.invalidate(addr);
                            r.invalidate(addr);
                        }
                        13 => {
                            c.set_state(addr, state);
                            r.set_state(addr, state);
                        }
                        14 => assert_eq!(c.probe(addr, false), {
                            let s = r.state(addr);
                            s.map_or(LookupOutcome::Miss, LookupOutcome::Hit)
                        }),
                        _ => {
                            if rng.gen_range(8) == 0 {
                                c.unpin_all();
                                r.unpin_all();
                            }
                        }
                    }
                    assert_eq!(c.state(addr), r.state(addr), "{at}");
                    assert_eq!(c.is_pinned(addr), r.is_pinned(addr), "{at}");
                }
                assert_eq!(c.occupancy(), r.occupancy(), "{config:?} seed {seed}");
            }
            assert!(conflicts > 0, "{config:?}: no capacity conflict");
            assert!(evictions > 0, "{config:?}: no eviction");
        }
    }

    #[test]
    fn default_geometry_matches_table_ii() {
        let c = L1Config::default();
        // 128 sets * 4 ways * 64 B = 32 KB.
        assert_eq!(c.sets * c.ways * 64, 32 * 1024);
    }
}
