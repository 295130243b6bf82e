//! Cache-conscious hot-state containers for the protocol fast path.
//!
//! The simulator's per-cycle cost is dominated by the state touched on every
//! transactional access and coherence message: directory entries, L1 tags,
//! read/write sets, RMW tables, the backing memory image. The std containers
//! those started life as (`HashMap` with SipHash, `BTreeMap`/`BTreeSet`)
//! are pointer-chasing and allocation-heavy exactly where the paper's
//! conflict-detection mechanism concentrates work. This module provides the
//! replacements:
//!
//! * [`LineMap<K, V>`] — an open-addressing hash map with multiplicative
//!   (Fibonacci) hashing, power-of-two capacity, linear probing, and
//!   tombstone-free backward-shift deletion. One flat slot array, no
//!   per-entry allocation, `with_capacity` pre-sizing.
//! * [`LineSet<K>`] — an open-addressing set with the same probing scheme
//!   plus a *generation stamp* per slot, so `clear` is O(1) (bump the
//!   generation) instead of O(capacity). Built for per-transaction-attempt
//!   state that is cleared on every abort→retry.
//!
//! **Determinism rule**: neither container has a deterministic *storage*
//! order (it depends on insertion history), so any iteration that feeds
//! metrics or message emission must go through the sorted paths
//! ([`LineMap::sorted_keys`], [`LineSet::sorted`]) or be order-insensitive
//! (e.g. a min-reduction over unique stamps). The unordered `iter` methods
//! exist for order-insensitive scans only.

use crate::ids::LineAddr;

/// Keys usable in [`LineMap`]/[`LineSet`]: anything with an *injective*
/// round-trippable packing into `u64`.
pub trait LineKey: Copy + Eq {
    fn to_key(self) -> u64;
    fn from_key(key: u64) -> Self;
}

impl LineKey for u64 {
    #[inline]
    fn to_key(self) -> u64 {
        self
    }
    #[inline]
    fn from_key(key: u64) -> Self {
        key
    }
}

impl LineKey for LineAddr {
    #[inline]
    fn to_key(self) -> u64 {
        self.0
    }
    #[inline]
    fn from_key(key: u64) -> Self {
        LineAddr(key)
    }
}

/// Fibonacci multiplicative hash with an extra xor-fold: line addresses are
/// low-entropy (small, often sequential), so the high bits must carry the
/// mixing down into the table index.
#[inline]
fn mix(key: u64) -> u64 {
    let x = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 32)
}

const MIN_CAPACITY: usize = 8;

/// Grow when len * 4 >= capacity * 3 (75% load).
#[inline]
fn should_grow(len: usize, capacity: usize) -> bool {
    (len + 1) * 4 > capacity * 3
}

#[inline]
fn capacity_for(entries: usize) -> usize {
    (entries * 4 / 3 + 1).next_power_of_two().max(MIN_CAPACITY)
}

/// Open-addressing hash map keyed by a [`LineKey`].
///
/// Linear probing over a power-of-two slot array; deletion uses
/// backward-shift compaction so there are no tombstones and probe chains
/// never degrade. Unordered iteration is storage-order — use
/// [`Self::sorted_keys`] when order must be deterministic.
#[derive(Clone, Debug)]
pub struct LineMap<K: LineKey, V> {
    /// `None` = empty; `Some((packed_key, value))` = occupied.
    slots: Vec<Option<(u64, V)>>,
    len: usize,
    mask: usize,
    _key: std::marker::PhantomData<K>,
}

impl<K: LineKey, V> Default for LineMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: LineKey, V> LineMap<K, V> {
    /// Bytes one slot occupies, occupied or not (layout budgets).
    pub const fn slot_bytes() -> usize {
        std::mem::size_of::<Option<(u64, V)>>()
    }

    pub fn new() -> Self {
        Self::with_pow2(MIN_CAPACITY)
    }

    /// Pre-size for `entries` insertions without rehashing.
    pub fn with_capacity(entries: usize) -> Self {
        Self::with_pow2(capacity_for(entries))
    }

    fn with_pow2(capacity: usize) -> Self {
        debug_assert!(capacity.is_power_of_two());
        Self {
            slots: (0..capacity).map(|_| None).collect(),
            len: 0,
            mask: capacity - 1,
            _key: std::marker::PhantomData,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot count (diagnostics / load-factor checks).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// `Ok(index)` of the occupied slot holding `key`, or `Err(index)` of
    /// the empty slot where it would be inserted.
    #[inline]
    fn find(&self, key: u64) -> Result<usize, usize> {
        let mut i = (mix(key) as usize) & self.mask;
        loop {
            match &self.slots[i] {
                None => return Err(i),
                Some((k, _)) if *k == key => return Ok(i),
                _ => i = (i + 1) & self.mask,
            }
        }
    }

    #[inline]
    pub fn contains_key(&self, key: K) -> bool {
        self.find(key.to_key()).is_ok()
    }

    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        match self.find(key.to_key()) {
            Ok(i) => self.slots[i].as_ref().map(|(_, v)| v),
            Err(_) => None,
        }
    }

    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        match self.find(key.to_key()) {
            Ok(i) => self.slots[i].as_mut().map(|(_, v)| v),
            Err(_) => None,
        }
    }

    /// Insert, returning the previous value if the key was present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let k = key.to_key();
        match self.find(k) {
            Ok(i) => Some(std::mem::replace(
                self.slots[i].as_mut().map(|(_, v)| v).unwrap(),
                value,
            )),
            Err(i) => {
                if should_grow(self.len, self.slots.len()) {
                    self.grow();
                    let Err(j) = self.find(k) else {
                        unreachable!("key appeared during grow")
                    };
                    self.slots[j] = Some((k, value));
                } else {
                    self.slots[i] = Some((k, value));
                }
                self.len += 1;
                None
            }
        }
    }

    /// Entry-style upsert: the value for `key`, inserting `default()` first
    /// if absent.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let k = key.to_key();
        let i = match self.find(k) {
            Ok(i) => i,
            Err(i) => {
                let i = if should_grow(self.len, self.slots.len()) {
                    self.grow();
                    let Err(j) = self.find(k) else {
                        unreachable!("key appeared during grow")
                    };
                    j
                } else {
                    i
                };
                self.slots[i] = Some((k, default()));
                self.len += 1;
                i
            }
        };
        self.slots[i].as_mut().map(|(_, v)| v).unwrap()
    }

    /// Remove a key, compacting the probe chain behind it (backward-shift
    /// deletion — no tombstones are ever left in the table).
    pub fn remove(&mut self, key: K) -> Option<V> {
        let Ok(mut hole) = self.find(key.to_key()) else {
            return None;
        };
        let (_, value) = self.slots[hole].take().unwrap();
        self.len -= 1;
        let mut i = (hole + 1) & self.mask;
        while let Some((k, _)) = &self.slots[i] {
            let ideal = (mix(*k) as usize) & self.mask;
            // The entry at `i` may move into the hole iff the hole lies
            // within its probe chain (between its ideal slot and `i`).
            let chain_len = i.wrapping_sub(ideal) & self.mask;
            let hole_dist = i.wrapping_sub(hole) & self.mask;
            if chain_len >= hole_dist {
                self.slots[hole] = self.slots[i].take();
                hole = i;
            }
            i = (i + 1) & self.mask;
        }
        Some(value)
    }

    /// Drop every entry. O(capacity); not for per-attempt hot paths — that
    /// is what [`LineSet`]'s generation clear is for.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.len = 0;
    }

    /// Unordered (storage-order) iteration. **Not deterministic across
    /// insertion histories** — never feed this into metrics or message
    /// emission; use [`Self::sorted_keys`] or an order-insensitive fold.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, v)| (K::from_key(*k), v)))
    }

    /// Keys in ascending packed order — the deterministic drain path.
    pub fn sorted_keys(&self) -> Vec<K> {
        let mut keys: Vec<u64> = self
            .slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, _)| *k))
            .collect();
        keys.sort_unstable();
        keys.into_iter().map(K::from_key).collect()
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, (0..new_cap).map(|_| None).collect());
        self.mask = new_cap - 1;
        for (k, v) in old.into_iter().flatten() {
            let Err(i) = self.find(k) else {
                unreachable!("duplicate key during grow")
            };
            self.slots[i] = Some((k, v));
        }
    }
}

/// Open-addressing set with O(1) generation clear.
///
/// Each slot carries a generation stamp; a slot is live only when its stamp
/// matches the set's current generation, so `clear` just bumps the
/// generation and every slot reads as empty. Built for state that is wiped
/// on every transaction attempt (read/write-set spill, per-attempt scratch)
/// where a `BTreeSet::clear` deallocates and a table-wide wipe is wasted
/// work.
#[derive(Clone, Debug)]
pub struct LineSet<K: LineKey> {
    keys: Vec<u64>,
    gens: Vec<u32>,
    gen: u32,
    len: usize,
    mask: usize,
    _key: std::marker::PhantomData<K>,
}

impl<K: LineKey> Default for LineSet<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: LineKey> LineSet<K> {
    pub fn new() -> Self {
        Self::with_pow2(MIN_CAPACITY)
    }

    pub fn with_capacity(entries: usize) -> Self {
        Self::with_pow2(capacity_for(entries))
    }

    fn with_pow2(capacity: usize) -> Self {
        debug_assert!(capacity.is_power_of_two());
        Self {
            keys: vec![0; capacity],
            gens: vec![0; capacity],
            gen: 1,
            len: 0,
            mask: capacity - 1,
            _key: std::marker::PhantomData,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    fn live(&self, i: usize) -> bool {
        self.gens[i] == self.gen
    }

    #[inline]
    fn find(&self, key: u64) -> Result<usize, usize> {
        let mut i = (mix(key) as usize) & self.mask;
        loop {
            if !self.live(i) {
                return Err(i);
            }
            if self.keys[i] == key {
                return Ok(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    #[inline]
    pub fn contains(&self, key: K) -> bool {
        self.find(key.to_key()).is_ok()
    }

    /// Insert; returns true when the key was newly added.
    pub fn insert(&mut self, key: K) -> bool {
        let k = key.to_key();
        match self.find(k) {
            Ok(_) => false,
            Err(i) => {
                let i = if should_grow(self.len, self.keys.len()) {
                    self.grow();
                    let Err(j) = self.find(k) else {
                        unreachable!("key appeared during grow")
                    };
                    j
                } else {
                    i
                };
                self.keys[i] = k;
                self.gens[i] = self.gen;
                self.len += 1;
                true
            }
        }
    }

    /// Remove with backward-shift compaction; returns true when present.
    pub fn remove(&mut self, key: K) -> bool {
        let Ok(mut hole) = self.find(key.to_key()) else {
            return false;
        };
        self.gens[hole] = self.gen.wrapping_sub(1);
        self.len -= 1;
        let mut i = (hole + 1) & self.mask;
        while self.live(i) {
            let ideal = (mix(self.keys[i]) as usize) & self.mask;
            let chain_len = i.wrapping_sub(ideal) & self.mask;
            let hole_dist = i.wrapping_sub(hole) & self.mask;
            if chain_len >= hole_dist {
                self.keys[hole] = self.keys[i];
                self.gens[hole] = self.gen;
                self.gens[i] = self.gen.wrapping_sub(1);
                hole = i;
            }
            i = (i + 1) & self.mask;
        }
        true
    }

    /// O(1) clear: bump the generation so every slot reads as empty. On the
    /// (astronomically rare) u32 wrap the stamp array is rewritten so stale
    /// slots can never alias the new generation.
    pub fn clear(&mut self) {
        self.len = 0;
        if self.gen == u32::MAX {
            self.gens.iter_mut().for_each(|g| *g = 0);
            self.gen = 1;
        } else {
            self.gen += 1;
        }
    }

    /// Unordered (storage-order) iteration — see the module determinism
    /// rule; use [`Self::sorted`] when order matters.
    pub fn iter(&self) -> impl Iterator<Item = K> + '_ {
        (0..self.keys.len())
            .filter(move |&i| self.live(i))
            .map(move |i| K::from_key(self.keys[i]))
    }

    /// Members in ascending packed order — the deterministic drain path.
    pub fn sorted(&self) -> Vec<K> {
        let mut keys: Vec<u64> = (0..self.keys.len())
            .filter_map(|i| self.live(i).then_some(self.keys[i]))
            .collect();
        keys.sort_unstable();
        keys.into_iter().map(K::from_key).collect()
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_gens = std::mem::replace(&mut self.gens, vec![0; new_cap]);
        let old_gen = self.gen;
        self.mask = new_cap - 1;
        self.gen = 1;
        for (k, g) in old_keys.into_iter().zip(old_gens) {
            if g == old_gen {
                let Err(i) = self.find(k) else {
                    unreachable!("duplicate key during grow")
                };
                self.keys[i] = k;
                self.gens[i] = self.gen;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_insert_get_remove_roundtrip() {
        let mut m: LineMap<LineAddr, u64> = LineMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(LineAddr(5), 50), None);
        assert_eq!(m.insert(LineAddr(5), 55), Some(50));
        assert_eq!(m.get(LineAddr(5)), Some(&55));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(LineAddr(5)), Some(55));
        assert_eq!(m.remove(LineAddr(5)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn map_grows_past_initial_capacity() {
        let mut m: LineMap<u64, u64> = LineMap::new();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000 {
            assert_eq!(m.get(i), Some(&(i * 2)), "lost key {i}");
        }
        assert!(m.capacity().is_power_of_two());
    }

    #[test]
    fn map_with_capacity_avoids_rehash() {
        let m: LineMap<u64, u8> = LineMap::with_capacity(100);
        let cap = m.capacity();
        let mut m = m;
        for i in 0..100 {
            m.insert(i, 0);
        }
        assert_eq!(m.capacity(), cap, "pre-sized map must not rehash");
    }

    #[test]
    fn map_backward_shift_keeps_probe_chains_intact() {
        // Force a dense cluster: many keys hashing near each other, then
        // remove from the middle and verify every survivor is still found.
        let mut m: LineMap<u64, u64> = LineMap::new();
        let keys: Vec<u64> = (0..64).map(|i| i * 8).collect();
        for &k in &keys {
            m.insert(k, k);
        }
        for &k in keys.iter().step_by(3) {
            assert_eq!(m.remove(k), Some(k));
        }
        for (i, &k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(m.get(k), None);
            } else {
                assert_eq!(m.get(k), Some(&k), "chain broken for {k}");
            }
        }
    }

    #[test]
    fn map_get_or_insert_with() {
        let mut m: LineMap<LineAddr, u32> = LineMap::new();
        *m.get_or_insert_with(LineAddr(3), || 0) += 1;
        *m.get_or_insert_with(LineAddr(3), || 0) += 1;
        assert_eq!(m.get(LineAddr(3)), Some(&2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn map_sorted_keys_is_ascending() {
        let mut m: LineMap<LineAddr, ()> = LineMap::new();
        for a in [9u64, 2, 140, 7, 3] {
            m.insert(LineAddr(a), ());
        }
        let keys: Vec<u64> = m.sorted_keys().into_iter().map(|a| a.0).collect();
        assert_eq!(keys, vec![2, 3, 7, 9, 140]);
    }

    #[test]
    fn set_insert_contains_remove() {
        let mut s: LineSet<LineAddr> = LineSet::new();
        assert!(s.insert(LineAddr(1)));
        assert!(!s.insert(LineAddr(1)));
        assert!(s.contains(LineAddr(1)));
        assert!(s.remove(LineAddr(1)));
        assert!(!s.remove(LineAddr(1)));
        assert!(!s.contains(LineAddr(1)));
    }

    #[test]
    fn set_generation_clear_is_complete() {
        let mut s: LineSet<u64> = LineSet::new();
        for i in 0..100 {
            s.insert(i);
        }
        let cap = s.capacity();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), cap, "clear must not shrink");
        for i in 0..100 {
            assert!(!s.contains(i), "stale member {i} survived clear");
        }
        // Reuse after clear works and does not resurrect stale slots.
        s.insert(7);
        assert_eq!(s.len(), 1);
        assert_eq!(s.sorted(), vec![7]);
    }

    #[test]
    fn set_survives_many_clear_cycles() {
        let mut s: LineSet<u64> = LineSet::new();
        for round in 0..1000u64 {
            for i in 0..8 {
                s.insert(round * 17 + i);
            }
            assert_eq!(s.len(), 8);
            s.clear();
        }
        assert!(s.is_empty());
    }

    #[test]
    fn set_grow_preserves_only_live_members() {
        let mut s: LineSet<u64> = LineSet::new();
        for i in 0..4 {
            s.insert(i);
        }
        s.clear();
        for i in 100..200 {
            s.insert(i); // forces growth with stale slots present
        }
        assert_eq!(s.len(), 100);
        for i in 0..4 {
            assert!(!s.contains(i), "stale member resurrected by grow");
        }
        for i in 100..200 {
            assert!(s.contains(i));
        }
    }

    #[test]
    fn set_sorted_is_ascending() {
        let mut s: LineSet<LineAddr> = LineSet::new();
        for a in [9u64, 2, 140, 7] {
            s.insert(LineAddr(a));
        }
        let v: Vec<u64> = s.sorted().into_iter().map(|a| a.0).collect();
        assert_eq!(v, vec![2, 7, 9, 140]);
    }
}
