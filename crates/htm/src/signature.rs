//! A Bloom-filter line signature: the fast-negative filter in front of each
//! exact direction of [`crate::rwset::ReadWriteSets`].
//!
//! Line addresses hash into a fixed-size bit vector. The membership test
//! never misses an inserted line (no false negatives) but can *alias*:
//! unrelated lines may map to set bits. The read/write sets use it only to
//! skip the exact lookup for lines outside the footprint, so an alias costs
//! that lookup and never a conflict.

use puno_sim::LineAddr;

/// Signature geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SignatureConfig {
    /// Bit-vector length; must be a power of two.
    pub bits: u32,
    /// Hash functions per insert (k).
    pub hashes: u32,
}

/// One Bloom signature.
#[derive(Clone, Debug)]
pub struct Signature {
    config: SignatureConfig,
    words: Vec<u64>,
}

#[inline]
fn mix(addr: u64, salt: u64) -> u64 {
    // Fibonacci-style multiplicative hashing with per-function salts.
    let mut x = addr.wrapping_add(salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 32)
}

impl Signature {
    pub fn new(config: SignatureConfig) -> Self {
        assert!(config.bits.is_power_of_two() && config.bits >= 64);
        assert!(config.hashes >= 1);
        Self {
            config,
            words: vec![0; config.bits as usize / 64],
        }
    }

    fn bit_of(&self, addr: LineAddr, k: u32) -> (usize, u64) {
        let h = mix(addr.0, (k as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
        let bit = (h & (self.config.bits as u64 - 1)) as usize;
        (bit / 64, 1u64 << (bit % 64))
    }

    pub fn insert(&mut self, addr: LineAddr) {
        for k in 0..self.config.hashes {
            let (w, m) = self.bit_of(addr, k);
            self.words[w] |= m;
        }
    }

    /// Superset membership test: never false-negative.
    pub fn maybe_contains(&self, addr: LineAddr) -> bool {
        (0..self.config.hashes).all(|k| {
            let (w, m) = self.bit_of(addr, k);
            self.words[w] & m != 0
        })
    }

    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puno_sim::SimRng;

    fn sig() -> Signature {
        Signature::new(SignatureConfig {
            bits: 2048,
            hashes: 2,
        })
    }

    #[test]
    fn no_false_negatives_ever() {
        let mut s = sig();
        let mut rng = SimRng::new(1);
        let addrs: Vec<LineAddr> = (0..200).map(|_| LineAddr(rng.next_u64() >> 8)).collect();
        for &a in &addrs {
            s.insert(a);
        }
        for &a in &addrs {
            assert!(s.maybe_contains(a), "false negative for {a:?}");
        }
    }

    #[test]
    fn empty_signature_matches_nothing() {
        let s = sig();
        for a in 0..100 {
            assert!(!s.maybe_contains(LineAddr(a)));
        }
    }

    #[test]
    fn false_positive_rate_is_sane_at_htm_footprints() {
        // 64 inserted lines into 2048 bits / k=2: theory predicts ~0.4%
        // false positives; assert an order-of-magnitude envelope.
        let mut s = sig();
        for i in 0..64u64 {
            s.insert(LineAddr(i * 977));
        }
        let probes = 20_000u64;
        let fp = (0..probes)
            .filter(|i| s.maybe_contains(LineAddr(1_000_000 + i * 131)))
            .count();
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.05, "false-positive rate {rate} too high");
    }

    #[test]
    fn clear_forgets_every_insert() {
        let mut s = sig();
        for i in 1..500 {
            s.insert(LineAddr(i * 31));
        }
        assert!(s.maybe_contains(LineAddr(31)));
        s.clear();
        assert!((1..500).all(|i| !s.maybe_contains(LineAddr(i * 31))));
    }

    #[test]
    fn tiny_signatures_alias_aggressively() {
        let mut s = Signature::new(SignatureConfig {
            bits: 64,
            hashes: 1,
        });
        for i in 0..64u64 {
            s.insert(LineAddr(i));
        }
        // With 64 bits and 64 inserts nearly everything aliases.
        let fp = (1000..2000u64)
            .filter(|&i| s.maybe_contains(LineAddr(i)))
            .count();
        assert!(fp > 500, "expected heavy aliasing, got {fp}/1000");
    }
}
