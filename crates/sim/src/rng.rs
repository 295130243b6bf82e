//! Seedable, stable pseudo-random number generator.
//!
//! The simulator implements its own small generator — `xoshiro256**` seeded
//! through `SplitMix64` — instead of depending on `rand`'s default engines so
//! that experiment outputs can never change under us when a dependency bumps
//! its algorithm. The distributions the workload generator draws from sit
//! beside it: ranges and geometric samples on [`SimRng`], Zipf through a
//! [`ZipfSampler`] built once per distribution.

/// `xoshiro256**` generator with `SplitMix64` seeding.
///
/// Period 2^256 - 1; passes BigCrush; four words of state. Plenty for
/// workload generation and randomized backoff modeling.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed. Identical seeds always yield
    /// identical streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Derive an independent stream for a sub-component (e.g. per node).
    ///
    /// Mixing the label through SplitMix64 keeps sibling streams decorrelated
    /// even for adjacent labels.
    pub fn derive(&self, label: u64) -> Self {
        let mut sm = self.s[0]
            .wrapping_mul(0xA24B_AED4_963E_E407)
            .wrapping_add(label.wrapping_mul(0x9FB2_1C65_1E98_DF25));
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased results.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be nonzero");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform in the inclusive range `[lo, hi]`.
    pub fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        lo + self.gen_range(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        // 53 top bits -> [0, 1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Geometric-ish positive sample with mean approximately `mean`
    /// (exponential, rounded up). Used for think-time and transaction body
    /// length dispersion.
    pub fn gen_geometric(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        let u = self.gen_f64().max(1e-12);
        (-mean * u.ln()).ceil() as u64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        let n = items.len();
        for i in (1..n).rev() {
            let j = self.gen_range((i + 1) as u64) as usize;
            items.swap(i, j);
        }
    }

    /// Pick one element uniformly.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty());
        &items[self.gen_range(items.len() as u64) as usize]
    }
}

/// Precomputed Zipf distribution over `[0, n)` with exponent `theta` (0 =
/// uniform; ~0.8-1.2 models skewed hot-spot sharing) — the rejection-free
/// approximation of Gray et al. Construction derives the generalized
/// harmonic constants, an O(n) sum; each sample is then O(1) with one
/// `gen_f64` draw. Build one per distribution and reuse it.
#[derive(Clone, Copy, Debug)]
pub struct ZipfSampler {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow_theta: f64,
}

impl ZipfSampler {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0);
        if theta <= 0.0 {
            // Uniform: the constants are unused.
            return Self {
                n,
                theta,
                alpha: 0.0,
                zetan: 0.0,
                eta: 0.0,
                half_pow_theta: 0.0,
            };
        }
        // Inverse transform on the generalized harmonic CDF via the
        // standard two-constant approximation.
        let alpha = 1.0 / (1.0 - theta);
        let zetan = zeta(n, theta);
        let eta = (1.0 - (2.0f64 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2, theta) / zetan);
        Self {
            n,
            theta,
            alpha,
            zetan,
            eta,
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.theta <= 0.0 {
            return rng.gen_range(self.n);
        }
        let u = rng.gen_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let v = ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }
}

fn zeta(n: u64, theta: f64) -> f64 {
    // Exact for the small n used in unit tests; for large n the partial sum
    // converges quickly for theta < 1 relative to our accuracy needs, and
    // [`ZipfSampler`] evaluates it once per distribution, not per sample.
    let n = n.min(10_000);
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derived_streams_are_decorrelated() {
        let root = SimRng::new(7);
        let mut a = root.derive(0);
        let mut b = root.derive(1);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = SimRng::new(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = rng.gen_range(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn gen_range_inclusive_bounds() {
        let mut rng = SimRng::new(4);
        for _ in 0..100 {
            let v = rng.gen_range_inclusive(10, 12);
            assert!((10..=12).contains(&v));
        }
        assert_eq!(rng.gen_range_inclusive(5, 5), 5);
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::new(5);
        for _ in 0..1000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn geometric_mean_is_close() {
        let mut rng = SimRng::new(6);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.gen_geometric(50.0)).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - 50.0).abs() < 3.0,
            "geometric mean {mean} too far from 50"
        );
    }

    #[test]
    fn zipf_is_skewed_toward_small_indices() {
        let mut rng = SimRng::new(8);
        let mut hits = [0u64; 16];
        let zipf = ZipfSampler::new(16, 0.99);
        for _ in 0..20_000 {
            let v = zipf.sample(&mut rng);
            hits[v as usize] += 1;
        }
        assert!(
            hits[0] > hits[8] * 3,
            "zipf head {} tail {}",
            hits[0],
            hits[8]
        );
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let mut rng = SimRng::new(9);
        let mut hits = [0u64; 4];
        let zipf = ZipfSampler::new(4, 0.0);
        for _ in 0..8000 {
            hits[zipf.sample(&mut rng) as usize] += 1;
        }
        for &h in &hits {
            assert!((1500..2500).contains(&h), "bucket {h} not uniform");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(10);
        let mut v: Vec<u32> = (0..64).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(v, (0..64).collect::<Vec<_>>(), "shuffle should move things");
    }
}
