//! A tiny, dependency-free seeded PRNG: `splitmix64` for seeding and
//! `xoshiro256**` for the stream (Blackman & Vigna). Replaces the external
//! `rand` crate so the workspace builds with no network access.
//!
//! The generator is deterministic per seed across platforms (only integer
//! arithmetic and IEEE-754 division by a power of two), which is exactly
//! what the workload generators and seeded tests need. It makes no
//! cryptographic claims.

/// One step of the `splitmix64` sequence, used to expand a 64-bit seed into
/// the 256-bit `xoshiro256**` state (the initialization the xoshiro authors
/// recommend).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded `xoshiro256**` generator.
///
/// ```
/// use aggsky_datagen::Rng64;
///
/// let mut a = Rng64::new(42);
/// let mut b = Rng64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.f64();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed (any value, including 0).
    pub fn new(seed: u64) -> Rng64 {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Rng64 { s }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` built from the top 53 bits.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `usize` in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift reduction; the modulo bias is at most
    /// `n / 2^64`, negligible for the workload sizes involved.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// A uniform value in the inclusive integer range `[lo, hi]`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + (((self.next_u64() as u128) * ((hi - lo + 1) as u128)) >> 64) as u64
    }

    /// A bool that is `true` with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector_matches_xoshiro256starstar() {
        // State {1, 2, 3, 4} is the canonical test vector for xoshiro256**.
        let mut rng = Rng64 { s: [1, 2, 3, 4] };
        let expected: [u64; 8] = [
            11520,
            0,
            1509978240,
            1215971899390074240,
            1216172134540287360,
            607988272756665600,
            16172922978634559625,
            8476171486693032832,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Rng64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng64::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn f64_stays_in_unit_interval_and_covers_it() {
        let mut rng = Rng64::new(123);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor coverage: [{lo}, {hi}]");
    }

    #[test]
    fn index_is_roughly_uniform() {
        let mut rng = Rng64::new(5);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.index(10)] += 1;
        }
        for &c in &counts {
            assert!((8_500..11_500).contains(&c), "skewed: {counts:?}");
        }
    }

    #[test]
    fn range_is_inclusive() {
        let mut rng = Rng64::new(9);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..1_000 {
            let v = rng.range_u64(3, 6);
            assert!((3..=6).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 6;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn index_rejects_empty_range() {
        Rng64::new(0).index(0);
    }
}
