//! A dependency-free log-linear quantile sketch with a proven relative
//! error bound: the one type every distribution of [`crate::metrics`] is
//! stored as.
//!
//! A log2 histogram answers "which power-of-two bucket" — a factor-of-two
//! error band that is too coarse for tail-latency questions (p95/p99 of
//! batch sizes, straddle pair costs, per-query ticks). This sketch keeps
//! the fixed-bucket, integer-only, allocation-free design but subdivides
//! every binary octave into `2^LINEAR_BITS = 16` linear sub-buckets:
//!
//! * values `0 ≤ v < 32` land in an exact bucket (error 0);
//! * a value `v ≥ 32` with `e` = index of its leading bit lands in the
//!   sub-bucket addressed by the 4 bits below the leading bit. The bucket
//!   spans `2^(e-4)` consecutive integers and every member is at least
//!   `2^e`, so reporting the bucket midpoint is off by at most
//!   `2^(e-5) / 2^e = 1/32 ≈ 3.1%` — comfortably inside the ≤10% contract
//!   (verified against exact quantiles by a seeded test).
//!
//! Every bucket lies inside one binary octave, so the log2 histogram of
//! the same observations is a view derived from the sketch exactly.
//!
//! Sketches merge bucket-wise (associative, commutative, count-conserving)
//! so per-worker sketches combine exactly like `Stats`. All arithmetic is
//! integer and deterministic: same observations → same quantiles, byte for
//! byte, on every platform.

/// Sub-bucket resolution: each binary octave is split into
/// `2^SKETCH_LINEAR_BITS` linear sub-buckets.
pub const SKETCH_LINEAR_BITS: u32 = 4;

/// `2^SKETCH_LINEAR_BITS`, as a bucket count.
const SUB_BUCKETS: usize = 16;

/// Values below this are stored exactly (one bucket per integer):
/// `2^(SKETCH_LINEAR_BITS + 1)`.
const EXACT_LIMIT: u64 = 32;

/// [`EXACT_LIMIT`] as a bucket count.
const EXACT_BUCKETS: usize = 32;

/// Octaves covered by the log-linear region: leading-bit positions
/// `SKETCH_LINEAR_BITS + 1 ..= 63`.
const OCTAVES: usize = 59;

/// Total bucket count: one per exact small value plus 16 per octave.
pub const SKETCH_BUCKETS: usize = EXACT_BUCKETS + OCTAVES * SUB_BUCKETS;

/// Bucket index of `value`.
pub fn sketch_bucket_of(value: u64) -> usize {
    if value < EXACT_LIMIT {
        return usize::try_from(value).unwrap_or(0);
    }
    // Leading-bit position; value ≥ 32 ⇒ e ≥ 5, so e - SKETCH_LINEAR_BITS
    // never underflows.
    let e = 63u32.saturating_sub(value.leading_zeros());
    let sub = (value >> (e - SKETCH_LINEAR_BITS)) & ((1u64 << SKETCH_LINEAR_BITS) - 1);
    let octave = usize::try_from(e.saturating_sub(SKETCH_LINEAR_BITS + 1)).unwrap_or(0);
    let idx = EXACT_BUCKETS + octave * SUB_BUCKETS + usize::try_from(sub).unwrap_or(0);
    idx.min(SKETCH_BUCKETS - 1)
}

/// Midpoint representative of bucket `i` — the value reported for any
/// observation that landed there. For exact buckets this is the value
/// itself; for log-linear buckets the error is bounded by half the bucket
/// width, i.e. a relative error of at most `2^-(SKETCH_LINEAR_BITS + 1)`.
pub fn sketch_value_of(i: usize) -> u64 {
    if i < EXACT_BUCKETS {
        return u64::try_from(i).unwrap_or(0);
    }
    let o = i - EXACT_BUCKETS;
    let e = (SKETCH_LINEAR_BITS + 1 + u32::try_from(o / SUB_BUCKETS).unwrap_or(0)).min(63);
    let sub = u64::try_from(o % SUB_BUCKETS).unwrap_or(0);
    let width = 1u64 << (e - SKETCH_LINEAR_BITS);
    let lo = (1u64 << e).saturating_add(sub.saturating_mul(width));
    lo.saturating_add(width / 2)
}

/// A mergeable point-in-time quantile sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchSnapshot {
    /// Per-bucket observation counts (see [`sketch_bucket_of`]).
    pub buckets: [u64; SKETCH_BUCKETS],
    /// Total number of observations.
    pub count: u64,
    /// Saturating sum of all observed values.
    pub sum: u64,
    /// Exact maximum observed value (0 when empty).
    pub max: u64,
}

impl Default for SketchSnapshot {
    fn default() -> SketchSnapshot {
        SketchSnapshot::EMPTY
    }
}

impl SketchSnapshot {
    /// The sketch of no observations.
    pub const EMPTY: SketchSnapshot =
        SketchSnapshot { buckets: [0; SKETCH_BUCKETS], count: 0, sum: 0, max: 0 };

    /// Records one value.
    pub fn observe(&mut self, value: u64) {
        if let Some(b) = self.buckets.get_mut(sketch_bucket_of(value)) {
            *b = b.saturating_add(1);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Adds `other` into `self` bucket-wise. Associative, commutative, and
    /// count-conserving, so per-worker sketches merge like `Stats`.
    pub fn merge(&mut self, other: &SketchSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The `q`-per-mille quantile (e.g. `500` → p50, `990` → p99): the
    /// representative of the bucket holding the ⌈count·q/1000⌉-th smallest
    /// observation, clamped to the exact maximum. `None` when empty.
    pub fn quantile(&self, q_permille: u64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let threshold = (u128::from(self.count) * u128::from(q_permille)).div_ceil(1000).max(1);
        let mut cum: u128 = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += u128::from(*b);
            if cum >= threshold {
                return Some(sketch_value_of(i).min(self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..EXACT_LIMIT {
            assert_eq!(sketch_bucket_of(v), usize::try_from(v).unwrap());
            assert_eq!(sketch_value_of(sketch_bucket_of(v)), v);
        }
    }

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut prev = 0usize;
        for v in [0u64, 1, 31, 32, 33, 47, 48, 100, 1000, 1 << 20, 1 << 40, u64::MAX] {
            let b = sketch_bucket_of(v);
            assert!(b < SKETCH_BUCKETS, "bucket {b} out of range for {v}");
            assert!(b >= prev, "bucket index decreased at {v}");
            prev = b;
        }
    }

    #[test]
    fn representative_error_is_bounded() {
        // The documented bound: |rep − v| ≤ v / 32 for every v.
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for probe in [v, v + v / 3, v + v / 2] {
                let rep = sketch_value_of(sketch_bucket_of(probe));
                let err = rep.abs_diff(probe);
                assert!(
                    err <= probe / 32 + 1,
                    "rep {rep} for {probe}: error {err} above bound {}",
                    probe / 32 + 1
                );
            }
            v = v.saturating_mul(2);
        }
    }

    #[test]
    fn quantiles_track_exact_values_within_ten_percent() {
        // Seeded skewed data: quadratic growth gives a long tail.
        let mut sk = SketchSnapshot::default();
        let mut exact: Vec<u64> = Vec::new();
        let mut x = 12345u64;
        for i in 0..5000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = (x >> 50) + i * i / 64;
            sk.observe(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [500u64, 950, 990, 1000] {
            let rank =
                usize::try_from((u128::from(sk.count) * u128::from(q)).div_ceil(1000).max(1) - 1)
                    .unwrap();
            let truth = exact[rank];
            let est = sk.quantile(q).unwrap();
            let err = est.abs_diff(truth);
            assert!(
                err * 10 <= truth.max(10),
                "p{q}: estimate {est} vs exact {truth} (error {err} > 10%)"
            );
        }
        assert!(sk.quantile(1000).unwrap() <= sk.max, "p100 clamped to the exact max");
    }

    #[test]
    fn merge_is_count_conserving_and_matches_combined() {
        let mut a = SketchSnapshot::default();
        let mut b = SketchSnapshot::default();
        let mut all = SketchSnapshot::default();
        for v in 0..1000u64 {
            let target = if v % 3 == 0 { &mut a } else { &mut b };
            target.observe(v * v);
            all.observe(v * v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all, "merge must equal observing the union");
        // Commutative.
        let mut rev = b.clone();
        rev.merge(&a);
        assert_eq!(rev, merged);
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let sk = SketchSnapshot::default();
        assert_eq!(sk.quantile(500), None);
        assert_eq!(sk.count, 0);
        assert_eq!(sk.max, 0);
    }
}
