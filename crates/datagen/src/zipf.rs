//! A small Zipf sampler (no external distribution crate needed).

use crate::rng::Rng64;

/// Samples ranks `1..=n` with probability proportional to `1 / rank^s`.
///
/// Built on a precomputed CDF with binary search, so sampling is
/// `O(log n)` after `O(n)` setup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a sampler over `1..=n` with exponent `s ≥ 0`.
    /// `s = 0` degenerates to the uniform distribution.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "support must be non-empty");
        assert!(
            aggsky_core::ord::ge(s, 0.0) && s.is_finite(),
            "exponent must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draws one rank in `1..=n`.
    pub fn sample(&self, rng: &mut Rng64) -> usize {
        let u: f64 = rng.f64();
        match self.cdf.binary_search_by(|p| aggsky_core::ord::cmp(*p, u)) {
            Ok(i) | Err(i) => (i + 1).min(self.cdf.len()),
        }
    }

    /// Splits `total` items into `parts` group sizes following a Zipf law
    /// with exponent `s`: size of group `k` ∝ `1/(k+1)^s`, with every group
    /// getting at least one item. The sizes are returned largest-first.
    pub fn partition(total: usize, parts: usize, s: f64) -> Vec<usize> {
        assert!(parts > 0 && total >= parts, "need at least one item per group");
        let weights: Vec<f64> = (1..=parts).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let wsum: f64 = weights.iter().sum();
        let spare = total - parts;
        let mut sizes: Vec<usize> = weights
            .iter()
            .map(|w| 1 + aggsky_core::num::floor_usize(w / wsum * spare as f64))
            .collect();
        // Distribute the rounding remainder to the largest groups.
        let mut assigned: usize = sizes.iter().sum();
        let mut k = 0;
        while assigned < total {
            if let Some(size) = sizes.get_mut(k % parts) {
                *size += 1;
            }
            assigned += 1;
            k += 1;
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_when_exponent_zero() {
        let z = Zipf::new(4, 0.0);
        let mut rng = Rng64::new(1);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng) - 1] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    #[test]
    fn rank_one_is_most_frequent() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng64::new(2);
        let mut counts = vec![0usize; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng) - 1] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[49], "{:?}", &counts[..10]);
        // Zipf(1): p(1)/p(2) = 2.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn partition_conserves_total_and_minimum() {
        for (total, parts, s) in [(1000, 10, 1.0), (57, 57, 2.0), (10_000, 100, 0.8)] {
            let sizes = Zipf::partition(total, parts, s);
            assert_eq!(sizes.len(), parts);
            assert_eq!(sizes.iter().sum::<usize>(), total);
            assert!(sizes.iter().all(|&x| x >= 1));
            // Largest-first (non-increasing within rounding slack of 1).
            for w in sizes.windows(2) {
                assert!(w[0] + 1 >= w[1], "not roughly sorted: {sizes:?}");
            }
        }
    }

    #[test]
    fn partition_is_skewed_for_large_exponent() {
        let sizes = Zipf::partition(1000, 10, 1.5);
        assert!(sizes[0] > 300, "head group too small: {sizes:?}");
        assert!(sizes[9] < 50, "tail group too large: {sizes:?}");
    }
}
