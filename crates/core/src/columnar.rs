//! Columnar bitmask kernel for straddling block pairs.
//!
//! A straddling block pair cannot be classified from its block corners, so
//! [`crate::kernel`] compares its records. Testing one record pair at a
//! time with an early-exit `dominates` call would be a branchy loop whose
//! trip count depends on the data; this module instead runs a
//! branch-reduced lane kernel over the structure-of-arrays key lanes of the
//! [`crate::prepared::PreparedDataset`]:
//!
//! For one probe record `r₁` against a block `B` of up to 64 records, the
//! kernel computes per-lane comparison bitmasks (bit `j` describes record
//! `j` of the block) and combines them with the coordinate-sum lane:
//!
//! * backward (`B`'s records dominating `r₁`):
//!   `AND_d (lane_d ≥ r₁[d])  &  (sum_lane > Σr₁)`
//! * forward (`r₁` dominating `B`'s records):
//!   `AND_d (lane_d ≤ r₁[d])  &  (sum_lane < Σr₁)`
//!
//! The sum term replaces the "∃ strict" clause of Definition 1: a record
//! that is coordinate-wise `≥` another with a strictly larger sum must be
//! strictly larger somewhere, and dominance always implies a strictly
//! larger sum. The sum masks also decide which pairs are tested at all: a
//! probe can only be dominated by records of strictly larger sum and only
//! dominate records of strictly smaller sum, so each probe is charged the
//! popcounts of its sum masks in `records_compared` / `record_pairs` (a
//! charge `tests/columnar_differential.rs` pins against a count taken from
//! the block views alone), and the dominance popcounts add to
//! `n12`/`n21`.
//!
//! All comparisons run in the integer key space of
//! [`crate::dominance::sort_key`], where they agree exactly with the
//! sanctioned [`crate::ord`] total order (rule L2 is moot: there is no
//! float comparison here to misorder). The entry point monomorphizes the
//! dimension for d = 2..=8 via a `const D: usize` fast path, with a dynamic
//! fallback for d = 1 and d ≥ 9.

use crate::paircount::Counter;
use crate::prepared::LaneBlock;
use crate::stats::Stats;

/// Counts the dominating pairs of one straddling block pair, probe block
/// `a` against lane block `b`, in the directions flagged possible. The AVX2
/// twin in [`crate::simd`] makes identical `Counter` and [`Stats`]
/// updates.
pub(crate) fn straddle_lanes(
    dim: usize,
    a: &LaneBlock<'_>,
    b: &LaneBlock<'_>,
    fwd: bool,
    bwd: bool,
    counter: &mut Counter,
    stats: &mut Stats,
) {
    match dim {
        2 => straddle_fixed::<2>(a, b, fwd, bwd, counter, stats),
        3 => straddle_fixed::<3>(a, b, fwd, bwd, counter, stats),
        4 => straddle_fixed::<4>(a, b, fwd, bwd, counter, stats),
        5 => straddle_fixed::<5>(a, b, fwd, bwd, counter, stats),
        6 => straddle_fixed::<6>(a, b, fwd, bwd, counter, stats),
        7 => straddle_fixed::<7>(a, b, fwd, bwd, counter, stats),
        8 => straddle_fixed::<8>(a, b, fwd, bwd, counter, stats),
        _ => straddle_impl(dim, a, b, fwd, bwd, counter, stats),
    }
}

/// Monomorphization shim: `straddle_impl` is `#[inline(always)]`, so each
/// instantiation specializes the per-dimension loop to a compile-time trip
/// count the optimizer fully unrolls and vectorizes.
fn straddle_fixed<const D: usize>(
    a: &LaneBlock<'_>,
    b: &LaneBlock<'_>,
    fwd: bool,
    bwd: bool,
    counter: &mut Counter,
    stats: &mut Stats,
) {
    straddle_impl(D, a, b, fwd, bwd, counter, stats);
}

/// Builds the bitmask of block-`b` records whose lane-`d` key satisfies
/// `cmp` against the probe key. Branch-free: the comparison result is
/// widened and shifted into place, which LLVM turns into a vector compare
/// plus movemask on targets that have one.
#[inline(always)]
fn lane_mask(lane: &[i64], probe: i64, cmp: impl Fn(i64, i64) -> bool) -> u64 {
    let mut m = 0u64;
    for (j, &v) in lane.iter().enumerate() {
        m |= u64::from(cmp(v, probe)) << j;
    }
    m
}

/// Mask with the low `n` bits set (`n` may be 64).
#[inline(always)]
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        !0
    } else {
        (1u64 << n) - 1
    }
}

#[inline(always)]
fn straddle_impl(
    dim: usize,
    a: &LaneBlock<'_>,
    b: &LaneBlock<'_>,
    fwd: bool,
    bwd: bool,
    counter: &mut Counter,
    stats: &mut Stats,
) {
    let valid = b.valid_mask();
    let a_sum = a.lane(dim);
    let b_sum = b.lane(dim);
    let width = b_sum.len();
    let mut n12 = 0u64;
    let mut n21 = 0u64;
    let mut tests = 0u64;
    // Both sum lanes are sorted descending (the prepared layout sorts each
    // group by descending coordinate sum, and the pad sentinel `i64::MIN`
    // sits at the tail), so the "sum strictly greater" candidates form a
    // prefix of `b` that only grows as the probe sum shrinks, and the
    // "strictly smaller" candidates a suffix that only grows. Two monotone
    // cursors deliver both masks in amortized O(1) per probe, where a
    // binary search per probe would pay O(log k).
    let mut p = 0usize; // b-records with sum >  s1
    let mut q = 0usize; // b-records with sum >= s1
    for i in 0..a.len {
        let s1 = a_sum[i];
        debug_assert!(i == 0 || a_sum[i - 1] >= s1, "probe sums must be descending");
        if bwd {
            while p < width && b_sum[p] > s1 {
                p += 1;
            }
            let sum_gt = low_bits(p) & valid;
            tests += u64::from(sum_gt.count_ones());
            // With no sum-qualified candidate the coordinate lanes are
            // skipped outright.
            if sum_gt != 0 {
                let mut all_ge = sum_gt;
                for d in 0..dim {
                    all_ge &= lane_mask(b.lane(d), a.lane(d)[i], |v, k| v >= k);
                }
                n21 += u64::from(all_ge.count_ones());
            }
        }
        if fwd {
            while q < width && b_sum[q] >= s1 {
                q += 1;
            }
            let sum_lt = !low_bits(q) & valid;
            tests += u64::from(sum_lt.count_ones());
            if sum_lt != 0 {
                let mut all_le = sum_lt;
                for d in 0..dim {
                    all_le &= lane_mask(b.lane(d), a.lane(d)[i], |v, k| v <= k);
                }
                n12 += u64::from(all_le.count_ones());
            }
        }
    }
    counter.n12 += n12;
    counter.n21 += n21;
    stats.records_compared += tests;
    stats.record_pairs += tests;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::{dominates_keys, sort_key};
    use crate::gamma::Gamma;
    use crate::paircount::PairOptions;
    use crate::prepared::PreparedDataset;
    use crate::testdata::random_dataset;

    /// The lane kernel's popcount tallies equal a scalar key-space count
    /// over the same blocks, for every dimension crossing the
    /// monomorphization boundary.
    #[test]
    fn lane_kernel_matches_scalar_key_count() {
        for dim in [1usize, 2, 5, 8, 9] {
            let ds = random_dataset(4, 11, dim, 7 + dim as u64);
            let prep = PreparedDataset::build(&ds, 5).unwrap();
            for g1 in 0..ds.n_groups() {
                for g2 in 0..ds.n_groups() {
                    if g1 == g2 {
                        continue;
                    }
                    for ba in 0..prep.n_blocks(g1) {
                        for bb in 0..prep.n_blocks(g2) {
                            let la = prep.lane_block(g1, ba);
                            let lb = prep.lane_block(g2, bb);
                            let opts = PairOptions::default();
                            let total = crate::num::pair_product(la.len, lb.len);
                            let mut counter = Counter::new(total, Gamma::DEFAULT, opts);
                            let mut stats = Stats::default();
                            straddle_lanes(dim, &la, &lb, true, true, &mut counter, &mut stats);

                            // Scalar reference in the same key space.
                            let key_row = |l: &LaneBlock<'_>, i: usize| -> Vec<i64> {
                                (0..dim).map(|d| l.lane(d)[i]).collect()
                            };
                            let mut n12 = 0u64;
                            let mut n21 = 0u64;
                            for i in 0..la.len {
                                let r1 = key_row(&la, i);
                                for j in 0..lb.len {
                                    let r2 = key_row(&lb, j);
                                    if dominates_keys(&r1, &r2) {
                                        n12 += 1;
                                    }
                                    if dominates_keys(&r2, &r1) {
                                        n21 += 1;
                                    }
                                }
                            }
                            assert_eq!(
                                (counter.n12, counter.n21),
                                (n12, n21),
                                "dim={dim} {g1}v{g2} blocks {ba}/{bb}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Sentinel padding alone (ignoring the valid mask) can neither
    /// dominate nor be dominated for d ≥ 2: the pad key vector loses to
    /// everything in lane 0 going one way and in lanes 1.. the other. (For
    /// d = 1 the coordinate sentinel only blocks one direction; the
    /// `i64::MIN` *sum-lane* sentinel blocks the other, which the
    /// `lane_kernel_matches_scalar_key_count` dim = 1 case exercises on
    /// real padded blocks.)
    #[test]
    fn sentinel_pad_is_incomparable() {
        for dim in [2usize, 4, 8] {
            let mut pad = vec![i64::MIN; dim];
            pad[0] = i64::MAX;
            let real: Vec<i64> = (0..dim).map(|d| sort_key(d as f64 + 1.0)).collect();
            assert!(!dominates_keys(&pad, &real), "dim={dim}");
            assert!(!dominates_keys(&real, &pad), "dim={dim}");
        }
    }
}
