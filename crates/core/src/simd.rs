//! AVX2 straddle kernel: the hand-vectorized twin of [`crate::columnar`].
//!
//! The scalar columnar kernel already expresses one probe record against a
//! whole block as `u64` bitmasks; this module computes the same masks four
//! 64-bit lane elements per instruction with `std::arch` AVX2 intrinsics,
//! selected at runtime by [`crate::cpu::simd_active`]. The scalar path stays
//! as the differential oracle: verdicts, `n12`/`n21` tallies, and every
//! [`Stats`] charge are **bit-identical** (pinned by
//! `tests/simd_differential.rs`), so SIMD dispatch can never change a
//! result, only how fast it is produced.
//!
//! # Lane → vector mapping
//!
//! [`crate::prepared::PreparedDataset`] pads every key lane to
//! [`crate::prepared::LANE_VECTOR`] elements, so lane `d` of a block is an
//! exact sequence of `width / 4` unaligned `__m256i` loads; bit `j` of a
//! mask word corresponds to record `j`, and each `_mm256_movemask_pd` of a
//! compare result contributes four mask bits at offset `4·v`. Per probe:
//!
//! * the **sum masks** come from the two monotone cursors of the scalar
//!   kernel. Both sum lanes are sorted descending, so the block records
//!   with a strictly larger sum than the probe are a prefix `0..p` and
//!   those with a strictly smaller sum a suffix `q..len`, and both cursors
//!   only advance as the probe sum shrinks. The masks are the scalar
//!   kernel's bit for bit, which is why the `records_compared` /
//!   `record_pairs` popcount charges match;
//! * the **coordinate lanes** are loaded only for the chunks those masks
//!   touch: chunks `0..⌈p/4⌉` backward and `⌊q/4⌋..⌈len/4⌉` forward. Per
//!   chunk, one compare per dimension finds the records that *violate*
//!   dominance (backward: the probe key is greater, `cmpgt(k, v)`, since
//!   `v ≥ k ⟺ ¬(k > v)`; forward: the record key is greater), the compares
//!   are OR-folded, and one movemask per chunk extracts the violation
//!   bits. The dominating pairs are the sum mask minus the violations.
//!
//! Block pairs whose sum ranges rule a direction out need no shortcut
//! here: the caller (`kernel::run_blocks_from`) already drops such a
//! direction, and within a direction an empty cursor range loads nothing.
//!
//! # One instantiation per dimension
//!
//! `straddle_avx2::<D>` is its own `#[target_feature(enable =
//! "avx2,popcnt")]` function for every `D` in 1..=8: the dimension loop has
//! a compile-time trip count, so it unrolls and the probe-key broadcasts
//! hoist out of the chunk loops, and `count_ones` lowers to `popcnt`.
//! Dimensions above 8 run the same body as `D = RUNTIME_DIM`, which reads
//! the dimension at runtime.
//!
//! # Safety
//!
//! This is the workspace's only sanctioned `unsafe` module (lint rule L7;
//! every `unsafe` token is line-pinned in `lint-allowlist.txt`). The
//! argument, in full (DESIGN.md §13):
//!
//! * **Feature availability** — the kernels are only reached through
//!   `straddle_lanes_simd`, whose callers gate on
//!   [`crate::cpu::simd_active`]: a runtime `is_x86_feature_detected!` of
//!   both AVX2 and POPCNT, the two features every instantiation is compiled
//!   for. No `#[target_feature]` function runs on a CPU without them.
//! * **In-bounds loads** — slicing each block's sum lane (`lane(dim)`)
//!   bounds-checks `keys.len() ≥ (dim + 1) · width`, and the kernel
//!   asserts that `b`'s `width` is a multiple of 4
//!   ([`crate::prepared::LANE_VECTOR`]) with `b.len ≤ width`. Both cursors
//!   stay at most `width` and the forward range ends at `⌈len/4⌉`, so every
//!   loaded chunk `v` satisfies `v < width / 4`, and the 32-byte load at
//!   `d · width + 4·v` with `d < dim` reads entirely inside one coordinate
//!   lane. Probe reads at `d · a.width + i` have `d < dim` and
//!   `i < a.width`, because the probe loop runs over `a`'s sum lane.
//! * **Alignment & validity** — `_mm256_loadu_si256` is the unaligned load;
//!   `i64` has no invalid bit patterns, and the pad slots are initialized
//!   sentinels, so reading them is defined (their mask bits are discarded
//!   by `valid_mask`, exactly as in the scalar kernel).

use crate::paircount::Counter;
use crate::prepared::LaneBlock;
use crate::stats::Stats;

/// The `D` of the instantiation that reads the dimension at runtime
/// (d > 8).
#[cfg(target_arch = "x86_64")]
const RUNTIME_DIM: usize = 0;

/// Counts the dominating pairs of one straddling block pair with the AVX2
/// kernel. Exact drop-in for the scalar [`crate::columnar::straddle_lanes`]:
/// identical `Counter` and [`Stats`] updates.
///
/// Callers must have checked [`crate::cpu::simd_active`]; on a non-x86-64
/// target this delegates to the scalar kernel (and is never selected by the
/// dispatcher anyway).
#[cfg(target_arch = "x86_64")]
pub(crate) fn straddle_lanes_simd(
    dim: usize,
    a: &LaneBlock<'_>,
    b: &LaneBlock<'_>,
    fwd: bool,
    bwd: bool,
    counter: &mut Counter,
    stats: &mut Stats,
) {
    debug_assert!(crate::cpu::simd_supported(), "SIMD kernel selected without AVX2 and POPCNT");
    // SAFETY: AVX2 and POPCNT are available — the dispatcher (and the debug
    // assertion above) gates on `cpu::simd_active()`, which wraps
    // `is_x86_feature_detected!` of both. See the module-level safety notes
    // for the in-bounds argument of every load inside.
    unsafe {
        match dim {
            1 => straddle_avx2::<1>(dim, a, b, fwd, bwd, counter, stats),
            2 => straddle_avx2::<2>(dim, a, b, fwd, bwd, counter, stats),
            3 => straddle_avx2::<3>(dim, a, b, fwd, bwd, counter, stats),
            4 => straddle_avx2::<4>(dim, a, b, fwd, bwd, counter, stats),
            5 => straddle_avx2::<5>(dim, a, b, fwd, bwd, counter, stats),
            6 => straddle_avx2::<6>(dim, a, b, fwd, bwd, counter, stats),
            7 => straddle_avx2::<7>(dim, a, b, fwd, bwd, counter, stats),
            8 => straddle_avx2::<8>(dim, a, b, fwd, bwd, counter, stats),
            _ => straddle_avx2::<RUNTIME_DIM>(dim, a, b, fwd, bwd, counter, stats),
        }
    }
}

/// Non-x86-64 stub: the dispatcher never selects SIMD here
/// ([`crate::cpu::simd_supported`] is `false`), but the symbol keeps the
/// call graph target-independent.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn straddle_lanes_simd(
    dim: usize,
    a: &LaneBlock<'_>,
    b: &LaneBlock<'_>,
    fwd: bool,
    bwd: bool,
    counter: &mut Counter,
    stats: &mut Stats,
) {
    crate::columnar::straddle_lanes(dim, a, b, fwd, bwd, counter, stats);
}

/// Mask with the low `n` bits set (`n` may be 64).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        !0
    } else {
        (1u64 << n) - 1
    }
}

/// The vector kernel proper, one function per dimension `D` (or the
/// runtime `dim` when `D == RUNTIME_DIM`).
///
/// # Safety
///
/// The CPU must support AVX2 and POPCNT. Everything else the loads rely on
/// is checked here: the sum-lane slices bound both blocks' keys, the probe
/// loop runs over `a`'s sum lane, and `b`'s stride and length are asserted.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn straddle_avx2<const D: usize>(
    dim: usize,
    a: &LaneBlock<'_>,
    b: &LaneBlock<'_>,
    fwd: bool,
    bwd: bool,
    counter: &mut Counter,
    stats: &mut Stats,
) {
    use crate::num::movemask4;
    use crate::prepared::LANE_VECTOR;
    use std::arch::x86_64::{
        __m256i, _mm256_castsi256_pd, _mm256_cmpgt_epi64, _mm256_loadu_si256, _mm256_movemask_pd,
        _mm256_or_si256, _mm256_set1_epi64x, _mm256_setzero_si256,
    };

    debug_assert!(D == RUNTIME_DIM || D == dim, "instantiation {D} run at d={dim}");
    let dim = if D == RUNTIME_DIM { dim } else { D };
    let valid = b.valid_mask();
    let a_sum = a.lane(dim);
    let b_sum = b.lane(dim);
    let width = b.width;
    // The chunk loads stay inside `b`'s lanes only with whole vectors per
    // lane and every live record inside the stride; `LaneBlock`'s fields
    // are public, so this is checked rather than assumed.
    assert!(
        width.is_multiple_of(LANE_VECTOR) && b.len <= width,
        "lane stride not padded to whole vectors"
    );
    debug_assert!(a.len >= 1 && b.len >= 1, "blocks are never empty");
    debug_assert_eq!(b.keys.len(), (dim + 1) * width, "lane block shorter than its lanes");
    // Chunks holding at least one live record: the forward range ends here.
    let live_chunks = b.len.div_ceil(LANE_VECTOR);
    let a_keys = a.keys.as_ptr();
    let a_width = a.width;
    let b_keys = b.keys.as_ptr();

    let mut n12 = 0u64;
    let mut n21 = 0u64;
    let mut tests = 0u64;
    let mut p = 0usize; // b-records with sum >  s1 (the scalar kernel's `p`)
    let mut q = 0usize; // b-records with sum >= s1 (the scalar kernel's `q`)
    for (i, &s1) in a_sum.iter().enumerate().take(a.len) {
        debug_assert!(i == 0 || a_sum[i - 1] >= s1, "probe sums must be descending");
        if bwd {
            while p < width && b_sum[p] > s1 {
                p += 1;
            }
            let sum_gt = low_bits(p) & valid;
            tests += u64::from(sum_gt.count_ones());
            // Candidates sit in chunks 0..⌈p/4⌉; a record is out once some
            // probe key exceeds its key.
            let mut viol = 0u64;
            for v in 0..p.div_ceil(LANE_VECTOR) {
                let at = v * LANE_VECTOR;
                let mut gt = _mm256_setzero_si256();
                for d in 0..dim {
                    let key = _mm256_set1_epi64x(*a_keys.add(d * a_width + i));
                    let lane = _mm256_loadu_si256(b_keys.add(d * width + at) as *const __m256i);
                    gt = _mm256_or_si256(gt, _mm256_cmpgt_epi64(key, lane));
                }
                viol |= movemask4(_mm256_movemask_pd(_mm256_castsi256_pd(gt))) << at;
            }
            n21 += u64::from((sum_gt & !viol).count_ones());
        }
        if fwd {
            while q < width && b_sum[q] >= s1 {
                q += 1;
            }
            let sum_lt = !low_bits(q) & valid;
            tests += u64::from(sum_lt.count_ones());
            // Candidates sit in chunks ⌊q/4⌋..⌈len/4⌉; a record is out once
            // one of its keys exceeds the probe's.
            let mut viol = 0u64;
            for v in q / LANE_VECTOR..live_chunks {
                let at = v * LANE_VECTOR;
                let mut gt = _mm256_setzero_si256();
                for d in 0..dim {
                    let key = _mm256_set1_epi64x(*a_keys.add(d * a_width + i));
                    let lane = _mm256_loadu_si256(b_keys.add(d * width + at) as *const __m256i);
                    gt = _mm256_or_si256(gt, _mm256_cmpgt_epi64(lane, key));
                }
                viol |= movemask4(_mm256_movemask_pd(_mm256_castsi256_pd(gt))) << at;
            }
            n12 += u64::from((sum_lt & !viol).count_ones());
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
    use crate::gamma::Gamma;
    use crate::paircount::PairOptions;
    use crate::prepared::PreparedDataset;
    use crate::testdata::random_dataset;

    /// Module-level differential: the SIMD kernel's tallies and work charges
    /// equal the scalar columnar kernel's on every block pair, for every
    /// `const D` instantiation and the runtime-dimension fallback. (The workspace suite in
    /// `tests/simd_differential.rs` extends this to verdicts, all
    /// `PairOptions`, and whole algorithm runs.)
    #[test]
    fn simd_matches_scalar_on_every_block_pair() {
        if !crate::cpu::simd_active() {
            eprintln!("skipping: AVX2/POPCNT unavailable or AGGSKY_FORCE_SCALAR set");
            return;
        }
        for dim in 1usize..=9 {
            let ds = random_dataset(4, 11, dim, 7 + dim as u64);
            for block_size in [1usize, 7, 13, PreparedDataset::DEFAULT_BLOCK_SIZE, 64] {
                let prep = PreparedDataset::build(&ds, block_size).unwrap();
                for g1 in 0..ds.n_groups() {
                    for g2 in 0..ds.n_groups() {
                        if g1 == g2 {
                            continue;
                        }
                        for ba in 0..prep.n_blocks(g1) {
                            for bb in 0..prep.n_blocks(g2) {
                                let la = prep.lane_block(g1, ba);
                                let lb = prep.lane_block(g2, bb);
                                for (f, w) in [(true, true), (true, false), (false, true)] {
                                    let opts = PairOptions::default();
                                    let total = crate::num::pair_product(la.len, lb.len);
                                    let mut c_simd = Counter::new(total, Gamma::DEFAULT, opts);
                                    let mut c_ref = Counter::new(total, Gamma::DEFAULT, opts);
                                    let mut s_simd = Stats::default();
                                    let mut s_ref = Stats::default();
                                    straddle_lanes_simd(
                                        dim,
                                        &la,
                                        &lb,
                                        f,
                                        w,
                                        &mut c_simd,
                                        &mut s_simd,
                                    );
                                    crate::columnar::straddle_lanes(
                                        dim, &la, &lb, f, w, &mut c_ref, &mut s_ref,
                                    );
                                    let tag = format!(
                                        "dim={dim} bs={block_size} {g1}v{g2} blocks {ba}/{bb} \
                                         fwd={f} bwd={w}"
                                    );
                                    assert_eq!(
                                        (c_simd.n12, c_simd.n21),
                                        (c_ref.n12, c_ref.n21),
                                        "{tag}"
                                    );
                                    assert_eq!(s_simd, s_ref, "stats drift: {tag}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
