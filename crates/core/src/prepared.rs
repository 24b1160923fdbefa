//! One-time preprocessing of a dataset for the block-at-a-time counting
//! kernel.
//!
//! [`PreparedDataset`] rewrites every group into *coordinate-sum descending*
//! order and cuts it into fixed-size blocks with precomputed bounding
//! corners. The invariant that makes both steps useful is that record
//! dominance implies a strictly larger coordinate sum:
//!
//! > if `r` dominates `s` then `Σ r[d] > Σ s[d]`
//!
//! (all coordinates are `≥` with at least one `>`, and the dataset is
//! normalized to MAX preference). Sorting by descending sum therefore puts
//! every record *before* all records it can possibly dominate, and two
//! records with equal sums can never dominate each other.
//!
//! The preparation is independent of γ and of any [`crate::PairOptions`]
//! tuning, so one `PreparedDataset` can be built once and shared by every
//! algorithm — and across threads — for any number of queries against the
//! same data. See [`crate::kernel`] for the counting loops that consume it.

use crate::dataset::{GroupId, GroupedDataset};
use crate::error::{Error, Result};
use crate::mbb::Mbb;

/// Largest block size a preparation accepts: one columnar key lane fits in
/// a `u64` bitmask, so the lane kernel can express "which records of this
/// block does the probe dominate" as a single word.
pub const MAX_LANE_BLOCK: usize = 64;

/// Number of `i64` elements per SIMD vector (`__m256i`). Key lanes are
/// padded to a multiple of this, so the AVX2 kernel ([`crate::simd`]) can
/// load every lane as whole unaligned vectors with no scalar tail; the pad
/// slots carry the same incomparable sentinels as block padding and are
/// masked off by [`LaneBlock::valid_mask`] either way.
pub const LANE_VECTOR: usize = 4;

/// A [`GroupedDataset`] preprocessed for block-at-a-time pair counting: per-group
/// records sorted by descending coordinate sum and partitioned into blocks
/// of at most [`block_size`](PreparedDataset::block_size) records, each with
/// its bounding corners.
///
/// Building is `O(n log n)` per group and touches every value once; the
/// result is plain data (no interior mutability), so a shared reference can
/// be used concurrently from many threads.
#[derive(Debug, Clone)]
pub struct PreparedDataset {
    dim: usize,
    block_size: usize,
    /// Row-major record values, each group's rows sorted by descending sum.
    values: Vec<f64>,
    /// Coordinate sum of each (sorted) record, parallel to the rows.
    sums: Vec<f64>,
    /// `offsets[g]..offsets[g+1]` is the row range of group `g`.
    offsets: Vec<usize>,
    /// `block_offsets[g]..block_offsets[g+1]` is the global block-index
    /// range of group `g`.
    block_offsets: Vec<usize>,
    /// Per-dimension minima of each block, `dim` values per block.
    block_min: Vec<f64>,
    /// Per-dimension maxima of each block, `dim` values per block.
    block_max: Vec<f64>,
    /// Group bounding boxes (identical to [`Mbb::of_all_groups`]), computed
    /// for free while scanning the blocks.
    mbbs: Vec<Mbb>,
    /// Columnar structure-of-arrays mirror of `values`, in the integer key
    /// space of [`crate::dominance::sort_key`]: per block, `dim + 1`
    /// contiguous lanes of `block_size` keys each (`dim` coordinate lanes
    /// followed by one coordinate-sum lane), padded to the block size with
    /// sentinels that can neither dominate nor be dominated.
    keys: Vec<i64>,
    /// Lane stride of `keys`: `block_size` rounded up to a multiple of
    /// [`LANE_VECTOR`] so the SIMD kernel loads whole vectors only.
    lane_width: usize,
}

/// Borrowed view of one record block of a [`PreparedDataset`].
///
/// Blocks are never empty; `sums` is sorted descending and parallel to the
/// rows of `rows`.
#[derive(Debug, Clone, Copy)]
pub struct BlockView<'a> {
    /// Per-dimension minima over the block's records (the block MBB's
    /// "worst" corner under MAX preference).
    pub min: &'a [f64],
    /// Per-dimension maxima over the block's records (the "best" corner).
    pub max: &'a [f64],
    /// The block's records, row-major (`len * dim` values).
    pub rows: &'a [f64],
    /// Coordinate sums of the block's records, descending.
    pub sums: &'a [f64],
}

impl BlockView<'_> {
    /// Number of records in the block (at least 1, at most the block size).
    #[inline]
    pub fn len(&self) -> usize {
        self.sums.len()
    }

    /// Blocks are never empty; provided for clippy's `len`/`is_empty` pairing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }
}

/// Borrowed view of one block's columnar key lanes.
///
/// `keys` holds `dim + 1` lanes of `width` integers each: lanes `0..dim`
/// are the coordinate keys ([`crate::dominance::sort_key`]) of the block's
/// records in sorted order, lane `dim` is the coordinate-sum key. Only the
/// first `len` slots of each lane are live; the rest (block-size padding of
/// a group's last block, plus the [`LANE_VECTOR`] stride rounding) is
/// padded with sentinels (`i64::MAX` in lane 0, `i64::MIN` elsewhere)
/// chosen so a padded slot can neither dominate nor be dominated — the
/// kernel additionally masks results with [`LaneBlock::valid_mask`], so the
/// sentinels are defense in depth rather than load-bearing.
#[derive(Debug, Clone, Copy)]
pub struct LaneBlock<'a> {
    /// `(dim + 1) * width` keys, lane-major.
    pub keys: &'a [i64],
    /// Lane stride: the preparation's block size rounded up to a multiple
    /// of [`LANE_VECTOR`] (at most [`MAX_LANE_BLOCK`], so one lane still
    /// fits a `u64` mask).
    pub width: usize,
    /// Number of live records in the block.
    pub len: usize,
}

impl<'a> LaneBlock<'a> {
    /// Coordinate lane `d` (`d == dim` yields the sum lane); `width` keys.
    #[inline]
    pub fn lane(&self, d: usize) -> &'a [i64] {
        &self.keys[d * self.width..(d + 1) * self.width]
    }

    /// Bitmask with one bit set per live record of the block.
    #[inline]
    pub fn valid_mask(&self) -> u64 {
        if self.len >= 64 {
            u64::MAX
        } else {
            (1u64 << self.len) - 1
        }
    }
}

impl PreparedDataset {
    /// Default number of records per block. The size trades two costs:
    /// smaller blocks have tighter corners, so the O(1) full / skip
    /// classification absorbs more record pairs, while every block pair
    /// pays a fixed cost (two block views, up to four corner tests, one
    /// straddle call). Once the AVX2 straddle kernel tests a record pair in
    /// about 1.2–1.5 ns, that fixed cost dominates at 8 records. On the
    /// benchmark's three kernel-bound workloads 16 beats 8 on all of them,
    /// and 24 only ties 16 on `sql-anti-overlap` (DESIGN.md §8 has the
    /// sweep).
    pub const DEFAULT_BLOCK_SIZE: usize = 16;

    /// Preprocesses `ds`: sorts each group by descending coordinate sum,
    /// materializes per-block bounding corners and the columnar key lanes
    /// the bitmask kernel reads.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if `block_size` is zero or above
    /// [`MAX_LANE_BLOCK`] (one lane must fit a `u64` bitmask).
    pub fn build(ds: &GroupedDataset, block_size: usize) -> Result<PreparedDataset> {
        if block_size == 0 {
            return Err(Error::InvalidArgument("block_size must be positive (got 0)".to_string()));
        }
        if block_size > MAX_LANE_BLOCK {
            return Err(Error::InvalidArgument(format!(
                "block_size {block_size} exceeds MAX_LANE_BLOCK ({MAX_LANE_BLOCK}); one lane \
                 must fit a u64 bitmask"
            )));
        }
        let dim = ds.dim();
        let n_groups = ds.n_groups();
        let mut values = Vec::with_capacity(ds.n_records() * dim);
        let mut sums = Vec::with_capacity(ds.n_records());
        let mut offsets = Vec::with_capacity(n_groups + 1);
        offsets.push(0);
        let mut block_offsets = Vec::with_capacity(n_groups + 1);
        block_offsets.push(0);
        let mut block_min = Vec::new();
        let mut block_max = Vec::new();
        let mut mbbs = Vec::with_capacity(n_groups);
        let mut order: Vec<(f64, usize)> = Vec::new();
        for g in ds.group_ids() {
            let mbb = append_sorted_group(
                ds,
                g,
                dim,
                block_size,
                &mut values,
                &mut sums,
                &mut block_min,
                &mut block_max,
                &mut order,
            );
            offsets.push(values.len() / dim);
            block_offsets.push(block_min.len() / dim);
            mbbs.push(mbb);
        }
        // Rounding the lane stride (not the block size) up to the vector
        // width keeps MAX_LANE_BLOCK intact: 64 is already a multiple of 4.
        let lane_width = block_size.next_multiple_of(LANE_VECTOR);
        let keys =
            build_lane_keys(dim, block_size, lane_width, &values, &sums, &offsets, &block_offsets);
        let prep = PreparedDataset {
            dim,
            block_size,
            values,
            sums,
            offsets,
            block_offsets,
            block_min,
            block_max,
            mbbs,
            keys,
            lane_width,
        };
        crate::invariants::check_prepared(ds, &prep);
        Ok(prep)
    }

    /// Rebuilds the preparation for `ds`, a dataset in which only the
    /// groups flagged in `dirty` changed since this preparation was built.
    /// Clean groups' sorted rows, block corners and columnar key lanes are
    /// copied wholesale; only dirty groups pay the `O(n log n)` sort and
    /// lane materialization — the epoch writer's fast path
    /// ([`crate::dynamic`] serving layer).
    ///
    /// A flagged-clean group whose length nonetheless differs from the
    /// preparation's is treated as dirty (defensive; the copy would be
    /// incoherent). Flagged-clean groups with *equal* length but different
    /// content are the caller's contract violation — caught by
    /// [`crate::invariants::check_prepared`] under the `invariants`
    /// feature, garbage-in-garbage-out otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] when `ds`'s group count or
    /// dimensionality differs from this preparation's, or when `dirty` is
    /// not one flag per group.
    pub fn rebuild_dirty(&self, ds: &GroupedDataset, dirty: &[bool]) -> Result<PreparedDataset> {
        if ds.n_groups() != self.n_groups() || ds.dim() != self.dim || dirty.len() != ds.n_groups()
        {
            return Err(Error::InvalidArgument(format!(
                "dirty rebuild shape mismatch: dataset has {} groups of dim {}, preparation \
                 has {} of dim {}, {} dirty flags",
                ds.n_groups(),
                ds.dim(),
                self.n_groups(),
                self.dim,
                dirty.len()
            )));
        }
        let dim = self.dim;
        let block_size = self.block_size;
        let mut values = Vec::with_capacity(ds.n_records() * dim);
        let mut sums = Vec::with_capacity(ds.n_records());
        let mut offsets = Vec::with_capacity(self.n_groups() + 1);
        offsets.push(0);
        let mut block_offsets = Vec::with_capacity(self.n_groups() + 1);
        block_offsets.push(0);
        let mut block_min = Vec::new();
        let mut block_max = Vec::new();
        let mut mbbs = Vec::with_capacity(self.n_groups());
        let mut order: Vec<(f64, usize)> = Vec::new();
        let mut rebuilt: Vec<bool> = Vec::with_capacity(self.n_groups());
        for g in ds.group_ids() {
            let clean = !dirty[g] && ds.group_len(g) == self.group_len(g);
            rebuilt.push(!clean);
            if clean {
                let (r0, r1) = (self.offsets[g], self.offsets[g + 1]);
                values.extend_from_slice(&self.values[r0 * dim..r1 * dim]);
                sums.extend_from_slice(&self.sums[r0..r1]);
                let (b0, b1) = (self.block_offsets[g], self.block_offsets[g + 1]);
                block_min.extend_from_slice(&self.block_min[b0 * dim..b1 * dim]);
                block_max.extend_from_slice(&self.block_max[b0 * dim..b1 * dim]);
                mbbs.push(self.mbbs[g].clone());
            } else {
                let mbb = append_sorted_group(
                    ds,
                    g,
                    dim,
                    block_size,
                    &mut values,
                    &mut sums,
                    &mut block_min,
                    &mut block_max,
                    &mut order,
                );
                mbbs.push(mbb);
            }
            offsets.push(values.len() / dim);
            block_offsets.push(block_min.len() / dim);
        }
        let stride = (dim + 1) * self.lane_width;
        let total_blocks = block_offsets[block_offsets.len() - 1];
        let mut keys = vec![0i64; total_blocks * stride];
        for g in ds.group_ids() {
            let dst = block_offsets[g] * stride..block_offsets[g + 1] * stride;
            if rebuilt[g] {
                fill_group_lanes(
                    &mut keys[dst],
                    dim,
                    block_size,
                    self.lane_width,
                    &values,
                    &sums,
                    offsets[g],
                    offsets[g + 1],
                );
            } else {
                let src = self.block_offsets[g] * stride..self.block_offsets[g + 1] * stride;
                keys[dst].copy_from_slice(&self.keys[src]);
            }
        }
        let prep = PreparedDataset {
            dim,
            block_size,
            values,
            sums,
            offsets,
            block_offsets,
            block_min,
            block_max,
            mbbs,
            keys,
            lane_width: self.lane_width,
        };
        crate::invariants::check_prepared(ds, &prep);
        Ok(prep)
    }

    /// Number of dimensions of every record.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Maximum number of records per block.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of groups.
    #[inline]
    pub fn n_groups(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of records.
    #[inline]
    pub fn n_records(&self) -> usize {
        self.offsets[self.offsets.len() - 1]
    }

    /// Number of records in group `g`.
    #[inline]
    pub fn group_len(&self, g: GroupId) -> usize {
        self.offsets[g + 1] - self.offsets[g]
    }

    /// Number of blocks of group `g` (`ceil(group_len / block_size)`).
    #[inline]
    pub fn n_blocks(&self, g: GroupId) -> usize {
        self.block_offsets[g + 1] - self.block_offsets[g]
    }

    /// Bounding box of group `g`.
    #[inline]
    pub fn mbb(&self, g: GroupId) -> &Mbb {
        &self.mbbs[g]
    }

    /// Bounding boxes of all groups, indexed by [`GroupId`]; identical to
    /// [`Mbb::of_all_groups`] on the source dataset.
    #[inline]
    pub fn mbbs(&self) -> &[Mbb] {
        &self.mbbs
    }

    /// Record `i` of group `g` **in sorted order** (not the source
    /// dataset's record order).
    #[inline]
    pub fn record(&self, g: GroupId, i: usize) -> &[f64] {
        let row = self.offsets[g] + i;
        debug_assert!(row < self.offsets[g + 1]);
        &self.values[row * self.dim..(row + 1) * self.dim]
    }

    /// Coordinate sums of group `g`'s records, descending.
    #[inline]
    pub fn group_sums(&self, g: GroupId) -> &[f64] {
        &self.sums[self.offsets[g]..self.offsets[g + 1]]
    }

    /// Columnar key lanes of block `b` (0-based within the group) of group
    /// `g`.
    #[inline]
    pub fn lane_block(&self, g: GroupId, b: usize) -> LaneBlock<'_> {
        let gb = self.block_offsets[g] + b;
        debug_assert!(gb < self.block_offsets[g + 1]);
        let start = self.offsets[g] + b * self.block_size;
        let end = (start + self.block_size).min(self.offsets[g + 1]);
        let stride = (self.dim + 1) * self.lane_width;
        LaneBlock {
            keys: &self.keys[gb * stride..(gb + 1) * stride],
            width: self.lane_width,
            len: end - start,
        }
    }

    /// Block `b` (0-based within the group) of group `g`.
    #[inline]
    pub fn block(&self, g: GroupId, b: usize) -> BlockView<'_> {
        let gb = self.block_offsets[g] + b;
        debug_assert!(gb < self.block_offsets[g + 1]);
        let start = self.offsets[g] + b * self.block_size;
        let end = (start + self.block_size).min(self.offsets[g + 1]);
        BlockView {
            min: &self.block_min[gb * self.dim..(gb + 1) * self.dim],
            max: &self.block_max[gb * self.dim..(gb + 1) * self.dim],
            rows: &self.values[start * self.dim..end * self.dim],
            sums: &self.sums[start..end],
        }
    }
}

/// Sorts group `g` of `ds` by descending coordinate sum and appends its
/// rows, sums and per-block bounding corners to the accumulators, returning
/// the group's bounding box. `order` is scratch reused across calls. Shared
/// by [`PreparedDataset::build`] (every group) and
/// [`PreparedDataset::rebuild_dirty`] (dirty groups only).
#[allow(clippy::too_many_arguments)]
fn append_sorted_group(
    ds: &GroupedDataset,
    g: GroupId,
    dim: usize,
    block_size: usize,
    values: &mut Vec<f64>,
    sums: &mut Vec<f64>,
    block_min: &mut Vec<f64>,
    block_max: &mut Vec<f64>,
    order: &mut Vec<(f64, usize)>,
) -> Mbb {
    order.clear();
    order.extend(ds.records(g).enumerate().map(|(i, r)| (r.iter().sum::<f64>(), i)));
    // Descending sum; ties broken by original index so the layout is
    // deterministic regardless of the sort implementation.
    order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let base = values.len();
    for &(s, i) in order.iter() {
        sums.push(s);
        values.extend_from_slice(ds.record(g, i));
    }
    let len = order.len();
    let rows = &values[base..];
    let mut g_min = vec![f64::INFINITY; dim];
    let mut g_max = vec![f64::NEG_INFINITY; dim];
    for start in (0..len).step_by(block_size) {
        let end = (start + block_size).min(len);
        let at = block_min.len();
        block_min.resize(at + dim, f64::INFINITY);
        block_max.resize(at + dim, f64::NEG_INFINITY);
        for r in rows[start * dim..end * dim].chunks_exact(dim) {
            for d in 0..dim {
                block_min[at + d] = block_min[at + d].min(r[d]);
                block_max[at + d] = block_max[at + d].max(r[d]);
            }
        }
        for d in 0..dim {
            g_min[d] = g_min[d].min(block_min[at + d]);
            g_max[d] = g_max[d].max(block_max[at + d]);
        }
    }
    Mbb { min: g_min, max: g_max }
}

/// Fills the columnar key lanes: for each block, `dim` coordinate lanes and
/// one sum lane of `lane_width` keys each (the block size rounded up to
/// [`LANE_VECTOR`]), live slots holding [`crate::dominance::sort_key`] of
/// the sorted rows, padded slots holding sentinels (`i64::MAX` in lane 0 so
/// a pad is never dominated, `i64::MIN` in every other lane — including the
/// sum lane, which by itself already prevents a pad from dominating,
/// covering the 1-dimensional case where no coordinate sentinel can do both
/// jobs at once). The stride-rounding pad past `block_size` carries the
/// same sentinel pattern as block padding.
fn build_lane_keys(
    dim: usize,
    block_size: usize,
    lane_width: usize,
    values: &[f64],
    sums: &[f64],
    offsets: &[usize],
    block_offsets: &[usize],
) -> Vec<i64> {
    debug_assert_eq!(lane_width % LANE_VECTOR, 0);
    debug_assert!(lane_width >= block_size);
    let stride = (dim + 1) * lane_width;
    let total_blocks = block_offsets[block_offsets.len() - 1];
    let mut keys = vec![0i64; total_blocks * stride];
    for g in 0..offsets.len() - 1 {
        fill_group_lanes(
            &mut keys[block_offsets[g] * stride..block_offsets[g + 1] * stride],
            dim,
            block_size,
            lane_width,
            values,
            sums,
            offsets[g],
            offsets[g + 1],
        );
    }
    keys
}

/// Fills one group's slice of the key-lane buffer (see [`build_lane_keys`]
/// for the layout). `g_start..g_end` is the group's row range into the
/// global `values`/`sums`; `keys` is exactly the group's
/// `n_blocks * (dim + 1) * lane_width` lane slots.
#[allow(clippy::too_many_arguments)]
fn fill_group_lanes(
    keys: &mut [i64],
    dim: usize,
    block_size: usize,
    lane_width: usize,
    values: &[f64],
    sums: &[f64],
    g_start: usize,
    g_end: usize,
) {
    let stride = (dim + 1) * lane_width;
    debug_assert_eq!(keys.len(), (g_end - g_start).div_ceil(block_size) * stride);
    for (b, start) in (g_start..g_end).step_by(block_size).enumerate() {
        let end = (start + block_size).min(g_end);
        let base = b * stride;
        for (j, row) in (start..end).enumerate() {
            for d in 0..dim {
                keys[base + d * lane_width + j] = crate::dominance::sort_key(values[row * dim + d]);
            }
            keys[base + dim * lane_width + j] = crate::dominance::sort_key(sums[row]);
        }
        for j in (end - start)..lane_width {
            keys[base + j] = i64::MAX;
            for d in 1..=dim {
                keys[base + d * lane_width + j] = i64::MIN;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::{movie_directors, random_dataset};

    #[test]
    fn sums_are_descending_within_each_group() {
        let ds = random_dataset(10, 9, 3, 77);
        let prep = PreparedDataset::build(&ds, 4).unwrap();
        for g in 0..prep.n_groups() {
            let sums = prep.group_sums(g);
            assert!(sums.windows(2).all(|w| w[0] >= w[1]), "group {g} not sorted");
            for (i, s) in sums.iter().enumerate() {
                let expect: f64 = prep.record(g, i).iter().sum();
                assert_eq!(*s, expect);
            }
        }
    }

    #[test]
    fn preparation_is_a_permutation_of_each_group() {
        let ds = movie_directors();
        let prep = PreparedDataset::build(&ds, 2).unwrap();
        for g in ds.group_ids() {
            let mut original: Vec<Vec<f64>> = ds.records(g).map(|r| r.to_vec()).collect();
            let mut prepared: Vec<Vec<f64>> =
                (0..prep.group_len(g)).map(|i| prep.record(g, i).to_vec()).collect();
            original.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prepared.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(original, prepared, "group {g}");
        }
    }

    #[test]
    fn group_mbbs_match_unprepared_computation() {
        let ds = random_dataset(12, 7, 4, 5);
        let prep = PreparedDataset::build(&ds, 3).unwrap();
        assert_eq!(prep.mbbs(), &Mbb::of_all_groups(&ds)[..]);
    }

    #[test]
    fn blocks_partition_each_group_and_bound_their_records() {
        let ds = random_dataset(8, 11, 3, 42);
        for block_size in [1, 2, 5, 64] {
            let prep = PreparedDataset::build(&ds, block_size).unwrap();
            for g in 0..prep.n_groups() {
                let len = prep.group_len(g);
                assert_eq!(prep.n_blocks(g), len.div_ceil(block_size));
                let mut covered = 0;
                for b in 0..prep.n_blocks(g) {
                    let view = prep.block(g, b);
                    assert!(!view.is_empty());
                    assert!(view.len() <= block_size);
                    covered += view.len();
                    for r in view.rows.chunks_exact(prep.dim()) {
                        for (d, &v) in r.iter().enumerate() {
                            assert!(view.min[d] <= v && v <= view.max[d]);
                        }
                    }
                }
                assert_eq!(covered, len, "blocks must partition group {g}");
            }
        }
    }

    #[test]
    fn zero_block_size_is_rejected() {
        let ds = movie_directors();
        match PreparedDataset::build(&ds, 0) {
            Err(crate::error::Error::InvalidArgument(msg)) => {
                assert!(msg.contains("block_size must be positive"), "unhelpful message: {msg}");
            }
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
    }

    #[test]
    fn lane_keys_mirror_block_records() {
        let ds = crate::testdata::random_dataset(5, 9, 3, 42);
        for block_size in [1, 4, 64] {
            let prep = PreparedDataset::build(&ds, block_size).unwrap();
            let dim = prep.dim();
            for g in 0..prep.n_groups() {
                for b in 0..prep.n_blocks(g) {
                    let view = prep.block(g, b);
                    let lanes = prep.lane_block(g, b);
                    assert_eq!(lanes.len, view.len());
                    assert_eq!(lanes.width, block_size.next_multiple_of(LANE_VECTOR));
                    for (j, row) in view.rows.chunks_exact(dim).enumerate() {
                        for (d, &v) in row.iter().enumerate() {
                            assert_eq!(lanes.lane(d)[j], crate::dominance::sort_key(v));
                        }
                        assert_eq!(lanes.lane(dim)[j], crate::dominance::sort_key(view.sums[j]));
                    }
                    // Padding (block tail and stride rounding alike) carries
                    // the incomparable sentinel pattern.
                    for j in view.len()..lanes.width {
                        assert_eq!(lanes.lane(0)[j], i64::MAX);
                        for d in 1..=dim {
                            assert_eq!(lanes.lane(d)[j], i64::MIN);
                        }
                    }
                    let expect_mask =
                        if view.len() >= 64 { u64::MAX } else { (1u64 << view.len()) - 1 };
                    assert_eq!(lanes.valid_mask(), expect_mask);
                }
            }
        }
    }

    /// Asserts two preparations are bit-identical in every field.
    fn assert_same_prep(a: &PreparedDataset, b: &PreparedDataset) {
        assert_eq!(a.dim, b.dim);
        assert_eq!(a.block_size, b.block_size);
        assert_eq!(a.values, b.values);
        assert_eq!(a.sums, b.sums);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.block_offsets, b.block_offsets);
        assert_eq!(a.block_min, b.block_min);
        assert_eq!(a.block_max, b.block_max);
        assert_eq!(a.mbbs, b.mbbs);
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.lane_width, b.lane_width);
    }

    #[test]
    fn dirty_rebuild_matches_full_build() {
        let before = random_dataset(9, 8, 3, 2024);
        // Mutate groups 2 and 6: drop a record from one, grow the other.
        let mut b = crate::dataset::GroupedDatasetBuilder::new(3);
        for g in before.group_ids() {
            let mut rows: Vec<Vec<f64>> = before.records(g).map(|r| r.to_vec()).collect();
            if g == 2 {
                rows.pop();
            }
            if g == 6 {
                rows.push(vec![9.5, 0.25, 4.0]);
                rows.push(vec![1.0, 1.0, 1.0]);
            }
            b.push_group(before.label(g), &rows).unwrap();
        }
        let after = b.build().unwrap();
        let mut dirty = vec![false; before.n_groups()];
        dirty[2] = true;
        dirty[6] = true;
        for block_size in [1, 4, MAX_LANE_BLOCK] {
            let prep = PreparedDataset::build(&before, block_size).unwrap();
            let rebuilt = prep.rebuild_dirty(&after, &dirty).unwrap();
            assert_same_prep(&rebuilt, &PreparedDataset::build(&after, block_size).unwrap());
        }
    }

    #[test]
    fn dirty_rebuild_with_no_dirty_groups_is_a_copy() {
        let ds = random_dataset(6, 5, 2, 7);
        let prep = PreparedDataset::build(&ds, 4).unwrap();
        let rebuilt = prep.rebuild_dirty(&ds, &vec![false; ds.n_groups()]).unwrap();
        assert_same_prep(&rebuilt, &prep);
    }

    #[test]
    fn dirty_rebuild_treats_length_changes_as_dirty_even_when_unflagged() {
        let before = random_dataset(4, 6, 2, 11);
        let mut b = crate::dataset::GroupedDatasetBuilder::new(2);
        for g in before.group_ids() {
            let mut rows: Vec<Vec<f64>> = before.records(g).map(|r| r.to_vec()).collect();
            if g == 1 {
                rows.push(vec![50.0, 50.0]);
            }
            b.push_group(before.label(g), &rows).unwrap();
        }
        let after = b.build().unwrap();
        let prep = PreparedDataset::build(&before, 4).unwrap();
        // Group 1 grew but is (wrongly) flagged clean; the length guard
        // must rebuild it anyway.
        let rebuilt = prep.rebuild_dirty(&after, &vec![false; after.n_groups()]).unwrap();
        assert_same_prep(&rebuilt, &PreparedDataset::build(&after, 4).unwrap());
    }

    #[test]
    fn dirty_rebuild_rejects_shape_mismatches() {
        let ds = random_dataset(5, 4, 3, 3);
        let prep = PreparedDataset::build(&ds, 4).unwrap();
        let fewer = random_dataset(4, 4, 3, 3);
        assert!(matches!(
            prep.rebuild_dirty(&fewer, &[false; 4]),
            Err(crate::error::Error::InvalidArgument(_))
        ));
        let other_dim = random_dataset(5, 4, 2, 3);
        assert!(matches!(
            prep.rebuild_dirty(&other_dim, &[false; 5]),
            Err(crate::error::Error::InvalidArgument(_))
        ));
        assert!(matches!(
            prep.rebuild_dirty(&ds, &[false; 3]),
            Err(crate::error::Error::InvalidArgument(_))
        ));
    }

    #[test]
    fn oversized_blocks_are_rejected() {
        let ds = movie_directors();
        match PreparedDataset::build(&ds, MAX_LANE_BLOCK + 1) {
            Err(crate::error::Error::InvalidArgument(msg)) => {
                assert!(msg.contains("exceeds MAX_LANE_BLOCK"), "unhelpful message: {msg}");
            }
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
        assert!(PreparedDataset::build(&ds, MAX_LANE_BLOCK).is_ok());
    }
}
