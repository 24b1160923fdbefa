//! One-time preprocessing of a dataset for the block-at-a-time counting
//! kernel.
//!
//! A [`Segment`] is one group's preparation: its records rewritten into
//! *coordinate-sum descending* order, cut into fixed-size blocks with
//! precomputed bounding corners and columnar key lanes. A
//! [`PreparedDataset`] is a vector of `Arc`'d segments, one per group, so
//! two preparations that differ in a few groups share every other group's
//! segment by reference count ([`PreparedDataset::rebuild_dirty`], the
//! serving layer's epochs, and the incremental engine's kept base sets).
//!
//! The order is useful because record dominance is monotone in the
//! coordinate sum:
//!
//! > if `r` dominates `s` then `Σ r[d] ≥ Σ s[d]`
//!
//! (all coordinates are `≥` with at least one `>`, the dataset is
//! normalized to MAX preference, and f64 addition rounds monotonically).
//! The inequality is not strict: rounding can absorb the strict coordinate,
//! as in `1e16 + 1 == 1e16`, so `[1e16, 1]` dominates `[1e16, 0]` at an
//! equal sum. Sorting by descending sum therefore puts every record before
//! all records of strictly smaller sum it may dominate, and records of
//! equal sum may dominate each other in either direction; the kernel gives
//! those pairs the full test (≥ in every coordinate, > in one).
//!
//! The preparation is independent of γ and of any [`crate::PairOptions`]
//! tuning, so one `PreparedDataset` can be built once and shared by every
//! algorithm — and across threads — for any number of queries against the
//! same data. See [`crate::kernel`] for the counting loops that consume it.

use crate::dataset::{GroupId, GroupedDataset};
use crate::error::{Error, Result};
use crate::mbb::Mbb;
use std::sync::Arc;

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

/// One group prepared for block-at-a-time pair counting: its records
/// sorted by descending coordinate sum (ties keep their input order), their
/// sums, the blocks of at most [`block_size`](Segment::block_size) records
/// with their bounding corners, the columnar key lanes and the group's
/// bounding box.
///
/// A segment depends only on its own group's records, so counting two
/// groups from two segments is bit-identical whichever preparations hold
/// them. It is plain data, shared behind an `Arc` by every preparation
/// that contains the group.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    dim: usize,
    block_size: usize,
    /// Lane stride of `keys`: `block_size` rounded up to a multiple of
    /// [`LANE_VECTOR`] so the SIMD kernel loads whole vectors only.
    lane_width: usize,
    len: usize,
    n_blocks: usize,
    /// `len · dim` sorted row-major values, then their `len` coordinate
    /// sums, then `n_blocks · dim` block minima, then as many block maxima,
    /// then the group's `dim` minima and `dim` maxima (its bounding box).
    floats: Vec<f64>,
    /// Columnar structure-of-arrays mirror of the rows, in the integer key
    /// space of [`crate::dominance::sort_key`]: per block, `dim + 1`
    /// contiguous lanes of `lane_width` keys each (`dim` coordinate lanes
    /// followed by one coordinate-sum lane), padded with sentinels that can
    /// neither dominate nor be dominated.
    keys: Vec<i64>,
}

/// A [`GroupedDataset`] preprocessed for block-at-a-time pair counting: one
/// shared [`Segment`] per group.
///
/// Building is `O(n log n)` per group and touches every value once; the
/// result is plain data (no interior mutability), so a shared reference can
/// be used concurrently from many threads. Cloning copies one `Arc`, one
/// length and one bounding box per group.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedDataset {
    dim: usize,
    block_size: usize,
    n_records: usize,
    segments: Vec<Arc<Segment>>,
    /// Each segment's length and bounding box, contiguous: the algorithms'
    /// visiting orders, cost keys and window tests read every group's, and
    /// a segment lies in its own allocation.
    lens: Vec<usize>,
    mbbs: Vec<Mbb>,
}

/// Borrowed view of one record block of a [`Segment`].
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

/// Rejects segments of another dimensionality or block size than the
/// preparation's.
fn check_segments(dim: usize, block_size: usize, segments: &[Arc<Segment>]) -> Result<()> {
    match segments.iter().enumerate().find(|(_, s)| s.dim != dim || s.block_size != block_size) {
        Some((g, s)) => Err(Error::InvalidArgument(format!(
            "segment {g} has dim {} and block size {}, the preparation {dim} and {block_size}",
            s.dim, s.block_size
        ))),
        None => Ok(()),
    }
}

/// Rejects block sizes the lane kernel cannot run.
fn check_block_size(block_size: usize) -> Result<()> {
    if block_size == 0 {
        return Err(Error::InvalidArgument("block_size must be positive (got 0)".to_string()));
    }
    if block_size > MAX_LANE_BLOCK {
        return Err(Error::InvalidArgument(format!(
            "block_size {block_size} exceeds MAX_LANE_BLOCK ({MAX_LANE_BLOCK}); one lane must \
             fit a u64 bitmask"
        )));
    }
    Ok(())
}

impl Segment {
    /// Prepares one group from its row-major records `rows` (`dim` values
    /// each): sorts them by descending coordinate sum, ties in input order,
    /// and materializes the block corners and key lanes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroDimensions`] for `dim == 0`,
    /// [`Error::InvalidArgument`] when `rows` is not a whole number of
    /// records, and the block-size errors of [`PreparedDataset::build`].
    pub(crate) fn build(dim: usize, block_size: usize, rows: &[f64]) -> Result<Segment> {
        if dim == 0 {
            return Err(Error::ZeroDimensions);
        }
        check_block_size(block_size)?;
        if !rows.len().is_multiple_of(dim) {
            return Err(Error::InvalidArgument(format!(
                "{} values are not a whole number of {dim}-dimensional records",
                rows.len()
            )));
        }
        Ok(Segment::build_with(dim, block_size, rows, &mut Vec::new()))
    }

    /// [`Segment::build`] for validated arguments, reusing `order` as the
    /// sort's scratch.
    fn build_with(
        dim: usize,
        block_size: usize,
        rows: &[f64],
        order: &mut Vec<(f64, usize)>,
    ) -> Segment {
        order.clear();
        order.extend(rows.chunks_exact(dim).enumerate().map(|(i, r)| (r.iter().sum::<f64>(), i)));
        // Descending sum; ties broken by input index so the layout is
        // deterministic regardless of the sort implementation.
        order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let len = order.len();
        let n_blocks = len.div_ceil(block_size);
        let corners_at = len * (dim + 1);
        let box_at = corners_at + 2 * n_blocks * dim;
        let mut floats = Vec::with_capacity(box_at + 2 * dim);
        for &(_, i) in order.iter() {
            floats.extend_from_slice(&rows[i * dim..(i + 1) * dim]);
        }
        floats.extend(order.iter().map(|&(s, _)| s));
        floats.resize(corners_at + n_blocks * dim, f64::INFINITY);
        floats.resize(box_at, f64::NEG_INFINITY);
        floats.resize(box_at + dim, f64::INFINITY);
        floats.resize(box_at + 2 * dim, f64::NEG_INFINITY);
        let (sorted, corners) = floats.split_at_mut(corners_at);
        let (mins, rest) = corners.split_at_mut(n_blocks * dim);
        let (maxs, group_box) = rest.split_at_mut(n_blocks * dim);
        let (g_min, g_max) = group_box.split_at_mut(dim);
        let sorted_rows = &sorted[..len * dim];
        for (b, (bmin, bmax)) in
            mins.chunks_exact_mut(dim).zip(maxs.chunks_exact_mut(dim)).enumerate()
        {
            let (start, end) = (b * block_size, ((b + 1) * block_size).min(len));
            for r in sorted_rows[start * dim..end * dim].chunks_exact(dim) {
                for d in 0..dim {
                    bmin[d] = bmin[d].min(r[d]);
                    bmax[d] = bmax[d].max(r[d]);
                }
            }
            for d in 0..dim {
                g_min[d] = g_min[d].min(bmin[d]);
                g_max[d] = g_max[d].max(bmax[d]);
            }
        }
        // Rounding the lane stride (not the block size) up to the vector
        // width keeps MAX_LANE_BLOCK intact: 64 is already a multiple of 4.
        let lane_width = block_size.next_multiple_of(LANE_VECTOR);
        let keys = lane_keys(dim, block_size, lane_width, sorted_rows, &sorted[len * dim..]);
        let seg = Segment { dim, block_size, lane_width, len, n_blocks, floats, keys };
        crate::invariants::check_segment(&seg);
        seg
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

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the segment holds no record.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks (`ceil(len / block_size)`).
    #[inline]
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// The group's bounding box (a copy: the segment keeps its corners
    /// with its records).
    pub fn mbb(&self) -> Mbb {
        let at = self.floats.len() - 2 * self.dim;
        Mbb {
            min: self.floats[at..at + self.dim].to_vec(),
            max: self.floats[at + self.dim..].to_vec(),
        }
    }

    /// The records in sorted order, row-major.
    #[inline]
    pub fn rows(&self) -> &[f64] {
        &self.floats[..self.len * self.dim]
    }

    /// Record `i` **in sorted order**.
    #[inline]
    pub fn record(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.len);
        &self.floats[i * self.dim..(i + 1) * self.dim]
    }

    /// Coordinate sums of the records, descending.
    #[inline]
    pub fn sums(&self) -> &[f64] {
        let at = self.len * self.dim;
        &self.floats[at..at + self.len]
    }

    /// Block `b` (0-based).
    #[inline]
    pub fn block(&self, b: usize) -> BlockView<'_> {
        debug_assert!(b < self.n_blocks);
        let (dim, len) = (self.dim, self.len);
        let start = b * self.block_size;
        let end = (start + self.block_size).min(len);
        let min_at = len * (dim + 1) + b * dim;
        let max_at = min_at + self.n_blocks * dim;
        BlockView {
            min: &self.floats[min_at..min_at + dim],
            max: &self.floats[max_at..max_at + dim],
            rows: &self.floats[start * dim..end * dim],
            sums: &self.floats[len * dim + start..len * dim + end],
        }
    }

    /// Columnar key lanes of block `b` (0-based).
    #[inline]
    pub fn lane_block(&self, b: usize) -> LaneBlock<'_> {
        debug_assert!(b < self.n_blocks);
        let start = b * self.block_size;
        let stride = (self.dim + 1) * self.lane_width;
        LaneBlock {
            keys: &self.keys[b * stride..(b + 1) * stride],
            width: self.lane_width,
            len: (start + self.block_size).min(self.len) - start,
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

    /// Preprocesses `ds`: one [`Segment`] per group.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if `block_size` is zero or above
    /// [`MAX_LANE_BLOCK`] (one lane must fit a `u64` bitmask).
    pub fn build(ds: &GroupedDataset, block_size: usize) -> Result<PreparedDataset> {
        check_block_size(block_size)?;
        let mut order = Vec::new();
        let segments = ds
            .group_ids()
            .map(|g| {
                Arc::new(Segment::build_with(ds.dim(), block_size, ds.group_rows(g), &mut order))
            })
            .collect();
        let prep = PreparedDataset::assemble(ds.dim(), block_size, segments);
        crate::invariants::check_prepared(ds, &prep);
        Ok(prep)
    }

    /// Assembles a preparation of `dim`-dimensional records at
    /// `block_size` from one segment per group, in group order; the
    /// segments are shared, not copied.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] when a segment's dimensionality
    /// or block size differs from `dim` and `block_size`.
    pub(crate) fn from_segments(
        dim: usize,
        block_size: usize,
        segments: Vec<Arc<Segment>>,
    ) -> Result<PreparedDataset> {
        check_segments(dim, block_size, &segments)?;
        Ok(PreparedDataset::assemble(dim, block_size, segments))
    }

    /// The preparation of `segments`, with their lengths and boxes copied
    /// into contiguous arrays.
    fn assemble(dim: usize, block_size: usize, segments: Vec<Arc<Segment>>) -> PreparedDataset {
        let lens: Vec<usize> = segments.iter().map(|s| s.len).collect();
        let n_records = lens.iter().sum();
        let mbbs = segments.iter().map(|s| s.mbb()).collect();
        PreparedDataset { dim, block_size, n_records, segments, lens, mbbs }
    }

    /// Rebuilds the preparation for `ds`, a dataset in which only the
    /// groups flagged in `dirty` changed since this preparation was built.
    /// Clean groups share this preparation's segments by reference count;
    /// only dirty groups pay the `O(n log n)` sort and lane
    /// materialization.
    ///
    /// A flagged-clean group whose length nonetheless differs from the
    /// preparation's is treated as dirty (defensive; sharing it would be
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
        let mut order = Vec::new();
        let segments = ds
            .group_ids()
            .map(|g| {
                let seg = &self.segments[g];
                if !dirty[g] && ds.group_len(g) == seg.len {
                    Arc::clone(seg)
                } else {
                    let rows = ds.group_rows(g);
                    Arc::new(Segment::build_with(self.dim, self.block_size, rows, &mut order))
                }
            })
            .collect();
        let prep = PreparedDataset::assemble(self.dim, self.block_size, segments);
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
        self.segments.len()
    }

    /// Total number of records.
    #[inline]
    pub fn n_records(&self) -> usize {
        self.n_records
    }

    /// The shared segment of group `g`.
    #[inline]
    pub fn segment(&self, g: GroupId) -> &Arc<Segment> {
        &self.segments[g]
    }

    /// Number of records in group `g`.
    #[inline]
    pub fn group_len(&self, g: GroupId) -> usize {
        self.lens[g]
    }

    /// Number of blocks of group `g` (`ceil(group_len / block_size)`).
    #[inline]
    pub fn n_blocks(&self, g: GroupId) -> usize {
        self.lens[g].div_ceil(self.block_size)
    }

    /// Bounding box of group `g` (identical to [`Mbb::of_group`] on the
    /// source dataset).
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
        self.segments[g].record(i)
    }

    /// Coordinate sums of group `g`'s records, descending.
    #[inline]
    pub fn group_sums(&self, g: GroupId) -> &[f64] {
        self.segments[g].sums()
    }

    /// Columnar key lanes of block `b` (0-based within the group) of group
    /// `g`.
    #[inline]
    pub fn lane_block(&self, g: GroupId, b: usize) -> LaneBlock<'_> {
        self.segments[g].lane_block(b)
    }

    /// Block `b` (0-based within the group) of group `g`.
    #[inline]
    pub fn block(&self, g: GroupId, b: usize) -> BlockView<'_> {
        self.segments[g].block(b)
    }
}

/// The columnar key lanes of one group's sorted rows: for each block,
/// `dim` coordinate lanes and one sum lane of `lane_width` keys each (the
/// block size rounded up to [`LANE_VECTOR`]), live slots holding
/// [`crate::dominance::sort_key`] of the sorted rows, padded slots holding
/// sentinels (`i64::MAX` in lane 0 so a pad is never dominated, `i64::MIN`
/// in every other lane — including the sum lane, which by itself already
/// prevents a pad from dominating, covering the 1-dimensional case where no
/// coordinate sentinel can do both jobs at once). The stride-rounding pad
/// past `block_size` carries the same sentinel pattern as block padding.
fn lane_keys(
    dim: usize,
    block_size: usize,
    lane_width: usize,
    rows: &[f64],
    sums: &[f64],
) -> Vec<i64> {
    debug_assert_eq!(lane_width % LANE_VECTOR, 0);
    debug_assert!(lane_width >= block_size);
    let stride = (dim + 1) * lane_width;
    let len = sums.len();
    let mut keys = vec![0i64; len.div_ceil(block_size) * stride];
    for (b, block) in keys.chunks_exact_mut(stride).enumerate() {
        let (start, end) = (b * block_size, ((b + 1) * block_size).min(len));
        for (j, row) in (start..end).enumerate() {
            for d in 0..dim {
                block[d * lane_width + j] = crate::dominance::sort_key(rows[row * dim + d]);
            }
            block[dim * lane_width + j] = crate::dominance::sort_key(sums[row]);
        }
        for j in (end - start)..lane_width {
            block[j] = i64::MAX;
            for d in 1..=dim {
                block[d * lane_width + j] = i64::MIN;
            }
        }
    }
    keys
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

    /// Asserts two preparations are bit-identical segment by segment.
    fn assert_same_prep(a: &PreparedDataset, b: &PreparedDataset) {
        let bits = |p: &PreparedDataset| -> Vec<(Vec<u64>, Vec<i64>)> {
            (0..p.n_groups())
                .map(|g| {
                    let s = p.segment(g);
                    (s.floats.iter().map(|v| v.to_bits()).collect(), s.keys.clone())
                })
                .collect()
        };
        assert_eq!(a, b);
        assert_eq!(bits(a), bits(b));
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
            for g in after.group_ids() {
                let shared = Arc::ptr_eq(rebuilt.segment(g), prep.segment(g));
                assert_eq!(shared, !dirty[g], "group {g}: clean groups share, dirty ones rebuild");
            }
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

    #[test]
    fn segments_build_from_flat_rows_and_reject_bad_shapes() {
        let ds = random_dataset(3, 7, 3, 31);
        let prep = PreparedDataset::build(&ds, 4).unwrap();
        for g in ds.group_ids() {
            let seg = Segment::build(3, 4, ds.group_rows(g)).unwrap();
            assert_eq!(&seg, prep.segment(g).as_ref());
            assert_eq!(seg.mbb(), Mbb::of_group(&ds, g));
        }
        assert!(matches!(Segment::build(0, 4, &[]), Err(crate::error::Error::ZeroDimensions)));
        assert!(Segment::build(3, 4, &[1.0, 2.0]).is_err(), "not a whole record");
        assert!(Segment::build(3, 0, &[1.0, 2.0, 3.0]).is_err());
        let empty = Segment::build(2, 4, &[]).unwrap();
        assert!(empty.is_empty() && empty.n_blocks() == 0);
    }

    #[test]
    fn preparations_assemble_from_shared_segments() {
        let ds = random_dataset(4, 6, 2, 8);
        let prep = PreparedDataset::build(&ds, 4).unwrap();
        let segments: Vec<Arc<Segment>> = (0..4).map(|g| Arc::clone(prep.segment(g))).collect();
        let again = PreparedDataset::from_segments(2, 4, segments.clone()).unwrap();
        assert_same_prep(&again, &prep);
        assert!(Arc::ptr_eq(again.segment(2), prep.segment(2)));
        let mut moved = segments;
        moved[1] = Arc::new(Segment::build(2, 4, &[99.0, 99.0]).unwrap());
        let other = PreparedDataset::from_segments(2, 4, moved).unwrap();
        assert_eq!(other.mbb(1), &Mbb { min: vec![99.0, 99.0], max: vec![99.0, 99.0] });
        assert_eq!(other.group_len(1), 1);
        assert_eq!(other.n_records(), prep.n_records() - prep.group_len(1) + 1);
        let other = Arc::new(Segment::build(2, 8, ds.group_rows(0)).unwrap());
        assert!(PreparedDataset::from_segments(2, 4, vec![other]).is_err(), "block size mismatch");
        assert!(PreparedDataset::from_segments(3, 4, vec![Arc::clone(prep.segment(0))]).is_err());
    }

    /// Rounding can make a dominating record's sum equal the dominated
    /// one's: `1e16 + 1 == 1e16`. Equal sums keep their input order.
    #[test]
    fn equal_sums_keep_input_order() {
        let seg = Segment::build(2, 4, &[1e16, 0.0, 1e16, 1.0, 5.0, 5.0]).unwrap();
        assert_eq!(seg.sums(), &[1e16, 1e16, 10.0]);
        assert_eq!(seg.record(0), &[1e16, 0.0]);
        assert_eq!(seg.record(1), &[1e16, 1.0]);
    }
}
