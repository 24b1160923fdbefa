//! The counting kernel: block-at-a-time pair counting over a
//! [`PreparedDataset`].
//!
//! [`crate::compare_groups`] resolves a group pair one record comparison at
//! a time. The kernel instead walks the fixed-size record blocks prepared
//! by [`PreparedDataset::build`] and classifies each *block pair* first:
//!
//! * **full** — the first block's minimum corner dominates the second's
//!   maximum corner: every record of the first dominates every record of
//!   the second, contributing `k₁·k₂` pairs in O(1) (Figure 9(b) applied at
//!   block granularity);
//! * **skipped** — neither block's maximum corner dominates the other's
//!   minimum corner (or the coordinate-sum ranges rule a direction out):
//!   no pair in either direction can dominate, contributing 0 in O(1);
//! * **straddling** — anything else is counted record by record by the
//!   branch-reduced columnar bitmask kernel over the preparation's key
//!   lanes (see [`crate::columnar`]), or by its AVX2 twin in
//!   [`crate::simd`] when the CPU has it. Both produce bit-identical
//!   tallies and [`Stats`] charges.
//!
//! Every classification updates the same [`Counter`] the record-at-a-time
//! path uses, so the Section 3.3 stopping rule (evaluated after each block
//! pair) and the exact `n12`/`n21` tallies are preserved bit-for-bit.
//!
//! Block pairs are visited in a single deterministic linear order (the
//! *block cursor*): pair `idx` is `(idx / nb₂, idx mod nb₂)`. The cursor is
//! what makes the [`PairCache`] resumable — a memoized partial tally plus a
//! cursor fully determine the remaining work, for any later γ.

use crate::dataset::{GroupId, GroupedDataset};
use crate::dominance::dominates;
use crate::error::{Error, Result};
use crate::gamma::Gamma;
use crate::mbb::Mbb;
use crate::paircache::{CachedTally, PairCache};
use crate::paircount::{compare_groups, Counter, DomLevel, PairOptions, PairVerdict};
use crate::prepared::{PreparedDataset, Segment};
use crate::stats::Stats;

/// Selects the record-counting strategy used inside every group-vs-group
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelConfig {
    /// Compare records pairwise with [`crate::compare_groups`] (no
    /// preprocessing; the paper's configuration).
    Exhaustive,
    /// Preprocess each group once ([`PreparedDataset::build`]) and count
    /// block-at-a-time; straddling block pairs are counted by the columnar
    /// bitmask kernel over the preparation's structure-of-arrays key lanes
    /// (see [`crate::columnar`]). When the CPU supports AVX2 (and
    /// `AGGSKY_FORCE_SCALAR` is not set, see [`crate::cpu`]), straddles run
    /// the hand-vectorized twin in [`crate::simd`] — bit-identical tallies
    /// and [`Stats`], just faster.
    Columnar {
        /// Records per block, at most [`crate::MAX_LANE_BLOCK`] so one
        /// lane fits a `u64` mask.
        block_size: usize,
    },
    /// [`KernelConfig::Columnar`] with SIMD dispatch pinned off: always the
    /// scalar columnar kernel, regardless of CPU features or environment.
    /// This is the testable/benchable fallback on AVX2 hardware (the
    /// differential oracle of `tests/simd_differential.rs` and the
    /// `columnar-scalar` row of the perf table).
    ColumnarScalar {
        /// Records per block, at most [`crate::MAX_LANE_BLOCK`].
        block_size: usize,
    },
}

impl KernelConfig {
    /// The columnar kernel at the default block size (SIMD when available).
    pub fn columnar() -> KernelConfig {
        KernelConfig::Columnar { block_size: PreparedDataset::DEFAULT_BLOCK_SIZE }
    }

    /// The scalar-pinned columnar kernel at the default block size.
    pub fn columnar_scalar() -> KernelConfig {
        KernelConfig::ColumnarScalar { block_size: PreparedDataset::DEFAULT_BLOCK_SIZE }
    }

    /// Records per block of a prepared kernel; `None` for
    /// [`KernelConfig::Exhaustive`], which prepares nothing.
    pub fn block_size(self) -> Option<usize> {
        match self {
            KernelConfig::Exhaustive => None,
            KernelConfig::Columnar { block_size } | KernelConfig::ColumnarScalar { block_size } => {
                Some(block_size)
            }
        }
    }
}

/// Which straddle loop a prepared kernel runs. Both tally identically; the
/// SIMD one is the faster when the CPU has AVX2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StraddleMode {
    Scalar,
    Simd,
}

impl StraddleMode {
    /// The mode the runtime environment selects: AVX2 when detected and
    /// not overridden, scalar otherwise.
    #[inline]
    fn auto() -> StraddleMode {
        if crate::cpu::simd_active() {
            StraddleMode::Simd
        } else {
            StraddleMode::Scalar
        }
    }
}

/// What a kernel counts from.
enum Source<'a> {
    /// The dataset's records, pairwise.
    Rows(&'a GroupedDataset),
    /// A preparation built for this kernel.
    Owned(&'a GroupedDataset, Box<PreparedDataset>),
    /// A preparation built elsewhere, with its dataset when there is one.
    Borrowed(Option<&'a GroupedDataset>, &'a PreparedDataset),
}

/// A dataset bound to a counting strategy: the single entry point the
/// algorithms use for group-vs-group comparisons.
///
/// Construction performs the (one-time) preprocessing when the config asks
/// for a prepared kernel; [`Kernel::with_prepared`] reuses a
/// [`PreparedDataset`] built elsewhere, e.g. one shared by several
/// algorithm runs or worker threads; a served epoch's reads count from a
/// preparation alone. The algorithms read the group count, group lengths
/// and dimensionality from the kernel, so they run the same over either.
/// The kernel is plain data, so a shared reference can be used from many
/// threads concurrently.
pub struct Kernel<'a> {
    source: Source<'a>,
    straddle: StraddleMode,
}

impl<'a> Kernel<'a> {
    /// Binds `ds` to the strategy selected by `config`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] for a prepared kernel whose block
    /// size is zero or above [`crate::MAX_LANE_BLOCK`] (see
    /// [`PreparedDataset::build`]).
    pub fn new(ds: &'a GroupedDataset, config: KernelConfig) -> Result<Kernel<'a>> {
        let (block_size, straddle) = match config {
            KernelConfig::Exhaustive => return Ok(Kernel::exhaustive(ds)),
            KernelConfig::Columnar { block_size } => (block_size, StraddleMode::auto()),
            KernelConfig::ColumnarScalar { block_size } => (block_size, StraddleMode::Scalar),
        };
        let prep = PreparedDataset::build(ds, block_size)?;
        Ok(Kernel { source: Source::Owned(ds, Box::new(prep)), straddle })
    }

    /// Binds `ds` to the exhaustive (no preprocessing) strategy. Infallible
    /// — this is what [`crate::Algorithm::run`] uses, keeping the paper
    /// configuration free of error plumbing.
    pub fn exhaustive(ds: &'a GroupedDataset) -> Kernel<'a> {
        Kernel { source: Source::Rows(ds), straddle: StraddleMode::Scalar }
    }

    /// Binds `ds` to an existing preparation, counting straddles with the
    /// columnar bitmask kernel (SIMD when the CPU and environment allow,
    /// see [`crate::cpu::simd_active`]).
    ///
    /// The preparation must have been built from `ds`.
    pub fn with_prepared(ds: &'a GroupedDataset, prep: &'a PreparedDataset) -> Kernel<'a> {
        debug_assert_eq!(ds.n_records(), prep.n_records());
        Kernel { source: Source::Borrowed(Some(ds), prep), straddle: StraddleMode::auto() }
    }

    /// Binds a preparation with no dataset behind it, such as a served
    /// epoch's, whose dataset is only built on demand. Counts like
    /// [`Kernel::with_prepared`]; [`crate::Algorithm::Naive`] counts every
    /// pair through it instead of record by record.
    pub(crate) fn over_prepared(prep: &'a PreparedDataset) -> Kernel<'a> {
        Kernel { source: Source::Borrowed(None, prep), straddle: StraddleMode::auto() }
    }

    /// The preparation, when a prepared kernel is active.
    #[inline]
    pub fn prepared(&self) -> Option<&PreparedDataset> {
        match &self.source {
            Source::Rows(_) => None,
            Source::Owned(_, p) => Some(p),
            Source::Borrowed(_, p) => Some(p),
        }
    }

    /// Number of groups.
    #[inline]
    pub(crate) fn n_groups(&self) -> usize {
        match &self.source {
            Source::Rows(ds) => ds.n_groups(),
            Source::Owned(_, p) => p.n_groups(),
            Source::Borrowed(_, p) => p.n_groups(),
        }
    }

    /// Number of records in group `g`.
    #[inline]
    pub(crate) fn group_len(&self, g: GroupId) -> usize {
        match &self.source {
            Source::Rows(ds) => ds.group_len(g),
            Source::Owned(_, p) => p.group_len(g),
            Source::Borrowed(_, p) => p.group_len(g),
        }
    }

    /// Total number of records.
    #[inline]
    pub(crate) fn n_records(&self) -> usize {
        match &self.source {
            Source::Rows(ds) => ds.n_records(),
            Source::Owned(_, p) => p.n_records(),
            Source::Borrowed(_, p) => p.n_records(),
        }
    }

    /// Number of dimensions of every record.
    #[inline]
    pub(crate) fn dim(&self) -> usize {
        match &self.source {
            Source::Rows(ds) => ds.dim(),
            Source::Owned(_, p) => p.dim(),
            Source::Borrowed(_, p) => p.dim(),
        }
    }

    /// Whether straddling block pairs run the AVX2 SIMD kernel.
    #[inline]
    pub fn is_simd(&self) -> bool {
        self.straddle == StraddleMode::Simd
    }

    /// `|S ≻ R|`, counted exactly with no early stop: record by record from
    /// the dataset when the kernel has one (the oracle's
    /// [`crate::gamma::domination_count`]), else over the preparation's
    /// blocks ([`count_pairs`]).
    pub(crate) fn domination_count(&self, s: GroupId, r: GroupId) -> u64 {
        match &self.source {
            Source::Rows(ds) | Source::Owned(ds, _) | Source::Borrowed(Some(ds), _) => {
                crate::gamma::domination_count(ds, s, r)
            }
            Source::Borrowed(None, prep) => count_pairs(prep, s, r, &mut Stats::default()).0,
        }
    }

    /// Group bounding boxes for an algorithm run, by group id: the
    /// preparation's, or a fresh [`Mbb::of_all_groups`] pass in exhaustive
    /// mode (stored in `owned`).
    pub(crate) fn boxes<'k>(&'k self, owned: &'k mut Option<Vec<Mbb>>) -> &'k [Mbb] {
        match &self.source {
            Source::Rows(ds) => owned.insert(Mbb::of_all_groups(ds)),
            Source::Owned(_, p) => p.mbbs(),
            Source::Borrowed(_, p) => p.mbbs(),
        }
    }

    /// Compares groups `g1` and `g2` with this kernel's strategy; drop-in
    /// replacement for [`crate::compare_groups`].
    pub fn compare(
        &self,
        g1: GroupId,
        g2: GroupId,
        gamma: Gamma,
        boxes: Option<(&Mbb, &Mbb)>,
        opts: PairOptions,
        stats: &mut Stats,
    ) -> PairVerdict {
        let prep = match &self.source {
            Source::Rows(ds) => return compare_groups(ds, g1, g2, gamma, boxes, opts, stats),
            Source::Owned(_, p) => p.as_ref(),
            Source::Borrowed(_, p) => p,
        };
        stats.group_pairs += 1;
        let total = crate::num::pair_product(prep.group_len(g1), prep.group_len(g2));
        let mut counter = Counter::new(total, gamma, opts);
        if let Some(v) = bbox_shortcut(boxes, stats) {
            return v;
        }
        let (early, _) = run_blocks_from(
            prep.segment(g1),
            prep.segment(g2),
            &mut counter,
            opts,
            stats,
            self.straddle,
            0,
            u64::MAX,
        );
        early.unwrap_or_else(|| counter.final_verdict())
    }

    /// Like [`Kernel::compare`], memoizing (and reusing) pair tallies
    /// through `cache`: one unbounded [`Kernel::compare_bounded`], which
    /// counts in canonical orientation. Without a cache this is
    /// [`Kernel::compare`], in the caller's orientation; an exhaustive
    /// kernel memoizes nothing (the cache's resume cursor is defined over
    /// block pairs).
    ///
    /// The verdict is always the one an uncached run would produce —
    /// stop-rule verdicts are certain, so serving or resuming a memoized
    /// partial cannot flip an outcome — but `Stats` work counters reflect
    /// only the *new* counting performed, with the reuse visible in
    /// `cache_hits` / `cache_misses` / `cache_resumes`.
    #[allow(clippy::too_many_arguments)]
    pub fn compare_cached(
        &self,
        g1: GroupId,
        g2: GroupId,
        gamma: Gamma,
        boxes: Option<(&Mbb, &Mbb)>,
        opts: PairOptions,
        cache: Option<&mut PairCache>,
        stats: &mut Stats,
    ) -> PairVerdict {
        let Some(cache) = cache else {
            return self.compare(g1, g2, gamma, boxes, opts, stats);
        };
        let mut resume = None;
        loop {
            // An unbounded batch always decides; a `Pending` continuation
            // is resumed rather than trusted to be impossible.
            match self.compare_bounded(
                g1,
                g2,
                gamma,
                boxes,
                opts,
                resume,
                u64::MAX,
                Some(&mut *cache),
                stats,
            ) {
                BoundedCompare::Decided { verdict, .. } => return verdict,
                BoundedCompare::Pending(tally) => resume = Some(tally),
            }
        }
    }

    /// One bounded batch of a group-vs-group comparison: processes at most
    /// `max_block_pairs` block pairs of the deterministic block cursor and
    /// either decides the pair or returns a resumable [`CachedTally`]. This
    /// is the pair-granular scheduler's stealable work unit — any worker
    /// can pick up a [`BoundedCompare::Pending`] continuation, because the
    /// tally plus the cursor fully determine the remaining work.
    ///
    /// [`Kernel::compare_cached`] is one unbounded batch. Counting runs in
    /// canonical `(min, max)` orientation (the returned verdict is flipped
    /// back to the caller's), a fresh start (`resume: None`) charges
    /// `group_pairs`, applies the bounding-box shortcut, and consults
    /// `cache` for a memoized tally to serve or resume; a continuation
    /// (`resume: Some`) belongs to an already-charged comparison and does
    /// neither. Decided batches store their tally back into `cache`.
    /// `Stats` charges cover only the counting this batch performed, so a
    /// scheduler that commits them after each successful batch never
    /// double-charges a budget across retries.
    ///
    /// On an exhaustive kernel (no preparation) there is no block cursor:
    /// the whole comparison runs as one batch and the work unit degrades to
    /// the full pair, with no tally to memoize.
    #[allow(clippy::too_many_arguments)]
    pub fn compare_bounded(
        &self,
        g1: GroupId,
        g2: GroupId,
        gamma: Gamma,
        boxes: Option<(&Mbb, &Mbb)>,
        opts: PairOptions,
        resume: Option<CachedTally>,
        max_block_pairs: u64,
        mut cache: Option<&mut PairCache>,
        stats: &mut Stats,
    ) -> BoundedCompare {
        let Some(prep) = self.prepared() else {
            return BoundedCompare::Decided {
                verdict: self.compare(g1, g2, gamma, boxes, opts, stats),
                tally: None,
            };
        };
        let (lo, hi) = if g1 <= g2 { (g1, g2) } else { (g2, g1) };
        let total = crate::num::pair_product(prep.group_len(lo), prep.group_len(hi));
        let orient = |v: PairVerdict| if g1 <= g2 { v } else { v.flipped() };
        let mut was_cached = false;
        let tally = match resume {
            Some(t) => {
                debug_assert_eq!(t.total, total, "resume tally from a different dataset");
                t
            }
            None => {
                stats.group_pairs += 1;
                if let Some(v) = bbox_shortcut(boxes, stats) {
                    // Box verdicts are already in caller orientation.
                    return BoundedCompare::Decided { verdict: v, tally: None };
                }
                match cache.as_ref().and_then(|c| c.lookup(lo, hi)) {
                    Some(t) => {
                        debug_assert_eq!(t.total, total, "cache entry from a different dataset");
                        was_cached = true;
                        t
                    }
                    None => {
                        if cache.is_some() {
                            stats.cache_misses += 1;
                        }
                        CachedTally::fresh(total)
                    }
                }
            }
        };
        let mut counter = Counter::resume(total, gamma, opts, tally.n12, tally.n21, tally.checked);
        // Can the carried evidence already decide the pair under this γ?
        // (A `Pending` continuation never can — its batch just failed to —
        // but a cache-served tally or a γ change can.)
        let served = if tally.complete() {
            Some(counter.final_verdict())
        } else if opts.stop_rule {
            counter.verdict()
        } else {
            None
        };
        if let Some(v) = served {
            if was_cached {
                stats.cache_hits += 1;
            }
            return BoundedCompare::Decided { verdict: orient(v), tally: Some(tally) };
        }
        if was_cached {
            stats.cache_resumes += 1;
        }
        let (early, cursor) = run_blocks_from(
            prep.segment(lo),
            prep.segment(hi),
            &mut counter,
            opts,
            stats,
            self.straddle,
            tally.cursor,
            max_block_pairs,
        );
        let after = CachedTally {
            n12: counter.n12,
            n21: counter.n21,
            checked: counter.checked,
            total,
            cursor,
        };
        let verdict = match early {
            Some(v) => Some(v),
            None if after.complete() => Some(counter.final_verdict()),
            None => None,
        };
        match verdict {
            Some(v) => {
                if let Some(c) = cache.as_mut() {
                    c.store(lo, hi, after);
                }
                BoundedCompare::Decided { verdict: orient(v), tally: Some(after) }
            }
            None => BoundedCompare::Pending(after),
        }
    }
}

/// Outcome of one [`Kernel::compare_bounded`] batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundedCompare {
    /// The comparison is decided. `tally` carries the memoizable canonical
    /// counting state when record counting happened (`None` when a
    /// bounding-box shortcut or the exhaustive kernel resolved the pair).
    Decided {
        /// The pair verdict, in the caller's `(g1, g2)` orientation.
        verdict: PairVerdict,
        /// Canonical-orientation tally after the deciding batch, if any.
        tally: Option<CachedTally>,
    },
    /// The batch limit was hit first; pass the tally back as `resume` (from
    /// any worker) to continue where this batch stopped.
    Pending(CachedTally),
}

/// The Figure 9(b) group-level bounding-box shortcuts, shared by
/// [`Kernel::compare`] and [`Kernel::compare_bounded`]. `Some` when the
/// boxes resolve the pair with zero record comparisons.
fn bbox_shortcut(boxes: Option<(&Mbb, &Mbb)>, stats: &mut Stats) -> Option<PairVerdict> {
    let (b1, b2) = boxes?;
    if b1.strictly_dominates(b2) {
        stats.bbox_resolved += 1;
        return Some(PairVerdict { forward: DomLevel::GammaBar, backward: DomLevel::None });
    }
    if b2.strictly_dominates(b1) {
        stats.bbox_resolved += 1;
        return Some(PairVerdict { forward: DomLevel::None, backward: DomLevel::GammaBar });
    }
    if !b1.may_dominate(b2) && !b2.may_dominate(b1) {
        stats.bbox_resolved += 1;
        return Some(PairVerdict::INCOMPARABLE);
    }
    None
}

/// Exact pair counts `(n12, n21)` for one group pair, computed with the
/// kernel the runtime selects and no early termination.
///
/// This is the kernel-side ground truth the equivalence tests compare
/// against [`crate::DominationMatrix::build`].
pub fn count_pairs(
    prep: &PreparedDataset,
    g1: GroupId,
    g2: GroupId,
    stats: &mut Stats,
) -> (u64, u64) {
    full_count(prep.segment(g1), prep.segment(g2), StraddleMode::auto(), stats)
}

/// Exact pair counts `(n12, n21)` of segment `s1` against segment `s2`,
/// two groups that need not share a preparation, with the straddle loop
/// `config` selects and no early termination.
///
/// Charges `stats` exactly as a fresh unbounded [`Kernel::compare_bounded`]
/// full count of the same two groups inside one preparation does, with
/// `s1` as the lower group id: one `group_pairs`, then the block and record
/// counters of the walk. Callers that keep one segment per group (the
/// incremental engine of [`crate::dynamic`]) therefore account exactly
/// like callers that build a joint preparation.
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] for [`KernelConfig::Exhaustive`]
/// (there is no block walk to run), or when either segment's block size
/// or dimensionality differs from `config`'s and the other's.
pub fn count_segments(
    config: KernelConfig,
    s1: &Segment,
    s2: &Segment,
    stats: &mut Stats,
) -> Result<(u64, u64)> {
    let mode = match config {
        KernelConfig::Exhaustive => {
            return Err(Error::InvalidArgument(
                "cross-preparation counting needs a prepared kernel, not Exhaustive".into(),
            ));
        }
        KernelConfig::Columnar { .. } => StraddleMode::auto(),
        KernelConfig::ColumnarScalar { .. } => StraddleMode::Scalar,
    };
    let block_size = config.block_size();
    if block_size != Some(s1.block_size())
        || block_size != Some(s2.block_size())
        || s1.dim() != s2.dim()
    {
        return Err(Error::InvalidArgument(format!(
            "preparations of block sizes {}/{} and dims {}/{} do not match {config:?}",
            s1.block_size(),
            s2.block_size(),
            s1.dim(),
            s2.dim()
        )));
    }
    stats.group_pairs += 1;
    Ok(full_count(s1, s2, mode, stats))
}

/// The full block walk behind [`count_pairs`] and [`count_segments`].
fn full_count(s1: &Segment, s2: &Segment, mode: StraddleMode, stats: &mut Stats) -> (u64, u64) {
    let total = crate::num::pair_product(s1.len(), s2.len());
    let opts = PairOptions { stop_rule: false, need_bar: false };
    let mut counter = Counter::new(total, Gamma::DEFAULT, opts);
    let (early, _) = run_blocks_from(s1, s2, &mut counter, opts, stats, mode, 0, u64::MAX);
    debug_assert!(early.is_none(), "stop rule is disabled");
    crate::invariants::check_pair_conservation(counter.checked, s1.len(), s2.len());
    debug_assert_eq!(counter.checked, counter.total);
    (counter.n12, counter.n21)
}

/// The block-pair loop, resumable at an arbitrary cursor position and
/// stoppable after a bounded number of block pairs.
///
/// Block pairs are visited in the linear cursor order `idx ↦
/// (idx / nb₂, idx mod nb₂)`; `start` pairs (which a [`PairCache`] tally
/// has already accounted for) are skipped by direct seek, in O(1) — this is
/// what keeps the pair-granular scheduler's bounded batches linear overall.
/// At most `limit` block pairs are then processed. Returns `Some` plus the
/// cursor *after* the deciding pair when the stopping rule resolves the
/// comparison early, or `None` plus the cursor after the last processed
/// pair — which is one past the end exactly when every block pair has been
/// accounted for (`counter.checked == counter.total`), and a resume point
/// for the next batch otherwise.
///
/// The walk reads only the two groups' segments, so counting two groups
/// from separate preparations built at the same block size is
/// bit-identical to counting them inside one.
#[allow(clippy::too_many_arguments)]
fn run_blocks_from(
    s1: &Segment,
    s2: &Segment,
    counter: &mut Counter,
    opts: PairOptions,
    stats: &mut Stats,
    mode: StraddleMode,
    start: u64,
    limit: u64,
) -> (Option<PairVerdict>, u64) {
    let dim = s1.dim();
    debug_assert_eq!(dim, s2.dim(), "preparations of different dimensionality");
    let nb1 = s1.n_blocks();
    let nb2 = s2.n_blocks();
    let total_pairs = crate::num::wide(nb1).saturating_mul(crate::num::wide(nb2));
    let mut cursor = start.min(total_pairs);
    let stop_at = cursor.saturating_add(limit);
    // Direct seek: cursor c sits at block pair (c / nb₂, c mod nb₂). Both
    // quotients are bounded by the (usize) block counts, so `narrow` cannot
    // fail; the fallback value just keeps the loops empty.
    let a0 = crate::num::narrow(cursor / crate::num::wide(nb2)).unwrap_or(nb1);
    let mut b_next = crate::num::narrow(cursor % crate::num::wide(nb2)).unwrap_or(nb2);
    for a in a0..nb1 {
        let ba = s1.block(a);
        let b_start = b_next;
        b_next = 0;
        for b in b_start..nb2 {
            cursor += 1;
            let bb = s2.block(b);
            let pairs = crate::num::pair_product(ba.len(), bb.len());
            if dominates(ba.min, bb.max) {
                // Every record of `ba` is ≥ its block minimum, which already
                // dominates `bb`'s maximum: all k₁·k₂ pairs dominate forward.
                counter.n12 += pairs;
                counter.checked += pairs;
                stats.blocks_full += 1;
            } else if dominates(bb.min, ba.max) {
                counter.n21 += pairs;
                counter.checked += pairs;
                stats.blocks_full += 1;
            } else {
                // A direction is possible only if the best corner dominates
                // the other block's worst corner *and* the sum ranges allow
                // a sum at least as large (dominance implies one; rounding
                // can make it equal, so an equal sum keeps the direction).
                let fwd = dominates(ba.max, bb.min) && ba.sums[0] >= bb.sums[bb.len() - 1];
                let bwd = dominates(bb.max, ba.min) && bb.sums[0] >= ba.sums[ba.len() - 1];
                if !fwd && !bwd {
                    counter.checked += pairs;
                    stats.blocks_skipped += 1;
                } else {
                    let la = s1.lane_block(a);
                    let lb = s2.lane_block(b);
                    match mode {
                        StraddleMode::Simd => crate::simd::straddle_lanes_simd(
                            dim, &la, &lb, fwd, bwd, counter, stats,
                        ),
                        StraddleMode::Scalar => {
                            crate::columnar::straddle_lanes(dim, &la, &lb, fwd, bwd, counter, stats)
                        }
                    }
                    counter.checked += pairs;
                }
            }
            if opts.stop_rule && counter.checked < counter.total {
                if let Some(v) = counter.verdict() {
                    stats.early_stops += 1;
                    return (Some(v), cursor);
                }
            }
            if cursor >= stop_at {
                return (None, cursor);
            }
        }
    }
    (None, cursor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DominationMatrix;
    use crate::prepared::MAX_LANE_BLOCK;
    use crate::testdata::{movie_directors, random_dataset};

    fn all_pair_options() -> Vec<PairOptions> {
        let mut out = Vec::new();
        for stop_rule in [false, true] {
            for need_bar in [false, true] {
                out.push(PairOptions { stop_rule, need_bar });
            }
        }
        out
    }

    #[test]
    fn blocked_verdicts_match_unblocked_on_random_data() {
        for seed in 0..10 {
            let ds = random_dataset(10, 9, 3, 600 + seed);
            for block_size in [1, 3, 64] {
                let kernel = Kernel::new(&ds, KernelConfig::Columnar { block_size }).unwrap();
                let boxes = Mbb::of_all_groups(&ds);
                for g1 in 0..ds.n_groups() {
                    for g2 in (g1 + 1)..ds.n_groups() {
                        let oracle = crate::paircount::compare_groups_exhaustive(
                            &ds,
                            g1,
                            g2,
                            Gamma::DEFAULT,
                        );
                        for opts in all_pair_options() {
                            for use_boxes in [false, true] {
                                let pair_boxes = use_boxes.then(|| (&boxes[g1], &boxes[g2]));
                                let mut stats = Stats::default();
                                let v = kernel.compare(
                                    g1,
                                    g2,
                                    Gamma::DEFAULT,
                                    pair_boxes,
                                    opts,
                                    &mut stats,
                                );
                                // `need_bar: false` folds γ̄ into γ; compare at
                                // the granularity the options promise.
                                assert_eq!(
                                    v.forward.dominates(),
                                    oracle.forward.dominates(),
                                    "seed={seed} bs={block_size} {g1}v{g2} {opts:?}"
                                );
                                assert_eq!(v.backward.dominates(), oracle.backward.dominates());
                                if opts.need_bar {
                                    assert_eq!(v, oracle);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn ones(m: &DominationMatrix) -> u64 {
        let mut n = 0;
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                n += m.get(i, j) as u64;
            }
        }
        n
    }

    #[test]
    fn count_pairs_matches_domination_matrix() {
        let ds = movie_directors();
        let prep = PreparedDataset::build(&ds, 2).unwrap();
        for g1 in ds.group_ids() {
            for g2 in ds.group_ids() {
                if g1 == g2 {
                    continue;
                }
                let mut stats = Stats::default();
                let (n12, n21) = count_pairs(&prep, g1, g2, &mut stats);
                assert_eq!(n12, ones(&DominationMatrix::build(&ds, g1, g2)), "{g1} over {g2}");
                assert_eq!(n21, ones(&DominationMatrix::build(&ds, g2, g1)), "{g2} over {g1}");
            }
        }
    }

    /// `1e16 + 1 == 1e16`: records on one rounded coordinate sum dominate
    /// each other by their small coordinates. Both straddle loops count
    /// them exactly, with equal work, at every block size.
    #[test]
    fn equal_rounded_sums_count_exactly() {
        let mut next = crate::testdata::lcg(0x1E16);
        for dim in [2, 3, 5] {
            let mut b = crate::dataset::GroupedDatasetBuilder::new(dim);
            for (g, len) in [7, 16, 17, 1, 33].into_iter().enumerate() {
                let rows: Vec<Vec<f64>> = (0..len)
                    .map(|_| {
                        let mut r: Vec<f64> = (0..dim).map(|_| (next() * 3.0).floor()).collect();
                        r[0] = 1e16;
                        r
                    })
                    .collect();
                b.push_group(format!("g{g}"), &rows).unwrap();
            }
            let ds = b.build().unwrap();
            for block_size in [1, 5, 16, MAX_LANE_BLOCK] {
                let prep = PreparedDataset::build(&ds, block_size).unwrap();
                let scalar = KernelConfig::ColumnarScalar { block_size };
                for g1 in ds.group_ids() {
                    for g2 in ds.group_ids().filter(|&g2| g2 != g1) {
                        let tag = format!("d={dim} bs={block_size} {g1} vs {g2}");
                        let mut auto = Stats { group_pairs: 1, ..Stats::default() };
                        let counts = count_pairs(&prep, g1, g2, &mut auto);
                        let want = (
                            ones(&DominationMatrix::build(&ds, g1, g2)),
                            ones(&DominationMatrix::build(&ds, g2, g1)),
                        );
                        assert_eq!(counts, want, "{tag}");
                        let mut s = Stats::default();
                        let (s1, s2) = (prep.segment(g1), prep.segment(g2));
                        assert_eq!(count_segments(scalar, s1, s2, &mut s).unwrap(), want, "{tag}");
                        assert_eq!(s, auto, "{tag}");
                        let pairs =
                            crate::num::pair_product(prep.group_len(g1), prep.group_len(g2));
                        assert!(s.record_pairs <= pairs, "{tag}: a pair is charged once");
                    }
                }
            }
        }
    }

    #[test]
    fn full_blocks_are_detected_on_stacked_groups() {
        let mut b = crate::dataset::GroupedDatasetBuilder::new(2);
        let lo: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 * 0.1, 1.0]).collect();
        let hi: Vec<Vec<f64>> = (0..8).map(|i| vec![100.0 + i as f64, 100.0]).collect();
        b.push_group("lo", &lo).unwrap();
        b.push_group("hi", &hi).unwrap();
        let ds = b.build().unwrap();
        let prep = PreparedDataset::build(&ds, 4).unwrap();
        let mut stats = Stats::default();
        let (n12, n21) = count_pairs(&prep, 1, 0, &mut stats);
        assert_eq!((n12, n21), (64, 0));
        assert_eq!(stats.blocks_full, 4, "2x2 block pairs, all fully dominating");
        assert_eq!(stats.records_compared, 0);
    }

    #[test]
    fn kernel_dispatch_matches_compare_groups() {
        let ds = movie_directors();
        let exhaustive = Kernel::new(&ds, KernelConfig::Exhaustive).unwrap();
        let scalar = Kernel::new(&ds, KernelConfig::columnar_scalar()).unwrap();
        let columnar = Kernel::new(&ds, KernelConfig::columnar()).unwrap();
        assert!(exhaustive.prepared().is_none() && !exhaustive.is_simd());
        assert!(scalar.prepared().is_some() && !scalar.is_simd());
        assert!(columnar.prepared().is_some());
        assert_eq!(columnar.is_simd(), crate::cpu::simd_active());
        let opts = PairOptions::default();
        for g1 in ds.group_ids() {
            for g2 in (g1 + 1)..ds.n_groups() {
                let mut s1 = Stats::default();
                let mut s2 = Stats::default();
                let mut s3 = Stats::default();
                let v = exhaustive.compare(g1, g2, Gamma::DEFAULT, None, opts, &mut s1);
                assert_eq!(v, scalar.compare(g1, g2, Gamma::DEFAULT, None, opts, &mut s2));
                assert_eq!(v, columnar.compare(g1, g2, Gamma::DEFAULT, None, opts, &mut s3));
            }
        }
    }

    #[test]
    fn invalid_kernel_configs_are_rejected() {
        let ds = movie_directors();
        for block_size in [0, MAX_LANE_BLOCK + 1] {
            for config in
                [KernelConfig::Columnar { block_size }, KernelConfig::ColumnarScalar { block_size }]
            {
                assert!(
                    matches!(Kernel::new(&ds, config), Err(Error::InvalidArgument(_))),
                    "{config:?}"
                );
            }
        }
    }

    #[test]
    fn with_prepared_shares_one_preparation() {
        let ds = movie_directors();
        let prep = PreparedDataset::build(&ds, 8).unwrap();
        let kernel = Kernel::with_prepared(&ds, &prep);
        assert!(std::ptr::eq(kernel.prepared().unwrap(), &prep));
        let mut owned = None;
        assert_eq!(kernel.boxes(&mut owned), &Mbb::of_all_groups(&ds)[..]);
        assert!(owned.is_none(), "a prepared kernel reuses the preparation's boxes");
        assert_eq!(kernel.is_simd(), crate::cpu::simd_active());
    }

    /// Cached comparisons serve and resume without flipping any verdict,
    /// in either orientation, across a γ sweep that tightens the threshold.
    #[test]
    fn cached_compare_matches_uncached_across_gammas() {
        for seed in 0..4 {
            let ds = random_dataset(8, 9, 3, 1200 + seed);
            let kernel = Kernel::new(&ds, KernelConfig::columnar()).unwrap();
            let mut cache = PairCache::new();
            let opts = PairOptions::default();
            for gamma in [0.5, 0.6, 0.75, 0.9] {
                let gamma = Gamma::new(gamma).unwrap();
                for g1 in 0..ds.n_groups() {
                    for g2 in 0..ds.n_groups() {
                        if g1 == g2 {
                            continue;
                        }
                        let mut s1 = Stats::default();
                        let mut s2 = Stats::default();
                        let plain = kernel.compare(g1, g2, gamma, None, opts, &mut s1);
                        let cached = kernel.compare_cached(
                            g1,
                            g2,
                            gamma,
                            None,
                            opts,
                            Some(&mut cache),
                            &mut s2,
                        );
                        assert_eq!(plain, cached, "seed={seed} γ={gamma} {g1}v{g2}");
                    }
                }
            }
            // Both orientations of every pair were queried at four γ values:
            // the second orientation and later sweeps must reuse evidence.
            assert!(!cache.is_empty());
        }
    }
}
