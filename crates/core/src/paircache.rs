//! Cross-γ memoization of pair counts.
//!
//! Every algorithm resolves a group pair by counting dominating record
//! pairs, and a γ-sensitivity sweep (or two algorithms sharing one run)
//! recomputes the *same* tallies: the counts `n12`/`n21` depend only on the
//! data, never on γ or on [`crate::PairOptions`]. [`PairCache`] memoizes
//! the [`Counter`](crate::paircount) state per unordered group pair —
//! including *partial* tallies cut short by the Section 3.3 stopping rule —
//! so a later query can either serve the verdict outright or resume
//! counting from where the previous one stopped.
//!
//! Resumption is sound because of two properties (DESIGN.md §12):
//!
//! 1. the prepared kernel counts block pairs in a fixed deterministic order
//!    (a single linear cursor over `(block of g_lo) × (block of g_hi)` in
//!    canonical `g_lo < g_hi` orientation), so a cached `cursor` uniquely
//!    identifies *which* pairs the tallies cover, regardless of which
//!    algorithm, straddle kernel (scalar or AVX2 — they tally
//!    identically), or γ produced them;
//! 2. every verdict the stopping rule accepts is *certain* — equal to the
//!    full-count verdict — so serving a cached partial under a new γ (when
//!    its `verdict()` resolves) and finishing the count (when it does not)
//!    agree with what an uncached run would conclude.
//!
//! The cache is deliberately **not** synchronized: the parallel scheduler
//! gives each worker its own shard ([`crate::parallel_skyline`]), which
//! costs duplicate work across workers but never serializes them. Budget
//! accounting in [`crate::RunContext`] charges only freshly counted pairs
//! (`Stats::record_pairs` is advanced by the kernel loops, not by cache
//! hits), so resumed work is ticked exactly once across a sweep.

use crate::dataset::GroupId;
use crate::dynamic::TallySeed;
use crate::error::{Error, Result};
use crate::prepared::PreparedDataset;
use std::collections::HashMap;
use std::sync::Arc;

/// Memoized counting state of one group pair, in canonical orientation
/// (`n12` counts records of the *smaller* group id dominating the larger).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedTally {
    /// Dominating pairs `g_lo → g_hi` among the first `checked` pairs.
    pub n12: u64,
    /// Dominating pairs `g_hi → g_lo` among the first `checked` pairs.
    pub n21: u64,
    /// Record pairs accounted for so far (classified, skipped or counted).
    pub checked: u64,
    /// The pair-count denominator `|g_lo|·|g_hi|`.
    pub total: u64,
    /// Next block-pair index of the kernel's linear block cursor; counting
    /// resumes here when a tighter γ needs more evidence.
    pub cursor: u64,
}

impl CachedTally {
    /// A tally covering no pairs yet.
    #[inline]
    pub fn fresh(total: u64) -> CachedTally {
        CachedTally { n12: 0, n21: 0, checked: 0, total, cursor: 0 }
    }

    /// Whether every pair has been accounted for (nothing left to resume).
    #[inline]
    pub fn complete(&self) -> bool {
        self.checked == self.total
    }
}

/// A memo table of [`CachedTally`] entries keyed by unordered group pair,
/// shared across algorithms within a run and across the γ-sweep driver
/// ([`crate::gamma_sweep`]).
///
/// Valid only against one fixed dataset/preparation; callers own that
/// association (the sweep driver builds the preparation and the cache side
/// by side, the parallel scheduler keeps one shard per worker).
///
/// A served epoch's reads start from a *seeded* cache: it answers pairs it
/// has memoized nothing for from the writer's exact tallies, shared by
/// every read of the epoch, and memoizes its own counts on top. The seed
/// is not an entry: [`PairCache::len`] and [`PairCache::export`] cover
/// what the cache memoized.
#[derive(Debug, Clone, Default)]
pub struct PairCache {
    map: HashMap<(GroupId, GroupId), CachedTally>,
    seed: Option<Arc<TallySeed>>,
}

impl PairCache {
    /// An empty cache.
    pub fn new() -> PairCache {
        PairCache::default()
    }

    /// An empty cache over `seed`'s exact tallies.
    pub(crate) fn seeded(seed: Arc<TallySeed>) -> PairCache {
        PairCache { map: HashMap::new(), seed: Some(seed) }
    }

    /// Number of memoized pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The memoized tally for the unordered pair `{g1, g2}`, else the
    /// seed's, if any.
    #[inline]
    pub fn lookup(&self, g1: GroupId, g2: GroupId) -> Option<CachedTally> {
        let (lo, hi) = Self::key(g1, g2);
        self.map.get(&(lo, hi)).copied().or_else(|| self.seed.as_ref()?.lookup(lo, hi))
    }

    /// Stores (or overwrites) the tally for the unordered pair `{g1, g2}`.
    /// The tally must be oriented canonically: `n12` for the smaller id
    /// dominating the larger.
    #[inline]
    pub fn store(&mut self, g1: GroupId, g2: GroupId, tally: CachedTally) {
        self.map.insert(Self::key(g1, g2), tally);
    }

    /// Drops every entry and the seed (e.g. when switching datasets).
    pub fn clear(&mut self) {
        self.map.clear();
        self.seed = None;
    }

    /// Every memoized entry in canonical orientation, sorted ascending by
    /// key — a deterministic order, so two exports of equal caches are
    /// byte-identical once serialized (the persist layer relies on this).
    pub fn export(&self) -> Vec<((GroupId, GroupId), CachedTally)> {
        let mut entries: Vec<_> = self.map.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        entries
    }

    /// Validates and installs externally produced entries (e.g. read back
    /// from a checkpoint frame) against the preparation the cache will be
    /// used with. Every entry must name groups that exist, carry the exact
    /// pair-count denominator `|g_lo|·|g_hi|`, keep its tallies within
    /// `checked ≤ total`, and point its resume cursor inside the kernel's
    /// `n_blocks(lo) × n_blocks(hi)` block-pair space. Validation is
    /// all-or-nothing: on any violation the cache is left untouched and a
    /// typed [`Error::CorruptCheckpoint`] names the offending pair —
    /// resuming a kernel from an out-of-range cursor would silently
    /// miscount, which is exactly what this refuses to allow.
    pub fn ingest(
        &mut self,
        prep: &PreparedDataset,
        entries: &[((GroupId, GroupId), CachedTally)],
    ) -> Result<usize> {
        let n = prep.n_groups();
        for &((lo, hi), t) in entries {
            let reject = |why: String| {
                Error::CorruptCheckpoint(format!("pair cache entry ({lo}, {hi}): {why}"))
            };
            if lo >= hi {
                return Err(reject("not in canonical lo < hi orientation".into()));
            }
            if hi >= n {
                return Err(reject(format!("dataset has only {n} groups")));
            }
            let total = crate::num::pair_count(prep.group_len(lo), prep.group_len(hi))?;
            if t.total != total {
                return Err(reject(format!(
                    "denominator {} does not match |g_lo|*|g_hi| = {total}",
                    t.total
                )));
            }
            if t.checked > t.total {
                return Err(reject(format!("checked {} exceeds total {}", t.checked, t.total)));
            }
            if t.n12 > t.checked || t.n21 > t.checked {
                return Err(reject(format!(
                    "tallies {}/{} exceed the {} pairs checked",
                    t.n12, t.n21, t.checked
                )));
            }
            let block_pairs = crate::num::wide(prep.n_blocks(lo))
                .saturating_mul(crate::num::wide(prep.n_blocks(hi)));
            if t.cursor > block_pairs {
                return Err(reject(format!(
                    "block cursor {} outside the {block_pairs} block pairs of this preparation",
                    t.cursor
                )));
            }
        }
        for &((lo, hi), t) in entries {
            self.map.insert((lo, hi), t);
        }
        Ok(entries.len())
    }

    #[inline]
    fn key(g1: GroupId, g2: GroupId) -> (GroupId, GroupId) {
        if g1 <= g2 {
            (g1, g2)
        } else {
            (g2, g1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_orientation_free() {
        let mut cache = PairCache::new();
        assert!(cache.is_empty());
        let t = CachedTally { n12: 3, n21: 1, checked: 10, total: 12, cursor: 2 };
        cache.store(7, 2, t);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(2, 7), Some(t));
        assert_eq!(cache.lookup(7, 2), Some(t));
        assert!(!t.complete());
        cache.clear();
        assert!(cache.lookup(2, 7).is_none());
    }

    #[test]
    fn fresh_tally_is_incomplete_until_total_zero() {
        assert!(!CachedTally::fresh(5).complete());
        assert!(CachedTally::fresh(0).complete());
    }

    #[test]
    fn export_is_sorted_and_ingest_round_trips() {
        let ds = crate::testdata::random_dataset(6, 4, 2, 1234);
        let prep = PreparedDataset::build(&ds, 2).unwrap();
        let mut cache = PairCache::new();
        let t = |lo: GroupId, hi: GroupId| {
            CachedTally::fresh(crate::num::pair_count(ds.group_len(lo), ds.group_len(hi)).unwrap())
        };
        cache.store(4, 1, t(1, 4));
        cache.store(0, 3, t(0, 3));
        cache.store(2, 5, t(2, 5));
        let exported = cache.export();
        let keys: Vec<_> = exported.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![(0, 3), (1, 4), (2, 5)], "export must be sorted");
        let mut restored = PairCache::new();
        assert_eq!(restored.ingest(&prep, &exported).unwrap(), 3);
        assert_eq!(restored.export(), exported);
    }

    #[test]
    fn ingest_rejects_malformed_entries_without_mutating() {
        use crate::error::Error;
        let ds = crate::testdata::random_dataset(6, 4, 2, 1235);
        let prep = PreparedDataset::build(&ds, 2).unwrap();
        let ok_total = crate::num::pair_count(ds.group_len(0), ds.group_len(1)).unwrap();
        let ok = ((0, 1), CachedTally::fresh(ok_total));
        let cases: Vec<((GroupId, GroupId), CachedTally)> = vec![
            // Non-canonical orientation.
            ((1, 0), CachedTally::fresh(ok_total)),
            // Out-of-range group.
            ((0, 99), CachedTally::fresh(ok_total)),
            // Wrong denominator.
            ((0, 1), CachedTally::fresh(ok_total + 1)),
            // checked > total.
            (
                (0, 1),
                CachedTally { n12: 0, n21: 0, checked: ok_total + 1, total: ok_total, cursor: 0 },
            ),
            // Tally exceeding checked.
            ((0, 1), CachedTally { n12: 5, n21: 0, checked: 1, total: ok_total, cursor: 0 }),
            // Cursor beyond the block-pair space.
            ((0, 1), CachedTally { n12: 0, n21: 0, checked: 0, total: ok_total, cursor: u64::MAX }),
        ];
        for bad in cases {
            let mut cache = PairCache::new();
            // All-or-nothing: the valid leading entry must not survive the
            // rejected batch.
            let err = cache.ingest(&prep, &[ok, bad]).unwrap_err();
            assert!(matches!(err, Error::CorruptCheckpoint(_)), "{bad:?}: {err}");
            assert!(cache.is_empty(), "{bad:?} left the cache mutated");
        }
    }
}
