//! Pairwise group comparison: exhaustive counting, the Section 3.3 stopping
//! rule, and the Figure 9 bounding-box region decomposition.
//!
//! Every aggregate-skyline algorithm funnels its group-vs-group tests through
//! [`compare_groups`], which resolves the domination level in *both*
//! directions while performing as few record-vs-record checks as the enabled
//! optimizations allow.

use crate::dataset::{GroupId, GroupedDataset};
use crate::dominance::dominates;
use crate::gamma::Gamma;
use crate::mbb::Mbb;
use crate::stats::Stats;

/// Level at which one group dominates another.
///
/// `GammaBar` (strong domination, threshold `γ̄ = 1 − √(1−γ)/2`) implies
/// `Gamma`. `p = 1` always resolves to `GammaBar`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DomLevel {
    /// No domination at level γ.
    None,
    /// Domination at level γ but (known or assumed) not at level γ̄.
    Gamma,
    /// Strong domination at level γ̄ (enables weak-transitivity pruning).
    GammaBar,
}

impl DomLevel {
    /// True iff this level excludes the dominated group from the skyline.
    #[inline]
    pub fn dominates(self) -> bool {
        self != DomLevel::None
    }
}

/// Resolution of one group-vs-group comparison, in both directions.
///
/// Because `γ ≥ 0.5`, at most one direction can be a domination
/// (Proposition 1); the other is always [`DomLevel::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairVerdict {
    /// Domination level of the first group over the second.
    pub forward: DomLevel,
    /// Domination level of the second group over the first.
    pub backward: DomLevel,
}

impl PairVerdict {
    pub(crate) const INCOMPARABLE: PairVerdict =
        PairVerdict { forward: DomLevel::None, backward: DomLevel::None };

    /// The same resolution seen from the opposite orientation: forward and
    /// backward swapped. Used by the pair cache, which always counts a pair
    /// in canonical `(min, max)` group order regardless of how the caller
    /// oriented the comparison.
    #[inline]
    pub fn flipped(self) -> PairVerdict {
        PairVerdict { forward: self.backward, backward: self.forward }
    }
}

/// Tuning knobs for [`compare_groups`].
#[derive(Debug, Clone, Copy)]
pub struct PairOptions {
    /// Apply the Section 3.3 early-stopping rule while counting pairs.
    pub stop_rule: bool,
    /// Distinguish γ̄-level (strong) domination from plain γ-level
    /// domination. Algorithms that never prune via weak transitivity (plain
    /// NL) set this to `false`, which lets the stopping rule fire earlier.
    pub need_bar: bool,
}

impl Default for PairOptions {
    fn default() -> Self {
        PairOptions { stop_rule: true, need_bar: true }
    }
}

/// Running state of an incremental pair count.
///
/// Shared between the record-at-a-time loop below and the prepared kernel in
/// [`crate::kernel`], which advances `n12`/`n21`/`checked` a whole block pair
/// at a time.
pub(crate) struct Counter {
    pub(crate) n12: u64,
    pub(crate) n21: u64,
    pub(crate) checked: u64,
    pub(crate) total: u64,
    gamma: f64,
    gamma_bar: f64,
    need_bar: bool,
}

impl Counter {
    pub(crate) fn new(total: u64, gamma: Gamma, opts: PairOptions) -> Self {
        Counter {
            n12: 0,
            n21: 0,
            checked: 0,
            total,
            gamma: gamma.value(),
            gamma_bar: gamma.strong_threshold(),
            need_bar: opts.need_bar,
        }
    }

    /// Rebuilds a counter from memoized tallies ([`crate::PairCache`]),
    /// under a possibly *different* γ and option set than the run that
    /// produced them. Sound because the tallies themselves are
    /// γ-independent: `n12`/`n21`/`checked` only record which of the first
    /// `checked` pairs (in the kernel's deterministic block-pair order)
    /// dominate, and every `verdict()` the stopping rule accepts is certain
    /// — it equals the full-count verdict — so resuming under a new γ can
    /// only extend the count, never contradict it.
    pub(crate) fn resume(
        total: u64,
        gamma: Gamma,
        opts: PairOptions,
        n12: u64,
        n21: u64,
        checked: u64,
    ) -> Self {
        debug_assert!(n12 + n21 <= checked && checked <= total);
        let mut c = Counter::new(total, gamma, opts);
        c.n12 = n12;
        c.n21 = n21;
        c.checked = checked;
        c
    }

    /// Forward level if the count stopped right now and all remaining pairs
    /// were worst-case; `None` when the direction is not yet resolved.
    fn resolve_dir(&self, n: u64) -> Option<DomLevel> {
        let total = self.total as f64;
        let rem = self.total - self.checked;
        let low = n as f64;
        let high = (n + rem) as f64;
        // Can this direction still reach γ-level domination (p > γ or p = 1)?
        let possible_gamma = high > self.gamma * total || n + rem == self.total;
        if !possible_gamma {
            return Some(DomLevel::None);
        }
        // Is γ-level domination already certain?
        let certain_gamma =
            low > self.gamma * total || (self.checked == self.total && n == self.total);
        if !certain_gamma {
            return None;
        }
        if !self.need_bar {
            return Some(DomLevel::Gamma);
        }
        let possible_bar = high > self.gamma_bar * total || n + rem == self.total;
        let certain_bar =
            low > self.gamma_bar * total || (self.checked == self.total && n == self.total);
        if certain_bar {
            Some(DomLevel::GammaBar)
        } else if !possible_bar {
            Some(DomLevel::Gamma)
        } else {
            None
        }
    }

    pub(crate) fn verdict(&self) -> Option<PairVerdict> {
        let forward = self.resolve_dir(self.n12)?;
        let backward = self.resolve_dir(self.n21)?;
        Some(PairVerdict { forward, backward })
    }

    /// Level of a direction once every pair has been counted. Total — at a
    /// full count [`Counter::resolve_dir`]'s "possible" and "certain"
    /// conditions coincide, so this is its `rem = 0` specialization.
    fn resolve_full(&self, n: u64) -> DomLevel {
        let total = self.total as f64;
        if !((n as f64) > self.gamma * total || n == self.total) {
            return DomLevel::None;
        }
        if !self.need_bar {
            return DomLevel::Gamma;
        }
        if (n as f64) > self.gamma_bar * total || n == self.total {
            DomLevel::GammaBar
        } else {
            DomLevel::Gamma
        }
    }

    pub(crate) fn final_verdict(&self) -> PairVerdict {
        debug_assert_eq!(self.checked, self.total);
        PairVerdict { forward: self.resolve_full(self.n12), backward: self.resolve_full(self.n21) }
    }
}

/// Compares groups `g1` and `g2`, resolving γ- (and optionally γ̄-) level
/// domination in both directions.
///
/// * `boxes` — when `Some`, enables the Figure 9 bounding-box optimizations:
///   the 9(b) strict-dominance shortcut and the 9(c) region decomposition
///   that resolves all pairs involving records outside the boxes' overlap
///   region in closed form.
/// * `opts.stop_rule` — enables the Section 3.3 early-termination conditions,
///   evaluated after each outer record's row of comparisons.
pub fn compare_groups(
    ds: &GroupedDataset,
    g1: GroupId,
    g2: GroupId,
    gamma: Gamma,
    boxes: Option<(&Mbb, &Mbb)>,
    opts: PairOptions,
    stats: &mut Stats,
) -> PairVerdict {
    stats.group_pairs += 1;
    let len1 = crate::num::wide(ds.group_len(g1));
    let len2 = crate::num::wide(ds.group_len(g2));
    let total = crate::num::pair_product(ds.group_len(g1), ds.group_len(g2));
    let mut counter = Counter::new(total, gamma, opts);

    if let Some((b1, b2)) = boxes {
        // Figure 9(b): disjoint boxes with one strictly better resolve the
        // pair with zero record comparisons (p = 1).
        if b1.strictly_dominates(b2) {
            stats.bbox_resolved += 1;
            return PairVerdict { forward: DomLevel::GammaBar, backward: DomLevel::None };
        }
        if b2.strictly_dominates(b1) {
            stats.bbox_resolved += 1;
            return PairVerdict { forward: DomLevel::None, backward: DomLevel::GammaBar };
        }
        // If neither box can produce a dominating record pair, the groups
        // are incomparable outright.
        if !b1.may_dominate(b2) && !b2.may_dominate(b1) {
            stats.bbox_resolved += 1;
            return PairVerdict::INCOMPARABLE;
        }
        // Figure 9(c): classify records against the other group's corners.
        //
        // A1 ⊆ g1: dominated by b2.min  ⇒ dominated by every record of g2.
        // C1 ⊆ g1: dominate b2.max      ⇒ dominate every record of g2.
        // A2 ⊆ g2: dominated by b1.min  ⇒ dominated by every record of g1.
        // C2 ⊆ g2: dominate b1.max      ⇒ dominate every record of g1.
        //
        // Records in A1 can never dominate a g2 record and records in C2 can
        // never be dominated by a g1 record (and symmetrically), so only the
        // "middle" records of both groups need pairwise checks.
        let mut middle1: Vec<usize> = Vec::new();
        let mut a1 = 0u64;
        let mut c1 = 0u64;
        for (i, r) in ds.records(g1).enumerate() {
            if dominates(&b2.min, r) {
                a1 += 1;
            } else if dominates(r, &b2.max) {
                c1 += 1;
            } else {
                middle1.push(i);
            }
        }
        let mut middle2: Vec<usize> = Vec::new();
        let mut a2 = 0u64;
        let mut c2 = 0u64;
        for (j, s) in ds.records(g2).enumerate() {
            if dominates(&b1.min, s) {
                a2 += 1;
            } else if dominates(s, &b1.max) {
                c2 += 1;
            } else {
                middle2.push(j);
            }
        }
        // Closed-form pair counts (inclusion-exclusion on the overlap).
        counter.n12 = c1 * len2 + a2 * len1 - c1 * a2;
        counter.n21 = c2 * len1 + a1 * len2 - c2 * a1;
        let unknown = crate::num::pair_product(middle1.len(), middle2.len());
        counter.checked = total - unknown;
        stats.bbox_skipped_pairs += counter.checked;

        if opts.stop_rule {
            if let Some(v) = counter.verdict() {
                if counter.checked < total {
                    stats.early_stops += 1;
                }
                return v;
            }
        }
        return count_rows(
            ds,
            g1,
            g2,
            &RowSet::Subset(&middle1),
            &RowSet::Subset(&middle2),
            &mut counter,
            opts,
            stats,
        );
    }

    count_rows(ds, g1, g2, &RowSet::All, &RowSet::All, &mut counter, opts, stats)
}

/// Which records of a group participate in the pairwise loop.
enum RowSet<'a> {
    All,
    Subset(&'a [usize]),
}

impl RowSet<'_> {
    fn indices(&self, len: usize) -> impl Iterator<Item = usize> + '_ {
        match self {
            RowSet::All => Choice::A(0..len),
            RowSet::Subset(s) => Choice::B(s.iter().copied()),
        }
    }
}

/// Tiny either-iterator to avoid boxing in the hot loop.
enum Choice<A, B> {
    A(A),
    B(B),
}

impl<A: Iterator<Item = usize>, B: Iterator<Item = usize>> Iterator for Choice<A, B> {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            Choice::A(a) => a.next(),
            Choice::B(b) => b.next(),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn count_rows(
    ds: &GroupedDataset,
    g1: GroupId,
    g2: GroupId,
    rows1: &RowSet<'_>,
    rows2: &RowSet<'_>,
    counter: &mut Counter,
    opts: PairOptions,
    stats: &mut Stats,
) -> PairVerdict {
    let len1 = ds.group_len(g1);
    let len2 = ds.group_len(g2);
    let inner = match rows2 {
        // The common (no bbox decomposition) case walks the contiguous row
        // buffer directly — no index vector, no per-pair indirection.
        RowSet::All => None,
        RowSet::Subset(s) => Some(*s),
    };
    for i in rows1.indices(len1) {
        let r1 = ds.record(g1, i);
        let inner_len = match inner {
            None => {
                for r2 in ds.records(g2) {
                    count_one(r1, r2, counter);
                }
                crate::num::wide(len2)
            }
            Some(idx2) => {
                for &j in idx2 {
                    count_one(r1, ds.record(g2, j), counter);
                }
                crate::num::wide(idx2.len())
            }
        };
        counter.checked += inner_len;
        stats.record_pairs += inner_len;
        if opts.stop_rule && counter.checked < counter.total {
            if let Some(v) = counter.verdict() {
                stats.early_stops += 1;
                return v;
            }
        }
    }
    counter.final_verdict()
}

/// One fused dominance test updating the pair counter.
#[inline]
fn count_one(r1: &[f64], r2: &[f64], counter: &mut Counter) {
    let mut r1_better = false;
    let mut r2_better = false;
    for (&x, &y) in r1.iter().zip(r2.iter()) {
        if crate::ord::gt(x, y) {
            r1_better = true;
        } else if crate::ord::gt(y, x) {
            r2_better = true;
        }
    }
    if r1_better && !r2_better {
        counter.n12 += 1;
    } else if r2_better && !r1_better {
        counter.n21 += 1;
    }
}

/// Exhaustive comparison of two groups without any optimization: the oracle
/// the optimized paths are differentially tested against.
pub fn compare_groups_exhaustive(
    ds: &GroupedDataset,
    g1: GroupId,
    g2: GroupId,
    gamma: Gamma,
) -> PairVerdict {
    let p12 = crate::gamma::domination_probability(ds, g1, g2);
    let p21 = crate::gamma::domination_probability(ds, g2, g1);
    let level = |p: f64| {
        if gamma.strongly_dominated(p) {
            DomLevel::GammaBar
        } else if gamma.dominated(p) {
            DomLevel::Gamma
        } else {
            DomLevel::None
        }
    };
    PairVerdict { forward: level(p12), backward: level(p21) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::GroupedDatasetBuilder;

    fn opts(stop: bool, bar: bool) -> PairOptions {
        PairOptions { stop_rule: stop, need_bar: bar }
    }

    fn ds_tarantino_wiseau() -> GroupedDataset {
        let mut b = GroupedDatasetBuilder::new(2);
        b.push_group("T", &[vec![313.0, 8.2], vec![557.0, 9.0]]).unwrap();
        b.push_group("W", &[vec![10.0, 3.2], vec![12.0, 2.9]]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn strict_dominance_is_gamma_bar() {
        let ds = ds_tarantino_wiseau();
        let mut stats = Stats::default();
        let v = compare_groups(&ds, 0, 1, Gamma::DEFAULT, None, opts(true, true), &mut stats);
        assert_eq!(v.forward, DomLevel::GammaBar);
        assert_eq!(v.backward, DomLevel::None);
    }

    #[test]
    fn bbox_shortcut_avoids_all_record_pairs() {
        let ds = ds_tarantino_wiseau();
        let boxes = Mbb::of_all_groups(&ds);
        let mut stats = Stats::default();
        let v = compare_groups(
            &ds,
            0,
            1,
            Gamma::DEFAULT,
            Some((&boxes[0], &boxes[1])),
            opts(true, true),
            &mut stats,
        );
        assert_eq!(v.forward, DomLevel::GammaBar);
        assert_eq!(stats.record_pairs, 0);
        assert_eq!(stats.bbox_resolved, 1);
    }

    #[test]
    fn incomparable_groups() {
        let mut b = GroupedDatasetBuilder::new(2);
        b.push_group("A", &[vec![0.0, 10.0], vec![1.0, 9.0]]).unwrap();
        b.push_group("B", &[vec![10.0, 0.0], vec![9.0, 1.0]]).unwrap();
        let ds = b.build().unwrap();
        let mut stats = Stats::default();
        let v = compare_groups(&ds, 0, 1, Gamma::DEFAULT, None, opts(true, true), &mut stats);
        assert_eq!(v, PairVerdict::INCOMPARABLE);
    }

    #[test]
    fn verdict_matches_exhaustive_oracle_on_counterexample_groups() {
        // Proposition 3 counterexample: p(G2 ≻ G1) = 2/3.
        let mut b = GroupedDatasetBuilder::new(2);
        b.push_group("G1", &[vec![5.0, 5.0], vec![1.0, 1.0], vec![1.0, 2.0]]).unwrap();
        b.push_group("G2", &[vec![2.0, 3.0]]).unwrap();
        let ds = b.build().unwrap();
        let boxes = Mbb::of_all_groups(&ds);
        let oracle = compare_groups_exhaustive(&ds, 0, 1, Gamma::DEFAULT);
        for stop in [false, true] {
            for bbox in [false, true] {
                let mut stats = Stats::default();
                let boxes_arg = bbox.then_some((&boxes[0], &boxes[1]));
                let v = compare_groups(
                    &ds,
                    0,
                    1,
                    Gamma::DEFAULT,
                    boxes_arg,
                    opts(stop, true),
                    &mut stats,
                );
                assert_eq!(v, oracle, "stop={stop} bbox={bbox}");
            }
        }
        // 2/3 > γ̄(0.5) ≈ .646: strong domination by G2.
        assert_eq!(oracle.backward, DomLevel::GammaBar);
        assert_eq!(oracle.forward, DomLevel::None);
    }

    #[test]
    fn need_bar_false_still_detects_gamma_level() {
        let ds = ds_tarantino_wiseau();
        let mut stats = Stats::default();
        let v = compare_groups(&ds, 0, 1, Gamma::DEFAULT, None, opts(true, false), &mut stats);
        assert!(v.forward.dominates());
    }

    #[test]
    fn gamma_one_requires_total_domination() {
        let mut b = GroupedDatasetBuilder::new(2);
        // g1 dominates 3 of 4 pairs; at γ = 1 that is not domination.
        b.push_group("g1", &[vec![5.0, 5.0], vec![2.0, 2.0]]).unwrap();
        b.push_group("g2", &[vec![1.0, 1.0], vec![3.0, 3.0]]).unwrap();
        let ds = b.build().unwrap();
        let g1 = Gamma::new(1.0).unwrap();
        let mut stats = Stats::default();
        let v = compare_groups(&ds, 0, 1, g1, None, opts(true, true), &mut stats);
        assert_eq!(v, PairVerdict::INCOMPARABLE);
        // At γ = .5 the 3/4 probability does dominate.
        let mut stats = Stats::default();
        let v = compare_groups(&ds, 0, 1, Gamma::DEFAULT, None, opts(true, true), &mut stats);
        assert_eq!(v.forward, DomLevel::GammaBar); // 3/4 > .6464
    }

    #[test]
    fn early_stop_fires_on_large_onesided_groups() {
        // g1 has 100 records all dominating g2's 100 records; the stop rule
        // should certify γ̄-domination long before 10 000 comparisons.
        let rows1: Vec<Vec<f64>> = (0..100).map(|i| vec![100.0 + i as f64, 100.0]).collect();
        let rows2: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, 1.0]).collect();
        let mut b = GroupedDatasetBuilder::new(2);
        b.push_group("hi", &rows1).unwrap();
        b.push_group("lo", &rows2).unwrap();
        let ds = b.build().unwrap();
        let mut stats = Stats::default();
        let v = compare_groups(&ds, 0, 1, Gamma::DEFAULT, None, opts(true, true), &mut stats);
        assert_eq!(v.forward, DomLevel::GammaBar);
        assert_eq!(stats.early_stops, 1);
        assert!(stats.record_pairs < 10_000, "checked {} pairs", stats.record_pairs);
    }
}
