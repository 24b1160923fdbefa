//! NL: the nested-loop algorithm (Algorithm 2) with the Section 3.3 stop
//! condition.

use super::{
    apply_verdict, collect_result, interrupted, AlgoOptions, PairDeltas, PairDists, Pruning,
    SkylineResult, Status,
};
use crate::dataset::GroupedDataset;
use crate::error::Result;
use crate::kernel::Kernel;
use crate::paircache::PairCache;
use crate::paircount::PairOptions;
use crate::runctx::{Outcome, RunContext};
use crate::stats::Stats;

/// Compares every unordered pair of groups once, resolving both directions
/// per comparison (Algorithm 2). Honors `opts.stop_rule`, `opts.bbox_prune`
/// and `opts.kernel`; ignores `opts.pruning` and `opts.sort` (plain NL never
/// skips a pair and visits groups in insertion order).
pub fn nested_loop(ds: &GroupedDataset, opts: &AlgoOptions) -> Result<SkylineResult> {
    let kernel = Kernel::new(ds, opts.kernel)?;
    let mut dists = PairDists::default();
    Ok(nested_loop_on(&kernel, opts, &RunContext::unlimited(), None, &mut dists)
        .unwrap_or_partial())
}

/// [`nested_loop`] over a pre-built kernel, polling `ctx` before every
/// group-pair comparison, memoizing tallies through `cache` when given and
/// observing each pair's work into `dists`.
pub(super) fn nested_loop_on(
    kernel: &Kernel<'_>,
    opts: &AlgoOptions,
    ctx: &RunContext,
    mut cache: Option<&mut PairCache>,
    dists: &mut PairDists,
) -> Outcome {
    let n = kernel.n_groups();
    let mut statuses = vec![Status::Live; n];
    let mut stats = Stats::default();
    let mut owned_boxes = None;
    let boxes = opts.bbox_prune.then(|| kernel.boxes(&mut owned_boxes));
    // NL never acts on strong (γ̄) marks, so the cheaper γ-only counting
    // mode is used: the stop rule fires as soon as the γ question settles.
    let pair_opts = PairOptions { stop_rule: opts.stop_rule, need_bar: false };
    for g1 in 0..n {
        for g2 in (g1 + 1)..n {
            if let Some(reason) = ctx.poll(stats.record_pairs) {
                // Outer iterations before g1 have seen every counterpart
                // (earlier iterations covered their smaller-id pairs), and
                // NL applies exact semantics, so their Live groups are
                // proven members.
                return interrupted(&statuses, |g| g < g1, stats, reason);
            }
            let pair_boxes = boxes.map(|b| (&b[g1], &b[g2]));
            let before = PairDeltas::before(&stats);
            let mut verdict = kernel.compare_cached(
                g1,
                g2,
                opts.gamma,
                pair_boxes,
                pair_opts,
                cache.as_deref_mut(),
                &mut stats,
            );
            ctx.corrupt_verdict(&mut verdict, stats.record_pairs);
            dists.observe(&before, &stats);
            let (left, right) = split_two(&mut statuses, g1, g2);
            apply_verdict(verdict, left, right, Pruning::Exact);
        }
    }
    Outcome::Complete(collect_result(&statuses, stats))
}

/// Borrows two distinct slots of a slice mutably.
pub(super) fn split_two(s: &mut [Status], i: usize, j: usize) -> (&mut Status, &mut Status) {
    debug_assert!(i != j);
    if i < j {
        let (a, b) = s.split_at_mut(j);
        (&mut a[i], &mut b[0])
    } else {
        let (a, b) = s.split_at_mut(i);
        (&mut b[0], &mut a[j])
    }
}

#[cfg(test)]
mod tests {
    use super::super::naive::naive_skyline;
    use super::*;
    use crate::dataset::GroupedDatasetBuilder;
    use crate::gamma::Gamma;

    fn opts(gamma: f64) -> AlgoOptions {
        AlgoOptions::paper(Gamma::new(gamma).unwrap())
    }

    #[test]
    fn matches_oracle_on_movie_example() {
        let ds = crate::testdata::movie_directors();
        for gamma in [0.5, 0.6, 0.75, 0.9, 1.0] {
            let nl = nested_loop(&ds, &opts(gamma)).unwrap();
            let oracle = naive_skyline(&ds, Gamma::new(gamma).unwrap());
            assert_eq!(nl.skyline, oracle.skyline, "gamma={gamma}");
        }
    }

    #[test]
    fn stop_rule_reduces_record_comparisons() {
        // Stacked groups: each strictly dominates the next; early stopping
        // should certify domination quickly.
        let mut b = GroupedDatasetBuilder::new(2);
        for level in 0..10 {
            let base = 100.0 * level as f64;
            let rows: Vec<Vec<f64>> =
                (0..20).map(|i| vec![base + i as f64 * 0.1, base + 1.0]).collect();
            b.push_group(format!("g{level}"), &rows).unwrap();
        }
        let ds = b.build().unwrap();
        let with = nested_loop(&ds, &opts(0.5)).unwrap();
        let without = nested_loop(&ds, &AlgoOptions { stop_rule: false, ..opts(0.5) }).unwrap();
        assert_eq!(with.skyline, without.skyline);
        assert!(
            with.stats.record_pairs < without.stats.record_pairs,
            "stop rule saved nothing: {} vs {}",
            with.stats.record_pairs,
            without.stats.record_pairs
        );
        assert_eq!(with.skyline, vec![9]);
    }

    #[test]
    fn bbox_pruning_preserves_result() {
        let ds = crate::testdata::movie_directors();
        let plain = nested_loop(&ds, &opts(0.5)).unwrap();
        let boxed = nested_loop(&ds, &AlgoOptions { bbox_prune: true, ..opts(0.5) }).unwrap();
        assert_eq!(plain.skyline, boxed.skyline);
        assert!(boxed.stats.record_pairs <= plain.stats.record_pairs);
    }

    #[test]
    fn split_two_borrows_correct_slots() {
        let mut s = vec![Status::Live; 3];
        {
            let (a, b) = split_two(&mut s, 2, 0);
            a.raise(Status::Dominated);
            b.raise(Status::StronglyDominated);
        }
        assert_eq!(s, vec![Status::StronglyDominated, Status::Live, Status::Dominated]);
    }
}
