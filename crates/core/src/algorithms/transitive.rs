//! TR and SI: the transitive algorithm (Algorithm 3) and its sorted-access
//! variant (Algorithm 4).

use super::nested_loop::split_two;
use super::{
    apply_verdict, build_order, collect_result, interrupted, kernel_boxes, AlgoOptions, PairDeltas,
    PairDists, Pruning, SkylineResult, Status,
};
use crate::dataset::{GroupId, GroupedDataset};
use crate::error::Result;
use crate::kernel::Kernel;
use crate::mbb::Mbb;
use crate::paircache::PairCache;
use crate::paircount::PairOptions;
use crate::runctx::{Outcome, RunContext};
use crate::stats::Stats;

/// TR: nested loop with weak-transitivity pruning (Algorithm 3), visiting
/// groups in insertion order.
pub fn transitive(ds: &GroupedDataset, opts: &AlgoOptions) -> Result<SkylineResult> {
    let kernel = Kernel::new(ds, opts.kernel)?;
    let mut dists = PairDists::default();
    Ok(transitive_on(&kernel, opts, &RunContext::unlimited(), None, &mut dists).unwrap_or_partial())
}

/// [`transitive`] over a pre-built kernel.
pub(super) fn transitive_on(
    kernel: &Kernel<'_>,
    opts: &AlgoOptions,
    ctx: &RunContext,
    cache: Option<&mut PairCache>,
    dists: &mut PairDists,
) -> Outcome {
    let ds = kernel.dataset();
    let mut owned_boxes = None;
    let boxes = opts.bbox_prune.then(|| kernel_boxes(kernel, &mut owned_boxes));
    let order: Vec<GroupId> = ds.group_ids().collect();
    run_pairwise(kernel, opts, &order, boxes, ctx, cache, dists)
}

/// SI: the sorted variant (Algorithm 4). Groups are visited in the order of
/// `opts.sort` (the paper's evaluation sorts by group size and the distance
/// of the MBB minimum corner from the origin); otherwise identical to TR.
pub fn sorted(ds: &GroupedDataset, opts: &AlgoOptions) -> Result<SkylineResult> {
    let kernel = Kernel::new(ds, opts.kernel)?;
    let mut dists = PairDists::default();
    Ok(sorted_on(&kernel, opts, &RunContext::unlimited(), None, &mut dists).unwrap_or_partial())
}

/// [`sorted`] over a pre-built kernel.
pub(super) fn sorted_on(
    kernel: &Kernel<'_>,
    opts: &AlgoOptions,
    ctx: &RunContext,
    cache: Option<&mut PairCache>,
    dists: &mut PairDists,
) -> Outcome {
    let ds = kernel.dataset();
    let mut owned_boxes = None;
    let boxes = kernel_boxes(kernel, &mut owned_boxes);
    let order = build_order(ds, boxes, opts.sort);
    let boxes_opt = opts.bbox_prune.then_some(boxes);
    run_pairwise(kernel, opts, &order, boxes_opt, ctx, cache, dists)
}

/// The Algorithm 3 loop over an arbitrary visiting order, polling `ctx`
/// before every group-pair comparison and observing each pair's work into
/// `dists`.
pub(super) fn run_pairwise(
    kernel: &Kernel<'_>,
    opts: &AlgoOptions,
    order: &[GroupId],
    boxes: Option<&[Mbb]>,
    ctx: &RunContext,
    mut cache: Option<&mut PairCache>,
    dists: &mut PairDists,
) -> Outcome {
    let ds = kernel.dataset();
    let n = ds.n_groups();
    let mut statuses = vec![Status::Live; n];
    let mut stats = Stats::default();
    // Exact pruning never acts on strong marks, so it uses the cheaper
    // γ-only counting mode (encapsulated in `pair_options`).
    let pair_opts: PairOptions = opts.pruning.pair_options(opts.stop_rule);
    let strong_marks = opts.pruning.uses_strong_marks();
    // Only the Exact discipline is result-preserving, so only it may claim
    // confirmed-in membership for groups whose triangle of comparisons
    // completed; under heuristic pruning a Live group can still be a false
    // survivor, and interruption leaves it undecided.
    let sound = opts.pruning == Pruning::Exact;
    for (i, &g1) in order.iter().enumerate() {
        // Algorithm 3 line 3: a strongly dominated group is skipped
        // entirely.
        if strong_marks && statuses[g1] == Status::StronglyDominated {
            continue;
        }
        for &g2 in &order[i + 1..] {
            if strong_marks {
                // Algorithm 3 lines 10-12.
                if statuses[g2] == Status::StronglyDominated {
                    stats.transitive_skips += 1;
                    continue;
                }
            } else {
                // Sound skip: both sides are already excluded, so this
                // comparison can affect neither membership.
                if statuses[g1] != Status::Live && statuses[g2] != Status::Live {
                    stats.transitive_skips += 1;
                    continue;
                }
            }
            if let Some(reason) = ctx.poll(stats.record_pairs) {
                // A group at a completed outer position has met every other
                // group: later positions in its own iteration, earlier ones
                // in theirs (the Exact discipline never breaks out early).
                let mut done = vec![false; n];
                for &g in order.iter().take(i) {
                    done[g] = true;
                }
                return interrupted(&statuses, |g| sound && done[g], stats, reason);
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
            let (s1, s2) = split_two(&mut statuses, g1, g2);
            apply_verdict(verdict, s1, s2, opts.pruning);
            // Algorithm 3 line 19: once g1 is strongly dominated, stop
            // processing it.
            if strong_marks && statuses[g1] == Status::StronglyDominated {
                break;
            }
        }
    }
    Outcome::Complete(collect_result(&statuses, stats))
}

#[cfg(test)]
mod tests {
    use super::super::naive::naive_skyline;
    use super::super::SortStrategy;
    use super::*;
    use crate::gamma::Gamma;
    use crate::testdata::{movie_directors, random_dataset};

    fn paper(gamma: f64) -> AlgoOptions {
        AlgoOptions::paper(Gamma::new(gamma).unwrap())
    }

    #[test]
    fn transitive_matches_oracle_on_movies() {
        let ds = movie_directors();
        for gamma in [0.5, 0.7, 1.0] {
            let tr = transitive(&ds, &paper(gamma)).unwrap();
            let oracle = naive_skyline(&ds, Gamma::new(gamma).unwrap());
            assert_eq!(tr.skyline, oracle.skyline, "gamma={gamma}");
        }
    }

    #[test]
    fn sorted_matches_oracle_on_movies() {
        let ds = movie_directors();
        for strategy in [
            SortStrategy::InsertionOrder,
            SortStrategy::CornerDistance,
            SortStrategy::SizeThenDistance,
        ] {
            let si = sorted(&ds, &AlgoOptions { sort: strategy, ..paper(0.5) }).unwrap();
            let oracle = naive_skyline(&ds, Gamma::DEFAULT);
            assert_eq!(si.skyline, oracle.skyline, "{strategy:?}");
        }
    }

    #[test]
    fn exact_pruning_matches_oracle_on_random_data() {
        for seed in 0..20 {
            let ds = random_dataset(15, 8, 3, 1000 + seed);
            for gamma in [0.5, 0.8] {
                let opts = AlgoOptions::exact(Gamma::new(gamma).unwrap());
                let tr = transitive(&ds, &opts).unwrap();
                let si = sorted(&ds, &opts).unwrap();
                let oracle = naive_skyline(&ds, Gamma::new(gamma).unwrap());
                assert_eq!(tr.skyline, oracle.skyline, "TR seed={seed} gamma={gamma}");
                assert_eq!(si.skyline, oracle.skyline, "SI seed={seed} gamma={gamma}");
            }
        }
    }

    #[test]
    fn paper_pruning_matches_oracle_on_random_data() {
        // The printed Algorithm 3 is not provably exact (see module docs of
        // `algorithms`), but on typical data it agrees with the oracle; this
        // guards the implementation against regressions on a broad sample.
        let mut mismatches = 0;
        for seed in 0..20 {
            let ds = random_dataset(15, 8, 3, 2000 + seed);
            let tr = transitive(&ds, &paper(0.5)).unwrap();
            let oracle = naive_skyline(&ds, Gamma::DEFAULT);
            if tr.skyline != oracle.skyline {
                // Any deviation must be a superset (extra survivors), never
                // a lost skyline member.
                for g in &oracle.skyline {
                    assert!(
                        tr.skyline.contains(g),
                        "paper pruning lost skyline group {g} (seed {seed})"
                    );
                }
                mismatches += 1;
            }
        }
        assert!(mismatches <= 2, "paper pruning deviated on {mismatches}/20 random inputs");
    }

    #[test]
    fn transitive_skips_happen_on_chained_data() {
        // Strictly stacked groups: the top group strongly dominates all
        // others, so TR should skip comparisons NL would perform.
        let mut b = crate::dataset::GroupedDatasetBuilder::new(2);
        for level in 0..12 {
            let base = 10.0 * level as f64;
            b.push_group(format!("g{level}"), &[vec![base, base], vec![base + 1.0, base + 1.0]])
                .unwrap();
        }
        let ds = b.build().unwrap();
        let tr = transitive(&ds, &paper(0.5)).unwrap();
        assert_eq!(tr.skyline, vec![11]);
        assert!(tr.stats.group_pairs < 12 * 11 / 2, "no pruning happened");
    }
}
