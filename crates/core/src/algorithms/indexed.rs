//! IN and LO: the index-based algorithm (Algorithm 5), optionally with the
//! Figure 9 bounding-box approximation.

use super::nested_loop::split_two;
use super::{
    apply_verdict, build_order, collect_result, interrupted, AlgoOptions, PairDeltas, PairDists,
    Pruning, SkylineResult, Status,
};
use crate::dataset::GroupedDataset;
use crate::error::Result;
use crate::kernel::Kernel;
use crate::paircache::PairCache;
use crate::paircount::PairOptions;
use crate::runctx::{Outcome, RunContext};
use crate::stats::Stats;
use aggsky_obs::{Hist, Stamp};
use aggsky_spatial::{Aabb, RTree};

/// IN / LO: for each group, candidate dominators are found with a window
/// query over a spatial index of MBB maximum corners (Algorithm 5); a group
/// `g2` can dominate `g1` only if `g2.max` lies in the half-open window
/// `[g1.min, ∞)`. With `opts.bbox_prune` the pairwise comparison also uses
/// the Figure 9 region decomposition (the paper's "LO" configuration).
pub fn indexed(ds: &GroupedDataset, opts: &AlgoOptions) -> Result<SkylineResult> {
    let kernel = Kernel::new(ds, opts.kernel)?;
    let mut dists = PairDists::default();
    Ok(indexed_on(&kernel, opts, &RunContext::unlimited(), None, &mut dists).unwrap_or_partial())
}

/// [`indexed`] over a pre-built kernel, polling `ctx` before every
/// candidate comparison and observing each pair's work into `dists`.
pub(super) fn indexed_on(
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
    let boxes = kernel.boxes(&mut owned_boxes);
    let order = build_order(kernel, boxes, opts.sort);
    let index_span = ctx.obs().map_or(0, |rec| rec.span_start("index_build", 0, Stamp::ZERO));
    let tree = RTree::bulk_load(
        kernel.dim(),
        boxes.iter().enumerate().map(|(g, b)| (Aabb::point(&b.max), g)).collect(),
    );
    if let Some(rec) = ctx.obs() {
        rec.span_end(index_span, Stamp::ZERO, &[("entries", crate::num::wide(n))]);
    }
    let pair_opts: PairOptions = opts.pruning.pair_options(opts.stop_rule);
    let strong_marks = opts.pruning.uses_strong_marks();
    // Unlike the pairwise loops, a group's window query surfaces *all* of
    // its potential dominators at once, so completing its own outer
    // iteration proves membership — but only under the result-preserving
    // Exact discipline (heuristic pruning skips candidates).
    let sound = opts.pruning == Pruning::Exact;
    let bail = |statuses: &[Status], done_upto: usize, stats: Stats, reason| {
        let mut done = vec![false; n];
        for &g in order.iter().take(done_upto) {
            done[g] = true;
        }
        interrupted(statuses, |g| sound && done[g], stats, reason)
    };
    let mut candidates: Vec<usize> = Vec::new();
    for (i, &g1) in order.iter().enumerate() {
        if let Some(reason) = ctx.poll(stats.record_pairs) {
            return bail(&statuses, i, stats, reason);
        }
        if strong_marks {
            // Algorithm 5 line 8.
            if statuses[g1] == Status::StronglyDominated {
                continue;
            }
        } else if statuses[g1] != Status::Live {
            // Sound skip: g1's membership is settled and, because window
            // candidates are never skipped under exact pruning, every other
            // group still sees all of its own potential dominators.
            continue;
        }
        // Algorithm 5 line 11: only groups whose best corner dominates g1's
        // worst corner can possibly dominate g1.
        tree.window_query_into(&Aabb::at_least(&boxes[g1].min), &mut candidates);
        stats.index_candidates += crate::num::wide(candidates.len().saturating_sub(1));
        dists.observe_value(Hist::WindowCandidates, crate::num::wide(candidates.len()));
        for &g2 in &candidates {
            if g2 == g1 {
                continue; // Algorithm 5 line 13.
            }
            if strong_marks && statuses[g2] == Status::StronglyDominated {
                stats.transitive_skips += 1; // Algorithm 5 line 16.
                continue;
            }
            if let Some(reason) = ctx.poll(stats.record_pairs) {
                return bail(&statuses, i, stats, reason);
            }
            let pair_boxes = opts.bbox_prune.then(|| (&boxes[g1], &boxes[g2]));
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
            if strong_marks && statuses[g1] == Status::StronglyDominated {
                break; // "end processing of g1".
            }
            if !strong_marks && statuses[g1] != Status::Live {
                break; // membership settled; candidates cannot unsettle it.
            }
        }
    }
    Outcome::Complete(collect_result(&statuses, stats))
}

#[cfg(test)]
mod tests {
    use super::super::naive::naive_skyline;
    use super::*;
    use crate::gamma::Gamma;
    use crate::testdata::{movie_directors, random_dataset};

    fn paper(gamma: f64) -> AlgoOptions {
        AlgoOptions::paper(Gamma::new(gamma).unwrap())
    }

    #[test]
    fn indexed_matches_oracle_on_movies() {
        let ds = movie_directors();
        for gamma in [0.5, 0.7, 1.0] {
            for bbox in [false, true] {
                let result =
                    indexed(&ds, &AlgoOptions { bbox_prune: bbox, ..paper(gamma) }).unwrap();
                let oracle = naive_skyline(&ds, Gamma::new(gamma).unwrap());
                assert_eq!(result.skyline, oracle.skyline, "gamma={gamma} bbox={bbox}");
            }
        }
    }

    #[test]
    fn exact_indexed_matches_oracle_on_random_data() {
        for seed in 0..20 {
            let ds = random_dataset(20, 6, 3, 3000 + seed);
            for bbox in [false, true] {
                let opts = AlgoOptions { bbox_prune: bbox, ..AlgoOptions::exact(Gamma::DEFAULT) };
                let result = indexed(&ds, &opts).unwrap();
                let oracle = naive_skyline(&ds, Gamma::DEFAULT);
                assert_eq!(result.skyline, oracle.skyline, "seed={seed} bbox={bbox}");
            }
        }
    }

    #[test]
    fn window_query_prunes_group_pairs_on_clustered_data() {
        // Two far-apart clusters: cross-cluster pairs where the lower
        // cluster cannot dominate should never be compared.
        let mut b = crate::dataset::GroupedDatasetBuilder::new(2);
        for i in 0..10 {
            let x = i as f64;
            b.push_group(format!("low{i}"), &[vec![x, 9.0 - x]]).unwrap();
        }
        for i in 0..10 {
            let x = 100.0 + i as f64;
            b.push_group(format!("high{i}"), &[vec![x, 109.0 - x]]).unwrap();
        }
        let ds = b.build().unwrap();
        let result = indexed(&ds, &paper(0.5)).unwrap();
        let oracle = naive_skyline(&ds, Gamma::DEFAULT);
        assert_eq!(result.skyline, oracle.skyline);
        // An exhaustive pass would start 190+ pair comparisons; the index
        // must avoid the bulk of them (low groups cannot dominate high ones).
        assert!(
            result.stats.group_pairs < 150,
            "index pruned nothing: {} group pairs",
            result.stats.group_pairs
        );
    }
}
