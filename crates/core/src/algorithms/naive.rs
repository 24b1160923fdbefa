//! The unoptimized oracle: exhaustive pair counting, no stopping rule, no
//! pruning of any kind.

use super::{collect_result, interrupted, SkylineResult, Status};
use crate::dataset::GroupedDataset;
use crate::gamma::Gamma;
use crate::kernel::Kernel;
use crate::runctx::{Outcome, RunContext};
use crate::stats::Stats;

/// Computes the aggregate skyline by exhaustively evaluating
/// `p(S ≻ R)` for every ordered pair of groups (Definition 2 applied
/// literally). `O(n² · m²)` record comparisons for `n` groups of `m`
/// records; used as the correctness oracle for every optimized algorithm.
pub fn naive_skyline(ds: &GroupedDataset, gamma: Gamma) -> SkylineResult {
    naive_on(&Kernel::exhaustive(ds), gamma, &RunContext::unlimited()).unwrap_or_partial()
}

/// [`naive_skyline`] over a kernel's exact counts
/// ([`Kernel::domination_count`]), under an execution-control context. The
/// oracle visits *dominators* in its outer loop, so no group's dominator
/// scan is complete before the whole run is: an interrupted naive run
/// confirms groups out (found dominators are real) but never in.
pub(super) fn naive_on(kernel: &Kernel<'_>, gamma: Gamma, ctx: &RunContext) -> Outcome {
    let n = kernel.n_groups();
    let mut statuses = vec![Status::Live; n];
    let mut stats = Stats::default();
    for s in 0..n {
        for r in 0..n {
            if s == r {
                continue;
            }
            if let Some(reason) = ctx.poll(stats.record_pairs) {
                return interrupted(&statuses, |_| false, stats, reason);
            }
            stats.group_pairs += 1;
            let total = crate::num::pair_product(kernel.group_len(s), kernel.group_len(r));
            stats.record_pairs += total;
            if gamma.dominated(kernel.domination_count(s, r) as f64 / total as f64) {
                if let Some(status) = statuses.get_mut(r) {
                    status.raise(Status::Dominated);
                }
            }
        }
    }
    Outcome::Complete(collect_result(&statuses, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::GroupedDatasetBuilder;
    use crate::testdata::movie_directors;

    #[test]
    fn paper_running_example_figure_4b() {
        // The Figure 1 movie table grouped by director. The paper's
        // Figure 4(b) gives the aggregate skyline:
        // {Coppola, Jackson, Kershner, Tarantino}.
        let ds = movie_directors();
        let result = naive_skyline(&ds, Gamma::DEFAULT);
        assert_eq!(
            ds.sorted_labels(&result.skyline),
            vec!["Coppola", "Jackson", "Kershner", "Tarantino"]
        );
    }

    #[test]
    fn singleton_universe_is_its_own_skyline() {
        let mut b = GroupedDatasetBuilder::new(2);
        b.push_group("only", &[vec![1.0, 1.0]]).unwrap();
        let ds = b.build().unwrap();
        let result = naive_skyline(&ds, Gamma::DEFAULT);
        assert_eq!(result.skyline, vec![0]);
        assert_eq!(result.stats.group_pairs, 0);
    }

    #[test]
    fn equal_groups_are_mutually_incomparable() {
        let mut b = GroupedDatasetBuilder::new(2);
        b.push_group("a", &[vec![1.0, 1.0]]).unwrap();
        b.push_group("b", &[vec![1.0, 1.0]]).unwrap();
        let ds = b.build().unwrap();
        let result = naive_skyline(&ds, Gamma::DEFAULT);
        assert_eq!(result.skyline, vec![0, 1]);
    }

    #[test]
    fn larger_gamma_never_shrinks_the_skyline() {
        let ds = movie_directors();
        let mut prev = naive_skyline(&ds, Gamma::DEFAULT).skyline.len();
        for g in [0.6, 0.7, 0.8, 0.9, 1.0] {
            let cur = naive_skyline(&ds, Gamma::new(g).unwrap()).skyline.len();
            assert!(cur >= prev, "skyline shrank from {prev} to {cur} at gamma {g}");
            prev = cur;
        }
    }
}
