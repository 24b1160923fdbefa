//! Group k-skybands and top-k robust groups (extensions beyond the paper,
//! mirroring the record-skyline literature's k-skyband operator at the
//! group level).

use crate::dataset::{GroupId, GroupedDataset};
use crate::gamma::Gamma;
use crate::mbb::Mbb;
use crate::paircount::{compare_groups, PairOptions};
use crate::ranking::ranked_skyline;
use crate::stats::Stats;
use aggsky_spatial::{Aabb, RTree};

/// The group k-skyband: all groups γ-dominated by *fewer than* `k` other
/// groups. `k = 1` is exactly the aggregate skyline; `k = |U_g|` returns
/// every group. Returned ascending by group id.
///
/// Candidate dominators are pruned with the Algorithm 5 window query, and
/// counting for a group stops as soon as `k` dominators are found.
pub fn k_skyband(ds: &GroupedDataset, gamma: Gamma, k: usize) -> (Vec<GroupId>, Stats) {
    let n = ds.n_groups();
    let mut stats = Stats::default();
    if k == 0 {
        return (Vec::new(), stats);
    }
    let boxes = Mbb::of_all_groups(ds);
    let tree = RTree::bulk_load(
        ds.dim(),
        boxes.iter().enumerate().map(|(g, b)| (Aabb::point(&b.max), g)).collect(),
    );
    let pair_opts = PairOptions { stop_rule: true, need_bar: false };
    let mut out = Vec::new();
    let mut candidates = Vec::new();
    for g in 0..n {
        tree.window_query_into(&Aabb::at_least(&boxes[g].min), &mut candidates);
        stats.index_candidates += crate::num::wide(candidates.len().saturating_sub(1));
        let mut dominators = 0usize;
        for &s in &candidates {
            if s == g {
                continue;
            }
            let verdict = compare_groups(
                ds,
                s,
                g,
                gamma,
                Some((&boxes[s], &boxes[g])),
                pair_opts,
                &mut stats,
            );
            if verdict.forward.dominates() {
                dominators += 1;
                if dominators >= k {
                    break;
                }
            }
        }
        if dominators < k {
            out.push(g);
        }
    }
    (out, stats)
}

/// The `k` groups with the smallest minimum qualifying γ (Section 2.2's
/// ranked view), i.e. the most robust skyline members. Groups strictly
/// dominated with probability 1 never qualify. Ties broken by group id.
pub fn top_k_robust(ds: &GroupedDataset, k: usize) -> Vec<GroupId> {
    ranked_skyline(ds).into_iter().take(k).map(|r| r.group).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::naive_skyline;
    use crate::gamma::domination_probability;
    use crate::testdata::{movie_directors, random_dataset};

    /// Oracle: count dominators exhaustively.
    fn oracle_skyband(ds: &GroupedDataset, gamma: Gamma, k: usize) -> Vec<GroupId> {
        (0..ds.n_groups())
            .filter(|&g| {
                let dominators = (0..ds.n_groups())
                    .filter(|&s| s != g && gamma.dominated(domination_probability(ds, s, g)))
                    .count();
                dominators < k
            })
            .collect()
    }

    #[test]
    fn k1_equals_skyline() {
        let ds = movie_directors();
        let (band, _) = k_skyband(&ds, Gamma::DEFAULT, 1);
        assert_eq!(band, naive_skyline(&ds, Gamma::DEFAULT).skyline);
    }

    #[test]
    fn matches_oracle_on_random_data() {
        for seed in 0..10 {
            let ds = random_dataset(15, 6, 3, 6000 + seed);
            for k in [0usize, 1, 2, 3, 100] {
                let (band, _) = k_skyband(&ds, Gamma::DEFAULT, k);
                assert_eq!(band, oracle_skyband(&ds, Gamma::DEFAULT, k), "seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn band_grows_with_k() {
        let ds = random_dataset(20, 5, 3, 999);
        let mut prev = 0usize;
        for k in 1..=6 {
            let (band, _) = k_skyband(&ds, Gamma::DEFAULT, k);
            assert!(band.len() >= prev, "k={k}");
            prev = band.len();
        }
        let (all, _) = k_skyband(&ds, Gamma::DEFAULT, ds.n_groups());
        assert_eq!(all.len(), ds.n_groups());
    }

    #[test]
    fn top_k_robust_prefix_property() {
        let ds = movie_directors();
        let top2 = top_k_robust(&ds, 2);
        let top4 = top_k_robust(&ds, 4);
        assert_eq!(top2, top4[..2].to_vec());
        assert!(top_k_robust(&ds, 0).is_empty());
        // Wiseau (strictly dominated) never appears, however large k is.
        let w = ds.group_by_label("Wiseau").unwrap();
        assert!(!top_k_robust(&ds, 100).contains(&w));
    }
}
