//! Traditional record-wise skylines (the "stars" of the paper's title).
//!
//! Two classic algorithms are provided as substrates: block-nested-loops
//! (BNL, Börzsönyi et al.) and sort-filter-skyline (SFS, Chomicki et al.).
//! They are used by tests of the (failing) skyline-containment property and
//! by the SQL engine's `SKYLINE OF` clause.

use crate::dominance::{compare, DomRelation};

/// Computes the skyline of `rows` with block-nested-loops and returns the
/// indices of non-dominated records, in input order.
///
/// `rows` is a flat row-major buffer of `dim`-dimensional records, all
/// normalized to MAX preference. Duplicate records are all retained (none
/// dominates the other under Definition 1).
pub fn bnl(rows: &[f64], dim: usize) -> Vec<usize> {
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(rows.len() % dim, 0, "buffer length must be a multiple of dim");
    let n = rows.len() / dim;
    let mut window: Vec<usize> = Vec::new();
    'outer: for i in 0..n {
        let cand = &rows[i * dim..(i + 1) * dim];
        let mut k = 0;
        while k < window.len() {
            let w = &rows[window[k] * dim..(window[k] + 1) * dim];
            match compare(cand, w) {
                DomRelation::DominatedBy => continue 'outer,
                DomRelation::Dominates => {
                    window.swap_remove(k);
                }
                DomRelation::Incomparable | DomRelation::Equal => k += 1,
            }
        }
        window.push(i);
    }
    window.sort_unstable();
    window
}

/// Computes the skyline with sort-filter-skyline: records are pre-sorted by
/// descending coordinate sum (a monotone scoring function), equal sums by
/// descending coordinates in lexicographic order, which guarantees a record
/// can only be dominated by records *earlier* in the order, so the window
/// never needs eviction. The tie-break matters: f64 rounding can give a
/// dominating record the same sum as the record it dominates (`1e16 + 1 ==
/// 1e16`), and a dominator is lexicographically larger.
///
/// Returns indices into the original `rows` order, sorted ascending.
pub fn sfs(rows: &[f64], dim: usize) -> Vec<usize> {
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(rows.len() % dim, 0, "buffer length must be a multiple of dim");
    let n = rows.len() / dim;
    let row = |i: usize| &rows[i * dim..(i + 1) * dim];
    let sums: Vec<f64> = (0..n).map(|i| row(i).iter().sum()).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        crate::ord::cmp_desc(sums[a], sums[b]).then_with(|| crate::ord::cmp_slices(row(b), row(a)))
    });
    let mut skyline: Vec<usize> = Vec::new();
    'outer: for &i in &order {
        let cand = row(i);
        for &s in &skyline {
            let w = row(s);
            // A later record can never dominate an earlier one (its sum is
            // not larger, and at an equal sum it is not lexicographically
            // larger), so only the DominatedBy outcome matters.
            if compare(cand, w) == DomRelation::DominatedBy {
                continue 'outer;
            }
        }
        skyline.push(i);
    }
    skyline.sort_unstable();
    skyline
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 1 movie table, (popularity, quality) columns.
    fn movie_rows() -> Vec<f64> {
        vec![
            404.0, 8.0, // Avatar
            371.0, 8.3, // Batman Begins
            313.0, 8.2, // Kill Bill
            557.0, 9.0, // Pulp Fiction
            362.0, 8.8, // Star Wars (V)
            326.0, 8.6, // Terminator (II)
            531.0, 9.2, // The Godfather
            518.0, 8.7, // The Lord of the Rings
            10.0, 3.2, // The Room
            76.0, 7.3, // Dracula
        ]
    }

    #[test]
    fn figure_2_movie_skyline_bnl() {
        // Figure 2: the skyline is {Pulp Fiction, The Godfather}.
        assert_eq!(bnl(&movie_rows(), 2), vec![3, 6]);
    }

    #[test]
    fn figure_2_movie_skyline_sfs() {
        assert_eq!(sfs(&movie_rows(), 2), vec![3, 6]);
    }

    #[test]
    fn single_record_is_its_own_skyline() {
        assert_eq!(bnl(&[1.0, 2.0, 3.0], 3), vec![0]);
        assert_eq!(sfs(&[1.0, 2.0, 3.0], 3), vec![0]);
    }

    #[test]
    fn duplicates_are_all_kept() {
        let rows = vec![1.0, 1.0, 1.0, 1.0];
        assert_eq!(bnl(&rows, 2), vec![0, 1]);
        assert_eq!(sfs(&rows, 2), vec![0, 1]);
    }

    #[test]
    fn totally_ordered_chain_keeps_only_top() {
        let rows = vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0];
        assert_eq!(bnl(&rows, 2), vec![2]);
        assert_eq!(sfs(&rows, 2), vec![2]);
    }

    #[test]
    fn anti_chain_keeps_everything() {
        let rows = vec![1.0, 4.0, 2.0, 3.0, 3.0, 2.0, 4.0, 1.0];
        assert_eq!(bnl(&rows, 2), vec![0, 1, 2, 3]);
        assert_eq!(sfs(&rows, 2), vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_input() {
        assert_eq!(bnl(&[], 2), Vec::<usize>::new());
        assert_eq!(sfs(&[], 2), Vec::<usize>::new());
    }

    /// `1e16 + 1 == 1e16`: the dominating record's sum rounds to the
    /// dominated one's, and sfs must still drop the dominated record.
    #[test]
    fn sfs_handles_dominance_at_equal_rounded_sums() {
        let rows = [1e16, 0.0, 1e16, 1.0];
        assert_eq!(bnl(&rows, 2), vec![1]);
        assert_eq!(sfs(&rows, 2), vec![1]);
        let three = [1e16, 1.0, 0.0, 1e16, 0.0, 0.0, 0.0, 5.0, 0.0, 1e16, 1.0, 1.0];
        assert_eq!(sfs(&three, 3), bnl(&three, 3));
        assert_eq!(sfs(&three, 3), vec![2, 3]);
    }

    #[test]
    fn bnl_and_sfs_agree_on_pseudorandom_data() {
        // Deterministic LCG so the test needs no external RNG.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for dim in [1usize, 2, 3, 5] {
            let rows: Vec<f64> = (0..200 * dim).map(|_| next()).collect();
            assert_eq!(bnl(&rows, dim), sfs(&rows, dim), "dim={dim}");
        }
    }
}
