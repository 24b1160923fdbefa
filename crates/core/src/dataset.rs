//! Grouped multidimensional datasets: the *group universe* `U_g` of the paper.
//!
//! Records are stored row-major in one flat buffer; each group owns a
//! contiguous range of rows. MIN-preference dimensions are negated at build
//! time so every downstream comparison can assume MAX preference.

use crate::dominance::Direction;
use crate::error::{Error, Result};
use std::collections::HashMap;

/// Identifier of a group inside a [`GroupedDataset`] (its insertion index).
pub type GroupId = usize;

/// Maximum records per group (`2³² − 1`). The cap guarantees that every
/// pair-count denominator `|S|·|R|` fits in `u64` without overflow, which
/// the counting kernels rely on (see [`crate::num::pair_product`]).
pub const MAX_GROUP_LEN: usize = 0xFFFF_FFFF;

/// An immutable collection of groups of `d`-dimensional records.
///
/// This is the input to every aggregate-skyline algorithm in the crate. Use
/// [`GroupedDatasetBuilder`] to construct one:
///
/// ```
/// use aggsky_core::GroupedDatasetBuilder;
///
/// let mut b = GroupedDatasetBuilder::new(2);
/// b.push_group("Tarantino", &[vec![313.0, 8.2], vec![557.0, 9.0]]).unwrap();
/// b.push_group("Wiseau", &[vec![10.0, 3.2]]).unwrap();
/// let ds = b.build().unwrap();
/// assert_eq!(ds.n_groups(), 2);
/// assert_eq!(ds.n_records(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct GroupedDataset {
    dim: usize,
    /// Row-major record values, normalized so higher is always better.
    values: Vec<f64>,
    /// `offsets[g]..offsets[g+1]` is the row range of group `g`.
    offsets: Vec<usize>,
    labels: Vec<String>,
    /// Label → id index for O(1) lookup; on duplicate labels (possible via
    /// [`GroupedDatasetBuilder::trusted_labels`]) it keeps the first id.
    label_ids: HashMap<String, GroupId>,
    directions: Vec<Direction>,
}

impl GroupedDataset {
    /// The dataset of the `(label, rows)` groups, each non-empty with
    /// finite MAX-preference `dim`-dimensional row-major records — checked
    /// by the caller, which is why this cannot fail. On a repeated label,
    /// lookups resolve to its first group.
    pub(crate) fn from_groups<'a>(
        dim: usize,
        groups: impl Iterator<Item = (&'a str, &'a [f64])>,
    ) -> GroupedDataset {
        let mut values = Vec::new();
        let mut offsets = vec![0];
        let mut labels = Vec::new();
        let mut label_ids = HashMap::new();
        for (label, rows) in groups {
            values.extend_from_slice(rows);
            offsets.push(values.len() / dim);
            label_ids.entry(label.to_string()).or_insert(labels.len());
            labels.push(label.to_string());
        }
        GroupedDataset {
            dim,
            values,
            offsets,
            labels,
            label_ids,
            directions: vec![Direction::Max; dim],
        }
    }

    /// Number of dimensions of every record.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of groups (`|U_g|`).
    #[inline]
    pub fn n_groups(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of records (`|U_r|`).
    #[inline]
    pub fn n_records(&self) -> usize {
        self.offsets[self.offsets.len() - 1]
    }

    /// Number of records in group `g`.
    #[inline]
    pub fn group_len(&self, g: GroupId) -> usize {
        self.offsets[g + 1] - self.offsets[g]
    }

    /// Label of group `g`.
    #[inline]
    pub fn label(&self, g: GroupId) -> &str {
        &self.labels[g]
    }

    /// Looks a group up by label in O(1) (first id on duplicate labels).
    pub fn group_by_label(&self, label: &str) -> Option<GroupId> {
        self.label_ids.get(label).copied()
    }

    /// Original preference direction of each dimension.
    ///
    /// Stored values are already normalized to MAX; this records how to map
    /// them back for display (`MIN` dimensions were negated).
    #[inline]
    pub fn directions(&self) -> &[Direction] {
        &self.directions
    }

    /// The flat, normalized value buffer of group `g` (`group_len(g) * dim`
    /// values, row-major).
    #[inline]
    pub fn group_rows(&self, g: GroupId) -> &[f64] {
        &self.values[self.offsets[g] * self.dim..self.offsets[g + 1] * self.dim]
    }

    /// Record `i` (0-based within the group) of group `g`, normalized to MAX.
    #[inline]
    pub fn record(&self, g: GroupId, i: usize) -> &[f64] {
        let row = self.offsets[g] + i;
        debug_assert!(row < self.offsets[g + 1]);
        &self.values[row * self.dim..(row + 1) * self.dim]
    }

    /// Iterator over the records of group `g`.
    #[inline]
    pub fn records(&self, g: GroupId) -> impl ExactSizeIterator<Item = &[f64]> + Clone {
        self.group_rows(g).chunks_exact(self.dim)
    }

    /// Record `i` of group `g` in the *original* orientation (MIN dimensions
    /// un-negated). Allocates; intended for display, not hot loops.
    pub fn record_original(&self, g: GroupId, i: usize) -> Vec<f64> {
        self.record(g, i)
            .iter()
            .zip(self.directions.iter())
            .map(|(&v, d)| match d {
                Direction::Max => v,
                Direction::Min => -v,
            })
            .collect()
    }

    /// Iterator over all group ids.
    #[inline]
    pub fn group_ids(&self) -> std::ops::Range<GroupId> {
        0..self.n_groups()
    }

    /// Labels of the given groups, sorted, for stable test assertions.
    pub fn sorted_labels(&self, groups: &[GroupId]) -> Vec<&str> {
        let mut out: Vec<&str> = groups.iter().map(|&g| self.label(g)).collect();
        out.sort_unstable();
        out
    }
}

/// Incremental builder for [`GroupedDataset`].
#[derive(Debug, Clone)]
pub struct GroupedDatasetBuilder {
    dim: usize,
    directions: Vec<Direction>,
    values: Vec<f64>,
    offsets: Vec<usize>,
    labels: Vec<String>,
    label_ids: HashMap<String, GroupId>,
    check_duplicates: bool,
}

impl GroupedDatasetBuilder {
    /// Creates a builder for `dim`-dimensional records, all dimensions MAX.
    pub fn new(dim: usize) -> Self {
        Self::with_directions(vec![Direction::Max; dim])
    }

    /// Creates a builder with an explicit preference direction per dimension.
    pub fn with_directions(directions: Vec<Direction>) -> Self {
        Self {
            dim: directions.len(),
            directions,
            values: Vec::new(),
            offsets: vec![0],
            labels: Vec::new(),
            label_ids: HashMap::new(),
            check_duplicates: true,
        }
    }

    /// Disables the duplicate-label *rejection*; useful when bulk loading
    /// generated data whose labels are unique by construction. Lookups via
    /// [`GroupedDataset::group_by_label`] then resolve a duplicated label to
    /// its first group.
    pub fn trusted_labels(mut self) -> Self {
        self.check_duplicates = false;
        self
    }

    /// Appends a group. Rejects empty groups, groups above
    /// [`MAX_GROUP_LEN`], dimension mismatches and non-finite coordinates
    /// (NaN/±∞) — the validation that lets every downstream comparison
    /// assume a total order and every pair count fit in `u64`.
    pub fn push_group<L, R>(&mut self, label: L, rows: &[R]) -> Result<GroupId>
    where
        L: Into<String>,
        R: AsRef<[f64]>,
    {
        let label = label.into();
        if self.dim == 0 {
            return Err(Error::ZeroDimensions);
        }
        if rows.is_empty() {
            return Err(Error::EmptyGroup(label));
        }
        if rows.len() > MAX_GROUP_LEN {
            return Err(Error::GroupTooLarge { group: label, len: rows.len() });
        }
        if self.check_duplicates && self.label_ids.contains_key(&label) {
            return Err(Error::DuplicateGroup(label));
        }
        let start = self.values.len();
        for row in rows {
            let row = row.as_ref();
            if row.len() != self.dim {
                self.values.truncate(start);
                return Err(Error::DimensionMismatch { expected: self.dim, got: row.len() });
            }
            for (d, (&v, dir)) in row.iter().zip(self.directions.iter()).enumerate() {
                if !v.is_finite() {
                    self.values.truncate(start);
                    return Err(Error::NonFiniteValue { dimension: d });
                }
                self.values.push(match dir {
                    Direction::Max => v,
                    Direction::Min => -v,
                });
            }
        }
        let id = self.labels.len();
        self.label_ids.entry(label.clone()).or_insert(id);
        self.labels.push(label);
        self.offsets.push(self.offsets.last().copied().unwrap_or(0) + rows.len());
        Ok(id)
    }

    /// Finalizes the dataset.
    pub fn build(self) -> Result<GroupedDataset> {
        if self.dim == 0 {
            return Err(Error::ZeroDimensions);
        }
        Ok(GroupedDataset {
            dim: self.dim,
            values: self.values,
            offsets: self.offsets,
            labels: self.labels,
            label_ids: self.label_ids,
            directions: self.directions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_group_dataset() -> GroupedDataset {
        let mut b = GroupedDatasetBuilder::new(2);
        b.push_group("a", &[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        b.push_group("b", &[vec![5.0, 6.0]]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_tracks_offsets_and_labels() {
        let ds = two_group_dataset();
        assert_eq!(ds.n_groups(), 2);
        assert_eq!(ds.n_records(), 3);
        assert_eq!(ds.group_len(0), 2);
        assert_eq!(ds.group_len(1), 1);
        assert_eq!(ds.label(0), "a");
        assert_eq!(ds.record(0, 1), &[3.0, 4.0]);
        assert_eq!(ds.record(1, 0), &[5.0, 6.0]);
        assert_eq!(ds.group_by_label("b"), Some(1));
        assert_eq!(ds.group_by_label("zzz"), None);
    }

    #[test]
    fn min_dimensions_are_negated_internally() {
        let mut b = GroupedDatasetBuilder::with_directions(vec![Direction::Max, Direction::Min]);
        b.push_group("g", &[vec![10.0, 3.0]]).unwrap();
        let ds = b.build().unwrap();
        assert_eq!(ds.record(0, 0), &[10.0, -3.0]);
        assert_eq!(ds.record_original(0, 0), vec![10.0, 3.0]);
    }

    #[test]
    fn rejects_empty_group() {
        let mut b = GroupedDatasetBuilder::new(2);
        let rows: &[Vec<f64>] = &[];
        assert_eq!(b.push_group("e", rows), Err(Error::EmptyGroup("e".into())));
    }

    #[test]
    fn rejects_dimension_mismatch_and_rolls_back() {
        let mut b = GroupedDatasetBuilder::new(2);
        let err = b.push_group("g", &[vec![1.0, 2.0], vec![1.0]]).unwrap_err();
        assert_eq!(err, Error::DimensionMismatch { expected: 2, got: 1 });
        // The partial rows of the failed group must not leak into the next one.
        b.push_group("h", &[vec![7.0, 8.0]]).unwrap();
        let ds = b.build().unwrap();
        assert_eq!(ds.n_groups(), 1);
        assert_eq!(ds.record(0, 0), &[7.0, 8.0]);
    }

    #[test]
    fn rejects_non_finite_values() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut b = GroupedDatasetBuilder::new(2);
            let err = b.push_group("g", &[vec![1.0, bad]]).unwrap_err();
            assert_eq!(err, Error::NonFiniteValue { dimension: 1 }, "value {bad}");
            // The rejected rows must not leak into a later group.
            b.push_group("h", &[vec![7.0, 8.0]]).unwrap();
            let ds = b.build().unwrap();
            assert_eq!(ds.n_records(), 1);
        }
    }

    /// Regression: a NaN coordinate does not crash dominance counting — it
    /// silently *flips* verdicts. Under IEEE operators the NaN dimension
    /// becomes invisible (`NaN > y` and `y > NaN` are both false); under the
    /// total order of [`crate::ord`] it sorts above `+∞`. Either way, had
    /// the builder admitted `(NaN, 10)` it would have γ-dominated `(1, 1)`
    /// with p = 1, while any finite reading of the missing coordinate below
    /// 1.0 makes the pair incomparable. Ingestion-time rejection is
    /// therefore load-bearing for correctness, not hygiene.
    #[test]
    fn nan_record_would_flip_gamma_dominance_verdict() {
        use crate::dominance::{compare, dominates, DomRelation};
        // With NaN, the record *appears* to dominate: the NaN dimension
        // drops out of the comparison entirely.
        assert!(dominates(&[f64::NAN, 10.0], &[1.0, 1.0]));
        // With the NaN read as any value below 1.0, the truth is
        // incomparability — the opposite verdict.
        assert_eq!(compare(&[0.0, 10.0], &[1.0, 1.0]), DomRelation::Incomparable);
        // The builder refuses the record, so no dataset reachable through
        // the public API can exhibit the flip.
        let mut b = GroupedDatasetBuilder::new(2);
        let err = b.push_group("S", &[vec![f64::NAN, 10.0]]).unwrap_err();
        assert_eq!(err, Error::NonFiniteValue { dimension: 0 });
    }

    #[test]
    fn rejects_oversized_group() {
        // The cap's contract: the largest admissible |S|*|R| fits in u64.
        let cap = MAX_GROUP_LEN as u128;
        assert!(cap * cap <= u64::MAX as u128);
        // A zero-sized row type makes a MAX_GROUP_LEN+1 slice free to
        // build, so the length check itself can be exercised.
        #[derive(Clone)]
        struct Row;
        impl AsRef<[f64]> for Row {
            fn as_ref(&self) -> &[f64] {
                &[1.0]
            }
        }
        let rows = vec![Row; MAX_GROUP_LEN + 1];
        let mut b = GroupedDatasetBuilder::new(1);
        let err = b.push_group("huge", &rows).unwrap_err();
        assert_eq!(err, Error::GroupTooLarge { group: "huge".into(), len: MAX_GROUP_LEN + 1 });
    }

    #[test]
    fn rejects_duplicate_labels() {
        let mut b = GroupedDatasetBuilder::new(1);
        b.push_group("g", &[vec![1.0]]).unwrap();
        let err = b.push_group("g", &[vec![2.0]]).unwrap_err();
        assert_eq!(err, Error::DuplicateGroup("g".into()));
    }

    #[test]
    fn trusted_labels_skips_duplicate_check() {
        let mut b = GroupedDatasetBuilder::new(1).trusted_labels();
        b.push_group("g", &[vec![1.0]]).unwrap();
        b.push_group("g", &[vec![2.0]]).unwrap();
        let ds = b.build().unwrap();
        assert_eq!(ds.n_groups(), 2);
        // A duplicated label resolves to its first group, matching the old
        // linear-scan semantics.
        assert_eq!(ds.group_by_label("g"), Some(0));
    }

    #[test]
    fn lookup_after_failed_push_is_unaffected() {
        let mut b = GroupedDatasetBuilder::new(2);
        b.push_group("bad", &[vec![1.0]]).unwrap_err();
        b.push_group("good", &[vec![1.0, 2.0]]).unwrap();
        let ds = b.build().unwrap();
        assert_eq!(ds.group_by_label("bad"), None);
        assert_eq!(ds.group_by_label("good"), Some(0));
    }

    #[test]
    fn rejects_zero_dimensions() {
        let b = GroupedDatasetBuilder::new(0);
        assert_eq!(b.build().unwrap_err(), Error::ZeroDimensions);
    }

    #[test]
    fn records_iterator_matches_indexing() {
        let ds = two_group_dataset();
        let collected: Vec<&[f64]> = ds.records(0).collect();
        assert_eq!(collected, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }
}
