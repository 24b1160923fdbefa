//! Runtime structural contracts, compiled in behind the `invariants`
//! feature.
//!
//! The static analyzer (`aggsky-lint`) grandfathers the workspace's
//! remaining slice-index sites on the argument that the surrounding code
//! proves the bounds. This module turns that argument into executable
//! checks: with `--features invariants`, debug and release builds alike
//! validate the structures those proofs rest on — the [`Segment`] block
//! layout of every preparation, [`Mbb`] containment, and pair-count
//! conservation — every time they are built or consumed. Without the
//! feature every function here compiles to nothing, so the hot paths pay
//! no cost.
//!
//! ```text
//! cargo test --features invariants             # contracts active
//! cargo test --release --features invariants   # contracts active
//! cargo test                                   # contracts compiled out
//! ```

#![allow(unused_variables)] // bodies vanish without the feature

use crate::dataset::GroupedDataset;
use crate::mbb::Mbb;
use crate::prepared::{PreparedDataset, Segment};

/// Validates a [`PreparedDataset`] against its source dataset: the same
/// dimensionality, one segment per group of the group's length, and
/// record totals conserved (`Σ group lengths = |dataset|`). Each
/// segment's own structure is checked when it is built
/// ([`check_segment`]).
#[inline]
pub fn check_prepared(ds: &GroupedDataset, prep: &PreparedDataset) {
    #[cfg(feature = "invariants")]
    {
        assert_eq!(prep.dim(), ds.dim(), "prepared dim must match source");
        assert_eq!(prep.n_groups(), ds.n_groups());
        for g in 0..prep.n_groups() {
            assert_eq!(prep.group_len(g), ds.group_len(g), "group {g} length changed");
        }
        assert_eq!(prep.n_records(), ds.n_records());
    }
}

/// Validates the full block structure of a freshly built [`Segment`]:
///
/// * coordinate sums are descending and equal the row sums;
/// * per block, the corner vectors bound every record of the block;
/// * blocks partition the records (`Σ block lengths = len`) and the block
///   count is `⌈len / block_size⌉`;
/// * the segment's [`Mbb`] covers all of its records;
/// * the key lanes hold the records' sort keys, sentinel-padded.
#[inline]
pub fn check_segment(seg: &Segment) {
    #[cfg(feature = "invariants")]
    {
        let dim = seg.dim();
        let len = seg.len();
        let sums = seg.sums();
        assert!(sums.windows(2).all(|w| crate::ord::ge(w[0], w[1])), "sums not descending");
        for (i, &s) in sums.iter().enumerate() {
            let expect: f64 = seg.record(i).iter().sum();
            assert!(crate::ord::eq(s, expect), "record {i}: cached sum {s} != recomputed {expect}");
        }
        assert_eq!(
            seg.n_blocks(),
            len.div_ceil(seg.block_size()),
            "block count inconsistent with block size"
        );
        let mbb = seg.mbb();
        let mut covered = 0usize;
        for b in 0..seg.n_blocks() {
            let view = seg.block(b);
            assert!(!view.is_empty(), "block {b} empty");
            assert!(view.len() <= seg.block_size());
            covered += view.len();
            for row in view.rows.chunks_exact(dim) {
                for (d, &v) in row.iter().enumerate() {
                    assert!(
                        crate::ord::le(view.min[d], v) && crate::ord::le(v, view.max[d]),
                        "block {b}: corner does not bound dim {d}"
                    );
                }
                check_mbb_contains(&mbb, row);
            }
            // Lane keys are the sort keys of the block's records in
            // column-major order, sentinel-padded to the block size.
            let lanes = seg.lane_block(b);
            assert_eq!(lanes.len, view.len(), "block {b}: lane length");
            for (j, row) in view.rows.chunks_exact(dim).enumerate() {
                for (d, &v) in row.iter().enumerate() {
                    assert_eq!(
                        lanes.lane(d)[j],
                        crate::dominance::sort_key(v),
                        "block {b} record {j}: lane {d} key mismatch"
                    );
                }
                assert_eq!(
                    lanes.lane(dim)[j],
                    crate::dominance::sort_key(view.sums[j]),
                    "block {b} record {j}: sum-lane key mismatch"
                );
            }
            assert_eq!(
                lanes.width % crate::prepared::LANE_VECTOR,
                0,
                "lane stride not padded to the vector width"
            );
            for j in view.len()..lanes.width {
                assert_eq!(lanes.lane(0)[j], i64::MAX, "pad lane 0 sentinel");
                for d in 1..=dim {
                    assert_eq!(lanes.lane(d)[j], i64::MIN, "pad lane {d} sentinel");
                }
            }
        }
        assert_eq!(covered, len, "blocks do not partition the records");
    }
}

/// Asserts that `record` lies inside `mbb` in every dimension.
#[inline]
pub fn check_mbb_contains(mbb: &Mbb, record: &[f64]) {
    #[cfg(feature = "invariants")]
    {
        assert_eq!(mbb.min.len(), record.len());
        for (d, &v) in record.iter().enumerate() {
            assert!(
                crate::ord::le(mbb.min[d], v) && crate::ord::le(v, mbb.max[d]),
                "record outside its group MBB in dimension {d}"
            );
        }
    }
}

/// Asserts pair-count conservation: the pairs a counting kernel classified
/// (dominating or not, scanned or pruned in bulk) must sum to exactly
/// `|S|·|R|`. A mismatch means a block was double-counted or skipped, which
/// silently shifts the domination probability.
#[inline]
pub fn check_pair_conservation(classified: u64, len_s: usize, len_r: usize) {
    #[cfg(feature = "invariants")]
    {
        let total = crate::num::pair_product(len_s, len_r);
        assert_eq!(
            classified, total,
            "kernel classified {classified} pairs of {total} (|S|={len_s}, |R|={len_r})"
        );
    }
}

/// Frame-codec round-trip contract, checked on every checkpoint save: a
/// [`crate::persist::Snapshot`] encoded into a frame and decoded back must
/// compare equal, field for field. A violation means the codec would
/// persist state it cannot faithfully restore — the one bug the CRC can
/// never catch, because the checksum covers the (wrong) bytes perfectly.
#[inline]
pub fn check_snapshot_roundtrip(snap: &crate::persist::Snapshot) {
    #[cfg(feature = "invariants")]
    {
        use crate::persist::frame;
        let bytes = frame::encode_frame(&frame::encode_snapshot(snap));
        let payload = frame::decode_frame(&bytes);
        assert!(payload.is_ok(), "fresh frame failed to decode: {:?}", payload.err());
        if let Ok(payload) = payload {
            let decoded = frame::decode_snapshot(payload);
            assert!(decoded.as_ref() == Ok(snap), "snapshot round-trip not identity: {decoded:?}");
        }
    }
}

#[cfg(all(test, feature = "invariants"))]
mod tests {
    use super::*;
    use crate::testdata::random_dataset;

    #[test]
    fn clean_structures_pass() {
        let ds = random_dataset(6, 9, 3, 11);
        for block_size in [1, 3, 8] {
            let prep = PreparedDataset::build(&ds, block_size).unwrap();
            check_prepared(&ds, &prep);
            for g in 0..prep.n_groups() {
                check_segment(prep.segment(g));
            }
        }
        check_pair_conservation(12, 3, 4);
    }

    #[test]
    #[should_panic(expected = "outside its group MBB")]
    fn containment_violation_fires() {
        let mbb = Mbb { min: vec![0.0, 0.0], max: vec![1.0, 1.0] };
        check_mbb_contains(&mbb, &[0.5, 2.0]);
    }

    #[test]
    #[should_panic(expected = "kernel classified")]
    fn conservation_violation_fires() {
        check_pair_conservation(11, 3, 4);
    }

    #[test]
    fn snapshot_roundtrip_contract_passes_on_real_state() {
        use crate::persist::{Fingerprint, Snapshot};
        let ds = random_dataset(8, 5, 3, 12);
        let partial = crate::anytime::anytime_skyline(&ds, crate::Gamma::DEFAULT, 5);
        let snap = Snapshot {
            fingerprint: Fingerprint::of(&ds, crate::Gamma::DEFAULT),
            partition: Some(partial),
            pairs: Vec::new(),
        };
        check_snapshot_roundtrip(&snap);
    }
}
