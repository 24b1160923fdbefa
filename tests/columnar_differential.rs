//! Differential suite for the columnar straddle kernel: its verdicts must
//! equal the unblocked per-record ground truth, its `n12`/`n21` the
//! domination matrix, its `Stats` those of the scalar columnar kernel, and
//! its tick charge a count taken from the preparation's block views alone,
//! for every `PairOptions` combination, across dimensionalities on both
//! sides of the monomorphized range (d ∈ {1, 2, 5, 8, 9}; 2..=8 run the
//! fixed-arity kernels, 1 and 9 the dynamic fallback), with ragged group
//! sizes so edge blocks exercise the sentinel padding.

use aggsky::core::kernel::{count_pairs, count_segments, Kernel, KernelConfig};
use aggsky::core::ord;
use aggsky::core::paircount::{compare_groups, PairOptions};
use aggsky::core::prepared::{PreparedDataset, MAX_LANE_BLOCK};
use aggsky::core::{dominates, DominationMatrix, GroupId, Mbb, Stats};
use aggsky::datagen::Rng64;
use aggsky::{AlgoOptions, Algorithm, Gamma, GroupedDataset, GroupedDatasetBuilder};

const DIMS: [usize; 5] = [1, 2, 5, 8, 9];
const BLOCK_SIZES: [usize; 5] = [1, 5, 13, PreparedDataset::DEFAULT_BLOCK_SIZE, 64];

/// Random integer-grid dataset with ragged group sizes: small coordinate
/// range maximizes ties and exact-dominance edges, and lengths straddling
/// block boundaries leave partially filled (sentinel-padded) edge blocks at
/// every tested block size.
fn dataset(dim: usize, seed: u64) -> GroupedDataset {
    let mut rng = Rng64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(dim as u64));
    let mut b = GroupedDatasetBuilder::new(dim).trusted_labels();
    for g in 0..5 {
        let len = 1 + rng.index(13);
        let rows: Vec<Vec<f64>> =
            (0..len).map(|_| (0..dim).map(|_| rng.index(4) as f64).collect()).collect();
        b.push_group(format!("g{g}"), &rows).unwrap();
    }
    b.build().unwrap()
}

/// [`dataset`] plus groups whose lengths sit at block edges: 1,
/// `block_size − 1` (when positive) and `block_size + 1` rows.
fn dataset_with_edge_groups(dim: usize, seed: u64, block_size: usize) -> GroupedDataset {
    let base = dataset(dim, seed);
    let mut rng = Rng64::new(seed ^ 0xED6E_0000 ^ block_size as u64);
    let mut b = GroupedDatasetBuilder::new(dim).trusted_labels();
    for g in base.group_ids() {
        let rows: Vec<&[f64]> = base.records(g).collect();
        b.push_group(base.label(g), &rows).unwrap();
    }
    for len in [1, block_size - 1, block_size + 1] {
        if len > 0 {
            let rows: Vec<Vec<f64>> =
                (0..len).map(|_| (0..dim).map(|_| rng.index(4) as f64).collect()).collect();
            b.push_group(format!("edge{len}"), &rows).unwrap();
        }
    }
    b.build().unwrap()
}

/// Group `g` of `ds` alone, prepared at `block_size`.
fn own_preparation(ds: &GroupedDataset, g: GroupId, block_size: usize) -> PreparedDataset {
    let rows: Vec<&[f64]> = ds.records(g).collect();
    let mut b = GroupedDatasetBuilder::new(ds.dim()).trusted_labels();
    b.push_group(ds.label(g), &rows).unwrap();
    PreparedDataset::build(&b.build().unwrap(), block_size).unwrap()
}

fn all_pair_options() -> Vec<PairOptions> {
    let mut out = Vec::new();
    for stop_rule in [false, true] {
        for need_bar in [false, true] {
            out.push(PairOptions { stop_rule, need_bar });
        }
    }
    out
}

fn ones(m: &DominationMatrix) -> u64 {
    let mut n = 0;
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            n += m.get(i, j) as u64;
        }
    }
    n
}

/// Verdicts of the columnar kernel equal the unblocked reference, and its
/// verdicts AND `Stats` equal the scalar columnar kernel's bit for bit, for
/// every dimension, block size, option set, and box configuration.
#[test]
fn columnar_agrees_with_exhaustive_and_scalar() {
    for dim in DIMS {
        for seed in 0..4u64 {
            let ds = dataset(dim, seed);
            let gamma = Gamma::new([0.5, 0.75, 0.9, 1.0][(seed % 4) as usize]).unwrap();
            let boxes = Mbb::of_all_groups(&ds);
            for block_size in BLOCK_SIZES {
                let columnar = Kernel::new(&ds, KernelConfig::Columnar { block_size }).unwrap();
                let scalar = Kernel::new(&ds, KernelConfig::ColumnarScalar { block_size }).unwrap();
                for g1 in ds.group_ids() {
                    for g2 in (g1 + 1)..ds.n_groups() {
                        for opts in all_pair_options() {
                            for use_boxes in [false, true] {
                                let pair_boxes = use_boxes.then(|| (&boxes[g1], &boxes[g2]));
                                let tag = format!(
                                    "d={dim} seed={seed} bs={block_size} {g1}v{g2} {opts:?} \
                                     boxes={use_boxes}"
                                );
                                let mut s_col = Stats::default();
                                let mut s_scl = Stats::default();
                                let mut s_ref = Stats::default();
                                let col =
                                    columnar.compare(g1, g2, gamma, pair_boxes, opts, &mut s_col);
                                let scl =
                                    scalar.compare(g1, g2, gamma, pair_boxes, opts, &mut s_scl);
                                let reference = compare_groups(
                                    &ds, g1, g2, gamma, pair_boxes, opts, &mut s_ref,
                                );
                                assert_eq!(col, reference, "vs exhaustive: {tag}");
                                assert_eq!(col, scl, "verdict drift: {tag}");
                                assert_eq!(s_col, s_scl, "stats drift: {tag}");
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The `Stats` an unbounded count of group `g1` against `g2` must charge,
/// derived from the block views alone: a block pair whose minimum corner
/// dominates the other's maximum corner is full; otherwise a direction is
/// possible when the best corner dominates the other's worst corner and the
/// sum ranges allow a sum at least as large (f64 rounding can make a
/// dominator's sum equal), and a pair with neither is skipped; a
/// straddling pair tests, for each probe record of `g1`'s block, the
/// records of `g2`'s block of larger or equal sum when backward is
/// possible, and of smaller or equal sum when forward is: an equal-sum
/// record once, for both directions.
fn independent_block_count(prep: &PreparedDataset, g1: GroupId, g2: GroupId) -> Stats {
    let mut stats = Stats::default();
    for a in 0..prep.n_blocks(g1) {
        let ba = prep.block(g1, a);
        for b in 0..prep.n_blocks(g2) {
            let bb = prep.block(g2, b);
            if dominates(ba.min, bb.max) || dominates(bb.min, ba.max) {
                stats.blocks_full += 1;
                continue;
            }
            let fwd = dominates(ba.max, bb.min) && ord::ge(ba.sums[0], bb.sums[bb.len() - 1]);
            let bwd = dominates(bb.max, ba.min) && ord::ge(bb.sums[0], ba.sums[ba.len() - 1]);
            if !fwd && !bwd {
                stats.blocks_skipped += 1;
                continue;
            }
            for &s1 in ba.sums {
                let tested = |&&s: &&f64| (bwd && ord::ge(s, s1)) || (fwd && ord::le(s, s1));
                stats.records_compared += bb.sums.iter().filter(tested).count() as u64;
            }
        }
    }
    stats.record_pairs = stats.records_compared;
    stats
}

/// The tick charge is pinned by a count independent of the straddle
/// kernels: an unbounded `count_pairs` (auto mode) and a scalar
/// `count_segments` charge exactly [`independent_block_count`], for
/// every dimension, block size and edge-group dataset.
#[test]
fn columnar_ticks_match_an_independent_block_count() {
    for dim in DIMS {
        for seed in 0..3u64 {
            for block_size in BLOCK_SIZES {
                let ds = dataset_with_edge_groups(dim, seed, block_size);
                let prep = PreparedDataset::build(&ds, block_size).unwrap();
                let scalar = KernelConfig::ColumnarScalar { block_size };
                for g1 in ds.group_ids() {
                    for g2 in ds.group_ids() {
                        if g1 == g2 {
                            continue;
                        }
                        let tag = format!("d={dim} seed={seed} bs={block_size} {g1} vs {g2}");
                        let expect = independent_block_count(&prep, g1, g2);
                        let mut auto = Stats::default();
                        count_pairs(&prep, g1, g2, &mut auto);
                        assert_eq!(auto, expect, "auto: {tag}");
                        let mut across = Stats::default();
                        count_segments(scalar, prep.segment(g1), prep.segment(g2), &mut across)
                            .unwrap();
                        assert_eq!(across, Stats { group_pairs: 1, ..expect }, "scalar: {tag}");
                    }
                }
            }
        }
    }
}

/// Exact tallies: the columnar `count_pairs` equals the domination-matrix
/// ones-count in both directions, at every dimension and block size. And
/// `count_segments`, fed each group from its own single-group
/// preparation, gives the same tallies and every `Stats` field of
/// `count_pairs` inside one preparation (plus the one group pair a fresh
/// `compare_bounded` charges) in scalar and auto (AVX2 when available)
/// modes, including left groups of 1, block−1 and block+1 rows.
#[test]
fn columnar_counts_match_domination_matrix() {
    for dim in DIMS {
        for seed in 0..3u64 {
            for block_size in BLOCK_SIZES {
                let ds = dataset_with_edge_groups(dim, seed, block_size);
                let prep = PreparedDataset::build(&ds, block_size).unwrap();
                let own: Vec<PreparedDataset> =
                    ds.group_ids().map(|g| own_preparation(&ds, g, block_size)).collect();
                for g1 in ds.group_ids() {
                    for g2 in ds.group_ids() {
                        if g1 == g2 {
                            continue;
                        }
                        let tag = format!("d={dim} seed={seed} bs={block_size} {g1} vs {g2}");
                        let mut joint = Stats { group_pairs: 1, ..Stats::default() };
                        let (n12, n21) = count_pairs(&prep, g1, g2, &mut joint);
                        assert_eq!(n12, ones(&DominationMatrix::build(&ds, g1, g2)), "{tag}");
                        assert_eq!(n21, ones(&DominationMatrix::build(&ds, g2, g1)), "{tag}");
                        for config in [
                            KernelConfig::ColumnarScalar { block_size },
                            KernelConfig::Columnar { block_size },
                        ] {
                            let mut across = Stats::default();
                            let counts = count_segments(
                                config,
                                own[g1].segment(0),
                                own[g2].segment(0),
                                &mut across,
                            )
                            .unwrap();
                            assert_eq!(counts, (n12, n21), "{config:?} tallies: {tag}");
                            assert_eq!(across, joint, "{config:?} stats: {tag}");
                        }
                    }
                }
            }
        }
    }
}

/// Cross-preparation counting refuses what it cannot count faithfully:
/// the exhaustive kernel, and preparations whose block size or
/// dimensionality differs from the config's or each other's.
#[test]
fn cross_preparation_counting_rejects_mismatched_inputs() {
    let ds = dataset(2, 1);
    let p4 = own_preparation(&ds, 0, 4);
    let p5 = own_preparation(&ds, 1, 5);
    let other_dim = own_preparation(&dataset(3, 1), 1, 4);
    let mut stats = Stats::default();
    for (config, p2) in [
        (KernelConfig::Exhaustive, &p4),
        (KernelConfig::Columnar { block_size: 5 }, &p4),
        (KernelConfig::ColumnarScalar { block_size: 4 }, &p5),
        (KernelConfig::Columnar { block_size: 4 }, &other_dim),
    ] {
        let refused = count_segments(config, p4.segment(0), p2.segment(0), &mut stats);
        assert!(refused.is_err(), "{config:?}");
    }
    assert_eq!(stats, Stats::default(), "a refused count charges nothing");
}

/// Sentinel padding: a group one record longer than the maximum lane block
/// leaves a 63/64-padded edge block; the padded lanes must contribute
/// nothing to either tally, to the verdict or to the work counters.
#[test]
fn sentinel_padded_edge_blocks_change_nothing() {
    for dim in [1, 2, 5, 8, 9] {
        let mut rng = Rng64::new(7_000 + dim as u64);
        let mut b = GroupedDatasetBuilder::new(dim).trusted_labels();
        for (g, len) in [MAX_LANE_BLOCK + 1, 1, MAX_LANE_BLOCK - 1].iter().enumerate() {
            let rows: Vec<Vec<f64>> =
                (0..*len).map(|_| (0..dim).map(|_| rng.index(3) as f64).collect()).collect();
            b.push_group(format!("g{g}"), &rows).unwrap();
        }
        let ds = b.build().unwrap();
        let prep = PreparedDataset::build(&ds, MAX_LANE_BLOCK).unwrap();
        let columnar = Kernel::with_prepared(&ds, &prep);
        let scalar =
            Kernel::new(&ds, KernelConfig::ColumnarScalar { block_size: MAX_LANE_BLOCK }).unwrap();
        let gamma = Gamma::new(0.75).unwrap();
        let opts = PairOptions { stop_rule: false, need_bar: true };
        for g1 in ds.group_ids() {
            for g2 in (g1 + 1)..ds.n_groups() {
                let mut s_col = Stats::default();
                let mut s_scl = Stats::default();
                let col = columnar.compare(g1, g2, gamma, None, opts, &mut s_col);
                let scl = scalar.compare(g1, g2, gamma, None, opts, &mut s_scl);
                let reference =
                    compare_groups(&ds, g1, g2, gamma, None, opts, &mut Stats::default());
                assert_eq!(col, reference, "d={dim} {g1}v{g2}");
                assert_eq!(col, scl, "d={dim} {g1}v{g2}");
                assert_eq!(s_col, s_scl, "d={dim} {g1}v{g2}");
                assert_eq!(
                    s_col,
                    Stats { group_pairs: 1, ..independent_block_count(&prep, g1, g2) }
                );
                let (n12, n21) = count_pairs(&prep, g1, g2, &mut Stats::default());
                assert_eq!(n12, ones(&DominationMatrix::build(&ds, g1, g2)), "d={dim}");
                assert_eq!(n21, ones(&DominationMatrix::build(&ds, g2, g1)), "d={dim}");
            }
        }
    }
}

/// End to end: every evaluated algorithm returns the same skyline under all
/// three kernel configurations (exhaustive, scalar columnar, auto
/// columnar); the two columnar runs are bit-identical in their work
/// counters too.
#[test]
fn algorithms_agree_across_all_three_kernels() {
    for dim in [2, 5] {
        for seed in 20..24u64 {
            let ds = dataset(dim, seed);
            let gamma = Gamma::new(0.75).unwrap();
            for algo in Algorithm::EVALUATED {
                let base = AlgoOptions::exact(gamma);
                let ex = algo
                    .run_with(&ds, AlgoOptions { kernel: KernelConfig::Exhaustive, ..base })
                    .unwrap();
                let scl = algo
                    .run_with(&ds, AlgoOptions { kernel: KernelConfig::columnar_scalar(), ..base })
                    .unwrap();
                let col = algo
                    .run_with(&ds, AlgoOptions { kernel: KernelConfig::columnar(), ..base })
                    .unwrap();
                assert_eq!(ex.skyline, scl.skyline, "{algo:?} d={dim} seed={seed}");
                assert_eq!(scl.skyline, col.skyline, "{algo:?} d={dim} seed={seed}");
                assert_eq!(scl.stats, col.stats, "{algo:?} d={dim} seed={seed}: stats drift");
            }
        }
    }
}

/// The columnar kernel dispatcher rejects lane-incompatible block sizes
/// instead of silently falling back.
#[test]
fn columnar_kernel_config_requires_lane_sized_blocks() {
    let ds = dataset(3, 1);
    assert!(Kernel::new(&ds, KernelConfig::Columnar { block_size: MAX_LANE_BLOCK + 1 }).is_err());
    assert!(Kernel::new(&ds, KernelConfig::Columnar { block_size: 0 }).is_err());
    assert!(Kernel::new(&ds, KernelConfig::Columnar { block_size: MAX_LANE_BLOCK }).is_ok());
}
