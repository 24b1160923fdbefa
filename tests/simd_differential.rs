//! Differential suite for the AVX2 straddle kernel: the vectorized path
//! (selected automatically by `KernelConfig::Columnar` when the CPU
//! supports it) must be *bit-identical* to the scalar columnar kernel —
//! same verdicts, same `n12`/`n21` tallies, same `Stats` — for every
//! `PairOptions` combination, for every dimension the kernel is
//! instantiated for (d ∈ 1..=8, one `const D` function each) plus the
//! runtime-dimension fallback (d = 9), at block sizes whose lane stride is
//! already vector-aligned (64 and the default), needs padding (7 → 8,
//! 13 → 16 with three pad slots), or is almost all padding (1 → 4), with
//! ragged group sizes so sentinel-padded edge blocks run through the packed
//! compares.
//!
//! On hardware without AVX2 and POPCNT the suite prints a visible SKIP line and
//! passes vacuously (the auto path degrades to the scalar kernel, so there
//! is nothing to differentiate).

use aggsky::core::cpu;
use aggsky::core::kernel::{count_pairs, count_pairs_across, Kernel, KernelConfig};
use aggsky::core::paircount::PairOptions;
use aggsky::core::prepared::{PreparedDataset, MAX_LANE_BLOCK};
use aggsky::core::{DominationMatrix, GroupId, Mbb, Stats};
use aggsky::datagen::Rng64;
use aggsky::{AlgoOptions, Algorithm, Gamma, GroupedDataset, GroupedDatasetBuilder};

const DIMS: [usize; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 9];
const BLOCK_SIZES: [usize; 5] = [1, 7, 13, PreparedDataset::DEFAULT_BLOCK_SIZE, 64];

/// `true` when the AVX2 path is actually exercised; otherwise prints the
/// skip visibly so a CI log never silently loses the coverage.
fn simd_or_skip(test: &str) -> bool {
    if cpu::simd_active() {
        return true;
    }
    eprintln!(
        "SKIP {test}: AVX2/POPCNT unavailable (or AGGSKY_FORCE_SCALAR set); scalar-only host"
    );
    false
}

/// Random integer-grid dataset with ragged group sizes (see the columnar
/// differential suite): small coordinate ranges maximize ties, and lengths
/// straddling block boundaries leave sentinel-padded edge blocks at every
/// tested block size.
fn dataset(dim: usize, seed: u64) -> GroupedDataset {
    let mut rng = Rng64::new(seed.wrapping_mul(0xA076_1D64).wrapping_add(dim as u64));
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
    let mut rng = Rng64::new(seed ^ 0x51AD_0000 ^ block_size as u64);
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

/// Verdicts AND `Stats` of the auto (AVX2) columnar path equal the forced
/// scalar columnar path bit for bit, for every dimension, block size,
/// option set, γ, and box configuration.
#[test]
fn avx2_is_bit_identical_to_scalar_columnar() {
    if !simd_or_skip("avx2_is_bit_identical_to_scalar_columnar") {
        return;
    }
    for dim in DIMS {
        for seed in 0..4u64 {
            let ds = dataset(dim, seed);
            let gamma = Gamma::new([0.5, 0.75, 0.9, 1.0][(seed % 4) as usize]).unwrap();
            let boxes = Mbb::of_all_groups(&ds);
            for block_size in BLOCK_SIZES {
                let auto = Kernel::new(&ds, KernelConfig::Columnar { block_size }).unwrap();
                let oracle = Kernel::new(&ds, KernelConfig::ColumnarScalar { block_size }).unwrap();
                assert!(auto.is_simd(), "d={dim} bs={block_size}");
                for g1 in ds.group_ids() {
                    for g2 in (g1 + 1)..ds.n_groups() {
                        for opts in all_pair_options() {
                            for use_boxes in [false, true] {
                                let pair_boxes = use_boxes.then(|| (&boxes[g1], &boxes[g2]));
                                let tag = format!(
                                    "d={dim} seed={seed} bs={block_size} {g1}v{g2} {opts:?} \
                                     boxes={use_boxes}"
                                );
                                let mut s_simd = Stats::default();
                                let mut s_scalar = Stats::default();
                                let simd =
                                    auto.compare(g1, g2, gamma, pair_boxes, opts, &mut s_simd);
                                let scalar =
                                    oracle.compare(g1, g2, gamma, pair_boxes, opts, &mut s_scalar);
                                assert_eq!(simd, scalar, "verdict drift: {tag}");
                                assert_eq!(s_simd, s_scalar, "stats drift: {tag}");
                            }
                        }
                    }
                }
                assert_cross_preparation_counts_bit_identical(dim, seed, block_size);
            }
        }
    }
}

/// Each group counted from its own single-group preparation by
/// `count_pairs_across` gives the tallies and every `Stats` field of the
/// AVX2 `count_pairs` inside one preparation (plus the one group pair a
/// fresh `compare_bounded` charges), in scalar-columnar and AVX2 modes,
/// including left groups of 1, block−1 and block+1 rows.
fn assert_cross_preparation_counts_bit_identical(dim: usize, seed: u64, block_size: usize) {
    let ds = dataset_with_edge_groups(dim, seed, block_size);
    let prep = PreparedDataset::build(&ds, block_size).unwrap();
    let own: Vec<PreparedDataset> =
        ds.group_ids().map(|g| own_preparation(&ds, g, block_size)).collect();
    for g1 in ds.group_ids() {
        for g2 in ds.group_ids() {
            if g1 == g2 {
                continue;
            }
            let mut joint = Stats { group_pairs: 1, ..Stats::default() };
            let counts = count_pairs(&prep, g1, g2, &mut joint);
            for config in
                [KernelConfig::ColumnarScalar { block_size }, KernelConfig::Columnar { block_size }]
            {
                let tag = format!("d={dim} seed={seed} bs={block_size} {g1} vs {g2} {config:?}");
                let mut across = Stats::default();
                let got =
                    count_pairs_across(config, &own[g1], 0, &own[g2], 0, &mut across).unwrap();
                assert_eq!(got, counts, "cross-preparation tallies: {tag}");
                assert_eq!(across, joint, "cross-preparation stats: {tag}");
            }
        }
    }
}

/// Exact tallies under the vectorized kernel: `count_pairs` (which
/// dispatches to AVX2 when active) equals the domination-matrix ones-count
/// in both directions — the packed ≥ masks charge exactly the pairs the
/// per-record definition charges.
#[test]
fn avx2_counts_match_domination_matrix() {
    if !simd_or_skip("avx2_counts_match_domination_matrix") {
        return;
    }
    for dim in DIMS {
        for seed in 0..3u64 {
            let ds = dataset(dim, seed);
            for block_size in BLOCK_SIZES {
                let prep = PreparedDataset::build(&ds, block_size).unwrap();
                for g1 in ds.group_ids() {
                    for g2 in ds.group_ids() {
                        if g1 == g2 {
                            continue;
                        }
                        let mut stats = Stats::default();
                        let (n12, n21) = count_pairs(&prep, g1, g2, &mut stats);
                        assert_eq!(
                            n12,
                            ones(&DominationMatrix::build(&ds, g1, g2)),
                            "d={dim} seed={seed} bs={block_size} {g1} over {g2}"
                        );
                        assert_eq!(
                            n21,
                            ones(&DominationMatrix::build(&ds, g2, g1)),
                            "d={dim} seed={seed} bs={block_size} {g2} over {g1}"
                        );
                    }
                }
            }
        }
    }
}

/// Sentinel padding under packed compares: a group one record longer than
/// the maximum lane block leaves a 63/64-padded edge block, and block size
/// 7 pads every lane chunk's tail; the padded lanes must contribute nothing
/// to either tally or to the work counters on the AVX2 path.
#[test]
fn sentinel_padded_edge_blocks_are_invisible_to_avx2() {
    if !simd_or_skip("sentinel_padded_edge_blocks_are_invisible_to_avx2") {
        return;
    }
    for dim in DIMS {
        let mut rng = Rng64::new(9_000 + dim as u64);
        let mut b = GroupedDatasetBuilder::new(dim).trusted_labels();
        for (g, len) in [MAX_LANE_BLOCK + 1, 1, MAX_LANE_BLOCK - 1].iter().enumerate() {
            let rows: Vec<Vec<f64>> =
                (0..*len).map(|_| (0..dim).map(|_| rng.index(3) as f64).collect()).collect();
            b.push_group(format!("g{g}"), &rows).unwrap();
        }
        let ds = b.build().unwrap();
        let gamma = Gamma::new(0.75).unwrap();
        let opts = PairOptions { stop_rule: false, need_bar: true };
        for block_size in BLOCK_SIZES {
            let prep = PreparedDataset::build(&ds, block_size).unwrap();
            let auto = Kernel::with_prepared(&ds, &prep);
            let oracle = Kernel::new(&ds, KernelConfig::ColumnarScalar { block_size }).unwrap();
            for g1 in ds.group_ids() {
                for g2 in (g1 + 1)..ds.n_groups() {
                    let mut s_simd = Stats::default();
                    let mut s_scalar = Stats::default();
                    let simd = auto.compare(g1, g2, gamma, None, opts, &mut s_simd);
                    let scalar = oracle.compare(g1, g2, gamma, None, opts, &mut s_scalar);
                    assert_eq!(simd, scalar, "d={dim} bs={block_size} {g1}v{g2}");
                    assert_eq!(s_simd, s_scalar, "d={dim} bs={block_size} {g1}v{g2}");
                    let (n12, n21) = count_pairs(&prep, g1, g2, &mut Stats::default());
                    assert_eq!(n12, ones(&DominationMatrix::build(&ds, g1, g2)), "d={dim}");
                    assert_eq!(n21, ones(&DominationMatrix::build(&ds, g2, g1)), "d={dim}");
                }
            }
        }
    }
}

/// The `ColumnarScalar` kernel config is a first-class scalar override: it
/// validates block sizes exactly like `Columnar`, and every evaluated
/// algorithm returns the same skyline with bit-identical work counters
/// under both configs — which is precisely the claim that the automatic
/// AVX2 dispatch changes nothing observable.
#[test]
fn columnar_scalar_config_forces_the_oracle_path() {
    let ds = dataset(4, 1);
    let too_big = KernelConfig::ColumnarScalar { block_size: MAX_LANE_BLOCK + 1 };
    assert!(Kernel::new(&ds, too_big).is_err());
    assert!(Kernel::new(&ds, KernelConfig::ColumnarScalar { block_size: 0 }).is_err());
    assert!(Kernel::new(&ds, KernelConfig::columnar_scalar()).is_ok());

    for dim in [2, 4, 5] {
        for seed in 30..33u64 {
            let ds = dataset(dim, seed);
            let gamma = Gamma::new(0.75).unwrap();
            for algo in Algorithm::EVALUATED {
                let base = AlgoOptions::exact(gamma);
                let auto = algo
                    .run_with(&ds, AlgoOptions { kernel: KernelConfig::columnar(), ..base })
                    .unwrap();
                let scalar = algo
                    .run_with(&ds, AlgoOptions { kernel: KernelConfig::columnar_scalar(), ..base })
                    .unwrap();
                assert_eq!(auto.skyline, scalar.skyline, "{algo:?} d={dim} seed={seed}");
                assert_eq!(auto.stats, scalar.stats, "{algo:?} d={dim} seed={seed}: stats drift");
            }
        }
    }
}
