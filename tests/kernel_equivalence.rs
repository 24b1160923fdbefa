//! Equivalence of the block-at-a-time counting kernel with the per-pair
//! ground truth: on random, correlated and anticorrelated workloads, at
//! every block size, the kernel's exact pair counts must equal the
//! [`DominationMatrix`] ones-count, and its verdicts must match the
//! unblocked `compare_groups` for every `PairOptions` combination. The
//! kernel is the columnar one the runtime selects, so a run with
//! `AGGSKY_FORCE_SCALAR=1` checks the scalar straddle loop and a run on an
//! AVX2 host the vectorized one.

use aggsky::core::kernel::{count_pairs, Kernel, KernelConfig};
use aggsky::core::paircount::{compare_groups, PairOptions};
use aggsky::core::prepared::PreparedDataset;
use aggsky::core::{DominationMatrix, Mbb, Stats};
use aggsky::datagen::{Distribution, GroupSizes, Rng64, SyntheticConfig};
use aggsky::{Gamma, GroupedDataset, GroupedDatasetBuilder};

const BLOCK_SIZES: [usize; 5] = [1, 7, 13, PreparedDataset::DEFAULT_BLOCK_SIZE, 64];

/// Small integer-grid dataset (maximizes ties and exact-dominance edges).
fn grid_dataset(seed: u64) -> GroupedDataset {
    let mut rng = Rng64::new(seed);
    let dim = 1 + rng.index(3);
    let mut b = GroupedDatasetBuilder::new(dim).trusted_labels();
    for g in 0..6 {
        let len = 1 + rng.index(9);
        let rows: Vec<Vec<f64>> =
            (0..len).map(|_| (0..dim).map(|_| rng.index(5) as f64).collect()).collect();
        b.push_group(format!("g{g}"), &rows).unwrap();
    }
    b.build().unwrap()
}

/// The paper's synthetic workloads, one small instance per distribution.
fn synthetic(dist: Distribution, seed: u64) -> GroupedDataset {
    SyntheticConfig {
        n_records: 90,
        n_groups: 6,
        dim: 3,
        distribution: dist,
        spread: 0.2,
        group_sizes: GroupSizes::Uniform,
        seed,
    }
    .generate()
}

fn workloads(seed: u64) -> Vec<(&'static str, GroupedDataset)> {
    vec![
        ("grid", grid_dataset(seed)),
        ("independent", synthetic(Distribution::Independent, seed)),
        ("correlated", synthetic(Distribution::Correlated, seed)),
        ("anticorrelated", synthetic(Distribution::AntiCorrelated, seed)),
    ]
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

fn all_pair_options() -> Vec<PairOptions> {
    let mut out = Vec::new();
    for stop_rule in [false, true] {
        for need_bar in [false, true] {
            out.push(PairOptions { stop_rule, need_bar });
        }
    }
    out
}

/// Kernel pair counts equal the domination-matrix ground truth on every
/// workload at every block size (including pathological block size 1).
#[test]
fn counts_match_domination_matrix() {
    for seed in 0..8u64 {
        for (name, ds) in workloads(seed) {
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
                            "{name} seed={seed} bs={block_size} {g1} over {g2}"
                        );
                        assert_eq!(
                            n21,
                            ones(&DominationMatrix::build(&ds, g2, g1)),
                            "{name} seed={seed} bs={block_size} {g2} over {g1}"
                        );
                    }
                }
            }
        }
    }
}

/// Kernel verdicts equal the unblocked `compare_groups` under every
/// `PairOptions` combination, with and without bounding boxes.
#[test]
fn verdicts_match_unblocked_for_all_options() {
    for seed in 0..6u64 {
        for (name, ds) in workloads(seed) {
            let gamma = Gamma::new([0.5, 0.75, 1.0][(seed % 3) as usize]).unwrap();
            let boxes = Mbb::of_all_groups(&ds);
            for block_size in BLOCK_SIZES {
                let kernel = Kernel::new(&ds, KernelConfig::Columnar { block_size }).unwrap();
                for g1 in ds.group_ids() {
                    for g2 in (g1 + 1)..ds.n_groups() {
                        for opts in all_pair_options() {
                            for use_boxes in [false, true] {
                                let pair_boxes = use_boxes.then(|| (&boxes[g1], &boxes[g2]));
                                let mut s1 = Stats::default();
                                let mut s2 = Stats::default();
                                let blocked =
                                    kernel.compare(g1, g2, gamma, pair_boxes, opts, &mut s1);
                                let reference =
                                    compare_groups(&ds, g1, g2, gamma, pair_boxes, opts, &mut s2);
                                assert_eq!(
                                    blocked, reference,
                                    "{name} seed={seed} bs={block_size} {g1}v{g2} {opts:?} \
                                     boxes={use_boxes}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The blocked kernel does strictly less record work than exhaustive
/// counting on a correlated workload (where sort-order pruning bites), while
/// remaining exact.
#[test]
fn blocked_kernel_reduces_record_comparisons() {
    let ds = synthetic(Distribution::Correlated, 99);
    let prep = PreparedDataset::build(&ds, 16).unwrap();
    let mut blocked_work = 0u64;
    let mut exhaustive_work = 0u64;
    for g1 in ds.group_ids() {
        for g2 in ds.group_ids() {
            if g1 == g2 {
                continue;
            }
            let mut stats = Stats::default();
            count_pairs(&prep, g1, g2, &mut stats);
            blocked_work += stats.records_compared;
            exhaustive_work += (ds.group_len(g1) * ds.group_len(g2)) as u64;
        }
    }
    assert!(
        blocked_work < exhaustive_work,
        "blocked {blocked_work} pairs tested vs exhaustive {exhaustive_work}"
    );
}
