//! Seeded differential testing: every optimized algorithm (in exact mode)
//! must agree with the exhaustive oracle on arbitrary inputs, and the
//! paper's theoretical properties must hold on random data.
//!
//! Each property loops over a fixed set of seeds feeding the in-tree
//! xoshiro256** generator, so the suite is fully deterministic and needs no
//! external property-testing framework; a failure message always names the
//! seed that reproduces it.

use aggsky::core::kernel::KernelConfig;
use aggsky::core::paircount::{compare_groups, compare_groups_exhaustive, PairOptions};
use aggsky::core::properties;
use aggsky::core::Stats;
use aggsky::datagen::Rng64;
use aggsky::{
    naive_skyline, parallel_skyline, AlgoOptions, Algorithm, Gamma, GroupedDataset,
    GroupedDatasetBuilder, SortStrategy,
};

const SEEDS: u64 = 64;

/// A grouped dataset with 1-12 groups of 1-8 records in 1-4 dims, values
/// drawn from a small integer grid (to generate plenty of ties and
/// exact-dominance edge cases) — the same shape the proptest strategy this
/// suite replaced used to draw.
fn random_grid_dataset(seed: u64) -> GroupedDataset {
    let mut rng = Rng64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seed));
    let dim = 1 + rng.index(4);
    let n_groups = 1 + rng.index(12);
    let mut b = GroupedDatasetBuilder::new(dim).trusted_labels();
    for g in 0..n_groups {
        let len = 1 + rng.index(8);
        let rows: Vec<Vec<f64>> =
            (0..len).map(|_| (0..dim).map(|_| rng.index(6) as f64).collect()).collect();
        b.push_group(format!("g{g}"), &rows).unwrap();
    }
    b.build().unwrap()
}

const GAMMAS: [f64; 5] = [0.5, 0.6, 0.75, 0.9, 1.0];

fn gamma_for(seed: u64) -> Gamma {
    Gamma::new(GAMMAS[(seed % GAMMAS.len() as u64) as usize]).unwrap()
}

/// Exact-pruning variants of every algorithm equal the oracle, with all
/// three counting kernels.
#[test]
fn exact_algorithms_match_oracle() {
    for seed in 0..SEEDS {
        let ds = random_grid_dataset(seed);
        let gamma = gamma_for(seed);
        let oracle = naive_skyline(&ds, gamma).skyline;
        for kernel in
            [KernelConfig::Exhaustive, KernelConfig::columnar_scalar(), KernelConfig::columnar()]
        {
            let opts = AlgoOptions { kernel, ..AlgoOptions::exact(gamma) };
            for algo in Algorithm::EVALUATED {
                let r = algo.run_with(&ds, opts).unwrap();
                assert_eq!(r.skyline, oracle, "{algo:?} {kernel:?} seed={seed}");
            }
        }
    }
}

/// The parallel extension equals the oracle at any thread count.
#[test]
fn parallel_matches_oracle() {
    for seed in 0..SEEDS {
        let ds = random_grid_dataset(seed);
        let gamma = gamma_for(seed);
        let threads = 1 + (seed % 4) as usize;
        let oracle = naive_skyline(&ds, gamma).skyline;
        assert_eq!(
            parallel_skyline(&ds, gamma, threads).unwrap().skyline,
            oracle,
            "seed={seed} threads={threads}"
        );
    }
}

/// Paper-pruning algorithms never lose a true skyline group (they may,
/// rarely, keep an extra one — the printed Algorithm 3's known gap).
#[test]
fn paper_algorithms_never_drop_skyline_groups() {
    for seed in 0..SEEDS {
        let ds = random_grid_dataset(seed);
        let gamma = gamma_for(seed);
        let oracle = naive_skyline(&ds, gamma).skyline;
        for algo in Algorithm::EVALUATED {
            let r = algo.run(&ds, gamma);
            for g in &oracle {
                assert!(r.skyline.contains(g), "{algo:?} dropped group {g} (seed={seed})");
            }
        }
    }
}

/// The stopping rule and bounding-box decomposition never change a pairwise
/// verdict.
#[test]
fn pair_verdicts_match_exhaustive() {
    for seed in 0..SEEDS {
        let ds = random_grid_dataset(seed);
        if ds.n_groups() < 2 {
            continue;
        }
        let gamma = gamma_for(seed);
        let boxes = aggsky::core::Mbb::of_all_groups(&ds);
        let oracle = compare_groups_exhaustive(&ds, 0, 1, gamma);
        for stop in [false, true] {
            for bbox in [false, true] {
                let mut stats = Stats::default();
                let v = compare_groups(
                    &ds,
                    0,
                    1,
                    gamma,
                    bbox.then_some((&boxes[0], &boxes[1])),
                    PairOptions { stop_rule: stop, need_bar: true },
                    &mut stats,
                );
                assert_eq!(v, oracle, "stop={stop} bbox={bbox} seed={seed}");
            }
        }
    }
}

/// Monotonicity in γ: raising γ only ever grows the skyline (domination
/// needs p > γ, so fewer dominations at larger γ).
#[test]
fn skyline_grows_with_gamma() {
    for seed in 0..SEEDS {
        let ds = random_grid_dataset(seed);
        let mut prev: Option<Vec<usize>> = None;
        for g in GAMMAS {
            let sky = naive_skyline(&ds, Gamma::new(g).unwrap()).skyline;
            if let Some(p) = &prev {
                for kept in p {
                    assert!(sky.contains(kept), "group {kept} lost at gamma {g} (seed={seed})");
                }
            }
            prev = Some(sky);
        }
    }
}

/// Asymmetry (Proposition 1) on random data at each tested γ ≥ .5.
#[test]
fn asymmetry_holds() {
    for seed in 0..SEEDS {
        let ds = random_grid_dataset(seed);
        let gamma = gamma_for(seed);
        assert_eq!(properties::check_asymmetry(&ds, gamma), None, "seed={seed}");
    }
}

/// Weak transitivity at the *corrected* threshold `γ̄ = (1+γ)/2`: for random
/// group triples, if both edges exceed γ̄ then R ≻_γ T. (The paper's printed
/// threshold `1 − √(1−γ)/2` admits counterexamples — see the unit test
/// `paper_weak_transitivity_bound_has_a_counterexample` in the core crate —
/// so the property is asserted for the sound bound.)
#[test]
fn weak_transitivity_holds_at_corrected_bar() {
    for seed in 0..SEEDS {
        let ds = random_grid_dataset(seed);
        let gamma = gamma_for(seed);
        let n = ds.n_groups();
        for r in 0..n {
            for s in 0..n {
                for t in 0..n {
                    if r == s || s == t || r == t {
                        continue;
                    }
                    let p_rs = aggsky::domination_probability(&ds, r, s);
                    let p_st = aggsky::domination_probability(&ds, s, t);
                    if gamma.strongly_dominated_corrected(p_rs)
                        && gamma.strongly_dominated_corrected(p_st)
                    {
                        let p_rt = aggsky::domination_probability(&ds, r, t);
                        assert!(
                            gamma.dominated(p_rt),
                            "weak transitivity violated (seed={seed}): \
                             p_rs={p_rs} p_st={p_st} p_rt={p_rt} gamma={gamma:?}"
                        );
                    }
                }
            }
        }
    }
}

/// The additive lower bound behind the corrected threshold:
/// p(R ≻ T) ≥ p(R ≻ S) + p(S ≻ T) − 1, on any data (overlapping witness
/// fractions force transitive record dominance).
#[test]
fn additive_lower_bound_on_transitive_domination() {
    for seed in 0..SEEDS {
        let ds = random_grid_dataset(seed);
        let n = ds.n_groups();
        for r in 0..n {
            for s in 0..n {
                for t in 0..n {
                    if r == s || s == t || r == t {
                        continue;
                    }
                    let p_rs = aggsky::domination_probability(&ds, r, s);
                    let p_st = aggsky::domination_probability(&ds, s, t);
                    let p_rt = aggsky::domination_probability(&ds, r, t);
                    assert!(
                        p_rt >= p_rs + p_st - 1.0 - 1e-12,
                        "additive bound violated (seed={seed}): {p_rt} < {p_rs} + {p_st} - 1"
                    );
                }
            }
        }
    }
}

/// Stability to updates (Property 2) under random record removals.
#[test]
fn update_stability_bounds_hold() {
    for seed in 0..SEEDS {
        let ds = random_grid_dataset(seed);
        let keep = 1 + (seed % 4) as usize;
        let n = ds.n_groups();
        if n < 2 {
            continue;
        }
        for r in 0..n {
            let len = ds.group_len(r);
            if len < 2 {
                continue;
            }
            // Remove all but `keep` records (at least one stays).
            let removed: Vec<usize> = (keep.min(len - 1)..len).collect();
            if removed.is_empty() {
                continue;
            }
            for s in 0..n {
                if s == r {
                    continue;
                }
                let res = properties::check_update_stability(&ds, r, s, &removed).unwrap();
                assert!(res.within_bounds, "seed={seed} r={r} s={s} {res:?}");
            }
        }
    }
}

/// Stability to monotone transformations (Proposition 2).
#[test]
fn monotone_transform_stability() {
    for seed in 0..SEEDS {
        let ds = random_grid_dataset(seed);
        let cube = |v: f64| v * v * v;
        let expish = |v: f64| v.exp_m1();
        let affine = |v: f64| 3.0 * v + 7.0;
        let id = |v: f64| v;
        let fns: Vec<&dyn Fn(f64) -> f64> = vec![&cube, &expish, &affine, &id];
        let transforms: Vec<&dyn Fn(f64) -> f64> =
            (0..ds.dim()).map(|d| fns[d % fns.len()]).collect();
        let dev = properties::monotone_transform_deviation(&ds, &transforms).unwrap();
        assert_eq!(dev, 0.0, "seed={seed}");
    }
}

/// All sort strategies leave exact results unchanged.
#[test]
fn sort_strategies_preserve_results() {
    for seed in 0..SEEDS {
        let ds = random_grid_dataset(seed);
        let oracle = naive_skyline(&ds, Gamma::DEFAULT).skyline;
        for sort in [
            SortStrategy::InsertionOrder,
            SortStrategy::CornerDistance,
            SortStrategy::SizeThenDistance,
        ] {
            let opts = AlgoOptions { sort, ..AlgoOptions::exact(Gamma::DEFAULT) };
            let r = Algorithm::Sorted.run_with(&ds, opts).unwrap();
            assert_eq!(r.skyline, oracle, "{sort:?} seed={seed}");
            let r = Algorithm::Indexed.run_with(&ds, opts).unwrap();
            assert_eq!(r.skyline, oracle, "indexed {sort:?} seed={seed}");
        }
    }
}
