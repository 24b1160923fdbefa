//! The cross-γ pair-count cache, end to end: a sweep over several
//! thresholds through one shared [`aggsky::core::PairCache`] must produce
//! exactly the skyline an independent uncached run produces at each γ, for
//! every algorithm that consults the kernel — and resumed or served tallies
//! must never be charged to the execution budget a second time.

use aggsky::core::{gamma_sweep, gamma_sweep_ctx, KernelConfig, PairCache, PreparedDataset};
use aggsky::datagen::Rng64;
use aggsky::{AlgoOptions, Algorithm, Gamma, GroupedDataset, GroupedDatasetBuilder, RunContext};

const GAMMAS: [f64; 4] = [0.5, 0.6, 0.75, 0.9];

fn dataset(seed: u64) -> GroupedDataset {
    let mut rng = Rng64::new(seed);
    let dim = 2 + rng.index(2);
    let mut b = GroupedDatasetBuilder::new(dim).trusted_labels();
    for g in 0..9 {
        let len = 2 + rng.index(12);
        let rows: Vec<Vec<f64>> =
            (0..len).map(|_| (0..dim).map(|_| rng.index(6) as f64).collect()).collect();
        b.push_group(format!("g{g}"), &rows).unwrap();
    }
    b.build().unwrap()
}

/// Sweeping with the shared cache returns the same skyline as a fresh
/// uncached run at every γ, for every kernel-driven algorithm, and the
/// later runs actually serve memoized tallies.
#[test]
fn cached_sweep_matches_independent_runs() {
    for algorithm in
        [Algorithm::NestedLoop, Algorithm::Transitive, Algorithm::Sorted, Algorithm::Indexed]
    {
        for seed in 0..4u64 {
            let ds = dataset(1000 + seed);
            let gammas: Vec<Gamma> = GAMMAS.iter().map(|&g| Gamma::new(g).unwrap()).collect();
            let opts = AlgoOptions::exact(Gamma::DEFAULT);
            let swept = gamma_sweep(&ds, algorithm, &gammas, opts).unwrap();
            assert_eq!(swept.len(), gammas.len());
            let mut hits = 0;
            for (gamma, result) in &swept {
                let solo = algorithm.run_with(&ds, AlgoOptions { gamma: *gamma, ..opts }).unwrap();
                assert_eq!(result.skyline, solo.skyline, "{algorithm:?} seed={seed} γ={gamma}");
                hits += result.stats.cache_hits;
            }
            assert!(hits > 0, "{algorithm:?} seed={seed}: sweep never reused a tally");
        }
    }
}

/// The cache is also valid *across algorithms* on one dataset: tallies are
/// algorithm-independent, so a cache warmed by NL serves SI and IN without
/// changing their skylines.
#[test]
fn cache_is_shareable_across_algorithms() {
    for seed in 0..4u64 {
        let ds = dataset(2000 + seed);
        let prep = PreparedDataset::build(&ds, PreparedDataset::DEFAULT_BLOCK_SIZE).unwrap();
        let gamma = Gamma::new(0.75).unwrap();
        let opts = AlgoOptions::exact(gamma);
        let mut cache = PairCache::new();
        let warm = Algorithm::NestedLoop.run_cached(&ds, &prep, opts, &mut cache);
        assert!(!cache.is_empty(), "seed={seed}: NL memoized nothing");
        for algorithm in [Algorithm::Sorted, Algorithm::Indexed, Algorithm::Transitive] {
            let cached = algorithm.run_cached(&ds, &prep, opts, &mut cache);
            let solo = algorithm.run_with(&ds, opts).unwrap();
            assert_eq!(cached.skyline, solo.skyline, "{algorithm:?} seed={seed}");
            assert_eq!(cached.skyline, warm.skyline, "{algorithm:?} seed={seed}");
        }
    }
}

/// The *resume* path specifically: tightening γ can demand more evidence
/// than a looser run's stopped tally holds, so the kernel must pick the
/// count back up at the stored block cursor. These seeds are known to
/// produce resumptions (asserted, so the path cannot silently stop being
/// covered), and every resumed run's skyline must still equal a fresh
/// uncached run's.
///
/// The kernel is pinned to 8-record blocks: the fixture's groups hold 2–13
/// records, so at the 16-record default every group is a single block and
/// every pair is decided in one block pair, leaving no cursor to resume.
#[test]
fn partial_tallies_resume_and_stay_exact() {
    let mut resumes = 0u64;
    for seed in 0..8u64 {
        let ds = dataset(seed);
        let gammas: Vec<Gamma> = GAMMAS.iter().map(|&g| Gamma::new(g).unwrap()).collect();
        let opts = AlgoOptions {
            kernel: KernelConfig::Columnar { block_size: 8 },
            ..AlgoOptions::exact(Gamma::DEFAULT)
        };
        let outcome =
            gamma_sweep_ctx(&ds, Algorithm::NestedLoop, &gammas, opts, &RunContext::unlimited())
                .unwrap();
        for run in &outcome.runs {
            resumes += run.outcome.stats().cache_resumes;
            let solo = Algorithm::NestedLoop
                .run_with(&ds, AlgoOptions { gamma: run.gamma, ..opts })
                .unwrap();
            assert_eq!(
                run.outcome.clone().unwrap_or_partial().skyline,
                solo.skyline,
                "seed={seed} γ={}",
                run.gamma
            );
        }
    }
    assert!(resumes > 0, "fixture no longer exercises tally resumption");
}

/// Budget single-charging: repeating a threshold inside one sweep performs
/// (and charges) no fresh counting on the repeat — a budget sized for one
/// run completes both, and the repeat's fresh-work counters stay zero.
#[test]
fn resumed_tallies_are_never_double_charged() {
    for seed in 0..4u64 {
        let ds = dataset(3000 + seed);
        let gamma = Gamma::new(0.6).unwrap();
        // Same kernel configuration as the sweep itself, so the solo run's
        // tick count is exactly what the sweep's first run will charge (the
        // blocked stop rule fires at block granularity, not record
        // granularity, so an exhaustive-kernel cost would not match).
        let opts = AlgoOptions {
            kernel: aggsky::core::KernelConfig::columnar(),
            ..AlgoOptions::exact(gamma)
        };
        let solo = Algorithm::NestedLoop.run_with(&ds, opts).unwrap();
        let one_run_cost = solo.stats.record_pairs;
        assert!(one_run_cost > 0, "seed={seed}: degenerate workload");

        // Two identical thresholds under a budget that one uncached run
        // nearly exhausts: if served/resumed pairs were re-charged, the
        // second run would trip the budget. A small slack absorbs the
        // group-level ticks that are charged per run regardless.
        let budget = one_run_cost + ds.n_groups() as u64 * ds.n_groups() as u64;
        let ctx = RunContext::with_budget(budget);
        let outcome =
            gamma_sweep_ctx(&ds, Algorithm::NestedLoop, &[gamma, gamma], opts, &ctx).unwrap();
        assert_eq!(outcome.runs.len(), 2, "seed={seed}: sweep was interrupted");
        for run in &outcome.runs {
            assert!(run.outcome.is_complete(), "seed={seed}: γ={} interrupted", run.gamma);
        }
        let second = outcome.runs[1].outcome.stats();
        assert_eq!(second.record_pairs, 0, "seed={seed}: repeat run performed fresh counting");
        assert_eq!(second.cache_misses, 0, "seed={seed}: repeat run missed the cache");
        assert_eq!(second.cache_resumes, 0, "seed={seed}: same-γ repeat should serve, not resume");
        assert!(second.cache_hits > 0, "seed={seed}: repeat run never hit the cache");
    }
}

/// Tightening γ upward may need *more* evidence for a pair than the looser
/// run stored; the kernel resumes the partial tally at its block cursor
/// instead of recounting, so the sweep's total fresh work never exceeds the
/// single most expensive independent run by more than the per-run overhead.
#[test]
fn resumption_only_pays_the_marginal_counting() {
    for seed in 0..4u64 {
        let ds = dataset(4000 + seed);
        let gammas: Vec<Gamma> = GAMMAS.iter().map(|&g| Gamma::new(g).unwrap()).collect();
        let opts = AlgoOptions::exact(Gamma::DEFAULT);
        let outcome =
            gamma_sweep_ctx(&ds, Algorithm::NestedLoop, &gammas, opts, &RunContext::unlimited())
                .unwrap();
        let swept_fresh: u64 = outcome.runs.iter().map(|r| r.outcome.stats().record_pairs).sum();
        let solo_total: u64 = gammas
            .iter()
            .map(|&gamma| {
                Algorithm::NestedLoop
                    .run_with(&ds, AlgoOptions { gamma, ..opts })
                    .unwrap()
                    .stats
                    .record_pairs
            })
            .sum();
        // Each unordered pair's tally advances monotonically toward its
        // record-pair product and is never recounted, so the exhaustive
        // all-pairs product is a hard ceiling on the sweep's fresh work.
        let ceiling: u64 = (0..ds.n_groups())
            .flat_map(|g1| (g1 + 1..ds.n_groups()).map(move |g2| (g1, g2)))
            .map(|(g1, g2)| (ds.group_len(g1) * ds.group_len(g2)) as u64)
            .sum();
        assert!(
            swept_fresh <= ceiling,
            "seed={seed}: sweep recounted pairs ({swept_fresh} fresh vs ceiling {ceiling})"
        );
        assert!(
            swept_fresh <= solo_total,
            "seed={seed}: cache made the sweep do more work ({swept_fresh} vs {solo_total})"
        );
    }
}
