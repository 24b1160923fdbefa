//! γ-sweep driver: one preparation, one [`PairCache`], many thresholds.
//!
//! A sensitivity analysis evaluates the same dataset at several γ values
//! (the paper's evaluation sweeps γ ∈ {0.5, …, 1.0}). The pair tallies
//! `n12`/`n21` are γ-independent, so re-running an algorithm per threshold
//! repeats almost all of its counting work. The driver here builds the
//! [`PreparedDataset`] once and threads a single [`PairCache`] through
//! every run ([`crate::Algorithm::run_cached_ctx`]): the first run pays for
//! the counting it needs, later runs serve memoized verdicts outright or
//! resume a partial tally at the kernel's block cursor when the tighter γ
//! needs more evidence.
//!
//! Each run's skyline is identical to an independent uncached run at the
//! same γ (see the soundness argument in [`crate::paircache`]); only the
//! work counters differ — which is the point, and what
//! `Stats::cache_hits` / `cache_misses` / `cache_resumes` quantify.

use crate::algorithms::{AlgoOptions, Algorithm, SkylineResult};
use crate::dataset::GroupedDataset;
use crate::error::Result;
use crate::gamma::Gamma;
use crate::paircache::PairCache;
use crate::prepared::PreparedDataset;
use crate::runctx::{Outcome, RunContext};

/// One γ point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The threshold this run used.
    pub gamma: Gamma,
    /// The run's outcome (complete skyline, or a sound partial partition
    /// when the context interrupted it).
    pub outcome: Outcome,
}

/// Everything a sweep produced, plus how much counting state it memoized.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Per-γ results, in the order the thresholds were given.
    pub runs: Vec<SweepResult>,
    /// Group pairs whose (possibly partial) tally the shared cache holds
    /// after the last run.
    pub memoized_pairs: usize,
}

/// Runs `algorithm` at every threshold in `gammas`, sharing one preparation
/// and one pair-count cache across the whole sweep. `opts.gamma` is
/// overridden per run; `opts.kernel` only selects the block size (the sweep
/// always runs prepared, on the columnar kernel; [`crate::KernelConfig::Exhaustive`]
/// selects [`PreparedDataset::DEFAULT_BLOCK_SIZE`]).
///
/// # Errors
///
/// Returns [`crate::Error::InvalidArgument`] for a block size of zero or
/// above [`crate::MAX_LANE_BLOCK`].
pub fn gamma_sweep(
    ds: &GroupedDataset,
    algorithm: Algorithm,
    gammas: &[Gamma],
    opts: AlgoOptions,
) -> Result<Vec<(Gamma, SkylineResult)>> {
    let outcome = gamma_sweep_ctx(ds, algorithm, gammas, opts, &RunContext::unlimited())?;
    Ok(outcome.runs.into_iter().map(|r| (r.gamma, r.outcome.unwrap_or_partial())).collect())
}

/// [`gamma_sweep`] under an execution-control context.
///
/// The context is polled by every run with that run's *own* fresh-work
/// tick clock — record pairs served or resumed from the cache were charged
/// by the run that first counted them and are never re-charged. A run that
/// gets interrupted ends the sweep; its partial outcome is the last entry
/// of [`SweepOutcome::runs`].
///
/// # Errors
///
/// Returns [`crate::Error::InvalidArgument`] for a block size of zero or
/// above [`crate::MAX_LANE_BLOCK`].
pub fn gamma_sweep_ctx(
    ds: &GroupedDataset,
    algorithm: Algorithm,
    gammas: &[Gamma],
    opts: AlgoOptions,
    ctx: &RunContext,
) -> Result<SweepOutcome> {
    let block_size = opts.kernel.block_size().unwrap_or(PreparedDataset::DEFAULT_BLOCK_SIZE);
    let prep = PreparedDataset::build(ds, block_size)?;
    let mut cache = PairCache::new();
    let mut runs = Vec::with_capacity(gammas.len());
    for &gamma in gammas {
        let opts = AlgoOptions { gamma, ..opts };
        let outcome = algorithm.run_cached_ctx(ds, &prep, opts, &mut cache, ctx);
        let interrupted = !outcome.is_complete();
        runs.push(SweepResult { gamma, outcome });
        if interrupted {
            break;
        }
    }
    Ok(SweepOutcome { runs, memoized_pairs: cache.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::random_dataset;

    /// The sweep's skylines equal independent uncached runs at every γ, and
    /// later runs actually reuse memoized evidence.
    #[test]
    fn sweep_matches_independent_runs() {
        for algorithm in [Algorithm::NestedLoop, Algorithm::Sorted, Algorithm::Indexed] {
            let ds = random_dataset(12, 9, 3, 5100);
            let gammas: Vec<Gamma> =
                [0.5, 0.6, 0.75, 0.9].iter().map(|&g| Gamma::new(g).unwrap()).collect();
            let opts = AlgoOptions::exact(Gamma::DEFAULT);
            let swept = gamma_sweep(&ds, algorithm, &gammas, opts).unwrap();
            assert_eq!(swept.len(), gammas.len());
            let mut hits = 0;
            for (gamma, result) in &swept {
                let solo = algorithm.run_with(&ds, AlgoOptions { gamma: *gamma, ..opts }).unwrap();
                assert_eq!(result.skyline, solo.skyline, "{algorithm:?} γ={gamma}");
                hits += result.stats.cache_hits;
            }
            assert!(hits > 0, "{algorithm:?}: sweep never reused a tally");
        }
    }

    #[test]
    fn sweep_reports_memoized_pairs() {
        let ds = random_dataset(8, 6, 2, 5200);
        let gammas = [Gamma::DEFAULT, Gamma::new(0.9).unwrap()];
        let opts = AlgoOptions::exact(Gamma::DEFAULT);
        let outcome =
            gamma_sweep_ctx(&ds, Algorithm::NestedLoop, &gammas, opts, &RunContext::unlimited())
                .unwrap();
        assert_eq!(outcome.runs.len(), 2);
        assert!(outcome.memoized_pairs > 0);
    }

    #[test]
    fn interrupted_run_ends_the_sweep() {
        let ds = random_dataset(15, 9, 3, 5300);
        let gammas: Vec<Gamma> = [0.5, 0.75, 0.9].iter().map(|&g| Gamma::new(g).unwrap()).collect();
        let opts = AlgoOptions::exact(Gamma::DEFAULT);
        let ctx = RunContext::with_budget(25);
        let outcome = gamma_sweep_ctx(&ds, Algorithm::NestedLoop, &gammas, opts, &ctx).unwrap();
        assert!(!outcome.runs.is_empty());
        assert!(outcome.runs.len() <= gammas.len());
        let last = outcome.runs.last().unwrap();
        assert!(!last.outcome.is_complete(), "tiny budget should interrupt");
    }
}
