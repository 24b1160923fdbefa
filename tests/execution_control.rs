//! Cross-algorithm execution-control contract (no chaos feature needed):
//! budget exhaustion and cancellation must interrupt every algorithm with a
//! typed partial result whose confirmed sets agree with the exact verdict,
//! and an unlimited context must change nothing.

use aggsky::core::{parallel_skyline_ctx, KernelConfig};
use aggsky::{
    anytime_resume, anytime_skyline, naive_skyline, AlgoOptions, Algorithm, Gamma, GroupedDataset,
    InterruptReason, Outcome, RunContext,
};
use aggsky_datagen::{Distribution, SyntheticConfig};

const ALL: [Algorithm; 6] = [
    Algorithm::Naive,
    Algorithm::NestedLoop,
    Algorithm::Transitive,
    Algorithm::Sorted,
    Algorithm::Indexed,
    Algorithm::IndexedBbox,
];

fn dataset(seed: u64) -> GroupedDataset {
    SyntheticConfig {
        n_records: 240,
        n_groups: 24,
        dim: 3,
        seed,
        ..SyntheticConfig::paper_default(Distribution::AntiCorrelated)
    }
    .generate()
}

#[test]
fn unlimited_context_is_identical_to_plain_runs() {
    for seed in [11, 12] {
        let ds = dataset(seed);
        let opts = AlgoOptions::exact(Gamma::DEFAULT);
        for algo in ALL {
            let plain = algo.run_with(&ds, opts).unwrap();
            match algo.run_ctx(&ds, opts, &RunContext::unlimited()).unwrap() {
                Outcome::Complete(r) => {
                    assert_eq!(r.skyline, plain.skyline, "{algo:?} seed {seed}");
                    assert_eq!(r.stats, plain.stats, "{algo:?} seed {seed}");
                }
                Outcome::Interrupted { reason, .. } => {
                    panic!("{algo:?} interrupted without limits: {reason}")
                }
            }
        }
    }
}

#[test]
fn budget_exhaustion_interrupts_every_algorithm_soundly() {
    for seed in [21, 22, 23] {
        let ds = dataset(seed);
        let exact = naive_skyline(&ds, Gamma::DEFAULT).skyline;
        let opts = AlgoOptions::exact(Gamma::DEFAULT);
        for algo in ALL {
            for budget in [1u64, 300, 3000] {
                let ctx = RunContext::with_budget(budget);
                match algo.run_ctx(&ds, opts, &ctx).unwrap() {
                    Outcome::Complete(r) => {
                        // A tiny budget may still complete tiny work: then
                        // the answer must simply be exact.
                        assert_eq!(r.skyline, exact, "{algo:?} seed {seed} budget {budget}");
                    }
                    Outcome::Interrupted { reason, partial } => {
                        assert_eq!(reason, InterruptReason::BudgetExhausted);
                        for g in &partial.confirmed_in {
                            assert!(
                                exact.contains(g),
                                "{algo:?} budget {budget}: {g} wrongly confirmed in"
                            );
                        }
                        for g in &partial.confirmed_out {
                            assert!(
                                !exact.contains(g),
                                "{algo:?} budget {budget}: {g} wrongly confirmed out"
                            );
                        }
                        let total = partial.confirmed_in.len()
                            + partial.confirmed_out.len()
                            + partial.undecided.len();
                        assert_eq!(total, ds.n_groups(), "{algo:?}: partition covers all groups");
                        assert!(
                            partial.stats.record_pairs >= budget,
                            "{algo:?}: interrupted before the budget was actually spent"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn budget_exhaustion_interrupts_the_parallel_scheduler_soundly() {
    for seed in [31, 32] {
        let ds = dataset(seed);
        let exact = naive_skyline(&ds, Gamma::DEFAULT).skyline;
        for threads in [1usize, 3] {
            let ctx = RunContext::with_budget(50);
            let outcome =
                parallel_skyline_ctx(&ds, Gamma::DEFAULT, threads, KernelConfig::columnar(), &ctx)
                    .unwrap();
            match outcome {
                Outcome::Complete(r) => assert_eq!(r.skyline, exact),
                Outcome::Interrupted { reason, partial } => {
                    assert_eq!(reason, InterruptReason::BudgetExhausted);
                    for g in &partial.confirmed_in {
                        assert!(exact.contains(g), "threads {threads}: {g} wrongly in");
                    }
                    for g in &partial.confirmed_out {
                        assert!(!exact.contains(g), "threads {threads}: {g} wrongly out");
                    }
                }
            }
        }
    }
}

#[test]
fn cancellation_interrupts_immediately() {
    let ds = dataset(41);
    let opts = AlgoOptions::exact(Gamma::DEFAULT);
    for algo in ALL {
        let ctx = RunContext::unlimited();
        ctx.cancel_token().cancel();
        match algo.run_ctx(&ds, opts, &ctx).unwrap() {
            Outcome::Interrupted { reason, partial } => {
                assert_eq!(reason, InterruptReason::Cancelled, "{algo:?}");
                assert_eq!(partial.stats.record_pairs, 0, "{algo:?} spent work after cancel");
            }
            Outcome::Complete(_) => panic!("{algo:?} ignored cancellation"),
        }
    }
}

#[test]
fn anytime_resume_chain_reaches_the_exact_answer() {
    let ds = dataset(51);
    let exact = naive_skyline(&ds, Gamma::DEFAULT).skyline;
    let mut r = anytime_skyline(&ds, Gamma::DEFAULT, 500);
    let mut rounds = 0;
    while !r.is_complete() {
        r = anytime_resume(&ds, Gamma::DEFAULT, 500, &r).expect("in-memory checkpoint is valid");
        rounds += 1;
        assert!(rounds < 100_000, "resume chain did not converge");
    }
    assert_eq!(r.confirmed_in, exact);
}
