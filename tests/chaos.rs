//! Seeded fault-injection suite (build with `--features chaos`).
//!
//! Contracts under test, per DESIGN.md §10: (a) the chaos build with no
//! fault plan is byte-identical to the plain build, (b) budget/delay
//! interruptions degrade to sound partial results on every algorithm,
//! (c) an injected worker panic is retried and never changes the parallel
//! skyline, and (d) the corrupt-coordinate fault is a *negative control* —
//! it visibly changes results, proving the harness actually injects.

#![cfg(feature = "chaos")]

use aggsky::core::{parallel_skyline_ctx, FaultKind, FaultPlan, KernelConfig};
use aggsky::{
    naive_skyline, AlgoOptions, Algorithm, Gamma, GroupedDataset, GroupedDatasetBuilder,
    InterruptReason, Outcome, RunContext,
};
use aggsky_datagen::{Distribution, SyntheticConfig};

const SEEDS: [u64; 3] = [101, 202, 303];

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
        n_records: 200,
        n_groups: 20,
        dim: 3,
        seed,
        ..SyntheticConfig::paper_default(Distribution::AntiCorrelated)
    }
    .generate()
}

#[test]
fn fault_free_chaos_build_is_byte_identical() {
    for seed in SEEDS {
        let ds = dataset(seed);
        let opts = AlgoOptions::exact(Gamma::DEFAULT);
        for algo in ALL {
            let plain = algo.run_with(&ds, opts).unwrap();
            match algo.run_ctx(&ds, opts, &RunContext::unlimited()).unwrap() {
                Outcome::Complete(r) => {
                    assert_eq!(r.skyline, plain.skyline, "{algo:?} seed {seed}");
                    assert_eq!(r.stats, plain.stats, "{algo:?} seed {seed}: stats drifted");
                }
                Outcome::Interrupted { reason, .. } => {
                    panic!("{algo:?} interrupted without a fault plan: {reason}")
                }
            }
        }
    }
}

#[test]
fn delay_faults_charge_the_budget_and_degrade_soundly() {
    for seed in SEEDS {
        let ds = dataset(seed);
        let exact = naive_skyline(&ds, Gamma::DEFAULT).skyline;
        let opts = AlgoOptions::exact(Gamma::DEFAULT);
        for algo in ALL {
            // Budget that would comfortably complete the run...
            let full_cost = match algo.run_ctx(&ds, opts, &RunContext::unlimited()).unwrap() {
                Outcome::Complete(r) => r.stats.record_pairs,
                Outcome::Interrupted { .. } => unreachable!("unlimited run interrupted"),
            };
            // ...except that an injected stall burns it all at once.
            let plan = FaultPlan::delay_ticks(full_cost / 2, full_cost * 2);
            let ctx = RunContext::with_budget(full_cost + 1).with_fault(plan);
            match algo.run_ctx(&ds, opts, &ctx).unwrap() {
                Outcome::Complete(_) => panic!("{algo:?} seed {seed}: delay fault never bit"),
                Outcome::Interrupted { reason, partial } => {
                    assert_eq!(reason, InterruptReason::BudgetExhausted, "{algo:?}");
                    for g in &partial.confirmed_in {
                        assert!(exact.contains(g), "{algo:?} seed {seed}: {g} wrongly in");
                    }
                    for g in &partial.confirmed_out {
                        assert!(!exact.contains(g), "{algo:?} seed {seed}: {g} wrongly out");
                    }
                }
            }
            let fault = ctx.fault().expect("plan installed");
            assert_eq!(fault.fired(), 1, "{algo:?}: delay fault must fire exactly once");
        }
    }
}

#[test]
fn injected_worker_panic_is_retried_and_does_not_change_the_skyline() {
    for seed in SEEDS {
        let ds = dataset(seed);
        let exact = naive_skyline(&ds, Gamma::DEFAULT).skyline;
        // Total virtual ticks of the computation, so the trigger points
        // below are guaranteed to be reached.
        let full_cost = parallel_skyline_ctx(
            &ds,
            Gamma::DEFAULT,
            1,
            KernelConfig::columnar(),
            &RunContext::unlimited(),
        )
        .unwrap()
        .unwrap_or_partial()
        .stats
        .record_pairs;
        for threads in [1usize, 2, 4] {
            for at in [0u64, full_cost / 3, full_cost * 2 / 3] {
                let plan = FaultPlan::panic_at_pair(at);
                let ctx = RunContext::unlimited().with_fault(plan);
                let outcome = parallel_skyline_ctx(
                    &ds,
                    Gamma::DEFAULT,
                    threads,
                    KernelConfig::columnar(),
                    &ctx,
                )
                .unwrap_or_else(|e| panic!("seed {seed} threads {threads} at {at}: fatal {e}"));
                let result = match outcome {
                    Outcome::Complete(r) => r,
                    Outcome::Interrupted { reason, .. } => {
                        panic!("seed {seed} threads {threads}: wrongly interrupted: {reason}")
                    }
                };
                assert_eq!(
                    result.skyline, exact,
                    "seed {seed} threads {threads} at {at}: panic changed the skyline"
                );
                let fault = ctx.fault().expect("plan installed");
                assert_eq!(fault.fired(), 1, "panic fault fires exactly once");
                assert!(
                    result.stats.worker_retries >= 1,
                    "seed {seed} threads {threads}: the retry was not recorded"
                );
            }
        }
    }
}

#[test]
fn pair_granular_panic_mid_batch_is_retried_without_double_charging() {
    // Four groups of 60 records at block size 1: every straddle pair spans
    // 60 × 60 = 3600 block pairs, several times the scheduler's per-batch
    // budget, so group pairs are split into stolen batches with resume
    // tallies and the injected panic lands *mid pair*, not at a pair
    // boundary. The retry must resume from the continuation tally without
    // committing the discarded batch's counters twice, and the worker's
    // replaced PairCache must never serve a tally the panic could have
    // corrupted.
    let mut rng = aggsky::datagen::Rng64::new(0xC4A05);
    let mut b = GroupedDatasetBuilder::new(3).trusted_labels();
    for g in 0..4 {
        let rows: Vec<Vec<f64>> =
            (0..60).map(|_| (0..3).map(|_| rng.index(5) as f64).collect()).collect();
        b.push_group(format!("g{g}"), &rows).unwrap();
    }
    let ds = b.build().unwrap();
    let exact = naive_skyline(&ds, Gamma::DEFAULT).skyline;
    let kernel = KernelConfig::Columnar { block_size: 1 };

    let clean = match parallel_skyline_ctx(&ds, Gamma::DEFAULT, 1, kernel, &RunContext::unlimited())
        .unwrap()
    {
        Outcome::Complete(r) => r,
        Outcome::Interrupted { reason, .. } => panic!("clean run interrupted: {reason}"),
    };
    assert_eq!(clean.skyline, exact, "clean pair-granular run disagrees with the oracle");
    assert_eq!(clean.stats.worker_retries, 0);
    let full_cost = clean.stats.record_pairs;

    for threads in [1usize, 2, 4] {
        for at in [0u64, full_cost / 3, full_cost * 2 / 3] {
            let plan = FaultPlan::panic_at_pair(at);
            let ctx = RunContext::unlimited().with_fault(plan);
            let outcome = parallel_skyline_ctx(&ds, Gamma::DEFAULT, threads, kernel, &ctx)
                .unwrap_or_else(|e| panic!("threads {threads} at {at}: fatal {e}"));
            let result = match outcome {
                Outcome::Complete(r) => r,
                Outcome::Interrupted { reason, .. } => {
                    panic!("threads {threads} at {at}: wrongly interrupted: {reason}")
                }
            };
            assert_eq!(result.skyline, exact, "threads {threads} at {at}: skyline changed");
            assert_eq!(ctx.fault().expect("plan installed").fired(), 1);
            assert!(result.stats.worker_retries >= 1, "threads {threads} at {at}: no retry");
            if threads == 1 {
                // One worker is a deterministic schedule (the requeued job is
                // popped back immediately), so the discarded batch can only
                // *add* recounted work — counting fewer pairs than the clean
                // run would mean a tally was served twice.
                assert!(
                    result.stats.record_pairs >= full_cost,
                    "threads 1 at {at}: {} < clean {} — a batch was double-served",
                    result.stats.record_pairs,
                    full_cost
                );
            }
            if threads == 1 && at == 0 {
                // The fault fires on the very first poll, before any counter
                // is committed and before the cache holds anything, so the
                // retried run is byte-identical apart from the retry count.
                let mut stats = result.stats;
                stats.worker_retries = clean.stats.worker_retries;
                assert_eq!(stats, clean.stats, "at 0 the retry must leave no other trace");
            }
        }
    }
}

#[test]
fn injected_worker_panic_dumps_the_flight_ring() {
    // The black box must survive the crash it records: a panic fault fired
    // on a worker thread dumps the flight ring *before* unwinding, so the
    // dump carries the events leading into the injected crash. The retry
    // that follows dumps again under its own reason; each reason is
    // captured at most once per recorder.
    use aggsky::core::obs::FlightRecorder;
    use std::sync::Arc;

    let ds = dataset(SEEDS[0]);
    let flight = Arc::new(FlightRecorder::new());
    let plan = FaultPlan::panic_at_pair(0);
    let ctx = RunContext::unlimited().with_fault(plan).with_recorder(flight.clone());
    let outcome = parallel_skyline_ctx(&ds, Gamma::DEFAULT, 2, KernelConfig::columnar(), &ctx)
        .expect("panic fault is retried, not fatal");
    assert!(matches!(outcome, Outcome::Complete(_)), "retried run must complete");
    assert_eq!(ctx.fault().expect("plan installed").fired(), 1);

    let dumps = flight.dumps();
    let panic_dump = dumps
        .iter()
        .find(|d| d.reason == "chaos_panic")
        .expect("injected panic must flush the flight ring");
    assert!(panic_dump.json.starts_with("[\n"), "dump is a Chrome-trace JSON array");
    assert!(panic_dump.json.trim_end().ends_with(']'), "dump array unterminated");
    assert!(
        dumps.iter().any(|d| d.reason == "worker_retry"),
        "the retry that follows the panic dumps under its own reason: {:?}",
        dumps.iter().map(|d| d.reason).collect::<Vec<_>>()
    );
    assert_eq!(
        dumps.iter().filter(|d| d.reason == "chaos_panic").count(),
        1,
        "each reason dumps at most once"
    );
}

#[test]
fn corrupt_coordinate_fault_visibly_changes_a_verdict() {
    // Negative control on a rigged two-group dataset: the high group
    // dominates the low one, so the exact skyline is {high}. Corrupting the
    // very first verdict swaps its directions and flips the answer — proof
    // that the injection hook really sits on the comparison path.
    let mut b = GroupedDatasetBuilder::new(2);
    b.push_group("low", &[vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
    b.push_group("high", &[vec![10.0, 10.0], vec![11.0, 11.0]]).unwrap();
    let ds = b.build().unwrap();
    let exact = naive_skyline(&ds, Gamma::DEFAULT).skyline;
    assert_eq!(exact, vec![1]);

    let plan = FaultPlan::corrupt_coordinate(0);
    assert_eq!(plan.kind(), FaultKind::CorruptCoordinate);
    let ctx = RunContext::unlimited().with_fault(plan);
    let outcome =
        Algorithm::NestedLoop.run_ctx(&ds, AlgoOptions::exact(Gamma::DEFAULT), &ctx).unwrap();
    let corrupted = match outcome {
        Outcome::Complete(r) => r.skyline,
        Outcome::Interrupted { reason, .. } => panic!("corrupt fault must not interrupt: {reason}"),
    };
    assert_ne!(corrupted, exact, "corrupted verdict should flip the two-group skyline");
    assert_eq!(ctx.fault().expect("plan installed").fired(), 1);
}

#[test]
fn seeded_plans_are_reproducible_and_harmless_on_the_parallel_path() {
    // FaultPlan::from_seed draws a deterministic (kind, position); whatever
    // it lands on, the parallel scheduler must neither crash the process
    // nor return an unsound partial (corrupt plans are excluded from the
    // soundness check — they exist to break results).
    let ds = dataset(404);
    let exact = naive_skyline(&ds, Gamma::DEFAULT).skyline;
    for seed in 0..12u64 {
        let a = FaultPlan::from_seed(seed, 5_000);
        let b = FaultPlan::from_seed(seed, 5_000);
        assert_eq!(a.kind(), b.kind(), "seed {seed}");
        assert_eq!(a.trigger_at(), b.trigger_at(), "seed {seed}");
        let kind = a.kind();
        let ctx = RunContext::unlimited().with_fault(a);
        let outcome =
            parallel_skyline_ctx(&ds, Gamma::DEFAULT, 3, KernelConfig::columnar(), &ctx).unwrap();
        if kind != FaultKind::CorruptCoordinate {
            match outcome {
                Outcome::Complete(r) => assert_eq!(r.skyline, exact, "seed {seed} ({kind:?})"),
                Outcome::Interrupted { reason, .. } => {
                    panic!("seed {seed} ({kind:?}): wrongly interrupted: {reason}")
                }
            }
        }
    }
}
