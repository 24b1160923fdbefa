//! Differential suite for incremental skyline maintenance and epoch-based
//! serving: seeded mixed insert/delete streams driven through
//! [`DynamicAggregateSkyline`] and [`SkylineService`] must stay
//! *bit-identical* to from-scratch recomputation at every step — same
//! skylines (against the naive oracle and the indexed algorithm under both
//! paper and exact options), same exact pair tallies (against the
//! exhaustive `domination_count`), and same `Stats` between the
//! scalar-pinned and the auto (AVX2 when available) columnar counting
//! kernels — across d ∈ {1, 2, 4, 8}. A drifting stream whose inserts come
//! from a second-seed dataset flushes over a thousand pairs through the
//! fold's `count_segments`, checked the same way at every step.
//!
//! The chaos half (build with `--features chaos`) injects a panic into the
//! writer's forced recount mid-epoch and asserts the previously published
//! epoch keeps serving unchanged, then that a clean retry converges.

use aggsky::core::dynamic::DynamicAggregateSkyline;
use aggsky::core::gamma::domination_count;
use aggsky::core::{CachedTally, GroupId, KernelConfig, SkylineService, WriteBatch};
use aggsky::datagen::{Distribution, GroupSizes, Rng64, SyntheticConfig};
use aggsky::{
    naive_skyline, AlgoOptions, Algorithm, Gamma, GroupedDataset, GroupedDatasetBuilder, RunContext,
};

const DIMS: [usize; 4] = [1, 2, 4, 8];
const SEEDS: [u64; 2] = [0xD1FF, 0xBEEF];
const N_GROUPS: usize = 6;
const STEPS: usize = 12;
const OPS_PER_STEP: usize = 5;

/// One seeded op: inserts dominate the stream 4:1 so groups grow, and the
/// small integer grid maximizes ties and γ-boundary tallies.
fn apply_random_op(engine: &mut DynamicAggregateSkyline, dim: usize, rng: &mut Rng64) {
    let g = rng.index(N_GROUPS);
    let delete = rng.index(5) == 0 && engine.group_len(g) > 0;
    if delete {
        let idx = rng.index(engine.group_len(g));
        engine.remove(g, idx).expect("live index is valid");
    } else {
        let rec: Vec<f64> = (0..dim).map(|_| rng.index(4) as f64).collect();
        engine.insert(g, &rec).expect("finite record");
    }
}

/// Runs the full seeded stream, collecting the incremental skyline's
/// sorted labels after every step. Adds the stream's groups the engine
/// does not have yet.
fn drive_stream(
    engine: &mut DynamicAggregateSkyline,
    dim: usize,
    rng: &mut Rng64,
    gamma: Gamma,
) -> Vec<Vec<String>> {
    for g in engine.n_groups()..N_GROUPS {
        let id = engine.add_group(format!("g{g}"));
        assert_eq!(id, g);
    }
    let mut per_step = Vec::with_capacity(STEPS);
    for _ in 0..STEPS {
        for _ in 0..OPS_PER_STEP {
            apply_random_op(engine, dim, rng);
        }
        let skyline = engine.skyline(gamma).expect("unlimited skyline");
        let mut labels: Vec<String> =
            skyline.iter().map(|&g| engine.label(g).to_string()).collect();
        labels.sort_unstable();
        per_step.push(labels);
    }
    per_step
}

/// The from-scratch answers for the engine's current live rows: the naive
/// oracle plus the indexed algorithm under both option presets — all three
/// must agree with each other before serving as the reference.
fn oracle_labels(engine: &DynamicAggregateSkyline, gamma: Gamma) -> Vec<String> {
    let (snap, _mapping) = engine.snapshot().expect("snapshot of live rows");
    let naive = naive_skyline(&snap, gamma);
    let paper = Algorithm::Indexed.run_with(&snap, AlgoOptions::paper(gamma)).expect("paper run");
    let exact = Algorithm::Indexed.run_with(&snap, AlgoOptions::exact(gamma)).expect("exact run");
    assert_eq!(
        snap.sorted_labels(&naive.skyline),
        snap.sorted_labels(&paper.skyline),
        "indexed(paper options) deviates from the naive oracle"
    );
    assert_eq!(
        snap.sorted_labels(&naive.skyline),
        snap.sorted_labels(&exact.skyline),
        "indexed(exact options) deviates from the naive oracle"
    );
    let mut labels: Vec<String> =
        naive.skyline.iter().map(|&si| snap.label(si).to_string()).collect();
    labels.sort_unstable();
    labels
}

#[test]
fn mixed_streams_match_from_scratch_recomputation_at_every_step() {
    let gamma = Gamma::DEFAULT;
    for dim in DIMS {
        for seed in SEEDS {
            let mut rng = Rng64::new(seed.wrapping_mul(31).wrapping_add(dim as u64));
            let mut engine = DynamicAggregateSkyline::new(dim);
            for g in 0..N_GROUPS {
                engine.add_group(format!("g{g}"));
            }
            for step in 0..STEPS {
                for _ in 0..OPS_PER_STEP {
                    apply_random_op(&mut engine, dim, &mut rng);
                }
                let skyline = engine.skyline(gamma).expect("unlimited skyline");
                let mut live: Vec<String> =
                    skyline.iter().map(|&g| engine.label(g).to_string()).collect();
                live.sort_unstable();
                assert_eq!(
                    live,
                    oracle_labels(&engine, gamma),
                    "d={dim} seed={seed} step={step}: incremental skyline deviates from scratch"
                );
            }
        }
    }
}

/// The stream's groups as a dataset of `1..=4` seeded rows each — the
/// records a checkpoint would be restored over.
fn restored_dataset(dim: usize, rng: &mut Rng64) -> GroupedDataset {
    let mut b = GroupedDatasetBuilder::new(dim);
    for g in 0..N_GROUPS {
        let rows: Vec<Vec<f64>> = (0..1 + rng.index(4))
            .map(|_| (0..dim).map(|_| rng.index(4) as f64).collect())
            .collect();
        b.push_group(format!("g{g}"), &rows).expect("finite rows");
    }
    b.build().expect("non-empty groups")
}

/// A warm restore of `ds` from its exact tallies, as a checkpoint holds
/// them — counted here by the exhaustive `domination_count`, not by the
/// engine.
fn warm_restored(ds: &GroupedDataset) -> DynamicAggregateSkyline {
    let mut entries = Vec::new();
    for lo in ds.group_ids() {
        for hi in lo + 1..ds.n_groups() {
            let total = (ds.group_len(lo) * ds.group_len(hi)) as u64;
            let tally = CachedTally {
                n12: domination_count(ds, lo, hi),
                n21: domination_count(ds, hi, lo),
                checked: total,
                total,
                cursor: 0,
            };
            entries.push(((lo, hi), tally));
        }
    }
    DynamicAggregateSkyline::from_dataset_with_tallies(ds, &entries).expect("valid tallies")
}

/// Asserts every exported tally of a fully folded engine equals the
/// exhaustive counts over its live rows; returns how many pairs it checked.
fn assert_tallies_exact(engine: &DynamicAggregateSkyline, tag: &str) -> usize {
    assert!(!engine.has_pending(), "{tag}: fold before checking tallies");
    let (snap, mapping) = engine.snapshot().expect("snapshot");
    // Reverse map engine id -> snapshot id for live groups.
    let mut rev = vec![usize::MAX; engine.n_groups()];
    for (si, &g) in mapping.iter().enumerate() {
        rev[g] = si;
    }
    let mut checked = 0usize;
    for ((lo, hi), t) in engine.export_tallies() {
        let (slo, shi) = (rev[lo], rev[hi]);
        if slo == usize::MAX || shi == usize::MAX {
            continue;
        }
        assert!(t.complete(), "{tag}: flushed tally must be complete");
        assert_eq!(t.n12, domination_count(&snap, slo, shi), "{tag} pair ({lo},{hi}): n12 drifted");
        assert_eq!(t.n21, domination_count(&snap, shi, slo), "{tag} pair ({lo},{hi}): n21 drifted");
        checked += 1;
    }
    let live = mapping.len();
    assert_eq!(checked, live * live.saturating_sub(1) / 2, "{tag}: a live pair has no tally");
    checked
}

/// Exact tallies from two starting states — an empty engine, and a warm
/// restore from checkpointed tallies (checked before any edit too, so a
/// tally the restore failed to install cannot pass as zero) — after a
/// seeded stream, then after budget-interrupted folds retried without a
/// budget. The interrupts land mid-fold, once the fold has prepared the
/// groups it counted against so far; the unit test
/// `interrupted_fold_keeps_built_preparations` in `dynamic.rs` pins that
/// those preparations survive the interrupt.
#[test]
fn flushed_tallies_are_bit_identical_to_exhaustive_counts() {
    let gamma = Gamma::DEFAULT;
    for dim in DIMS {
        for seed in SEEDS {
            for warm in [false, true] {
                let tag = format!("d={dim} seed={seed} warm={warm}");
                let mut rng = Rng64::new(seed.wrapping_add(dim as u64));
                let mut engine = if warm {
                    let restored = warm_restored(&restored_dataset(dim, &mut rng));
                    assert!(assert_tallies_exact(&restored, &tag) > 0, "{tag}: restored nothing");
                    restored
                } else {
                    DynamicAggregateSkyline::new(dim)
                };
                drive_stream(&mut engine, dim, &mut rng, gamma);
                engine.flush_ctx(&RunContext::unlimited()).expect("unlimited flush");
                assert!(assert_tallies_exact(&engine, &tag) > 0, "{tag}: no live pair tallies");

                let mut interrupted = 0;
                for budget in [1u64, 3, 9] {
                    for _ in 0..OPS_PER_STEP * 2 {
                        apply_random_op(&mut engine, dim, &mut rng);
                    }
                    let partial =
                        engine.flush_ctx(&RunContext::with_budget(budget)).expect("flush");
                    if partial.interrupted.is_some() {
                        interrupted += 1;
                        assert!(engine.has_pending(), "{tag}: an interrupted fold committed");
                    }
                    engine.flush_ctx(&RunContext::unlimited()).expect("unlimited retry");
                    assert_tallies_exact(&engine, &format!("{tag} budget={budget}"));
                }
                assert!(interrupted > 0, "{tag}: no budget interrupted a fold");
            }
        }
    }
}

/// The scalar-pinned columnar kernel and the auto kernel (AVX2 on capable
/// hosts, scalar elsewhere) must produce identical skylines, tallies and
/// `Stats` on the same stream. On a non-AVX2 host the two configurations
/// run the same code and the assert degrades to a determinism check of the
/// engine itself.
#[test]
fn scalar_and_auto_kernels_are_bit_identical_on_the_same_stream() {
    let gamma = Gamma::DEFAULT;
    for dim in DIMS {
        for seed in SEEDS {
            let mut scalar =
                DynamicAggregateSkyline::with_kernel(dim, KernelConfig::columnar_scalar())
                    .expect("valid block size");
            let mut auto = DynamicAggregateSkyline::with_kernel(dim, KernelConfig::columnar())
                .expect("valid block size");
            let mut rng_a = Rng64::new(seed ^ dim as u64);
            let mut rng_b = Rng64::new(seed ^ dim as u64);
            let steps_a = drive_stream(&mut scalar, dim, &mut rng_a, gamma);
            let steps_b = drive_stream(&mut auto, dim, &mut rng_b, gamma);
            assert_eq!(steps_a, steps_b, "d={dim} seed={seed}: skylines diverged");
            assert_eq!(
                scalar.export_tallies(),
                auto.export_tallies(),
                "d={dim} seed={seed}: tallies diverged"
            );
            assert_eq!(
                scalar.stats(),
                auto.stats(),
                "d={dim} seed={seed}: Stats diverged between scalar and auto kernels"
            );
        }
    }
}

/// Groups, steps and operations per step of the drifting stream.
const DRIFT_GROUPS: usize = 16;
const DRIFT_STEPS: usize = 24;
const DRIFT_OPS: usize = 12;

/// A flush-heavy drifting stream: independent d=3 groups whose inserts come
/// from the same group of a second dataset drawn with another seed (as in
/// the `serve-mixed` benchmark workload), one delete per four operations.
/// The groups drift, so drift intervals cross γ and pairs flush through the
/// fold's `count_segments`. After every step the scalar-pinned and the
/// auto engine must return the oracle's skyline, then fold to tallies equal
/// to the exhaustive counts, with identical `Stats`.
#[test]
fn drifting_stream_flushes_pairs_bit_identical_to_recomputation() {
    let gamma = Gamma::DEFAULT;
    let config = |seed| SyntheticConfig {
        n_records: DRIFT_GROUPS * 30,
        n_groups: DRIFT_GROUPS,
        dim: 3,
        distribution: Distribution::Independent,
        spread: 0.6,
        group_sizes: GroupSizes::Uniform,
        seed,
    };
    let ds = config(0xD21F_0001).generate();
    let pool = config(0xD21F_0002).generate();
    let mut scalar = DynamicAggregateSkyline::with_kernel(3, KernelConfig::columnar_scalar())
        .expect("valid block size");
    let mut auto = DynamicAggregateSkyline::with_kernel(3, KernelConfig::columnar())
        .expect("valid block size");
    for engine in [&mut scalar, &mut auto] {
        for g in ds.group_ids() {
            let id = engine.add_group(ds.label(g));
            for rec in ds.records(g) {
                engine.insert(id, rec).expect("finite record");
            }
        }
        engine.flush_ctx(&RunContext::unlimited()).expect("initial fold");
    }
    let mut rng = Rng64::new(0xD21F_0003);
    let mut next = vec![0usize; ds.n_groups()];
    let (mut drift_flushed, mut fold_flushed) = (0u64, 0u64);
    for step in 0..DRIFT_STEPS {
        for _ in 0..DRIFT_OPS {
            let g = rng.index(ds.n_groups());
            if rng.index(4) == 0 && scalar.group_len(g) > 1 {
                let idx = rng.index(scalar.group_len(g));
                let removed = scalar.remove(g, idx).expect("live index");
                assert_eq!(auto.remove(g, idx).expect("live index"), removed);
            } else {
                let rec = pool.record(g, next[g] % pool.group_len(g));
                next[g] += 1;
                scalar.insert(g, rec).expect("finite record");
                auto.insert(g, rec).expect("finite record");
            }
        }
        let tag = format!("drift step {step}");
        let oracle = oracle_labels(&scalar, gamma);
        let certified = scalar.skyline_ctx(gamma, &RunContext::unlimited()).expect("skyline");
        assert_eq!(
            auto.skyline_ctx(gamma, &RunContext::unlimited()).expect("skyline"),
            certified,
            "{tag}: scalar and auto certification diverged"
        );
        assert!(certified.interrupted.is_none(), "{tag}: unlimited skyline interrupted");
        let mut labels: Vec<String> =
            certified.groups.iter().map(|&g| scalar.label(g).to_string()).collect();
        labels.sort_unstable();
        assert_eq!(labels, oracle, "{tag}: incremental skyline deviates from scratch");

        let folded = scalar.flush_ctx(&RunContext::unlimited()).expect("fold");
        assert_eq!(auto.flush_ctx(&RunContext::unlimited()).expect("fold"), folded, "{tag}");
        assert_tallies_exact(&scalar, &tag);
        assert_eq!(scalar.export_tallies(), auto.export_tallies(), "{tag}: tallies diverged");
        assert_eq!(scalar.stats(), auto.stats(), "{tag}: Stats diverged");
        drift_flushed += certified.flushed_pairs;
        fold_flushed += folded.flushed_pairs;
    }
    assert!(drift_flushed > 0, "no drift interval crossed γ");
    assert!(
        drift_flushed + fold_flushed >= 1_000,
        "the stream flushed only {drift_flushed} + {fold_flushed} pairs"
    );
    eprintln!("drifting stream: {drift_flushed} pairs flushed by drift, {fold_flushed} by folds");
}

/// Every published epoch's `query` and `sweep`, at the thresholds below,
/// against the naive oracle over that epoch's own rows: 40 seeded service
/// streams (d 1–4, 3–10 groups, a small integer grid, 30 batches of 1–8
/// inserts and deletes). Reads prune exactly; under the paper's pruning a
/// read can keep a group the oracle excludes (e.g. d = 1, 9 groups,
/// service γ 0.55, read at 0.6).
#[test]
fn served_reads_match_the_oracle_at_every_epoch_and_gamma() {
    let gammas: Vec<Gamma> =
        [0.5, 0.55, 0.6, 0.75, 0.9, 1.0].iter().map(|&g| Gamma::new(g).unwrap()).collect();
    for stream in 0..40u64 {
        let mut rng = Rng64::new(0x5EED_0000 + stream);
        let dim = 1 + rng.index(4);
        let n_groups = 3 + rng.index(8);
        let service_gamma = gammas[rng.index(gammas.len())];
        let svc = SkylineService::new(dim, service_gamma).expect("service");
        // The live rows per group, so deletes name a record that exists.
        let mut live: Vec<Vec<Vec<f64>>> = vec![Vec::new(); n_groups];
        for batch_no in 0..30 {
            let mut batch = WriteBatch::new();
            for _ in 0..1 + rng.index(8) {
                let g = rng.index(n_groups);
                if rng.index(4) == 0 && !live[g].is_empty() {
                    let idx = rng.index(live[g].len());
                    let rec = live[g].swap_remove(idx);
                    batch = batch.delete(format!("g{g}"), &rec);
                } else {
                    let rec: Vec<f64> = (0..dim).map(|_| rng.index(4) as f64).collect();
                    batch = batch.insert(format!("g{g}"), &rec);
                    live[g].push(rec);
                }
            }
            svc.apply(&batch).expect("apply");
            let epoch = svc.current();
            let oracle = |gamma| -> Vec<GroupId> {
                let sky = naive_skyline(epoch.dataset(), gamma).skyline;
                sky.iter().map(|&si| epoch.service_id(si)).collect()
            };
            let at = format!("stream {stream} (d={dim}, {n_groups} groups, service γ {service_gamma}) batch {batch_no}");
            for &gamma in &gammas {
                assert_eq!(epoch.query(gamma), oracle(gamma), "query at γ {gamma}: {at}");
            }
            for (gamma, sky) in epoch.sweep(&gammas) {
                assert_eq!(sky, oracle(gamma), "sweep at γ {gamma}: {at}");
            }
        }
    }
}

#[cfg(feature = "chaos")]
mod chaos {
    use aggsky::core::{FaultPlan, SkylineService, WriteBatch};
    use aggsky::{naive_skyline, Gamma, RunContext};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A writer panic injected into the forced recount mid-epoch must leave
    /// the previously published epoch serving unchanged; a clean retry of
    /// the same backlog then converges to the from-scratch answer.
    #[test]
    fn writer_panic_mid_epoch_leaves_the_published_epoch_intact() {
        let svc = SkylineService::new(2, Gamma::DEFAULT).expect("2-dim service");
        let seed = WriteBatch::new()
            .insert("a", &[3.0, 1.0])
            .insert("a", &[1.0, 3.0])
            .insert("b", &[2.0, 2.0])
            .insert("c", &[0.0, 0.0]);
        svc.apply(&seed).expect("seed apply");
        let before = svc.current();
        let before_labels = before.skyline_labels();

        // (2.5, 2.5) straddles a's records (dominates neither corner), so
        // certifying the next skyline must compare record pairs — and the
        // injected fault panics inside exactly that recount.
        let batch = WriteBatch::new().insert("c", &[2.5, 2.5]);
        let chaos_ctx = RunContext::unlimited().with_fault(FaultPlan::panic_at_pair(1));
        let outcome = catch_unwind(AssertUnwindSafe(|| svc.apply_ctx(&batch, &chaos_ctx)));
        assert!(outcome.is_err(), "the fault plan must actually fire");

        let after = svc.current();
        assert_eq!(after.id(), before.id(), "a panicked apply must publish nothing");
        assert_eq!(after.skyline_labels(), before_labels, "old epoch keeps serving");

        // The absorbed op stayed pending; a clean empty retry publishes it
        // and converges to the from-scratch answer over the live rows.
        let receipt = svc.apply(&WriteBatch::new()).expect("clean retry");
        assert!(receipt.interrupted.is_none());
        let healed = svc.current();
        assert_eq!(healed.id(), before.id() + 1);
        let mut labels = healed.skyline_labels();
        labels.sort_unstable();
        let oracle = naive_skyline(healed.dataset(), Gamma::DEFAULT);
        assert_eq!(labels, healed.dataset().sorted_labels(&oracle.skyline));
        assert_eq!(healed.dataset().n_records(), 5, "the pending insert landed");
    }
}
