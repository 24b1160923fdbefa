//! Determinism contract of the tracing layer: a sequential run under a
//! `TraceRecorder` is a pure function of (dataset, options, budget) — two
//! identical runs must export byte-identical Chrome traces, Prometheus
//! text, and summary trees. Everything on the counting path is stamped
//! with the virtual tick clock, never wall time, so this holds across
//! machines and reruns.

use aggsky::core::obs::{
    export_chrome, export_prometheus, render_summary, FlightRecorder, TraceRecorder,
};
use aggsky::core::{AlgoOptions, Algorithm, KernelConfig, RunContext};
use aggsky::datagen::Rng64;
use aggsky::{Gamma, GroupedDataset, GroupedDatasetBuilder};
use std::sync::Arc;

fn random_dataset(seed: u64, n_groups: usize, max_len: usize) -> GroupedDataset {
    let mut rng = Rng64::new(seed);
    let mut b = GroupedDatasetBuilder::new(3).trusted_labels();
    for g in 0..n_groups {
        let len = 1 + rng.index(max_len);
        let rows: Vec<Vec<f64>> = (0..len)
            .map(|_| vec![rng.index(50) as f64, rng.index(50) as f64, rng.index(50) as f64])
            .collect();
        b.push_group(format!("g{g}"), &rows).unwrap();
    }
    b.build().unwrap()
}

/// One traced sequential run; returns all three exports.
fn traced_run(
    ds: &GroupedDataset,
    algorithm: Algorithm,
    opts: AlgoOptions,
    budget: u64,
) -> (String, String, String) {
    let rec = Arc::new(TraceRecorder::new());
    let ctx = if budget == 0 { RunContext::unlimited() } else { RunContext::with_budget(budget) };
    let ctx = ctx.with_recorder(rec.clone());
    let _ = algorithm.run_ctx(ds, opts, &ctx).unwrap();
    let snapshot = rec.snapshot();
    (export_chrome(&snapshot), export_prometheus(&snapshot.metrics), render_summary(&snapshot))
}

#[test]
fn same_seed_runs_export_byte_identical_traces() {
    for algorithm in [
        Algorithm::NestedLoop,
        Algorithm::Transitive,
        Algorithm::Sorted,
        Algorithm::Indexed,
        Algorithm::IndexedBbox,
    ] {
        let ds = random_dataset(91, 14, 6);
        let opts = AlgoOptions::exact(Gamma::DEFAULT);
        let (chrome_a, prom_a, summary_a) = traced_run(&ds, algorithm, opts, 0);
        let (chrome_b, prom_b, summary_b) = traced_run(&ds, algorithm, opts, 0);
        assert_eq!(chrome_a, chrome_b, "{algorithm:?}: chrome trace not deterministic");
        assert_eq!(prom_a, prom_b, "{algorithm:?}: prometheus export not deterministic");
        assert_eq!(summary_a, summary_b, "{algorithm:?}: summary not deterministic");
        assert!(chrome_a.contains("\"ph\":\"X\""), "{algorithm:?}: no complete spans");
        assert!(summary_a.contains("prepare"), "{algorithm:?}: prepare span missing");
    }
}

#[test]
fn budgeted_runs_are_equally_deterministic() {
    let ds = random_dataset(92, 16, 6);
    let opts =
        AlgoOptions { kernel: KernelConfig::columnar(), ..AlgoOptions::exact(Gamma::DEFAULT) };
    let (chrome_a, prom_a, _) = traced_run(&ds, Algorithm::Indexed, opts, 200);
    let (chrome_b, prom_b, _) = traced_run(&ds, Algorithm::Indexed, opts, 200);
    assert_eq!(chrome_a, chrome_b, "interrupted trace not deterministic");
    assert_eq!(prom_a, prom_b);
}

#[test]
fn trace_structure_is_pinned() {
    // A golden structural check: the first line opens the JSON array, the
    // first event is the main-track thread_name metadata, every span on
    // the counting path carries the tick clock domain, and the export is
    // Perfetto-loadable JSON (balanced brackets, one event per line).
    let ds = random_dataset(93, 10, 5);
    let (chrome, prom, summary) =
        traced_run(&ds, Algorithm::Indexed, AlgoOptions::exact(Gamma::DEFAULT), 0);
    let mut lines = chrome.lines();
    assert_eq!(lines.next(), Some("["));
    let first = lines.next().unwrap();
    assert!(first.contains("thread_name"), "metadata first: {first}");
    assert!(first.contains("\"main\""), "main track named: {first}");
    assert!(chrome.contains("\"cat\":\"tick\""), "tick clock domain missing");
    assert!(!chrome.contains("\"cat\":\"wall\""), "wall stamps must not appear on counting paths");
    assert!(chrome.trim_end().ends_with(']'), "unterminated JSON array");
    aggsky::core::obs::validate_prometheus(&prom).unwrap();
    assert!(summary.contains("IN"), "algorithm span missing from summary:\n{summary}");
    assert!(summary.contains("counters:"), "counters section missing:\n{summary}");
}

#[test]
fn same_seed_flight_dumps_are_byte_identical() {
    // A budget-exhausted run auto-dumps the flight ring; the dump is a
    // pure function of (dataset, options, budget) because every entry is
    // tick-stamped.
    let ds = random_dataset(95, 16, 6);
    let opts =
        AlgoOptions { kernel: KernelConfig::columnar(), ..AlgoOptions::exact(Gamma::DEFAULT) };
    let run = || {
        let flight = Arc::new(FlightRecorder::new());
        let ctx = RunContext::with_budget(300).with_recorder(flight.clone());
        let _ = Algorithm::Indexed.run_ctx(&ds, opts, &ctx).unwrap();
        let dumps = flight.dumps();
        assert_eq!(dumps.len(), 1, "budget exhaustion dumps exactly once");
        assert_eq!(dumps[0].reason, "budget_exhausted");
        dumps[0].json.clone()
    };
    let a = run();
    assert_eq!(a, run(), "same-seed flight dumps diverged");
    assert!(a.contains("\"ph\":\"B\"") || a.contains("\"ph\":\"i\""), "ring held no events: {a}");
    assert!(!a.contains("\"cat\":\"wall\""), "wall stamps on the counting path: {a}");
}

#[test]
fn sketch_quantiles_are_deterministic_and_pinned() {
    // The paired BatchBlockPairs sketch (fed by the scheduler's batch
    // loop) must replay exactly and answer quantiles deterministically
    // across identical 1-worker runs.
    let ds = random_dataset(96, 14, 6);
    let run = || {
        let rec = Arc::new(TraceRecorder::new());
        let ctx = RunContext::unlimited().with_recorder(rec.clone());
        let _ = aggsky::core::parallel_skyline_ctx(
            &ds,
            Gamma::DEFAULT,
            1,
            KernelConfig::columnar(),
            &ctx,
        )
        .unwrap();
        rec.snapshot().metrics.sketch(aggsky::core::obs::metrics::Sketch::BatchBlockPairs)
    };
    let a = run();
    let b = run();
    assert_eq!(a.count, b.count);
    assert_eq!(a.max, b.max);
    assert_eq!(a.quantile(500), b.quantile(500));
    assert_eq!(a.quantile(990), b.quantile(990));
    assert!(a.count > 0, "the columnar kernel feeds the batch sketch");
    assert!(a.quantile(500).unwrap() <= a.max);
}

#[test]
fn single_worker_parallel_trace_is_deterministic() {
    // With one worker the scheduler is sequential, so even the
    // worker-track spans and chunk-size histograms must replay exactly.
    let ds = random_dataset(94, 12, 5);
    let run = || {
        let rec = Arc::new(TraceRecorder::new());
        let ctx = RunContext::unlimited().with_recorder(rec.clone());
        let _ = aggsky::core::parallel_skyline_ctx(
            &ds,
            Gamma::DEFAULT,
            1,
            KernelConfig::columnar(),
            &ctx,
        )
        .unwrap();
        let snapshot = rec.snapshot();
        (export_chrome(&snapshot), export_prometheus(&snapshot.metrics))
    };
    let (chrome_a, prom_a) = run();
    let (chrome_b, prom_b) = run();
    assert_eq!(chrome_a, chrome_b, "1-worker parallel trace not deterministic");
    assert_eq!(prom_a, prom_b);
    assert!(chrome_a.contains("worker-0"), "worker track missing: {chrome_a}");
    assert!(
        chrome_a.contains("aggsky_batch_block_pairs")
            || prom_a.contains("aggsky_batch_block_pairs")
    );
}
