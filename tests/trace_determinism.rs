//! Determinism contract of the tracing layer: a sequential run under a
//! `TraceRecorder` is a pure function of (dataset, options, budget) — two
//! identical runs must export byte-identical Chrome traces, Prometheus
//! text, and summary trees. Everything on the counting path is stamped
//! with the virtual tick clock, never wall time, so this holds across
//! machines and reruns.

use aggsky::core::obs::{
    export_chrome, export_prometheus, render_summary, FlightRecorder, Hist, Recorder, TraceRecorder,
};
use aggsky::core::persist::ProfileSnapshot;
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
    // The BatchBlockPairs sketch (fed by the scheduler's batch loop) must
    // replay exactly and answer quantiles deterministically across
    // identical 1-worker runs.
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
        rec.snapshot().metrics.sketch(Hist::BatchBlockPairs).clone()
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

/// One seeded run that feeds every distribution into a single recorder:
/// IN on the columnar kernel (record pairs per group pair, straddle fanout,
/// window candidates), a 1-worker parallel run (block pairs per batch), and
/// checkpoint frame sizes observed directly, since persist spans carry wall
/// time. Returns the Prometheus text, the summary's `histograms:` and
/// `sketches:` sections, and the profile's histogram and sketch entries.
fn every_distribution_exports() -> (String, String, String) {
    let ds = random_dataset(97, 12, 40);
    let rec = Arc::new(TraceRecorder::new());
    let ctx = RunContext::unlimited().with_recorder(rec.clone());
    let opts =
        AlgoOptions { kernel: KernelConfig::columnar(), ..AlgoOptions::exact(Gamma::DEFAULT) };
    let _ = Algorithm::Indexed.run_ctx(&ds, opts, &ctx).unwrap();
    let _ =
        aggsky::core::parallel_skyline_ctx(&ds, Gamma::DEFAULT, 1, KernelConfig::columnar(), &ctx)
            .unwrap();
    for bytes in [0, 31, 32, 33, 4_095, 4_096, 35_617] {
        rec.observe(Hist::CheckpointFrameBytes, bytes);
    }
    let snapshot = rec.snapshot();
    let summary = render_summary(&snapshot);
    let sections = summary.find("histograms:\n").map_or("", |at| &summary[at..]).to_owned();
    let profile = ProfileSnapshot::from_trace(&snapshot);
    let mut entries = String::new();
    for h in &profile.hists {
        entries += &format!("hist {} count={} sum={}\n", h.name, h.count, h.sum);
    }
    for s in &profile.sketches {
        entries += &format!(
            "sketch {} count={} p50={} p95={} p99={} max={}\n",
            s.name, s.count, s.p50, s.p95, s.p99, s.max
        );
    }
    (export_prometheus(&snapshot.metrics), sections, entries)
}

#[test]
fn every_distribution_exports_pinned_text() {
    // Golden text, not a two-run comparison: the exports of every
    // distribution, from its log2 view and its quantile view, are pinned
    // byte for byte, so a change to how distributions are stored or
    // merged cannot shift a bucket, a quantile or a sum unnoticed.
    let (prom, sections, entries) = every_distribution_exports();
    aggsky::core::obs::validate_prometheus(&prom).unwrap();
    assert_eq!(prom, GOLDEN_PROMETHEUS);
    assert_eq!(sections, GOLDEN_SUMMARY_SECTIONS);
    assert_eq!(entries, GOLDEN_PROFILE_ENTRIES);
}

const GOLDEN_PROMETHEUS: &str = r#"# TYPE aggsky_group_pairs_total counter
aggsky_group_pairs_total 264
# TYPE aggsky_record_pairs_total counter
aggsky_record_pairs_total 75688
# TYPE aggsky_bbox_resolved_total counter
aggsky_bbox_resolved_total 0
# TYPE aggsky_bbox_skipped_pairs_total counter
aggsky_bbox_skipped_pairs_total 0
# TYPE aggsky_early_stops_total counter
aggsky_early_stops_total 174
# TYPE aggsky_transitive_skips_total counter
aggsky_transitive_skips_total 0
# TYPE aggsky_index_candidates_total counter
aggsky_index_candidates_total 264
# TYPE aggsky_blocks_full_total counter
aggsky_blocks_full_total 0
# TYPE aggsky_blocks_skipped_total counter
aggsky_blocks_skipped_total 0
# TYPE aggsky_records_compared_total counter
aggsky_records_compared_total 75688
# TYPE aggsky_worker_retries_total counter
aggsky_worker_retries_total 0
# TYPE aggsky_workers_quarantined_total counter
aggsky_workers_quarantined_total 0
# TYPE aggsky_sql_rows_scanned_total counter
aggsky_sql_rows_scanned_total 0
# TYPE aggsky_sql_groups_built_total counter
aggsky_sql_groups_built_total 0
# TYPE aggsky_cache_hits_total counter
aggsky_cache_hits_total 66
# TYPE aggsky_cache_misses_total counter
aggsky_cache_misses_total 66
# TYPE aggsky_cache_resumes_total counter
aggsky_cache_resumes_total 0
# TYPE aggsky_checkpoint_saves_total counter
aggsky_checkpoint_saves_total 0
# TYPE aggsky_checkpoint_loads_total counter
aggsky_checkpoint_loads_total 0
# TYPE aggsky_checkpoint_frames_skipped_total counter
aggsky_checkpoint_frames_skipped_total 0
# TYPE aggsky_dyn_inserts_total counter
aggsky_dyn_inserts_total 0
# TYPE aggsky_dyn_deferred_total counter
aggsky_dyn_deferred_total 0
# TYPE aggsky_dyn_flushed_pairs_total counter
aggsky_dyn_flushed_pairs_total 0
# TYPE aggsky_sql_input_reused_total counter
aggsky_sql_input_reused_total 0
# TYPE aggsky_record_pairs_per_group_pair histogram
aggsky_record_pairs_per_group_pair_bucket{le="0"} 66
aggsky_record_pairs_per_group_pair_bucket{le="1"} 66
aggsky_record_pairs_per_group_pair_bucket{le="3"} 66
aggsky_record_pairs_per_group_pair_bucket{le="7"} 66
aggsky_record_pairs_per_group_pair_bucket{le="15"} 78
aggsky_record_pairs_per_group_pair_bucket{le="31"} 93
aggsky_record_pairs_per_group_pair_bucket{le="63"} 99
aggsky_record_pairs_per_group_pair_bucket{le="127"} 99
aggsky_record_pairs_per_group_pair_bucket{le="255"} 138
aggsky_record_pairs_per_group_pair_bucket{le="511"} 213
aggsky_record_pairs_per_group_pair_bucket{le="1023"} 263
aggsky_record_pairs_per_group_pair_bucket{le="2047"} 264
aggsky_record_pairs_per_group_pair_bucket{le="+Inf"} 264
aggsky_record_pairs_per_group_pair_sum 75688
aggsky_record_pairs_per_group_pair_count 264
# TYPE aggsky_batch_block_pairs histogram
aggsky_batch_block_pairs_bucket{le="0"} 0
aggsky_batch_block_pairs_bucket{le="1"} 21
aggsky_batch_block_pairs_bucket{le="3"} 61
aggsky_batch_block_pairs_bucket{le="7"} 66
aggsky_batch_block_pairs_bucket{le="+Inf"} 66
aggsky_batch_block_pairs_sum 132
aggsky_batch_block_pairs_count 66
# TYPE aggsky_straddle_fanout_pairs histogram
aggsky_straddle_fanout_pairs_bucket{le="0"} 0
aggsky_straddle_fanout_pairs_bucket{le="1"} 0
aggsky_straddle_fanout_pairs_bucket{le="3"} 0
aggsky_straddle_fanout_pairs_bucket{le="7"} 0
aggsky_straddle_fanout_pairs_bucket{le="15"} 12
aggsky_straddle_fanout_pairs_bucket{le="31"} 27
aggsky_straddle_fanout_pairs_bucket{le="63"} 33
aggsky_straddle_fanout_pairs_bucket{le="127"} 33
aggsky_straddle_fanout_pairs_bucket{le="255"} 72
aggsky_straddle_fanout_pairs_bucket{le="511"} 147
aggsky_straddle_fanout_pairs_bucket{le="1023"} 197
aggsky_straddle_fanout_pairs_bucket{le="2047"} 198
aggsky_straddle_fanout_pairs_bucket{le="+Inf"} 198
aggsky_straddle_fanout_pairs_sum 75688
aggsky_straddle_fanout_pairs_count 198
# TYPE aggsky_window_candidates histogram
aggsky_window_candidates_bucket{le="0"} 0
aggsky_window_candidates_bucket{le="1"} 0
aggsky_window_candidates_bucket{le="3"} 0
aggsky_window_candidates_bucket{le="7"} 0
aggsky_window_candidates_bucket{le="15"} 12
aggsky_window_candidates_bucket{le="+Inf"} 12
aggsky_window_candidates_sum 144
aggsky_window_candidates_count 12
# TYPE aggsky_checkpoint_frame_bytes histogram
aggsky_checkpoint_frame_bytes_bucket{le="0"} 1
aggsky_checkpoint_frame_bytes_bucket{le="1"} 1
aggsky_checkpoint_frame_bytes_bucket{le="3"} 1
aggsky_checkpoint_frame_bytes_bucket{le="7"} 1
aggsky_checkpoint_frame_bytes_bucket{le="15"} 1
aggsky_checkpoint_frame_bytes_bucket{le="31"} 2
aggsky_checkpoint_frame_bytes_bucket{le="63"} 4
aggsky_checkpoint_frame_bytes_bucket{le="127"} 4
aggsky_checkpoint_frame_bytes_bucket{le="255"} 4
aggsky_checkpoint_frame_bytes_bucket{le="511"} 4
aggsky_checkpoint_frame_bytes_bucket{le="1023"} 4
aggsky_checkpoint_frame_bytes_bucket{le="2047"} 4
aggsky_checkpoint_frame_bytes_bucket{le="4095"} 5
aggsky_checkpoint_frame_bytes_bucket{le="8191"} 6
aggsky_checkpoint_frame_bytes_bucket{le="16383"} 6
aggsky_checkpoint_frame_bytes_bucket{le="32767"} 6
aggsky_checkpoint_frame_bytes_bucket{le="65535"} 7
aggsky_checkpoint_frame_bytes_bucket{le="+Inf"} 7
aggsky_checkpoint_frame_bytes_sum 43904
aggsky_checkpoint_frame_bytes_count 7
# TYPE aggsky_batch_block_pairs_quantiles summary
aggsky_batch_block_pairs_quantiles{quantile="0.5"} 2
aggsky_batch_block_pairs_quantiles{quantile="0.95"} 4
aggsky_batch_block_pairs_quantiles{quantile="0.99"} 4
aggsky_batch_block_pairs_quantiles{quantile="1"} 4
aggsky_batch_block_pairs_quantiles_sum 132
aggsky_batch_block_pairs_quantiles_count 66
# TYPE aggsky_straddle_fanout_quantiles summary
aggsky_straddle_fanout_quantiles{quantile="0.5"} 376
aggsky_straddle_fanout_quantiles{quantile="0.95"} 816
aggsky_straddle_fanout_quantiles{quantile="0.99"} 1008
aggsky_straddle_fanout_quantiles{quantile="1"} 1064
aggsky_straddle_fanout_quantiles_sum 75688
aggsky_straddle_fanout_quantiles_count 198
"#;

const GOLDEN_SUMMARY_SECTIONS: &str = r#"histograms:
  aggsky_record_pairs_per_group_pair count=264 sum=75688 p50≤255 p99≤1023
  aggsky_batch_block_pairs count=66 sum=132 p50≤3 p99≤7
  aggsky_straddle_fanout_pairs count=198 sum=75688 p50≤511 p99≤1023
  aggsky_window_candidates count=12 sum=144 p50≤15 p99≤15
  aggsky_checkpoint_frame_bytes count=7 sum=43904 p50≤63 p99≤65535
sketches:
  aggsky_batch_block_pairs_quantiles count=66 p50=2 p95=4 p99=4 max=4
  aggsky_straddle_fanout_quantiles count=198 p50=376 p95=816 p99=1008 max=1064
"#;

const GOLDEN_PROFILE_ENTRIES: &str = r#"hist aggsky_record_pairs_per_group_pair count=264 sum=75688
hist aggsky_batch_block_pairs count=66 sum=132
hist aggsky_straddle_fanout_pairs count=198 sum=75688
hist aggsky_window_candidates count=12 sum=144
hist aggsky_checkpoint_frame_bytes count=7 sum=43904
sketch aggsky_batch_block_pairs_quantiles count=66 p50=2 p95=4 p99=4 max=4
sketch aggsky_straddle_fanout_quantiles count=198 p50=376 p95=816 p99=1008 max=1064
"#;
