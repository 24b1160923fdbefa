//! End-to-end benchmark of the four aggsky user paths: SQL `GROUP BY …
//! SKYLINE OF`, the `aggsky skyline` command, live serving, and durable SQL.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 [--scale tiny]
//! ```
//!
//! The seed generates every input; the program sees only those inputs. Each
//! operation's answer is checked against an exact reference computed outside
//! the timed sections. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` the run spends half its time on the
//! untraced user path and half on a traced replay of the same operations
//! through the layers' public calls, and the last line carries the per-layer
//! metrics. Earlier lines carry the rest (sample counts, deviations, the
//! metrics of the other kind, wall-clock latencies) for a human reader.
//!
//! End-to-end times are CPU times quoted at reference speed (see `calib`):
//! on hosts that share their cores with other tenants, wall time measures
//! the neighbours as much as the program.

// The repository's clippy.toml bans `expect` for library code; a benchmark
// may stop on a broken internal condition.
#![allow(clippy::disallowed_methods)]

mod calib;
mod cli_many_groups;
mod serve_mixed;
mod sql;
mod trace;
mod util;

use aggsky::core::Stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The workloads, in the order BENCHMARK.json lists them.
const WORKLOADS: [&str; 4] = ["sql-anti-overlap", "cli-many-groups", "serve-mixed", "sql-durable"];

/// End-to-end metrics (name, unit); every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_p50_ms", "ms"),
    ("cpu_p90_ms", "ms"),
    ("ops_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit). A workload whose operations never call a
/// layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("csv.parse_ms", "ms"),
    ("dataset.build_ms", "ms"),
    ("prepared.build_ms", "ms"),
    ("spatial.bulk_load_ms", "ms"),
    ("sql.load_ms", "ms"),
    ("sql.plan_us", "us"),
    ("sql.groupby_ms", "ms"),
    ("algorithms.run_ms", "ms"),
    ("algorithms.group_pairs", "count"),
    ("algorithms.index_candidates", "count"),
    ("algorithms.early_stops", "count"),
    ("kernel.record_pairs", "count"),
    ("kernel.records_compared", "count"),
    ("kernel.blocks_full", "count"),
    ("kernel.blocks_skipped", "count"),
    ("kernel.ns_per_record_pair", "ns"),
    ("dynamic.ops_ms", "ms"),
    ("dynamic.skyline_ms", "ms"),
    ("dynamic.snapshot_ms", "ms"),
    ("prepared.rebuild_ms", "ms"),
    ("paircache.ingest_ms", "ms"),
    ("service.apply_self_ms", "ms"),
    ("dynamic.deferred_pairs", "count"),
    ("dynamic.flushed_pairs", "count"),
    ("dynamic.deferral_rate", "ratio"),
    ("paircache.clone_ms", "ms"),
    ("paircache.hit_rate", "ratio"),
    ("service.query_ms", "ms"),
    ("persist.save_ms", "ms"),
    ("persist.frame_bytes", "bytes"),
    ("persist.load_ms", "ms"),
    ("persist.frames_skipped", "count"),
    ("anytime.step_ms", "ms"),
    ("anytime.chunks_per_query", "count"),
    ("anytime.record_pairs", "count"),
    ("loadgen.lateness_p90_ms", "ms"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// The γ values the query workloads draw from.
pub const GAMMAS: [f64; 4] = [0.5, 0.6, 0.75, 0.9];
/// Indexes into `GAMMAS` for one block of the statement stream. γ = 0.5
/// appears twice so the median falls in the middle of one γ's latencies
/// rather than in the gap between two (per-γ costs differ several-fold).
pub const GAMMA_MIX: [usize; 5] = [0, 0, 1, 2, 3];

/// Datasets per run of `cli-many-groups` and `serve-mixed`, each drawn
/// from its own seed: a run's median then averages over several datasets
/// instead of resting on one dataset's difficulty. (The SQL workloads load
/// more, smaller tables; see `sql::TABLES`.)
pub const DATASETS: usize = 4;

/// Operations per block of a query workload's stream over `datasets`
/// datasets: a block holds every (dataset, γ) of the mix once, so its time
/// sum depends only on how fast the host ran while it did.
pub const fn block(datasets: usize) -> usize {
    datasets * GAMMA_MIX.len()
}

/// Fewest operations of a query workload quoted at reference speed by one
/// median of their calibration samples (see `calib::normalise`): a few
/// seconds of the run.
pub const CAL_WINDOW: usize = 100;

/// Indexes of the faster half of the full `block`-sized blocks of
/// `latencies` (smallest sums, rounded up), in run order.
///
/// The hosts this benchmark runs on share their cores: load from outside
/// slows every operation by up to 2.5× for seconds at a time. A run's
/// figures come from its faster blocks, so such a spell moves them only
/// when it covers more than half of the run, while a slower program slows
/// every block.
pub fn faster_blocks(latencies: &[f64], block: usize) -> Vec<usize> {
    let sums: Vec<f64> = latencies.chunks_exact(block).map(|c| c.iter().sum()).collect();
    let mut kept: Vec<usize> = (0..sums.len()).collect();
    kept.sort_by(|&a, &b| sums[a].total_cmp(&sums[b]));
    kept.truncate(sums.len().div_ceil(2));
    kept.sort_unstable();
    kept
}

/// The samples of [`faster_blocks`], or all samples when there is not one
/// full block.
pub fn steady_samples(latencies: &[f64], block: usize) -> Vec<f64> {
    let kept = faster_blocks(latencies, block);
    if kept.is_empty() {
        return latencies.to_vec();
    }
    kept.iter().flat_map(|&b| &latencies[b * block..(b + 1) * block]).copied().collect()
}

/// Fills the algorithm and kernel counters of `n` operations whose
/// algorithm runs took `algo_ms` in total.
pub fn insert_stats(l: &mut BTreeMap<&'static str, f64>, stats: &Stats, n: f64, algo_ms: f64) {
    l.insert("algorithms.group_pairs", stats.group_pairs as f64 / n);
    l.insert("algorithms.index_candidates", stats.index_candidates as f64 / n);
    l.insert("algorithms.early_stops", stats.early_stops as f64 / n);
    l.insert("kernel.record_pairs", stats.record_pairs as f64 / n);
    l.insert("kernel.records_compared", stats.records_compared as f64 / n);
    l.insert("kernel.blocks_full", stats.blocks_full as f64 / n);
    l.insert("kernel.blocks_skipped", stats.blocks_skipped as f64 / n);
    l.insert("kernel.ns_per_record_pair", algo_ms * 1e6 / stats.record_pairs.max(1) as f64);
}

/// What one run is asked to do.
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks every input for the smoke test.
    pub tiny: bool,
    /// Where traces, tables and scratch files go (inside the checkout).
    pub out: PathBuf,
}

impl Cfg {
    /// Seconds of untraced measurement: all of the run, or half of it when
    /// the other half is the traced replay.
    pub fn measured_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// A fresh scratch directory for this process; removed by `main`.
    pub fn scratch(&self) -> PathBuf {
        self.out.join(format!("scratch-{}", std::process::id()))
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Report {
    /// Operations issued (statements, commands, batches, reads, persists).
    pub attempted: u64,
    /// Operations that returned `Err`, did not finish, or answered wrongly.
    pub failed: u64,
    /// The wrong answers among `failed`.
    pub deviations: u64,
    /// Reasons the run is invalid although every answer was right.
    pub invalid: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Further numbers printed for a human reader (name, value, unit).
    pub info: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Fills the end-to-end metrics shared by every workload from CPU
    /// times already quoted at reference speed (see `calib`).
    pub fn set_e2e(&mut self, setup_s: &[f64], cpu_ms: &[f64], ops_per_cpu_s: f64) {
        self.e2e.insert("setup_s", util::median(setup_s));
        self.e2e.insert("cpu_p50_ms", util::quantile(cpu_ms, 0.5));
        self.e2e.insert("cpu_p90_ms", util::quantile(cpu_ms, 0.9));
        self.e2e.insert("ops_per_cpu_s", ops_per_cpu_s);
        self.e2e.insert("peak_rss_mb", util::peak_rss_mb());
    }

    /// The end-to-end metrics of a closed query loop, over its faster
    /// blocks: CPU-time quantiles, and throughput as operations over the
    /// CPU time they took.
    pub fn set_query_e2e(&mut self, setup_s: &[f64], cpu_ms: &[f64], block: usize) {
        let steady = steady_samples(cpu_ms, block);
        let busy_s = steady.iter().sum::<f64>() / 1e3;
        self.set_e2e(setup_s, &steady, steady.len() as f64 / busy_s);
        self.info.push(("steady_samples", steady.len() as f64, "count"));
    }

    /// How much slower than reference speed the calibration ran, over the
    /// run's calibration samples.
    pub fn host_slowdown(&mut self, cal_ms: &[f64]) {
        self.info.push(("host_slowdown", util::median(cal_ms) / calib::REFERENCE_MS, "ratio"));
    }

    /// The human-readable side of a query workload: sample count, latency
    /// quantiles, throughput, and the median latency at each γ.
    pub fn query_info(&mut self, latencies: &[f64], gammas: &[usize], wall: f64) {
        self.info.push(("samples", latencies.len() as f64, "count"));
        self.info.push(("query_p50_ms", util::quantile(latencies, 0.5), "ms"));
        self.info.push(("query_p90_ms", util::quantile(latencies, 0.9), "ms"));
        self.info.push(("queries_per_s", latencies.len() as f64 / wall, "1/s"));
        for (gi, name) in
            ["p50_ms_gamma0.5", "p50_ms_gamma0.6", "p50_ms_gamma0.75", "p50_ms_gamma0.9"]
                .into_iter()
                .enumerate()
        {
            let at: Vec<f64> =
                gammas.iter().zip(latencies).filter(|(g, _)| **g == gi).map(|(_, l)| *l).collect();
            self.info.push((name, util::median(&at), "ms"));
        }
    }

    /// Counts one checked answer.
    pub fn check(&mut self, ok: bool) {
        if !ok {
            self.failed += 1;
            self.deviations += 1;
        }
    }
}

/// Whether a closed loop started at `start` should issue another
/// operation: until `seconds` have passed and `min` samples are in, but
/// never past four times the run length (a loop whose operations keep
/// failing must still end).
pub fn keep_going(start: std::time::Instant, seconds: f64, samples: usize, min: usize) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed < seconds || samples < min) && elapsed < 4.0 * seconds
}

fn parse_args() -> Result<(String, Cfg), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| {
        args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let workload = get("--workload").ok_or("missing --workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    let seed = get("--seed").ok_or("missing --seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 =
        get("--seconds").ok_or("missing --seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".into());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let tiny = match get("--scale").unwrap_or("full") {
        "full" => false,
        "tiny" => true,
        other => return Err(format!("--scale must be full or tiny, got {other:?}")),
    };
    let out = PathBuf::from(".bench_out").join(&workload);
    Ok((workload, Cfg { seed, seconds, trace, tiny, out }))
}

fn main() {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(cfg.scratch()) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.scratch().display());
        std::process::exit(1);
    }
    let steal = util::steal_jiffies();
    let start = std::time::Instant::now();
    let mut report = match workload.as_str() {
        "sql-anti-overlap" => sql::run(sql::Kind::AntiOverlap, &cfg),
        "sql-durable" => sql::run(sql::Kind::Durable, &cfg),
        "cli-many-groups" => cli_many_groups::run(&cfg),
        _ => serve_mixed::run(&cfg),
    };
    // Share of the vCPUs' time the hypervisor gave to other guests (the
    // kernel counts steal in USER_HZ = 100 ticks per second).
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let stolen = util::steal_jiffies().saturating_sub(steal) as f64 / 100.0;
    report.info.push(("steal_share", stolen / cpus / start.elapsed().as_secs_f64(), "ratio"));
    let _ = std::fs::remove_dir_all(cfg.scratch());

    println!(
        "host nproc={} simd_active={} avx2={} force_scalar={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        aggsky::core::cpu::simd_active(),
        aggsky::core::cpu::avx2_available(),
        aggsky::core::cpu::force_scalar(),
    );
    for (name, value, unit) in &report.info {
        println!("info {name} {value} {unit}");
    }
    let pick = |table: &[(&'static str, &'static str)], values: &BTreeMap<&'static str, f64>| {
        table
            .iter()
            .map(|&(n, u)| (n, values.get(n).copied().unwrap_or(0.0), u))
            .collect::<Vec<_>>()
    };
    let shown = if cfg.trace {
        // The traced run also measured the untraced user path (its first
        // half); show those numbers too.
        for (name, value, unit) in pick(END_TO_END, &report.e2e) {
            println!("e2e {name} {value} {unit}");
        }
        pick(PER_LAYER, &report.layers)
    } else {
        pick(END_TO_END, &report.e2e)
    };
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "checks attempted={} failed={} deviations={} error_rate={error_rate}",
        report.attempted, report.failed, report.deviations
    );
    for why in &report.invalid {
        println!("invalid {why}");
    }
    let correct = report.failed == 0 && report.invalid.is_empty() && report.attempted > 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, value, unit)) in shown.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    json.push_str("}}");
    println!("{json}");
}
