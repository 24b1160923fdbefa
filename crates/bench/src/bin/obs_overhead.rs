//! Overhead contract of the observability layer (DESIGN.md §11), as an
//! enforcing benchmark: exits nonzero when the contract is broken, so CI
//! can run it directly.
//!
//! Three checks:
//!
//! 1. **Disabled dispatch** — with no recorder attached, the per-query
//!    cost of `RunContext::obs()` (the check every instrumentation site
//!    performs) must stay a handful of nanoseconds: it is one enum
//!    discriminant load. A generous bound catches anyone making the
//!    disabled path allocate, lock or format.
//! 2. **Enabled recording** — an NL run over the columnar kernel (the one
//!    every exact path counts with) with a `TraceRecorder` attached must
//!    finish within `MAX_ENABLED_RATIO` of the same run without one.
//!    Recording happens per *group* pair while the work is per *record*
//!    pair, so the real ratio sits near 1.
//! 3. **Flight recorder** — the always-on bounded ring must cost at most
//!    `MAX_FLIGHT_RATIO` of the untraced run: each entry is one fixed-size
//!    copy into a preallocated ring (no allocation, no growth), so the
//!    bound is deliberately tight (5%).
//!
//! Checks 2 and 3 are paired measurements. Each repeat runs the untraced,
//! traced and flight runs back to back and yields one ratio per recorder;
//! which mode runs first rotates from repeat to repeat, so no mode always
//! meets a cold or a warm machine. The gates apply to the median of the
//! per-repeat ratios over at least `MIN_REPEATS` repeats, so one noisy
//! repeat cannot fail (or pass) the contract on its own.
//!
//! Writes the raw numbers, every per-repeat ratio included, to
//! `BENCH_obs.json`.
//!
//! Usage: `obs_overhead [records] [repeats]` (defaults 20000, 9; fewer
//! than 9 repeats are raised to 9).

use aggsky_core::obs::{FlightRecorder, TraceRecorder};
use aggsky_core::{AlgoOptions, Algorithm, Gamma, KernelConfig, RunContext};
use aggsky_datagen::{Distribution, SyntheticConfig};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Upper bound on the disabled-recorder query, in ns per call. The real
/// cost is well under a nanosecond; 5 ns absorbs slow CI machines while
/// still failing on any accidental allocation or locking.
const MAX_NOOP_NS: f64 = 5.0;

/// Upper bound on traced-run wall time over untraced wall time.
const MAX_ENABLED_RATIO: f64 = 3.0;

/// Upper bound on flight-recorder-enabled wall time over untraced wall
/// time: the bounded ring is meant to stay attached in production, so its
/// budget is 5%, not the trace recorder's 3x.
const MAX_FLIGHT_RATIO: f64 = 1.05;

/// Fewest repeats whose median ratio is gated.
const MIN_REPEATS: usize = 9;

/// The three ways checks 2 and 3 run the same workload.
#[derive(Clone, Copy)]
enum Mode {
    Untraced,
    Traced,
    Flight,
}

/// Median of a non-empty sample (mean of the middle two when even).
fn median(sample: &[f64]) -> f64 {
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Formats a sample as a JSON array with three decimals.
fn json_list(sample: &[f64]) -> String {
    let items: Vec<String> = sample.iter().map(|v| format!("{v:.3}")).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let records: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let repeats: usize =
        args.next().and_then(|s| s.parse().ok()).unwrap_or(MIN_REPEATS).max(MIN_REPEATS);

    // ---- Check 1: disabled dispatch cost ----
    let ctx = RunContext::unlimited();
    let iters: u64 = 50_000_000;
    let mut noop_ns = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(black_box(&ctx).obs().is_some());
        }
        noop_ns = noop_ns.min(start.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    println!("disabled-recorder query: {noop_ns:.3} ns/call (bound {MAX_NOOP_NS} ns)");

    // ---- Check 2: end-to-end enabled vs disabled ----
    let ds = SyntheticConfig {
        n_records: records,
        n_groups: 500,
        ..SyntheticConfig::paper_default(Distribution::Independent)
    }
    .generate();
    let opts =
        AlgoOptions { kernel: KernelConfig::columnar(), ..AlgoOptions::paper(Gamma::DEFAULT) };

    // One untimed run first, so the first timed one does not pay for
    // faulting in the dataset.
    let pairs = Algorithm::NestedLoop
        .run_ctx(&ds, opts, &RunContext::unlimited())
        .expect("valid kernel config")
        .stats()
        .record_pairs;
    let mut times = [Vec::new(), Vec::new(), Vec::new()];
    for r in 0..repeats {
        let mut order = [Mode::Untraced, Mode::Traced, Mode::Flight];
        order.rotate_left(r % 3);
        for mode in order {
            let ctx = match mode {
                Mode::Untraced => RunContext::unlimited(),
                Mode::Traced => {
                    RunContext::unlimited().with_recorder(Arc::new(TraceRecorder::new()))
                }
                Mode::Flight => {
                    RunContext::unlimited().with_recorder(Arc::new(FlightRecorder::new()))
                }
            };
            let start = Instant::now();
            let _ = Algorithm::NestedLoop.run_ctx(&ds, opts, &ctx);
            times[mode as usize].push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let [t_off, t_on, t_flight] = &times;
    let ratios = |t: &[f64]| -> Vec<f64> { t.iter().zip(t_off).map(|(t, off)| t / off).collect() };
    let (ratios_on, ratios_flight) = (ratios(t_on), ratios(t_flight));
    let (ratio, flight_ratio) = (median(&ratios_on), median(&ratios_flight));
    let (t_off, t_on, t_flight) = (median(t_off), median(t_on), median(t_flight));
    let throughput = pairs as f64 / (t_off / 1e3);
    println!(
        "NL/columnar, {} records / {} groups, median of {repeats} repeats: untraced {t_off:.1} ms \
         ({throughput:.0} record pairs/s), traced {t_on:.1} ms, median paired ratio \
         {ratio:.2}x (bound {MAX_ENABLED_RATIO}x)",
        ds.n_records(),
        ds.n_groups()
    );
    println!(
        "flight recorder attached: {t_flight:.1} ms, median paired ratio {flight_ratio:.2}x \
         (bound {MAX_FLIGHT_RATIO}x)"
    );
    println!("per-repeat traced ratios: {}", json_list(&ratios_on));
    println!("per-repeat flight ratios: {}", json_list(&ratios_flight));

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"noop_ns_per_query\": {noop_ns:.4},").unwrap();
    writeln!(json, "  \"noop_bound_ns\": {MAX_NOOP_NS},").unwrap();
    writeln!(json, "  \"repeats\": {repeats},").unwrap();
    writeln!(json, "  \"untraced_millis\": {t_off:.3},").unwrap();
    writeln!(json, "  \"traced_millis\": {t_on:.3},").unwrap();
    writeln!(json, "  \"record_pairs\": {pairs},").unwrap();
    writeln!(json, "  \"record_pairs_per_sec_untraced\": {throughput:.0},").unwrap();
    writeln!(json, "  \"enabled_ratio\": {ratio:.3},").unwrap();
    writeln!(json, "  \"enabled_ratios\": {},", json_list(&ratios_on)).unwrap();
    writeln!(json, "  \"enabled_ratio_bound\": {MAX_ENABLED_RATIO},").unwrap();
    writeln!(json, "  \"flight_millis\": {t_flight:.3},").unwrap();
    writeln!(json, "  \"flight_ratio\": {flight_ratio:.3},").unwrap();
    writeln!(json, "  \"flight_ratios\": {},", json_list(&ratios_flight)).unwrap();
    writeln!(json, "  \"flight_ratio_bound\": {MAX_FLIGHT_RATIO}").unwrap();
    writeln!(json, "}}").unwrap();
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json");

    let mut failed = false;
    if noop_ns > MAX_NOOP_NS {
        eprintln!("FAIL: disabled-recorder query costs {noop_ns:.3} ns > {MAX_NOOP_NS} ns");
        failed = true;
    }
    if ratio > MAX_ENABLED_RATIO {
        eprintln!(
            "FAIL: traced runs take a median {ratio:.2}x the untraced run \
             (bound {MAX_ENABLED_RATIO}x)"
        );
        failed = true;
    }
    if flight_ratio > MAX_FLIGHT_RATIO {
        eprintln!(
            "FAIL: flight-recorder runs take a median {flight_ratio:.2}x the untraced run \
             (bound {MAX_FLIGHT_RATIO}x)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("overhead contract holds");
}
