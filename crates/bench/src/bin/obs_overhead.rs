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
//! Writes the raw numbers to `BENCH_obs.json`.
//!
//! Usage: `obs_overhead [records] [repeats]` (defaults 20000, 5).

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

fn main() {
    let mut args = std::env::args().skip(1);
    let records: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let repeats: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5).max(1);

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

    let mut t_off = f64::INFINITY;
    let mut t_on = f64::INFINITY;
    let mut t_flight = f64::INFINITY;
    let mut pairs = 0u64;
    for _ in 0..repeats {
        let start = Instant::now();
        let outcome = Algorithm::NestedLoop
            .run_ctx(&ds, opts, &RunContext::unlimited())
            .expect("valid kernel config");
        t_off = t_off.min(start.elapsed().as_secs_f64() * 1e3);
        pairs = outcome.stats().record_pairs;

        let rec = Arc::new(TraceRecorder::new());
        let traced = RunContext::unlimited().with_recorder(rec);
        let start = Instant::now();
        let _ = Algorithm::NestedLoop.run_ctx(&ds, opts, &traced);
        t_on = t_on.min(start.elapsed().as_secs_f64() * 1e3);

        let flight = Arc::new(FlightRecorder::new());
        let ringed = RunContext::unlimited().with_recorder(flight);
        let start = Instant::now();
        let _ = Algorithm::NestedLoop.run_ctx(&ds, opts, &ringed);
        t_flight = t_flight.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let ratio = t_on / t_off;
    let flight_ratio = t_flight / t_off;
    let throughput = pairs as f64 / (t_off / 1e3);
    println!(
        "NL/columnar, {} records / {} groups: untraced {t_off:.1} ms ({throughput:.0} record pairs/s), \
         traced {t_on:.1} ms, ratio {ratio:.2}x (bound {MAX_ENABLED_RATIO}x)",
        ds.n_records(),
        ds.n_groups()
    );
    println!(
        "flight recorder attached: {t_flight:.1} ms, ratio {flight_ratio:.2}x \
         (bound {MAX_FLIGHT_RATIO}x)"
    );

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"noop_ns_per_query\": {noop_ns:.4},").unwrap();
    writeln!(json, "  \"noop_bound_ns\": {MAX_NOOP_NS},").unwrap();
    writeln!(json, "  \"untraced_millis\": {t_off:.3},").unwrap();
    writeln!(json, "  \"traced_millis\": {t_on:.3},").unwrap();
    writeln!(json, "  \"record_pairs\": {pairs},").unwrap();
    writeln!(json, "  \"record_pairs_per_sec_untraced\": {throughput:.0},").unwrap();
    writeln!(json, "  \"enabled_ratio\": {ratio:.3},").unwrap();
    writeln!(json, "  \"enabled_ratio_bound\": {MAX_ENABLED_RATIO},").unwrap();
    writeln!(json, "  \"flight_millis\": {t_flight:.3},").unwrap();
    writeln!(json, "  \"flight_ratio\": {flight_ratio:.3},").unwrap();
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
        eprintln!("FAIL: traced run is {ratio:.2}x the untraced run (bound {MAX_ENABLED_RATIO}x)");
        failed = true;
    }
    if flight_ratio > MAX_FLIGHT_RATIO {
        eprintln!(
            "FAIL: flight-recorder run is {flight_ratio:.2}x the untraced run \
             (bound {MAX_FLIGHT_RATIO}x)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("overhead contract holds");
}
