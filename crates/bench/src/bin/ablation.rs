//! Ablation study of the paper's individual optimizations (Section 3.5's
//! list), beyond what the figures isolate:
//!
//! 1. the Section 3.3 stopping rule (on/off, inside NL),
//! 2. Figure 9 bounding-box pruning (IN vs LO is in the figures; here we
//!    also ablate it inside plain NL),
//! 3. outer-loop sort strategies for SI,
//! 4. the printed ("paper") pruning vs the provably-exact variant,
//! 5. the parallel extension's thread scaling.
//!
//! Usage: `ablation [records]` (default 10000).

use aggsky_bench::report::fmt_ms;
use aggsky_bench::MarkdownTable;
use aggsky_core::{
    indexed, nested_loop, parallel_skyline, sorted, AlgoOptions, Gamma, GroupedDataset,
    KernelConfig, SortStrategy,
};
use aggsky_datagen::{Distribution, SyntheticConfig};
use std::time::Instant;

fn time<F: FnOnce() -> aggsky_core::SkylineResult>(f: F) -> (f64, aggsky_core::SkylineResult) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64() * 1e3, r)
}

fn dataset(n: usize, dist: Distribution) -> GroupedDataset {
    SyntheticConfig {
        n_records: n,
        n_groups: (n / 100).max(2),
        ..SyntheticConfig::paper_default(dist)
    }
    .generate()
}

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(10_000);
    let gamma = Gamma::DEFAULT;

    println!("## Ablation — stopping rule (NL, {n} records, d=5)\n");
    let mut table = MarkdownTable::new(vec![
        "distribution",
        "stop on ms",
        "stop off ms",
        "pairs on",
        "pairs off",
    ]);
    for dist in Distribution::ALL {
        let ds = dataset(n, dist);
        let on = AlgoOptions::paper(gamma);
        let off = AlgoOptions { stop_rule: false, ..on };
        let (t_on, r_on) = time(|| nested_loop(&ds, &on).expect("valid options"));
        let (t_off, r_off) = time(|| nested_loop(&ds, &off).expect("valid options"));
        assert_eq!(r_on.skyline, r_off.skyline);
        table.push_row(vec![
            dist.label().to_string(),
            fmt_ms(t_on),
            fmt_ms(t_off),
            r_on.stats.record_pairs.to_string(),
            r_off.stats.record_pairs.to_string(),
        ]);
    }
    table.print();

    println!("\n## Ablation — bounding-box pruning inside NL\n");
    let mut table =
        MarkdownTable::new(vec!["distribution", "bbox off ms", "bbox on ms", "pairs skipped"]);
    for dist in Distribution::ALL {
        let ds = dataset(n, dist);
        let plain = AlgoOptions::paper(gamma);
        let boxed = AlgoOptions { bbox_prune: true, ..plain };
        let (t_off, r_off) = time(|| nested_loop(&ds, &plain).expect("valid options"));
        let (t_on, r_on) = time(|| nested_loop(&ds, &boxed).expect("valid options"));
        assert_eq!(r_on.skyline, r_off.skyline);
        table.push_row(vec![
            dist.label().to_string(),
            fmt_ms(t_off),
            fmt_ms(t_on),
            r_on.stats.bbox_skipped_pairs.to_string(),
        ]);
    }
    table.print();

    println!("\n## Ablation — SI sort strategies (anti-correlated)\n");
    let ds = dataset(n, Distribution::AntiCorrelated);
    let mut table = MarkdownTable::new(vec!["strategy", "ms", "group pairs"]);
    for (name, strat) in [
        ("insertion order", SortStrategy::InsertionOrder),
        ("corner distance", SortStrategy::CornerDistance),
        ("size, then distance", SortStrategy::SizeThenDistance),
    ] {
        let opts = AlgoOptions { sort: strat, ..AlgoOptions::paper(gamma) };
        let (t, r) = time(|| sorted(&ds, &opts).expect("valid options"));
        table.push_row(vec![name.to_string(), fmt_ms(t), r.stats.group_pairs.to_string()]);
    }
    table.print();

    println!("\n## Ablation — paper pruning vs exact pruning (IN)\n");
    let mut table = MarkdownTable::new(vec![
        "distribution",
        "paper ms",
        "exact ms",
        "paper skyline",
        "exact skyline",
    ]);
    for dist in Distribution::ALL {
        let ds = dataset(n, dist);
        // Both sides count with the paper's exhaustive kernel, so the row
        // compares pruning disciplines, not kernels.
        let paper = AlgoOptions::paper(gamma);
        let exact = AlgoOptions { kernel: KernelConfig::Exhaustive, ..AlgoOptions::exact(gamma) };
        let (t_p, r_p) = time(|| indexed(&ds, &paper).expect("valid options"));
        let (t_e, r_e) = time(|| indexed(&ds, &exact).expect("valid options"));
        table.push_row(vec![
            dist.label().to_string(),
            fmt_ms(t_p),
            fmt_ms(t_e),
            r_p.skyline.len().to_string(),
            r_e.skyline.len().to_string(),
        ]);
    }
    table.print();

    println!("\n## Extension — parallel skyline thread scaling (anti-correlated, 10 rec/class)\n");
    // Many smaller groups give the per-group parallelism something to chew on.
    let ds = SyntheticConfig {
        n_records: n * 2,
        n_groups: (n / 5).max(4),
        ..SyntheticConfig::paper_default(Distribution::AntiCorrelated)
    }
    .generate();
    let mut table = MarkdownTable::new(vec!["threads", "ms", "speedup"]);
    let (base, r1) = time(|| parallel_skyline(&ds, gamma, 1).expect("parallel run failed"));
    table.push_row(vec!["1".to_string(), fmt_ms(base), "1.0x".to_string()]);
    for threads in [2usize, 4, 8] {
        let (t, r) = time(|| parallel_skyline(&ds, gamma, threads).expect("parallel run failed"));
        assert_eq!(r.skyline, r1.skyline);
        table.push_row(vec![threads.to_string(), fmt_ms(t), format!("{:.1}x", base / t)]);
    }
    table.print();
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    println!("\n(host reports {cores} available core(s); speedups are bounded by that)");
}
