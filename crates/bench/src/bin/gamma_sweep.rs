//! γ as a result-size and cost knob (Section 2.2): sweeps γ from the
//! parameter-free default 0.5 up to 1.0 and reports skyline size and
//! runtime per algorithm, plus the budgeted anytime operator's progress
//! curve at γ = 0.5.
//!
//! Usage: `gamma_sweep [records]` (default 10000).

use aggsky_bench::report::fmt_ms;
use aggsky_bench::{measure, MarkdownTable};
use aggsky_core::{anytime_skyline, Algorithm, Gamma};
use aggsky_datagen::{Distribution, SyntheticConfig};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(10_000);
    let ds = SyntheticConfig {
        n_records: n,
        n_groups: (n / 100).max(2),
        ..SyntheticConfig::paper_default(Distribution::Independent)
    }
    .generate();

    println!("## Gamma sweep — independent data, {n} records, d=5\n");
    let mut table = MarkdownTable::new(vec!["gamma", "skyline", "NL ms", "IN ms"]);
    for gamma_v in [0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
        let gamma = Gamma::new(gamma_v).unwrap();
        let nl = measure(Algorithm::NestedLoop, &ds, gamma);
        let ind = measure(Algorithm::Indexed, &ds, gamma);
        table.push_row(vec![
            format!("{gamma_v:.1}"),
            nl.skyline_len().to_string(),
            fmt_ms(nl.millis),
            fmt_ms(ind.millis),
        ]);
    }
    table.print();
    println!("\nExpected: the skyline only grows with gamma (domination needs p > gamma),");
    println!("matching the paper's 'gamma controls the size of the result' narrative.\n");

    println!("## Anytime operator — decided groups vs tick budget (gamma = 0.5)\n");
    let full = anytime_skyline(&ds, Gamma::DEFAULT, u64::MAX);
    let full_cost = full.stats.record_pairs.max(1);
    let mut table = MarkdownTable::new(vec![
        "budget (% of full)",
        "confirmed in",
        "confirmed out",
        "undecided",
    ]);
    for pct in [0u64, 1, 5, 10, 25, 50, 100] {
        let budget = full_cost * pct / 100;
        let r = anytime_skyline(&ds, Gamma::DEFAULT, budget);
        table.push_row(vec![
            format!("{pct}%"),
            r.confirmed_in.len().to_string(),
            r.confirmed_out.len().to_string(),
            r.undecided.len().to_string(),
        ]);
    }
    table.print();
    println!("\nExpected: monotone progress; cheap pairs first front-loads decisions.");
}
