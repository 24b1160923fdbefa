//! Living data: maintain an aggregate skyline under inserts and deletes
//! with the incremental engine, and answer under a time budget with the
//! anytime operator.
//!
//! Run with `cargo run --release --example streaming_updates`.

use aggsky::{anytime_skyline, Algorithm, DynamicAggregateSkyline, Gamma};
use aggsky_datagen::{Distribution, SyntheticConfig};

fn main() {
    // A product catalog: sellers (groups) with offers rated on
    // (review score, feature score). New offers arrive continuously.
    let mut market = DynamicAggregateSkyline::new(2);
    let acme = market.add_group("acme");
    let globex = market.add_group("globex");
    let initech = market.add_group("initech");

    market.insert(acme, &[4.5, 7.0]).unwrap();
    market.insert(acme, &[4.8, 6.5]).unwrap();
    market.insert(globex, &[3.0, 3.5]).unwrap();
    market.insert(initech, &[2.0, 9.0]).unwrap();
    report("initial catalog", &mut market);

    // globex ships a breakout product: one insert, O(total records) work.
    market.insert(globex, &[4.9, 9.5]).unwrap();
    report("after globex's new flagship", &mut market);

    // acme recalls an offer.
    market.remove(acme, 0).unwrap();
    report("after acme's recall", &mut market);

    // p(S > R) is maintained exactly, so explanations are free:
    println!(
        "p(globex > initech) = {:.2}, p(initech > globex) = {:.2}\n",
        market.domination_probability(globex, initech).unwrap(),
        market.domination_probability(initech, globex).unwrap()
    );

    // --- Anytime answers on a big snapshot ---
    let ds = SyntheticConfig {
        n_records: 20_000,
        n_groups: 200,
        ..SyntheticConfig::paper_default(Distribution::Independent)
    }
    .generate();
    let exact = Algorithm::Indexed.run(&ds, Gamma::DEFAULT);
    println!(
        "Large snapshot: 20 000 records in 200 groups, exact skyline = {} groups.",
        exact.skyline.len()
    );
    println!("Budgeted answers (tick budget -> decided groups):");
    for budget in [10_000u64, 100_000, 1_000_000, u64::MAX] {
        let r = anytime_skyline(&ds, Gamma::DEFAULT, budget);
        println!(
            "  {:>9} ticks -> {:>3} in, {:>3} out, {:>3} undecided",
            if budget == u64::MAX { "unlimited".to_string() } else { budget.to_string() },
            r.confirmed_in.len(),
            r.confirmed_out.len(),
            r.undecided.len()
        );
    }
}

fn report(when: &str, market: &mut DynamicAggregateSkyline) {
    let sky = market.skyline(Gamma::DEFAULT).unwrap();
    let names: Vec<&str> = sky.iter().map(|&g| market.label(g)).collect();
    println!("{when}: skyline = {names:?}");
}
