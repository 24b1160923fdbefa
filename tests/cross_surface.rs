//! Cross-surface differential suite: the same seeded datasets through every
//! exact user path must return the naive oracle's labels.
//!
//! The paths are a plain SQL statement; a durable SQL statement under
//! `SET CHECKPOINT`, repeated until complete with `SET TIMEOUT` of 1, 37
//! and a third of the statement's own ticks; `run_durable`; the CLI's
//! `--exact`; its `--checkpoint-dir --budget` chain, re-run with
//! `--resume` until complete; and its `--threads 2`. The datasets cover
//! d 1–4, independent, correlated and anticorrelated data with uniform and
//! Zipf group sizes, equal-size ties, 1-record groups, duplicate records,
//! groups on both sides of a 16-record block, MIN columns, and a grid of
//! 3–10 groups of 1–8 records on a 4-value integer grid, at γ 0.5, 0.6,
//! 0.75, 0.9 and 1.0.

use aggsky::cli::run_command;
use aggsky::core::persist::{run_durable, CheckpointStore};
use aggsky::sql::{ColumnType, Value};
use aggsky::{naive_skyline, Database, Direction, Gamma, GroupedDataset, GroupedDatasetBuilder};
use aggsky_datagen::{Distribution, GroupSizes, SyntheticConfig};
use std::path::{Path, PathBuf};

const GAMMAS: [f64; 5] = [0.5, 0.6, 0.75, 0.9, 1.0];

/// One dataset as its raw rows: labelled groups of records, and which
/// columns are minimized.
struct Case {
    name: String,
    groups: Vec<(String, Vec<Vec<f64>>)>,
    mins: Vec<bool>,
}

impl Case {
    fn dim(&self) -> usize {
        self.mins.len()
    }

    fn dataset(&self) -> GroupedDataset {
        let dirs = self.mins.iter().map(|&m| if m { Direction::Min } else { Direction::Max });
        let mut b = GroupedDatasetBuilder::with_directions(dirs.collect());
        for (label, rows) in &self.groups {
            b.push_group(label.clone(), rows).unwrap();
        }
        b.build().unwrap()
    }

    fn columns(&self) -> Vec<String> {
        (0..self.dim()).map(|d| format!("d{d}")).collect()
    }

    fn csv(&self) -> String {
        let mut out = format!("g,{}\n", self.columns().join(","));
        for (label, rows) in &self.groups {
            for row in rows {
                let vals: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
                out.push_str(&format!("{label},{}\n", vals.join(",")));
            }
        }
        out
    }

    fn database(&self) -> Database {
        let mut db = Database::new();
        let names = self.columns();
        let mut cols = vec![("g", ColumnType::Text)];
        cols.extend(names.iter().map(|n| (n.as_str(), ColumnType::Float)));
        db.create_table("t", &cols).unwrap();
        let rows = self.groups.iter().flat_map(|(label, rows)| {
            rows.iter().map(move |row| {
                let mut r = vec![Value::Str(label.clone())];
                r.extend(row.iter().map(|&v| Value::Float(v)));
                r
            })
        });
        db.insert_rows("t", rows.collect()).unwrap();
        db
    }

    fn sql(&self, gamma: f64) -> String {
        let sky: Vec<String> = self
            .columns()
            .iter()
            .zip(&self.mins)
            .map(|(c, &m)| format!("{c} {}", if m { "MIN" } else { "MAX" }))
            .collect();
        format!("SELECT g FROM t GROUP BY g SKYLINE OF {} GAMMA {gamma:?}", sky.join(", "))
    }
}

/// splitmix64, the repo's standard seeded generator for tests.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: u64) -> u64 {
    splitmix64(state) % n
}

/// A synthetic family member, its last column minimized when `min_last`.
fn synthetic(dim: usize, dist: Distribution, zipf: bool, seed: u64, min_last: bool) -> Case {
    let ds = SyntheticConfig {
        n_records: 48,
        n_groups: 7,
        dim,
        distribution: dist,
        spread: 0.4,
        group_sizes: if zipf { GroupSizes::Zipf(1.0) } else { GroupSizes::Uniform },
        seed,
    }
    .generate();
    let groups = ds
        .group_ids()
        .map(|g| {
            let rows = (0..ds.group_len(g)).map(|i| ds.record_original(g, i)).collect();
            (ds.label(g).to_string(), rows)
        })
        .collect();
    let mut mins = vec![false; dim];
    if let (true, Some(m)) = (min_last, mins.last_mut()) {
        *m = true;
    }
    Case { name: format!("{dist:?} d={dim} zipf={zipf} seed={seed}"), groups, mins }
}

/// `sizes.len()` groups of the given sizes, records drawn from `values`
/// per coordinate.
fn drawn(name: &str, dim: usize, sizes: &[usize], values: u64, seed: u64) -> Case {
    let mut state = seed;
    let groups = sizes
        .iter()
        .enumerate()
        .map(|(g, &n)| {
            let rows = (0..n)
                .map(|_| (0..dim).map(|_| below(&mut state, values) as f64).collect())
                .collect();
            (format!("g{g}"), rows)
        })
        .collect();
    Case { name: format!("{name} seed={seed}"), groups, mins: vec![false; dim] }
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let dists = [Distribution::Independent, Distribution::Correlated, Distribution::AntiCorrelated];
    for dim in 1..=4 {
        for (k, &dist) in dists.iter().enumerate() {
            for zipf in [false, true] {
                let seed = 100 * dim as u64 + 10 * k as u64 + u64::from(zipf);
                cases.push(synthetic(dim, dist, zipf, seed, dim >= 2 && zipf));
            }
        }
    }
    // Equal-size ties and 1-record groups.
    cases.push(drawn("singletons", 2, &[1; 8], 6, 7));
    cases.push(drawn("ties", 3, &[4; 7], 5, 8));
    cases.push(drawn("mixed singletons", 2, &[1, 5, 1, 3, 1, 8], 4, 9));
    // Duplicate records, and two groups with the same content.
    let mut dup = drawn("duplicates", 2, &[3, 3, 2, 4], 3, 10);
    let twin = dup.groups[0].1.clone();
    dup.groups.push(("twin".into(), twin));
    for (_, rows) in &mut dup.groups {
        let first = rows[0].clone();
        rows.push(first);
    }
    cases.push(dup);
    // Groups on both sides of a 16-record block.
    cases.push(drawn("block edges", 2, &[15, 16, 17, 31, 32, 33], 12, 11));
    cases.push(drawn("block edges", 3, &[16, 17, 15, 1, 32], 8, 12));
    // The grid: 3–10 groups of 1–8 records on a 4-value integer grid.
    let mut state = 4242;
    for seed in 0..24 {
        let dim = 1 + seed % 4;
        let sizes: Vec<usize> =
            (0..3 + below(&mut state, 8)).map(|_| 1 + below(&mut state, 8) as usize).collect();
        cases.push(drawn("grid", dim, &sizes, 4, 5000 + seed as u64));
    }
    cases
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aggsky-cross-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sorted(mut labels: Vec<String>) -> Vec<String> {
    labels.sort();
    labels
}

fn sql_labels(r: &aggsky::sql::QueryResult) -> Vec<String> {
    sorted(r.rows.iter().map(|row| row[0].to_string()).collect())
}

/// The members a complete `aggsky skyline` run printed; `None` when the
/// run was interrupted.
fn cli_labels(out: &str) -> Option<Vec<String>> {
    if out.contains("interrupted") {
        return None;
    }
    let members = out
        .lines()
        .skip_while(|l| !l.starts_with("aggregate skyline ("))
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .map(|l| l.trim().to_string());
    Some(sorted(members.collect()))
}

fn cli(csv: &Path, case: &Case, gamma: f64, extra: &[&str]) -> String {
    let mut args: Vec<String> =
        ["skyline", "--csv", csv.to_str().unwrap(), "--group", "g", "--gamma", &gamma.to_string()]
            .iter()
            .map(|s| s.to_string())
            .collect();
    for (c, &m) in case.columns().iter().zip(&case.mins) {
        if m {
            args.extend(["--min".to_string(), c.clone()]);
        }
    }
    args.extend(extra.iter().map(|s| s.to_string()));
    run_command(&args).unwrap_or_else(|e| panic!("{}: {e}", case.name))
}

/// Repeats `sql` under `SET TIMEOUT budget` until it completes.
fn durable_sql(db: &mut Database, sql: &str, budget: u64, dir: &Path) -> Vec<String> {
    let _ = std::fs::remove_dir_all(dir);
    db.execute(&format!("SET CHECKPOINT '{}'", dir.display())).unwrap();
    db.execute(&format!("SET TIMEOUT {budget}")).unwrap();
    let mut runs = 0;
    let r = loop {
        let r = db.execute(sql).unwrap();
        if r.interrupted.is_none() {
            break r;
        }
        runs += 1;
        assert!(runs < 10_000, "durable statement did not converge at {budget} ticks");
    };
    db.execute("SET CHECKPOINT OFF").unwrap();
    db.execute("SET TIMEOUT 0").unwrap();
    sql_labels(&r)
}

#[test]
fn every_exact_surface_returns_the_oracle_labels() {
    let dir = tmpdir("run");
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("input.csv");
    for (i, case) in cases().iter().enumerate() {
        let ds = case.dataset();
        let mut db = case.database();
        std::fs::write(&csv, case.csv()).unwrap();
        for gamma in GAMMAS {
            let at = format!("case {i} ({}), gamma {gamma}", case.name);
            let g = Gamma::new(gamma).unwrap();
            let oracle = sorted(
                ds.sorted_labels(&naive_skyline(&ds, g).skyline)
                    .into_iter()
                    .map(str::to_string)
                    .collect(),
            );
            let sql = case.sql(gamma);

            let plain = db.execute(&sql).unwrap();
            assert_eq!(sql_labels(&plain), oracle, "plain SQL, {at}");
            let ticks = db.journal().records().last().unwrap().ticks;
            let third = (ticks / 3).max(1);
            for budget in [1, 37, third] {
                let got = durable_sql(&mut db, &sql, budget, &dir.join("sql-frames"));
                assert_eq!(got, oracle, "durable SQL at {budget} ticks, {at}");
            }

            let store_dir = dir.join("durable");
            let _ = std::fs::remove_dir_all(&store_dir);
            let store = CheckpointStore::open(&store_dir).unwrap();
            let out = run_durable(&ds, g, third, &store).unwrap();
            let got = ds.sorted_labels(&out.result.confirmed_in);
            assert_eq!(got, oracle, "run_durable at {third} ticks, {at}");

            let exact = cli(&csv, case, gamma, &["--exact"]);
            assert_eq!(cli_labels(&exact).as_ref(), Some(&oracle), "CLI --exact, {at}\n{exact}");

            let frames = dir.join("cli-frames");
            let budget = third.to_string();
            let chain = ["--checkpoint-dir", frames.to_str().unwrap(), "--budget", &budget];
            let mut out = cli(&csv, case, gamma, &chain);
            let mut runs = 1;
            let got = loop {
                if let Some(labels) = cli_labels(&out) {
                    break labels;
                }
                out = cli(&csv, case, gamma, &[&chain[..], &["--resume"]].concat());
                runs += 1;
                assert!(runs < 10_000, "CLI durable chain did not converge, {at}");
            };
            assert_eq!(got, oracle, "CLI --checkpoint-dir --budget {budget}, {at}\n{out}");

            let par = cli(&csv, case, gamma, &["--threads", "2"]);
            assert_eq!(cli_labels(&par).as_ref(), Some(&oracle), "CLI --threads 2, {at}\n{par}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
