//! Differential testing of the SQL surface against the core algorithms:
//! the paper's Algorithm 1 query, the native `SKYLINE OF` clauses, and the
//! record skyline must all agree with the core implementations on random
//! grouped data.

use aggsky::core::record_skyline::bnl;
use aggsky::core::{anytime_skyline_ctx, RunContext};
use aggsky::datagen::Rng64;
use aggsky::sql::{ColumnType, Database, Value};
use aggsky::{naive_skyline, Gamma, GroupedDataset, GroupedDatasetBuilder};

/// Random small dataset on an integer grid (ties included on purpose).
fn random_dataset(seed: u64, n_groups: usize, max_len: usize) -> GroupedDataset {
    let mut rng = Rng64::new(seed);
    let mut b = GroupedDatasetBuilder::new(2).trusted_labels();
    for g in 0..n_groups {
        let len = 1 + rng.index(max_len);
        let rows: Vec<Vec<f64>> =
            (0..len).map(|_| vec![rng.index(12) as f64, rng.index(12) as f64]).collect();
        b.push_group(format!("g{g}"), &rows).unwrap();
    }
    b.build().unwrap()
}

/// Loads a 2-D grouped dataset into a `movies(director, votes, rank, num)`
/// table, the shape Algorithm 1 expects.
fn load(ds: &GroupedDataset) -> Database {
    let mut db = Database::new();
    db.create_table(
        "movies",
        &[
            ("director", ColumnType::Text),
            ("votes", ColumnType::Float),
            ("rank", ColumnType::Float),
            ("num", ColumnType::Int),
        ],
    )
    .unwrap();
    let mut rows = Vec::new();
    for g in ds.group_ids() {
        for rec in ds.records(g) {
            rows.push(vec![
                Value::Str(ds.label(g).to_string()),
                Value::Float(rec[0]),
                Value::Float(rec[1]),
                Value::Int(ds.group_len(g) as i64),
            ]);
        }
    }
    db.insert_rows("movies", rows).unwrap();
    db
}

fn names(db: &mut Database, sql: &str) -> Vec<String> {
    let mut out: Vec<String> =
        db.execute(sql).unwrap().rows.into_iter().map(|r| r[0].to_string()).collect();
    out.sort();
    out
}

const ALGORITHM_1: &str = "select distinct director from movies where director not in (\
     select X.director from movies X, movies Y \
     where ((Y.votes > X.votes and Y.rank >= X.rank) or \
            (Y.votes >= X.votes and Y.rank > X.rank)) \
     group by X.director, Y.director \
     having 1.0*count(*)/(X.num*Y.num) > .5)";

#[test]
fn algorithm_1_matches_core_on_random_data() {
    for seed in 0..25 {
        let ds = random_dataset(seed, 8, 6);
        let mut db = load(&ds);
        let sql_names = names(&mut db, ALGORITHM_1);
        let oracle = naive_skyline(&ds, Gamma::DEFAULT);
        let mut core_names: Vec<String> =
            oracle.skyline.iter().map(|&g| ds.label(g).to_string()).collect();
        core_names.sort();
        assert_eq!(sql_names, core_names, "seed={seed}");
    }
}

#[test]
fn native_group_skyline_matches_core_on_random_data() {
    for seed in 100..125 {
        let ds = random_dataset(seed, 10, 5);
        let mut db = load(&ds);
        let sql_names = names(
            &mut db,
            "SELECT director FROM movies GROUP BY director SKYLINE OF votes MAX, rank MAX",
        );
        let oracle = naive_skyline(&ds, Gamma::DEFAULT);
        let mut core_names: Vec<String> =
            oracle.skyline.iter().map(|&g| ds.label(g).to_string()).collect();
        core_names.sort();
        assert_eq!(sql_names, core_names, "seed={seed}");
    }
}

#[test]
fn native_group_skyline_matches_core_at_other_gammas() {
    for seed in 200..210 {
        let ds = random_dataset(seed, 8, 5);
        let mut db = load(&ds);
        for gamma in [0.6, 0.8, 1.0] {
            let sql_names = names(
                &mut db,
                &format!(
                    "SELECT director FROM movies GROUP BY director \
                     SKYLINE OF votes MAX, rank MAX GAMMA {gamma}"
                ),
            );
            let oracle = naive_skyline(&ds, Gamma::new(gamma).unwrap());
            let mut core_names: Vec<String> =
                oracle.skyline.iter().map(|&g| ds.label(g).to_string()).collect();
            core_names.sort();
            assert_eq!(sql_names, core_names, "seed={seed} gamma={gamma}");
        }
    }
}

#[test]
fn record_skyline_clause_matches_bnl() {
    for seed in 300..320 {
        let mut rng = Rng64::new(seed);
        let n = 1 + rng.index(39);
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| vec![rng.index(10) as f64, rng.index(10) as f64]).collect();
        let mut db = Database::new();
        db.create_table(
            "t",
            &[("id", ColumnType::Int), ("a", ColumnType::Float), ("b", ColumnType::Float)],
        )
        .unwrap();
        let table_rows: Vec<Vec<Value>> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| vec![Value::Int(i as i64), Value::Float(r[0]), Value::Float(r[1])])
            .collect();
        db.insert_rows("t", table_rows).unwrap();
        let mut got: Vec<i64> = db
            .execute("SELECT id FROM t SKYLINE OF a MAX, b MAX")
            .unwrap()
            .rows
            .into_iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        got.sort_unstable();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let expect: Vec<i64> = bnl(&flat, 2).into_iter().map(|i| i as i64).collect();
        assert_eq!(got, expect, "seed={seed}");
    }
}

/// Group sizes around the kernel's block of 8 records: a lone record, a
/// short block, one full block, and a full block plus one.
const BLOCK_EDGE_SIZES: [usize; 4] = [1, 7, 8, 9];

/// Eight groups, each size of [`BLOCK_EDGE_SIZES`] twice, on a small
/// integer grid (ties included) shifted per group, so that some groups
/// dominate others and many block pairs straddle.
fn block_edge_dataset(seed: u64, dim: usize) -> GroupedDataset {
    let mut rng = Rng64::new(seed);
    let mut b = GroupedDatasetBuilder::new(dim).trusted_labels();
    for g in 0..8 {
        let shift = rng.index(4) as f64;
        let rows: Vec<Vec<f64>> = (0..BLOCK_EDGE_SIZES[g % 4])
            .map(|_| (0..dim).map(|_| shift + rng.index(3) as f64).collect())
            .collect();
        b.push_group(format!("g{g}"), &rows).unwrap();
    }
    b.build().unwrap()
}

/// Loads a grouped dataset of any dimensionality into `t(g, d0, …)`.
fn load_wide(ds: &GroupedDataset) -> Database {
    let mut db = Database::new();
    let names: Vec<String> = (0..ds.dim()).map(|d| format!("d{d}")).collect();
    let mut columns = vec![("g", ColumnType::Text)];
    columns.extend(names.iter().map(|n| (n.as_str(), ColumnType::Float)));
    db.create_table("t", &columns).unwrap();
    let mut rows = Vec::new();
    for g in ds.group_ids() {
        for rec in ds.records(g) {
            let mut row = vec![Value::Str(ds.label(g).to_string())];
            row.extend(rec.iter().map(|&v| Value::Float(v)));
            rows.push(row);
        }
    }
    db.insert_rows("t", rows).unwrap();
    db
}

fn skyline_sql(dim: usize, gamma: f64) -> String {
    let dims: Vec<String> = (0..dim).map(|d| format!("d{d} MAX")).collect();
    format!("SELECT g FROM t GROUP BY g SKYLINE OF {} GAMMA {gamma}", dims.join(", "))
}

/// Every SQL skyline path against the independent naive oracle, on groups
/// around the block size: the plain `SKYLINE OF` statement, and the
/// durable one (`SET CHECKPOINT` with a `SET TIMEOUT` of about a third of
/// the statement's ticks) run again until it completes. Both count with
/// the columnar kernel, which the oracle does not share.
#[test]
fn plain_and_durable_skylines_match_the_oracle_around_the_block_size() {
    let dir = std::env::temp_dir().join(format!("aggsky-sql-oracle-{}", std::process::id()));
    let mut chunked = 0;
    for dim in [1, 2, 4, 8] {
        for seed in 0..6 {
            let ds = block_edge_dataset(500 + 10 * dim as u64 + seed, dim);
            let mut db = load_wide(&ds);
            for gamma in [0.5, 0.6, 0.75, 0.9, 1.0] {
                let oracle: Vec<String> = ds
                    .sorted_labels(&naive_skyline(&ds, Gamma::new(gamma).unwrap()).skyline)
                    .into_iter()
                    .map(str::to_string)
                    .collect();
                let sql = skyline_sql(dim, gamma);
                let at = format!("d={dim} seed={seed} gamma={gamma}");
                db.execute("SET CHECKPOINT OFF").unwrap();
                db.execute("SET TIMEOUT 0").unwrap();
                assert_eq!(names(&mut db, &sql), oracle, "plain: {at}");

                // The durable statement's own ticks, from one unbudgeted run.
                let _ = std::fs::remove_dir_all(&dir);
                db.execute(&format!("SET CHECKPOINT '{}'", dir.display())).unwrap();
                assert_eq!(names(&mut db, &sql), oracle, "durable, one chunk: {at}");
                let ticks = db.journal().records().last().unwrap().ticks;

                let _ = std::fs::remove_dir_all(&dir);
                db.execute(&format!("SET TIMEOUT {}", (ticks / 3).max(1))).unwrap();
                let mut chunks = 0;
                let rows = loop {
                    chunks += 1;
                    assert!(chunks <= 100, "durable statement did not converge: {at}");
                    let r = db.execute(&sql).unwrap();
                    if r.interrupted.is_none() {
                        break r.rows;
                    }
                };
                let mut got: Vec<String> = rows.into_iter().map(|r| r[0].to_string()).collect();
                got.sort();
                assert_eq!(got, oracle, "durable, {chunks} chunk(s) of {ticks} ticks: {at}");
                if chunks > 1 {
                    chunked += 1;
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(chunked > 0, "no durable statement was ever split into chunks");
}

/// Extracts `name = value` counter lines from an `EXPLAIN ANALYZE` report.
fn counter_of(report: &str, name: &str) -> u64 {
    report
        .lines()
        .find_map(|l| {
            let l = l.trim();
            l.strip_prefix(name)
                .and_then(|rest| rest.trim().strip_prefix('='))
                .and_then(|v| v.trim().parse::<u64>().ok())
        })
        .unwrap_or_else(|| panic!("counter {name} missing from report:\n{report}"))
}

#[test]
fn explain_analyze_totals_equal_plain_run_stats() {
    // The SQL executor builds its grouped dataset in group-discovery order,
    // which for `load` equals the core dataset's group order — so the
    // skyline step inside EXPLAIN ANALYZE performs exactly the work of the
    // anytime engine run directly, and the trace counters must match its
    // `Stats` field for field.
    for seed in 400..410 {
        let ds = random_dataset(seed, 9, 5);
        let mut db = load(&ds);
        let report: String = db
            .execute(
                "EXPLAIN ANALYZE SELECT director FROM movies \
                 GROUP BY director SKYLINE OF votes MAX, rank MAX",
            )
            .unwrap()
            .rows
            .into_iter()
            .map(|r| format!("{}\n", r[0]))
            .collect();
        let stats = anytime_skyline_ctx(&ds, Gamma::DEFAULT, &RunContext::unlimited()).stats;
        assert_eq!(
            counter_of(&report, "aggsky_group_pairs_total"),
            stats.group_pairs,
            "seed={seed}\n{report}"
        );
        assert_eq!(
            counter_of(&report, "aggsky_record_pairs_total"),
            stats.record_pairs,
            "seed={seed}"
        );
        assert_eq!(
            counter_of(&report, "aggsky_index_candidates_total"),
            stats.index_candidates,
            "seed={seed}"
        );
        // The SQL layer's own counters are also present and exact.
        assert_eq!(counter_of(&report, "aggsky_sql_rows_scanned_total"), ds.n_records() as u64);
        assert_eq!(counter_of(&report, "aggsky_sql_groups_built_total"), ds.n_groups() as u64);
    }
}

#[test]
fn having_filter_composes_with_group_skyline() {
    // HAVING first prunes groups, then the skyline runs among survivors:
    // a group dominated only by a HAVING-removed group must reappear.
    let mut db = Database::new();
    db.create_table(
        "movies",
        &[
            ("director", ColumnType::Text),
            ("votes", ColumnType::Float),
            ("rank", ColumnType::Float),
        ],
    )
    .unwrap();
    db.insert_rows(
        "movies",
        vec![
            vec![Value::Str("big".into()), Value::Float(10.0), Value::Float(10.0)],
            vec![Value::Str("big".into()), Value::Float(11.0), Value::Float(11.0)],
            vec![Value::Str("mid".into()), Value::Float(5.0), Value::Float(5.0)],
        ],
    )
    .unwrap();
    let with_big = names(
        &mut db,
        "SELECT director FROM movies GROUP BY director SKYLINE OF votes MAX, rank MAX",
    );
    assert_eq!(with_big, vec!["big"]);
    let without_big = names(
        &mut db,
        "SELECT director FROM movies GROUP BY director \
         HAVING count(*) < 2 SKYLINE OF votes MAX, rank MAX",
    );
    assert_eq!(without_big, vec!["mid"], "mid reappears once big is HAVING-ed away");
}
