//! Differential test of the aggregate-skyline input a `Database` keeps
//! between statements (DESIGN.md §19).
//!
//! Seeded scripts interleave skyline SELECTs (at random γ and directions,
//! with WHERE filters, `[NOT] IN (SELECT …)` over another table, HAVING,
//! aggregates, ORDER BY and LIMIT), chunked durable runs, and every kind of
//! write: INSERT, DELETE, UPDATE, CREATE, DROP and `INSERT … SELECT`, on a
//! plain table and on a serving-bound one, including a routed write that
//! fails and rolls back. Every SELECT must return exactly what a clone
//! taken just before it returns (a clone starts with nothing kept), and a
//! complete skyline's labels must equal the naive oracle's. Durable chains
//! run side by side in two directories, one re-issued on the database and
//! one on a fresh clone per chunk; their answers, their errors (also when
//! a chain crosses a write) and their frame files must be identical.

use aggsky_core::{naive_skyline, Direction, Gamma, GroupedDatasetBuilder};
use aggsky_sql::{Database, QueryResult, Value};
use std::collections::HashSet;
use std::path::Path;

/// SplitMix64: a small seeded generator, enough to vary scripts.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

const GAMMAS: [f64; 5] = [0.5, 0.6, 0.75, 0.9, 1.0];
const GROUPS: u64 = 7;

/// Which rows a generated SELECT keeps before grouping.
#[derive(Clone, Copy)]
enum Filter {
    All,
    AAbove(u64),
    /// `g [NOT] IN (SELECT g FROM u WHERE w > k)`.
    InU {
        w_above: u64,
        negated: bool,
    },
}

/// A generated skyline SELECT and what the oracle needs to recompute it.
#[derive(Clone)]
struct Query {
    sql: String,
    table: &'static str,
    filter: Filter,
    /// `HAVING count(*) > k`.
    min_count: Option<usize>,
    dirs: [Direction; 2],
    gamma: f64,
    /// False under LIMIT, whose cut is not the skyline's.
    oracle: bool,
}

fn random_query(rng: &mut Rng) -> Query {
    let table = if rng.chance(4) { "s" } else { "t" };
    let dirs =
        [rng.pick(&[Direction::Max, Direction::Min]), rng.pick(&[Direction::Max, Direction::Min])];
    let dir_sql = |d: Direction| if d == Direction::Max { "MAX" } else { "MIN" };
    let gamma = rng.pick(&GAMMAS);
    let filter = match rng.below(4) {
        0 | 1 => Filter::All,
        2 => Filter::AAbove(rng.below(12)),
        _ => Filter::InU { w_above: rng.below(4), negated: rng.chance(2) },
    };
    let min_count = rng.chance(3).then(|| rng.below(3) as usize);
    let projection = rng.pick(&["g", "g, count(*)", "g, max(a), avg(b)", "*"]);
    let mut sql = format!("SELECT {projection} FROM {table}");
    match filter {
        Filter::All => {}
        Filter::AAbove(x) => sql.push_str(&format!(" WHERE a > {x}")),
        Filter::InU { w_above, negated } => sql.push_str(&format!(
            " WHERE g {}IN (SELECT g FROM u WHERE w > {w_above})",
            if negated { "NOT " } else { "" }
        )),
    }
    sql.push_str(" GROUP BY g");
    if let Some(k) = min_count {
        sql.push_str(&format!(" HAVING count(*) > {k}"));
    }
    sql.push_str(&format!(" SKYLINE OF a {}, b {}", dir_sql(dirs[0]), dir_sql(dirs[1])));
    // GAMMA 0.5 is also the default: sometimes leave it out.
    if gamma != 0.5 || rng.chance(2) {
        sql.push_str(&format!(" GAMMA {gamma}"));
    }
    if rng.chance(2) {
        sql.push_str(if rng.chance(2) { " ORDER BY g" } else { " ORDER BY g DESC" });
    }
    let limited = rng.chance(5);
    if limited {
        sql.push_str(&format!(" LIMIT {}", rng.below(4)));
    }
    Query { sql, table, filter, min_count, dirs, gamma, oracle: !limited }
}

fn text(v: &Value) -> String {
    v.to_string()
}

fn num(v: &Value) -> f64 {
    v.as_f64().expect("skyline attributes are numeric")
}

/// The naive oracle's skyline labels for `q` over the database's rows.
fn oracle(db: &Database, q: &Query) -> Vec<String> {
    let u: HashSet<String> = match q.filter {
        Filter::InU { w_above, .. } => db
            .table("u")
            .unwrap()
            .rows()
            .iter()
            .filter(|r| num(&r[1]) > w_above as f64)
            .map(|r| text(&r[0]))
            .collect(),
        _ => HashSet::new(),
    };
    let mut groups: Vec<(String, Vec<Vec<f64>>)> = Vec::new();
    for row in &db.table(q.table).unwrap().rows() {
        let keep = match q.filter {
            Filter::All => true,
            Filter::AAbove(x) => num(&row[1]) > x as f64,
            Filter::InU { negated, .. } => u.contains(&text(&row[0])) != negated,
        };
        if !keep {
            continue;
        }
        let label = text(&row[0]);
        let record = vec![num(&row[1]), num(&row[2])];
        match groups.iter_mut().find(|(l, _)| *l == label) {
            Some((_, records)) => records.push(record),
            None => groups.push((label, vec![record])),
        }
    }
    groups.retain(|(_, records)| q.min_count.is_none_or(|k| records.len() > k));
    let mut b = GroupedDatasetBuilder::with_directions(q.dirs.to_vec());
    for (label, records) in &groups {
        b.push_group(label.clone(), records).unwrap();
    }
    let ds = b.build().unwrap();
    let sky = naive_skyline(&ds, Gamma::new(q.gamma).unwrap()).skyline;
    ds.sorted_labels(&sky).into_iter().map(str::to_string).collect()
}

/// Runs `sql` on a clone taken now, then on `db`, and checks that both
/// give the same answer or the same error.
fn run_both(db: &mut Database, sql: &str) -> Result<QueryResult, String> {
    let mut cold = db.clone();
    let want = cold.execute(sql).map_err(|e| e.to_string());
    let got = db.execute(sql).map_err(|e| e.to_string());
    assert_eq!(got, want, "kept input changed the answer of {sql}");
    got
}

/// A SELECT against its cold clone and, when complete, the oracle.
fn check_select(db: &mut Database, q: &Query, at: &str) {
    if let Ok(r) = run_both(db, &q.sql) {
        if q.oracle && r.interrupted.is_none() {
            let mut labels: Vec<String> = r.rows.iter().map(|row| text(&row[0])).collect();
            labels.sort();
            assert_eq!(labels, oracle(db, q), "{at}: {}", q.sql);
        }
    }
}

fn row_values(rng: &mut Rng) -> String {
    format!("('g{}', {}, {}, {})", rng.below(GROUPS), rng.below(20), rng.below(20), rng.below(5))
}

/// One random write; errors are part of the script (e.g. an UPDATE on the
/// bound table, or a routed INSERT that rolls back).
fn random_write(db: &mut Database, rng: &mut Rng, tmp_exists: &mut bool) {
    let g = rng.below(GROUPS);
    let sql = match rng.below(11) {
        0 => format!("INSERT INTO t VALUES {}, {}", row_values(rng), row_values(rng)),
        1 => format!(
            "INSERT INTO t (c, b, a, g) VALUES ({}, {}, {}, 'g{g}')",
            rng.below(5),
            rng.below(20),
            rng.below(20)
        ),
        2 => format!("DELETE FROM t WHERE g = 'g{g}' AND a > {}", rng.below(20)),
        3 => format!("UPDATE t SET a = a + 1, b = b - 1 WHERE g = 'g{g}'"),
        4 => {
            *tmp_exists = !*tmp_exists;
            if *tmp_exists {
                "CREATE TABLE tmp (g TEXT, a FLOAT)".to_string()
            } else {
                "DROP TABLE tmp".to_string()
            }
        }
        5 => format!("INSERT INTO t SELECT g, b, a, c FROM t WHERE c = {} LIMIT 2", rng.below(5)),
        6 => format!("INSERT INTO s VALUES ('g{g}', {}, {})", rng.below(20), rng.below(20)),
        7 => format!("DELETE FROM s WHERE g = 'g{g}' AND b > {}", rng.below(20)),
        // Routed, then rolled back: the serving binding rejects NULL.
        8 => format!("INSERT INTO s VALUES ('g{g}', NULL, 1)"),
        9 => format!("INSERT INTO u VALUES ('g{g}', {})", rng.below(5)),
        _ => format!("UPDATE s SET a = 0 WHERE g = 'g{g}'"),
    };
    let _ = db.execute(&sql);
}

fn frames(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| {
                    (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
                })
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

/// One durable statement re-issued chunk by chunk: on `db` in one
/// directory and on a fresh clone per chunk in another. A write may land
/// between two chunks. Returns whether the chain ended in an error.
fn durable_chain(db: &mut Database, rng: &mut Rng, q: &Query, base: &Path, tmp: &mut bool) -> bool {
    let hot = base.join("hot");
    let cold = base.join("cold");
    for d in [&hot, &cold] {
        let _ = std::fs::remove_dir_all(d);
    }
    let (hot_s, cold_s) = (hot.display().to_string(), cold.display().to_string());
    db.set_checkpoint_dir(Some(hot_s.clone()));
    db.set_timeout_ticks(1 + rng.below(60));
    let crossing = rng.chance(3).then(|| rng.below(3));
    let mut failed = false;
    for chunk in 0.. {
        assert!(chunk < 2000, "durable chain did not converge: {}", q.sql);
        if crossing == Some(chunk) {
            random_write(db, rng, tmp);
        }
        let mut clone = db.clone();
        clone.set_checkpoint_dir(Some(cold_s.clone()));
        let want = clone.execute(&q.sql).map_err(|e| e.to_string().replace(&cold_s, "<dir>"));
        let got = db.execute(&q.sql).map_err(|e| e.to_string().replace(&hot_s, "<dir>"));
        assert_eq!(got, want, "durable chunk {chunk} of {}", q.sql);
        match got {
            Ok(r) if r.interrupted.is_some() => continue,
            Ok(r) => {
                if q.oracle {
                    let mut labels: Vec<String> = r.rows.iter().map(|row| text(&row[0])).collect();
                    labels.sort();
                    assert_eq!(labels, oracle(db, q), "durable: {}", q.sql);
                }
                break;
            }
            Err(_) => {
                failed = true;
                break;
            }
        }
    }
    assert_eq!(frames(&hot), frames(&cold), "frames differ for {}", q.sql);
    db.set_checkpoint_dir(None);
    db.set_timeout_ticks(0);
    failed
}

fn seeded_db(rng: &mut Rng) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (g TEXT, a FLOAT, b FLOAT, c INT)").unwrap();
    db.execute("CREATE TABLE s (g TEXT, a FLOAT, b FLOAT)").unwrap();
    db.execute("CREATE TABLE u (g TEXT, w INT)").unwrap();
    for _ in 0..30 {
        db.execute(&format!("INSERT INTO t VALUES {}", row_values(rng))).unwrap();
    }
    for _ in 0..20 {
        let g = rng.below(GROUPS);
        db.execute(&format!("INSERT INTO s VALUES ('g{g}', {}, {})", rng.below(20), rng.below(20)))
            .unwrap();
    }
    for g in 0..GROUPS {
        db.execute(&format!("INSERT INTO u VALUES ('g{g}', {})", rng.below(5))).unwrap();
    }
    db.serve_skyline("s", "g", &["a", "b"], 0.5).unwrap();
    db
}

#[test]
fn every_select_answers_as_a_cold_clone_and_the_oracle_do() {
    let base = std::env::temp_dir().join(format!("aggsky-kept-input-{}", std::process::id()));
    let (mut reused, mut durable, mut failed) = (0usize, 0usize, 0usize);
    for seed in 0..10u64 {
        let mut rng = Rng(0xA66_5EED ^ seed);
        let mut db = seeded_db(&mut rng);
        let mut tmp = false;
        let mut last: Option<Query> = None;
        for op in 0..60 {
            let at = format!("seed {seed} op {op}");
            match rng.below(10) {
                // A fresh statement, the last one again, or the last one
                // at another γ: the second and third can reuse.
                0..=2 => {
                    let q = random_query(&mut rng);
                    check_select(&mut db, &q, &at);
                    last = Some(q);
                }
                3 | 4 => {
                    if let Some(q) = last.clone() {
                        check_select(&mut db, &q, &at);
                    }
                }
                5 => {
                    if let Some(mut q) = last.clone() {
                        let old = format!("GAMMA {}", q.gamma);
                        q.gamma = rng.pick(&GAMMAS);
                        if q.sql.contains(&old) {
                            q.sql = q.sql.replace(&old, &format!("GAMMA {}", q.gamma));
                        } else {
                            q.gamma = 0.5;
                        }
                        check_select(&mut db, &q, &at);
                        last = Some(q);
                    }
                }
                // A tight budget: interrupted answers must match too.
                6 => {
                    if let Some(q) = last.clone() {
                        db.set_timeout_ticks(1 + rng.below(30));
                        check_select(&mut db, &q, &at);
                        db.set_timeout_ticks(0);
                    }
                }
                7 => {
                    let q = last.clone().unwrap_or_else(|| random_query(&mut rng));
                    let dir = base.join(format!("{seed}-{op}"));
                    if durable_chain(&mut db, &mut rng, &q, &dir, &mut tmp) {
                        failed += 1;
                    }
                    durable += 1;
                    last = Some(q);
                }
                // A write, then the last statement again: its kept input
                // must not survive the write.
                _ => {
                    random_write(&mut db, &mut rng, &mut tmp);
                    if let Some(q) = &last {
                        check_select(&mut db, q, &at);
                    }
                }
            }
        }
        reused += db.journal().records().iter().filter(|r| r.input_reused).count();
    }
    let _ = std::fs::remove_dir_all(&base);
    assert!(reused > 100, "scripts reused the kept input only {reused} times");
    assert!(durable > 20, "only {durable} durable chains ran");
    // A write that changes a chain's data makes its next chunk a
    // fingerprint mismatch, here as at a cold start.
    assert!(failed > 0, "no durable chain crossed a write that changed its data");
}
