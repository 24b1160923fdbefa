//! Seeded SQL fuzzing and the column-form differential.
//!
//! Each seed runs a script of statements drawn from a small grammar, some
//! of them with a few bytes mutated, on two databases: one as the script
//! leaves it, and one whose every column was forced into its `Value` form
//! first (a row of NULLs inserted into each new table and deleted again).
//! The grammar covers CREATE and DROP; INSERT with mixed types (integers
//! into FLOAT and TEXT columns, strings into INT columns, NULLs, `i64`
//! extremes, quotes); SELECT with WHERE, GROUP BY, HAVING, SKYLINE OF,
//! DISTINCT, IN subqueries and lists, joins, ORDER BY and LIMIT; DELETE and
//! UPDATE. For every statement:
//!
//! * it ends in `Ok` or a typed `SqlError`, never a panic;
//! * when it fails, every table is left as it was;
//! * both databases return the same result, or the same error;
//! * a complete `GROUP BY g SKYLINE OF …` result equals the naive oracle's
//!   skyline over the rows read back from the table.

use aggsky_core::{naive_skyline, Direction, Gamma, GroupedDatasetBuilder};
use aggsky_sql::{Database, QueryResult, SqlError, Value};
use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

const SEEDS: u64 = 200;
const STATEMENTS: usize = 60;
const GAMMAS: [f64; 5] = [0.5, 0.6, 0.75, 0.9, 1.0];

/// A value that does not fit the column's type, or sits at an edge.
fn odd_value(rng: &mut Rng) -> &'static str {
    rng.pick(&[
        "NULL",
        "'x'",
        "'it''s'",
        "''",
        "7",
        "2.5",
        "-0.0",
        "9223372036854775807",
        "(-9223372036854775807 - 1)",
        "1e999",
    ])
}

fn label(rng: &mut Rng) -> String {
    if rng.chance(12) {
        return odd_value(rng).to_string();
    }
    format!("'g{}'", rng.below(5))
}

fn float(rng: &mut Rng) -> String {
    if rng.chance(10) {
        return odd_value(rng).to_string();
    }
    match rng.below(3) {
        0 => format!("{}", rng.below(20)),
        1 => format!("{}.5", rng.below(20)),
        _ => format!("{}", rng.below(2000) as f64 / 100.0),
    }
}

fn int(rng: &mut Rng) -> String {
    if rng.chance(8) {
        return odd_value(rng).to_string();
    }
    format!("{}", rng.below(10) as i64 - 3)
}

fn t_row(rng: &mut Rng) -> String {
    format!("({}, {}, {}, {})", label(rng), float(rng), float(rng), int(rng))
}

fn u_row(rng: &mut Rng) -> String {
    format!("({}, {})", label(rng), int(rng))
}

/// Which rows a skyline SELECT keeps before grouping.
#[derive(Clone, Copy)]
enum Filter {
    All,
    AAbove(i64),
    /// `g [NOT] IN (SELECT g FROM u WHERE w > k)`.
    InU {
        w_above: i64,
        negated: bool,
    },
}

/// A `GROUP BY g SKYLINE OF a, b` statement over `t` and what the oracle
/// needs to recompute it.
struct SkyQuery {
    filter: Filter,
    min_count: Option<usize>,
    dirs: [Direction; 2],
    gamma: f64,
}

fn filter_sql(f: Filter) -> String {
    match f {
        Filter::All => String::new(),
        Filter::AAbove(x) => format!(" WHERE a > {x}"),
        Filter::InU { w_above, negated } => format!(
            " WHERE g {}IN (SELECT g FROM u WHERE w > {w_above})",
            if negated { "NOT " } else { "" }
        ),
    }
}

fn random_filter(rng: &mut Rng) -> Filter {
    match rng.below(4) {
        0 | 1 => Filter::All,
        2 => Filter::AAbove(rng.below(15) as i64),
        _ => Filter::InU { w_above: rng.below(5) as i64 - 2, negated: rng.chance(2) },
    }
}

/// A skyline statement; the query comes back when the oracle applies.
fn skyline_select(rng: &mut Rng) -> (String, Option<SkyQuery>) {
    let filter = random_filter(rng);
    let dirs =
        [rng.pick(&[Direction::Max, Direction::Min]), rng.pick(&[Direction::Max, Direction::Min])];
    let dir_sql = |d: Direction| if d == Direction::Max { "MAX" } else { "MIN" };
    let gamma = rng.pick(&GAMMAS);
    let min_count = rng.chance(3).then(|| rng.below(3) as usize);
    let projection = rng.pick(&["g", "g, count(*)", "g, max(a), avg(b), min(c)", "*"]);
    let mut sql = format!("SELECT {projection} FROM t{} GROUP BY g", filter_sql(filter));
    if let Some(k) = min_count {
        sql.push_str(&format!(" HAVING count(*) > {k}"));
    }
    sql.push_str(&format!(
        " SKYLINE OF a {}, b {} GAMMA {gamma}",
        dir_sql(dirs[0]),
        dir_sql(dirs[1])
    ));
    if rng.chance(2) {
        sql.push_str(" ORDER BY g");
    }
    if rng.chance(6) {
        sql.push_str(&format!(" LIMIT {}", rng.below(4)));
        return (sql, None);
    }
    (sql, Some(SkyQuery { filter, min_count, dirs, gamma }))
}

fn other_select(rng: &mut Rng) -> String {
    let filter = filter_sql(random_filter(rng));
    let k = rng.below(10) as i64 - 2;
    let limit = if rng.chance(3) { format!(" LIMIT {}", rng.below(5)) } else { String::new() };
    match rng.below(10) {
        0 => format!("SELECT g, count(*), sum(a), avg(b), min(c), max(g) FROM t{filter} GROUP BY g HAVING count(*) > {} ORDER BY g{limit}", rng.below(3)),
        1 => format!("SELECT {}g, a + c, -c, c * 2, a - b FROM t{filter} ORDER BY a DESC, g{limit}", if rng.chance(2) { "DISTINCT " } else { "" }),
        2 => format!("SELECT t.g, u.w, a * w FROM t, u WHERE t.g = u.g AND w > {k} ORDER BY t.g, u.w{limit}"),
        3 => format!("SELECT * FROM t{filter} SKYLINE OF a MAX, b MIN"),
        4 => format!("SELECT {}, count(*), max(b) FROM t GROUP BY {0} ORDER BY {0}{limit}", rng.pick(&["c", "a", "g, c", "a + 1", "c * 1.0", "b > 5"])),
        5 => format!("SELECT count(*), sum(c), min(a), max(c) FROM t{filter}"),
        6 => format!("SELECT DISTINCT {} FROM t ORDER BY 1{limit}", rng.pick(&["c", "a", "g", "g, c"])),
        7 => format!("SELECT g, c FROM t WHERE c {}IN (1, 2, 3.0, 'x', NULL) ORDER BY g, c", if rng.chance(2) { "NOT " } else { "" }),
        8 => format!("SELECT g FROM t WHERE c IN (SELECT w FROM u) AND a BETWEEN 2 AND {}", rng.below(20)),
        _ => format!("SELECT g, c + {} FROM t WHERE g LIKE 'g%' ORDER BY c{limit}", rng.pick(&["1", "9223372036854775807", "-9223372036854775807", "c"])),
    }
}

fn write(rng: &mut Rng) -> String {
    let g = rng.below(5);
    match rng.below(14) {
        0..=2 => {
            let rows: Vec<String> = (0..1 + rng.below(3)).map(|_| t_row(rng)).collect();
            format!("INSERT INTO t VALUES {}", rows.join(", "))
        }
        3 => format!("INSERT INTO u VALUES {}", u_row(rng)),
        4 => format!(
            "INSERT INTO t (c, b, a, g) VALUES ({}, {}, {}, {})",
            int(rng),
            float(rng),
            float(rng),
            label(rng)
        ),
        5 => format!("DELETE FROM t WHERE a > {} AND g = 'g{g}'", rng.below(20)),
        6 => format!("DELETE FROM u WHERE w = {}", rng.below(6) as i64 - 2),
        7 => format!("UPDATE t SET a = a + 1, b = b - 1 WHERE g = 'g{g}'"),
        8 => format!(
            "UPDATE t SET {}",
            rng.pick(&[
                "c = -c",
                "c = c * 2",
                "a = -a",
                "c = c + 9223372036854775807",
                "g = c",
                "a = c, c = a"
            ])
        ),
        9 => format!("UPDATE t SET g = 'g{g}', c = {} WHERE c > {}", int(rng), rng.below(6)),
        10 => format!("INSERT INTO t SELECT g, b, a, c FROM t WHERE c = {} LIMIT 2", rng.below(5)),
        11 => "CREATE TABLE tmp (x INT, y TEXT, z FLOAT)".to_string(),
        12 => format!("INSERT INTO tmp VALUES ({}, {}, {})", int(rng), label(rng), float(rng)),
        _ => "DROP TABLE tmp".to_string(),
    }
}

/// A few byte edits from SQL's own alphabet; the grammar writes ASCII, so
/// the result is still UTF-8.
fn mutate(rng: &mut Rng, sql: &str) -> String {
    const BYTES: &[u8] = b"'\"(),*-+/<>=.;0123456789 eEaAgtTu_%";
    let mut bytes = sql.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        let b = rng.pick(BYTES);
        match rng.below(3) {
            0 if at < bytes.len() => bytes[at] = b,
            1 => bytes.insert(at, b),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
    String::from_utf8(bytes).expect("ASCII edits of ASCII text")
}

/// Every table's rows, as text (NaN-safe, unlike `Value`'s `==`).
fn tables(db: &Database) -> String {
    db.table_names()
        .into_iter()
        .map(|name| format!("{name}: {:?}\n", db.table(name).expect("listed").rows()))
        .collect()
}

/// Runs one statement: no panic, and no change to any table on failure.
fn run(db: &mut Database, sql: &str, at: &str) -> Result<QueryResult, SqlError> {
    let before = tables(db);
    let out = catch_unwind(AssertUnwindSafe(|| db.execute(sql)))
        .unwrap_or_else(|_| panic!("{at}: the statement panicked: {sql}"));
    if let Err(e) = &out {
        assert_eq!(tables(db), before, "{at}: the failed statement ({e}) changed a table: {sql}");
    }
    out
}

/// Puts every column of every table `db` has not seen yet into its
/// `Value` form: a row of NULLs fits no typed vector. A new table is
/// empty, so deleting every row deletes just that one.
fn force_value_form(db: &mut Database, forced: &mut Vec<String>) {
    let names: Vec<String> = db.table_names().into_iter().map(str::to_string).collect();
    forced.retain(|n| names.contains(n));
    for name in names {
        if forced.contains(&name) {
            continue;
        }
        let width = db.table(&name).expect("listed").columns.len();
        let nulls = vec!["NULL"; width].join(", ");
        db.execute(&format!("INSERT INTO {name} VALUES ({nulls})")).expect("a NULL row fits");
        db.execute(&format!("DELETE FROM {name}")).expect("delete all");
        forced.push(name);
    }
}

/// Sorted `Debug` of the label values of a skyline result's rows.
fn result_labels(r: &QueryResult) -> Vec<String> {
    let mut out: Vec<String> = r.rows.iter().map(|row| format!("{:?}", row[0])).collect();
    out.sort();
    out
}

/// The naive oracle's skyline labels for `q`, over the rows of `t` and `u`
/// read back from the database, with the engine's key and comparison
/// rules. Only called on a statement that succeeded, so every kept row's
/// attributes are finite numbers.
fn oracle(db: &Database, q: &SkyQuery) -> Vec<String> {
    let greater = |v: &Value, k: i64| v.sql_cmp(&Value::Int(k)) == Some(Ordering::Greater);
    let u: Vec<Value> = match q.filter {
        Filter::InU { w_above, .. } => db
            .table("u")
            .expect("u exists")
            .rows()
            .into_iter()
            .filter(|r| greater(&r[1], w_above))
            .map(|mut r| r.swap_remove(0))
            .collect(),
        _ => Vec::new(),
    };
    let mut groups: Vec<(Value, Vec<Vec<f64>>)> = Vec::new();
    for row in db.table("t").expect("t exists").rows() {
        let keep = match q.filter {
            Filter::All => true,
            Filter::AAbove(x) => greater(&row[1], x),
            Filter::InU { negated, .. } => {
                !row[0].is_null() && u.iter().any(|g| g.key_eq(&row[0])) != negated
            }
        };
        if !keep {
            continue;
        }
        let record = vec![row[1].as_f64().expect("numeric"), row[2].as_f64().expect("numeric")];
        match groups.iter_mut().find(|(g, _)| g.key_eq(&row[0])) {
            Some((_, records)) => records.push(record),
            None => groups.push((row[0].clone(), vec![record])),
        }
    }
    groups.retain(|(_, records)| q.min_count.is_none_or(|k| records.len() > k));
    if groups.len() < 2 {
        // No group can dominate another, and none is counted: non-finite
        // attributes pass too, as in the engine.
        let mut out: Vec<String> = groups.iter().map(|(g, _)| format!("{g:?}")).collect();
        out.sort();
        return out;
    }
    let mut b = GroupedDatasetBuilder::with_directions(q.dirs.to_vec()).trusted_labels();
    for (i, (_, records)) in groups.iter().enumerate() {
        b.push_group(i.to_string(), records).expect("finite records");
    }
    let ds = b.build().expect("a dataset");
    let sky = naive_skyline(&ds, Gamma::new(q.gamma).expect("a valid gamma")).skyline;
    let mut out: Vec<String> = sky.iter().map(|&g| format!("{:?}", groups[g].0)).collect();
    out.sort();
    out
}

/// What one seed's script checked: skylines against the oracle, failed
/// statements, mutated statements.
#[derive(Default)]
struct Checked {
    oracles: usize,
    failed: usize,
    mutated: usize,
}

/// The script of one seed, with the oracle's query for each statement it
/// applies to.
fn script(seed: u64) -> (Vec<String>, Vec<Option<SkyQuery>>, usize) {
    let mut rng = Rng(0xF022_5EED ^ seed);
    let mut script = vec![
        "CREATE TABLE t (g TEXT, a FLOAT, b FLOAT, c INT)".to_string(),
        "CREATE TABLE u (g TEXT, w INT)".to_string(),
    ];
    let rows: Vec<String> = (0..12).map(|_| t_row(&mut rng)).collect();
    script.push(format!("INSERT INTO t VALUES {}", rows.join(", ")));
    let rows: Vec<String> = (0..5).map(|_| u_row(&mut rng)).collect();
    script.push(format!("INSERT INTO u VALUES {}", rows.join(", ")));
    let mut queries: Vec<Option<SkyQuery>> = script.iter().map(|_| None).collect();
    let mut mutated = 0;
    for _ in 0..STATEMENTS {
        let (sql, query) = match rng.below(10) {
            0..=2 => skyline_select(&mut rng),
            3..=5 => (other_select(&mut rng), None),
            _ => (write(&mut rng), None),
        };
        if rng.chance(5) {
            mutated += 1;
            script.push(mutate(&mut rng, &sql));
            queries.push(None);
        } else {
            script.push(sql);
            queries.push(query);
        }
    }
    (script, queries, mutated)
}

/// Runs one seed's script on a typed and a forced database.
fn run_seed(seed: u64) -> Checked {
    let (script, queries, mutated) = script(seed);
    let mut checked = Checked { mutated, ..Checked::default() };
    let (mut typed, mut loose) = (Database::new(), Database::new());
    let mut forced = Vec::new();
    for (i, (sql, query)) in script.iter().zip(&queries).enumerate() {
        let at = format!("seed {seed} statement {i}");
        force_value_form(&mut loose, &mut forced);
        let want = run(&mut typed, sql, &at);
        let got = run(&mut loose, sql, &at);
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "{at}: the column form changed the result of {sql}"
        );
        assert_eq!(tables(&loose), tables(&typed), "{at}: the column form changed a table: {sql}");
        match (want, query) {
            (Ok(r), Some(q)) if r.interrupted.is_none() => {
                assert_eq!(result_labels(&r), oracle(&typed, q), "{at}: {sql}");
                checked.oracles += 1;
            }
            (Err(_), _) => checked.failed += 1,
            _ => {}
        }
    }
    checked
}

#[test]
fn statements_never_panic_fail_atomically_and_ignore_the_column_form() {
    let mut total = Checked::default();
    for seed in 0..SEEDS {
        let checked = run_seed(seed);
        total.oracles += checked.oracles;
        total.failed += checked.failed;
        total.mutated += checked.mutated;
    }
    let Checked { oracles, failed, mutated } = total;
    assert!(oracles > 700, "only {oracles} skylines were checked against the oracle");
    assert!(
        failed > 4000,
        "only {failed} statements failed: the grammar barely reaches the errors"
    );
    assert!(mutated > 2000, "only {mutated} statements were mutated");
}
