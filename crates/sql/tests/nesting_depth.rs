//! The parser's nesting limit: the deepest statement it accepts parses,
//! plans, executes and EXPLAINs on a thread with a 2 MB stack, and one level
//! deeper is a typed parse error instead of a stack overflow (which aborts
//! the process and cannot be caught).

use aggsky_sql::parser::MAX_DEPTH;
use aggsky_sql::{Database, SqlError};

/// The stack the limit is sized for: the default for spawned threads.
const STACK: usize = 2 << 20;

/// Runs `f` on a fresh thread with a [`STACK`]-byte stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new().stack_size(STACK).spawn(f).unwrap().join().unwrap()
}

fn db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INT, b FLOAT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 2.5), (2, 0.5), (3, 1.5)").unwrap();
    db
}

fn is_depth_error(e: &SqlError) -> bool {
    matches!(e, SqlError::Parse(m) if m.contains("nests deeper"))
}

/// The largest `n` for which `statement(n)` parses. Asserts that
/// `statement(n + 1)` is rejected for its depth and nothing smaller is.
fn deepest(statement: &dyn Fn(usize) -> String) -> usize {
    let mut n = 0;
    loop {
        match aggsky_sql::parse(&statement(n + 1)) {
            Ok(_) => n += 1,
            Err(e) => {
                assert!(is_depth_error(&e), "n = {}: {e}", n + 1);
                assert!(n > 0, "the shallowest statement is rejected");
                return n;
            }
        }
        assert!(n <= 2 * MAX_DEPTH, "no limit reached");
    }
}

/// Executes the statement and its `EXPLAIN`, `EXPLAIN ANALYZE` and
/// [`Database::explain`] forms on a small stack, each of which must succeed.
fn runs_on_a_small_stack(sql: String) {
    on_small_stack(move || {
        let mut db = db();
        db.execute(&sql).unwrap_or_else(|e| panic!("{e}"));
        db.execute(&format!("EXPLAIN {sql}")).unwrap();
        db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        db.explain(&sql).unwrap();
    });
}

/// Parses the statement on a small stack, expecting the depth error.
fn rejected_on_a_small_stack(sql: String) {
    let err = on_small_stack(move || db().execute(&sql).unwrap_err());
    assert!(is_depth_error(&err), "{err}");
}

fn check(statement: impl Fn(usize) -> String) -> usize {
    let n = deepest(&statement);
    runs_on_a_small_stack(statement(n));
    rejected_on_a_small_stack(statement(n + 1));
    n
}

#[test]
fn nested_parentheses_stop_at_the_limit() {
    // Parentheses that vanish from the tree, and ones that keep a node each.
    let plain = check(|n| format!("SELECT {}a{} FROM t", "(".repeat(n), ")".repeat(n)));
    assert_eq!(plain, MAX_DEPTH - 1, "one level is the projection itself");
    check(|n| format!("SELECT {}a{} FROM t", "-(".repeat(n), ")".repeat(n)));
    check(|n| format!("SELECT a FROM t WHERE {}a > 0{}", "NOT (".repeat(n), ")".repeat(n)));
    check(|n| format!("SELECT {}b{} FROM t", "1 + (b * (".repeat(n), "))".repeat(n)));
    // Unparenthesised chains nest as deep in the tree.
    check(|n| format!("SELECT a FROM t WHERE {}", vec!["a > 0"; n].join(" AND ")));
    check(|n| format!("SELECT {} FROM t", vec!["b"; n].join(" - ")));
    check(|n| format!("SELECT {}a FROM t", "- ".repeat(n)));
}

#[test]
fn nested_subqueries_stop_at_the_limit() {
    let n = check(|n| {
        let mut sql = "SELECT a FROM t".to_string();
        for _ in 0..n {
            sql = format!("SELECT a FROM t WHERE a IN ({sql})");
        }
        sql
    });
    assert!(n >= 16, "only {n} nested subqueries fit");
    check(|n| {
        let mut sql = "SELECT a FROM t GROUP BY a SKYLINE OF a MAX, b MIN".to_string();
        for _ in 0..n {
            sql = format!("SELECT a FROM t WHERE a NOT IN ({sql}) OR b > 1");
        }
        sql
    });
}

#[test]
fn the_reported_inputs_are_parse_errors() {
    // Deeper than any limit: 10 000 parentheses and 3 000 subqueries.
    let parens = format!("SELECT {}1{}", "(".repeat(10_000), ")".repeat(10_000));
    rejected_on_a_small_stack(parens);
    let mut sub = "SELECT a FROM t".to_string();
    for _ in 0..3_000 {
        sub = format!("SELECT a FROM t WHERE a IN ({sub})");
    }
    rejected_on_a_small_stack(sub);
    // A left-deep chain is as deep in the tree: dropping a 1M-node chain
    // would overflow too.
    let chain = format!("SELECT {} FROM t", vec!["1"; 1_000_000].join("+"));
    rejected_on_a_small_stack(chain);
}
