//! End-to-end query tests for the mini SQL engine, anchored on the paper's
//! running examples (Figures 1-4, Algorithm 1).

use aggsky_sql::{Database, SqlError, Value};

/// Loads the Figure 1 movie table, including the `num` attribute Algorithm 1
/// requires (movies per director, pre-computed).
fn movie_db() -> Database {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE movie (title TEXT, year INT, director TEXT, \
         pop FLOAT, qual FLOAT, num INT)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO movie VALUES \
         ('Avatar', 2009, 'Cameron', 404, 8.0, 2), \
         ('Batman Begins', 2005, 'Nolan', 371, 8.3, 1), \
         ('Kill Bill', 2003, 'Tarantino', 313, 8.2, 2), \
         ('Pulp Fiction', 1994, 'Tarantino', 557, 9.0, 2), \
         ('Star Wars (V)', 1980, 'Kershner', 362, 8.8, 1), \
         ('Terminator (II)', 1991, 'Cameron', 326, 8.6, 2), \
         ('The Godfather', 1972, 'Coppola', 531, 9.2, 2), \
         ('The Lord of the Rings', 2001, 'Jackson', 518, 8.7, 1), \
         ('The Room', 2003, 'Wiseau', 10, 3.2, 1), \
         ('Dracula', 1992, 'Coppola', 76, 7.3, 2)",
    )
    .unwrap();
    db
}

fn column_strings(db: &mut Database, sql: &str) -> Vec<String> {
    let mut rows: Vec<String> =
        db.execute(sql).unwrap().rows.into_iter().map(|r| r[0].to_string()).collect();
    rows.sort();
    rows
}

#[test]
fn basic_select_and_where() {
    let mut db = movie_db();
    let r =
        db.execute("SELECT title, pop FROM movie WHERE year >= 2003 ORDER BY pop DESC").unwrap();
    assert_eq!(r.columns, vec!["title", "pop"]);
    assert_eq!(r.rows.len(), 4);
    assert_eq!(r.rows[0][0].to_string(), "Avatar");
}

#[test]
fn example_1_record_skyline() {
    // Figure 2: {Pulp Fiction, The Godfather}.
    let mut db = movie_db();
    let got = column_strings(&mut db, "SELECT title FROM movie SKYLINE OF pop MAX, qual MAX");
    assert_eq!(got, vec!["Pulp Fiction", "The Godfather"]);
}

#[test]
fn example_2_aggregate_query() {
    // Figure 3: directors with max(qual) >= 8.0 and their maxima.
    let mut db = movie_db();
    let r = db
        .execute(
            "SELECT director, max(pop), max(qual) FROM movie \
             GROUP BY director HAVING max(qual) >= 8.0 ORDER BY director",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 6);
    let cameron = &r.rows[0];
    assert_eq!(cameron[0].to_string(), "Cameron");
    assert_eq!(cameron[1], Value::Float(404.0));
    assert_eq!(cameron[2], Value::Float(8.6));
    let names: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    assert_eq!(names, vec!["Cameron", "Coppola", "Jackson", "Kershner", "Nolan", "Tarantino"]);
}

#[test]
fn example_3_aggregate_skyline() {
    // Figure 4(b): {Coppola, Jackson, Kershner, Tarantino}.
    let mut db = movie_db();
    let got = column_strings(
        &mut db,
        "SELECT director FROM movie GROUP BY director SKYLINE OF pop MAX, qual MAX",
    );
    assert_eq!(got, vec!["Coppola", "Jackson", "Kershner", "Tarantino"]);
}

#[test]
fn aggregate_skyline_gamma_widens_result() {
    let mut db = movie_db();
    let at_half = column_strings(
        &mut db,
        "SELECT director FROM movie GROUP BY director SKYLINE OF pop MAX, qual MAX GAMMA 0.5",
    );
    let at_one = column_strings(
        &mut db,
        "SELECT director FROM movie GROUP BY director SKYLINE OF pop MAX, qual MAX GAMMA 1.0",
    );
    assert!(at_one.len() >= at_half.len());
    for d in &at_half {
        assert!(at_one.contains(d), "{d} lost when raising gamma");
    }
    // γ below the asymmetry bound is rejected.
    let err = db
        .execute("SELECT director FROM movie GROUP BY director SKYLINE OF pop MAX GAMMA 0.3")
        .unwrap_err();
    assert!(matches!(err, SqlError::Eval(_)));
}

#[test]
fn algorithm_1_sql_aggregate_skyline() {
    // The paper's direct SQL implementation (Algorithm 1), adapted to the
    // movie table's column names, must produce Figure 4(b).
    let mut db = movie_db();
    let got = column_strings(
        &mut db,
        "select distinct director from movie where director not in (\
           select X.director from movie X, movie Y \
           where ((Y.pop > X.pop and Y.qual >= X.qual) or \
                  (Y.pop >= X.pop and Y.qual > X.qual)) \
           group by X.director, Y.director \
           having 1.0*count(*)/(X.num*Y.num) > .5)",
    );
    assert_eq!(got, vec!["Coppola", "Jackson", "Kershner", "Tarantino"]);
}

#[test]
fn algorithm_1_matches_native_skyline_clause() {
    let mut db = movie_db();
    let native = column_strings(
        &mut db,
        "SELECT director FROM movie GROUP BY director SKYLINE OF pop MAX, qual MAX",
    );
    let sql = column_strings(
        &mut db,
        "select distinct director from movie where director not in (\
           select X.director from movie X, movie Y \
           where ((Y.pop > X.pop and Y.qual >= X.qual) or \
                  (Y.pop >= X.pop and Y.qual > X.qual)) \
           group by X.director, Y.director \
           having 1.0*count(*)/(X.num*Y.num) > .5)",
    );
    assert_eq!(native, sql);
}

#[test]
fn self_join_counts_pairs() {
    let mut db = movie_db();
    let r = db.execute("SELECT count(*) FROM movie X, movie Y").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(100));
}

#[test]
fn aggregates_without_group_by() {
    let mut db = movie_db();
    let r =
        db.execute("SELECT count(*), min(pop), max(pop), avg(qual), sum(num) FROM movie").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int(10));
    assert_eq!(r.rows[0][1], Value::Float(10.0));
    assert_eq!(r.rows[0][2], Value::Float(557.0));
    let avg = r.rows[0][3].as_f64().unwrap();
    assert!((avg - 7.93).abs() < 1e-9, "avg {avg}");
    assert_eq!(r.rows[0][4], Value::Float(16.0));
}

#[test]
fn count_on_empty_table_is_zero() {
    let mut db = Database::new();
    db.execute("CREATE TABLE empty (a INT)").unwrap();
    let r = db.execute("SELECT count(*) FROM empty").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(0)]]);
}

#[test]
fn distinct_and_limit() {
    let mut db = movie_db();
    let r = db.execute("SELECT DISTINCT director FROM movie").unwrap();
    assert_eq!(r.rows.len(), 7);
    let r = db.execute("SELECT title FROM movie ORDER BY qual DESC LIMIT 3").unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0][0].to_string(), "The Godfather");
}

#[test]
fn min_direction_in_record_skyline() {
    // Cheapest + best: minimize year, maximize quality.
    let mut db = movie_db();
    let got = column_strings(&mut db, "SELECT title FROM movie SKYLINE OF year MIN, qual MAX");
    assert!(got.contains(&"The Godfather".to_string()), "{got:?}");
    assert!(!got.contains(&"The Room".to_string()));
}

#[test]
fn in_list_and_not_in_list() {
    let mut db = movie_db();
    let got =
        column_strings(&mut db, "SELECT title FROM movie WHERE director IN ('Wiseau', 'Nolan')");
    assert_eq!(got, vec!["Batman Begins", "The Room"]);
    let got = column_strings(
        &mut db,
        "SELECT DISTINCT director FROM movie WHERE director NOT IN ('Wiseau')",
    );
    assert_eq!(got.len(), 6);
}

#[test]
fn wildcard_projection_and_aliases() {
    let mut db = movie_db();
    let r = db.execute("SELECT * FROM movie LIMIT 1").unwrap();
    assert_eq!(r.columns, vec!["title", "year", "director", "pop", "qual", "num"]);
    let r = db.execute("SELECT pop AS popularity, qual quality FROM movie LIMIT 1").unwrap();
    assert_eq!(r.columns, vec!["popularity", "quality"]);
}

#[test]
fn error_paths() {
    let mut db = movie_db();
    assert!(matches!(db.execute("SELECT nope FROM movie"), Err(SqlError::UnknownColumn(_))));
    assert!(matches!(db.execute("SELECT * FROM nope"), Err(SqlError::UnknownTable(_))));
    assert!(matches!(db.execute("CREATE TABLE movie (a INT)"), Err(SqlError::TableExists(_))));
    assert!(matches!(
        db.execute("SELECT a FROM movie X, movie X"),
        Err(SqlError::Parse(_) | SqlError::UnknownColumn(_))
    ));
    assert!(db.execute("SELECT pop + title FROM movie").is_err());
}

#[test]
fn drop_table() {
    let mut db = movie_db();
    db.execute("DROP TABLE movie").unwrap();
    assert!(db.execute("SELECT * FROM movie").is_err());
}

#[test]
fn null_semantics() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, NULL), (2, 5), (NULL, NULL)").unwrap();
    // NULL comparisons are unknown, so they never satisfy WHERE.
    let r = db.execute("SELECT a FROM t WHERE b > 0").unwrap();
    assert_eq!(r.rows.len(), 1);
    // Aggregates skip NULLs; COUNT(*) does not.
    let r = db.execute("SELECT count(*), count(b), sum(b), avg(a) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(3));
    assert_eq!(r.rows[0][1], Value::Int(1));
    assert_eq!(r.rows[0][2], Value::Float(5.0));
    assert_eq!(r.rows[0][3], Value::Float(1.5));
}

#[test]
fn group_by_expression_key() {
    let mut db = movie_db();
    // Group by decade.
    let r =
        db.execute("SELECT count(*) FROM movie GROUP BY year / 10 ORDER BY count(*) DESC").unwrap();
    let total: i64 = r
        .rows
        .iter()
        .map(|row| match row[0] {
            Value::Int(i) => i,
            _ => 0,
        })
        .sum();
    assert_eq!(total, 10);
}

#[test]
fn programmatic_bulk_load_matches_sql_insert() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a FLOAT, b FLOAT)").unwrap();
    db.insert_rows(
        "t",
        vec![vec![Value::Int(1), Value::Float(2.0)], vec![Value::Float(3.0), Value::Float(4.0)]],
    )
    .unwrap();
    assert_eq!(db.table_len("t").unwrap(), 2);
    let r = db.execute("SELECT a FROM t ORDER BY a").unwrap();
    assert_eq!(r.rows[0][0], Value::Float(1.0), "ints coerce into float columns");
}

#[test]
fn result_table_rendering() {
    let mut db = movie_db();
    let r = db.execute("SELECT title, qual FROM movie ORDER BY qual DESC LIMIT 2").unwrap();
    let table = r.to_table();
    assert!(table.contains("The Godfather"));
    assert!(table.contains("| title"));
}

#[test]
fn aggregate_skyline_on_three_dims() {
    let mut db = Database::new();
    db.execute("CREATE TABLE s (g TEXT, x FLOAT, y FLOAT, z FLOAT)").unwrap();
    db.execute(
        "INSERT INTO s VALUES \
         ('a', 10, 10, 10), ('a', 9, 9, 9), \
         ('b', 1, 1, 1), ('b', 2, 2, 2), \
         ('c', 1, 12, 1)",
    )
    .unwrap();
    let mut got: Vec<String> = db
        .execute("SELECT g FROM s GROUP BY g SKYLINE OF x MAX, y MAX, z MAX")
        .unwrap()
        .rows
        .into_iter()
        .map(|r| r[0].to_string())
        .collect();
    got.sort();
    assert_eq!(got, vec!["a", "c"]);
}

#[test]
fn between_inclusive_and_negated() {
    let mut db = movie_db();
    let got = column_strings(&mut db, "SELECT title FROM movie WHERE year BETWEEN 1991 AND 1994");
    assert_eq!(got, vec!["Dracula", "Pulp Fiction", "Terminator (II)"]);
    let r = db.execute("SELECT count(*) FROM movie WHERE year NOT BETWEEN 1991 AND 1994").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(7));
}

#[test]
fn like_wildcards() {
    let mut db = movie_db();
    let got = column_strings(&mut db, "SELECT title FROM movie WHERE title LIKE 'The %'");
    assert_eq!(got, vec!["The Godfather", "The Lord of the Rings", "The Room"]);
    let got = column_strings(&mut db, "SELECT title FROM movie WHERE title LIKE '%Bill'");
    assert_eq!(got, vec!["Kill Bill"]);
    let got = column_strings(&mut db, "SELECT title FROM movie WHERE title LIKE 'A_atar'");
    assert_eq!(got, vec!["Avatar"]);
    let got = column_strings(
        &mut db,
        "SELECT DISTINCT director FROM movie WHERE director NOT LIKE '%a%'",
    );
    assert_eq!(got, vec!["Kershner"]);
}

#[test]
fn delete_with_and_without_predicate() {
    let mut db = movie_db();
    let r = db.execute("DELETE FROM movie WHERE director = 'Wiseau'").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    assert_eq!(db.table_len("movie").unwrap(), 9);
    // Deleting Wiseau does not change the aggregate skyline (he was
    // dominated anyway) -- stability in action.
    let got = column_strings(
        &mut db,
        "SELECT director FROM movie GROUP BY director SKYLINE OF pop MAX, qual MAX",
    );
    assert_eq!(got, vec!["Coppola", "Jackson", "Kershner", "Tarantino"]);
    let r = db.execute("DELETE FROM movie").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(9));
    assert_eq!(db.table_len("movie").unwrap(), 0);
}

#[test]
fn update_rows_and_skyline_shift() {
    let mut db = movie_db();
    // A re-release makes The Room wildly popular and acclaimed.
    let r = db.execute("UPDATE movie SET pop = 600, qual = 9.5 WHERE title = 'The Room'").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    let got = column_strings(
        &mut db,
        "SELECT director FROM movie GROUP BY director SKYLINE OF pop MAX, qual MAX",
    );
    assert!(got.contains(&"Wiseau".to_string()), "{got:?}");
}

#[test]
fn update_rhs_sees_pre_update_row() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    db.execute("UPDATE t SET a = b, b = a").unwrap();
    let r = db.execute("SELECT a, b FROM t").unwrap();
    assert_eq!(r.rows[0], vec![Value::Int(10), Value::Int(1)], "swap semantics");
}

#[test]
fn update_coerces_into_float_columns() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a FLOAT)").unwrap();
    db.execute("INSERT INTO t VALUES (1.5)").unwrap();
    db.execute("UPDATE t SET a = 2").unwrap();
    let r = db.execute("SELECT a FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Float(2.0));
}

#[test]
fn update_unknown_column_errors() {
    let mut db = movie_db();
    assert!(matches!(db.execute("UPDATE movie SET nope = 1"), Err(SqlError::UnknownColumn(_))));
}

#[test]
fn like_null_and_type_errors() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (s TEXT, n INT)").unwrap();
    db.execute("INSERT INTO t VALUES ('abc', 1), (NULL, 2)").unwrap();
    // NULL LIKE anything is unknown -> filtered out.
    let r = db.execute("SELECT n FROM t WHERE s LIKE '%b%'").unwrap();
    assert_eq!(r.rows.len(), 1);
    // LIKE on a number is a type error.
    assert!(db.execute("SELECT n FROM t WHERE n LIKE '1'").is_err());
}

#[test]
fn scalar_functions() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (s TEXT, x FLOAT)").unwrap();
    db.execute("INSERT INTO t VALUES ('Hello', -2.75), (NULL, 4.0)").unwrap();
    let r = db
        .execute(
            "SELECT abs(x), round(x), round(x, 1), floor(x), ceil(x), sqrt(x * x) \
             FROM t WHERE s = 'Hello'",
        )
        .unwrap();
    let row = &r.rows[0];
    assert_eq!(row[0], Value::Float(2.75));
    assert_eq!(row[1], Value::Float(-3.0));
    assert_eq!(row[2], Value::Float(-2.8));
    assert_eq!(row[3], Value::Float(-3.0));
    assert_eq!(row[4], Value::Float(-2.0));
    assert_eq!(row[5], Value::Float(2.75));
    let r = db.execute("SELECT lower(s), upper(s), length(s) FROM t WHERE x < 0").unwrap();
    assert_eq!(r.rows[0][0], Value::Str("hello".into()));
    assert_eq!(r.rows[0][1], Value::Str("HELLO".into()));
    assert_eq!(r.rows[0][2], Value::Int(5));
    // NULL propagation and negative sqrt.
    let r = db.execute("SELECT upper(s), sqrt(0 - x) FROM t WHERE x = 4.0").unwrap();
    assert_eq!(r.rows[0][0], Value::Null);
    assert_eq!(r.rows[0][1], Value::Null);
    // Scalars compose with aggregates and grouping.
    let r = db.execute("SELECT round(avg(abs(x)), 2) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Float(3.38)); // (2.75 + 4)/2 = 3.375 -> 3.38
                                                  // Arity errors are parse-time.
    assert!(db.execute("SELECT abs(x, 1) FROM t").is_err());
    assert!(db.execute("SELECT nosuchfn(x) FROM t").is_err());
}

#[test]
fn scalar_in_where_group_and_order() {
    let mut db = movie_db();
    let got = column_strings(
        &mut db,
        "SELECT DISTINCT director FROM movie WHERE lower(director) LIKE 'c%'",
    );
    assert_eq!(got, vec!["Cameron", "Coppola"]);
    let r = db
        .execute(
            "SELECT length(director), count(*) FROM movie \
             GROUP BY length(director) ORDER BY length(director)",
        )
        .unwrap();
    // Nolan/Wiseau = 5/6, Cameron/Coppola/Jackson/Kershner = 7/8, Tarantino = 9.
    assert_eq!(r.rows.len(), 5);
    assert_eq!(r.rows[0][0], Value::Int(5));
}

#[test]
fn pushdown_preserves_results_on_joins() {
    let mut db = movie_db();
    // Single-table conjuncts on both sides of a self-join plus a residual
    // cross-table predicate: must match the unpushable all-residual form.
    let a = db
        .execute(
            "SELECT count(*) FROM movie X, movie Y \
             WHERE X.year >= 2000 AND Y.qual > 8.5 AND X.pop < Y.pop",
        )
        .unwrap();
    // Same predicate expressed so nothing obviously splits (OR blocks
    // conjunct splitting).
    let b = db
        .execute(
            "SELECT count(*) FROM movie X, movie Y \
             WHERE (X.year >= 2000 AND Y.qual > 8.5 AND X.pop < Y.pop) OR (1 = 0)",
        )
        .unwrap();
    assert_eq!(a.rows, b.rows);
}

#[test]
fn constant_false_where_is_empty_fast() {
    let mut db = movie_db();
    let r = db.execute("SELECT title FROM movie WHERE 1 = 2").unwrap();
    assert!(r.rows.is_empty());
    // ... but aggregates still produce their empty-input row.
    let r = db.execute("SELECT count(*) FROM movie WHERE 1 = 2").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(0)]]);
    let r = db.execute("SELECT count(*) FROM movie WHERE 1 = 1 AND year > 2000").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(5)]]);
}

#[test]
fn explain_shows_pushdown() {
    let db = movie_db();
    let plan = db
        .explain(
            "SELECT X.title FROM movie X, movie Y \
             WHERE X.year > 2000 AND X.pop < Y.pop ORDER BY X.title LIMIT 5",
        )
        .unwrap();
    assert!(plan.contains("SCAN movie AS X: filtered scan"), "{plan}");
    assert!(plan.contains("CROSS JOIN movie AS Y: full scan"), "{plan}");
    assert!(plan.contains("JOIN FILTER"), "{plan}");
    assert!(plan.contains("SORT"), "{plan}");
    assert!(plan.contains("LIMIT 5"), "{plan}");
    let plan = db
        .explain("SELECT director FROM movie GROUP BY director SKYLINE OF pop MAX, qual MAX")
        .unwrap();
    assert!(plan.contains("HASH AGGREGATE"), "{plan}");
    assert!(plan.contains("AGGREGATE SKYLINE: 2 attribute(s)"), "{plan}");
    let plan = db.explain("SELECT * FROM movie WHERE 2 < 1").unwrap();
    assert!(plan.contains("constant-false"), "{plan}");
}

#[test]
fn insert_into_select() {
    let mut db = movie_db();
    db.execute(
        "CREATE TABLE modern (title TEXT, year INT, director TEXT, \
                pop FLOAT, qual FLOAT, num INT)",
    )
    .unwrap();
    let r = db.execute("INSERT INTO modern SELECT * FROM movie WHERE year >= 2000").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(5));
    assert_eq!(db.table_len("modern").unwrap(), 5);
    // The copy behaves like a real table.
    let got = column_strings(&mut db, "SELECT title FROM modern SKYLINE OF pop MAX, qual MAX");
    assert_eq!(got, vec!["The Lord of the Rings"]);
    // Projection-based copy with reordered explicit columns.
    db.execute("CREATE TABLE flat (qual FLOAT, pop FLOAT)").unwrap();
    db.execute("INSERT INTO flat (pop, qual) SELECT pop, qual FROM movie").unwrap();
    let r = db.execute("SELECT max(qual), max(pop) FROM flat").unwrap();
    assert_eq!(r.rows[0][0], Value::Float(9.2));
    assert_eq!(r.rows[0][1], Value::Float(557.0));
    // Arity mismatch errors cleanly.
    assert!(db.execute("INSERT INTO flat SELECT pop FROM movie").is_err());
}

#[test]
fn three_valued_logic() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (NULL), (1)").unwrap();
    // NULL OR TRUE = TRUE: both rows pass.
    let r = db.execute("SELECT count(*) FROM t WHERE a = 1 OR 1 = 1").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2));
    // NULL AND FALSE = FALSE; NOT(FALSE) = TRUE: both rows pass.
    let r = db.execute("SELECT count(*) FROM t WHERE NOT (a = 1 AND 1 = 0)").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2));
    // NULL AND TRUE = NULL: only the non-null row passes.
    let r = db.execute("SELECT count(*) FROM t WHERE a = 1 AND 1 = 1").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
}

#[test]
fn like_pathological_patterns_terminate_fast() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (s TEXT)").unwrap();
    let long = "a".repeat(2000);
    db.insert_rows("t", vec![vec![Value::Str(long)]]).unwrap();
    let start = std::time::Instant::now();
    let r = db.execute("SELECT count(*) FROM t WHERE s LIKE '%%%%%%%%%%%%%%%%%%%%z'").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(0));
    assert!(start.elapsed().as_secs_f64() < 1.0, "LIKE blew up");
    // Matching interleaved stars still work.
    let r = db.execute("SELECT count(*) FROM t WHERE s LIKE '%a%a%a%'").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    let r = db.execute("SELECT count(*) FROM t WHERE s LIKE 'a%'").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    let r = db.execute("SELECT count(*) FROM t WHERE s LIKE '_%b'").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(0));
}

#[test]
fn unicode_string_literals_survive() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (s TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES ('héllo wörld 💫')").unwrap();
    let r = db.execute("SELECT s, length(s) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Str("héllo wörld 💫".into()));
    assert_eq!(r.rows[0][1], Value::Int(13), "char count, not bytes");
    let r = db.execute("SELECT count(*) FROM t WHERE s = 'héllo wörld 💫'").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
}

#[test]
fn inner_join_on_desugars_to_filtered_cross_product() {
    let mut db = Database::new();
    db.execute("CREATE TABLE d (name TEXT, country TEXT)").unwrap();
    db.execute("CREATE TABLE m (director TEXT, pop FLOAT)").unwrap();
    db.execute("INSERT INTO d VALUES ('Tarantino', 'US'), ('Kershner', 'US'), ('Wiseau', 'US')")
        .unwrap();
    db.execute("INSERT INTO m VALUES ('Tarantino', 557), ('Tarantino', 313), ('Kershner', 362)")
        .unwrap();
    let r = db
        .execute(
            "SELECT d.name, count(*) FROM d JOIN m ON d.name = m.director \
             GROUP BY d.name ORDER BY d.name",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2, "Wiseau has no movies -> no join rows");
    assert_eq!(r.rows[0][0].to_string(), "Kershner");
    assert_eq!(r.rows[1][1], Value::Int(2));
    // INNER JOIN spelling and a WHERE mixed in.
    let r = db
        .execute("SELECT count(*) FROM d INNER JOIN m ON d.name = m.director WHERE m.pop > 350")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2));
    // JOIN without ON is a parse error.
    assert!(db.execute("SELECT count(*) FROM d JOIN m").is_err());
}

#[test]
fn min_max_work_on_strings() {
    let mut db = movie_db();
    let r = db.execute("SELECT min(title), max(title) FROM movie").unwrap();
    assert_eq!(r.rows[0][0], Value::Str("Avatar".into()));
    assert_eq!(r.rows[0][1], Value::Str("The Room".into()));
    // SUM/AVG on strings stay errors.
    assert!(db.execute("SELECT sum(title) FROM movie").is_err());
    assert!(db.execute("SELECT avg(title) FROM movie").is_err());
}

#[test]
fn order_by_aggregate_in_grouped_query() {
    let mut db = movie_db();
    let r = db
        .execute(
            "SELECT director, count(*) FROM movie GROUP BY director \
             ORDER BY count(*) DESC, director ASC LIMIT 3",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0][1], Value::Int(2));
    // Ties among the three 2-movie directors break alphabetically.
    assert_eq!(r.rows[0][0].to_string(), "Cameron");
    assert_eq!(r.rows[1][0].to_string(), "Coppola");
}

#[test]
fn in_subquery_must_be_single_column() {
    let mut db = movie_db();
    let err = db
        .execute("SELECT title FROM movie WHERE director IN (SELECT director, pop FROM movie)")
        .unwrap_err();
    assert!(matches!(err, SqlError::Eval(_)), "{err:?}");
}

#[test]
fn explain_covers_dml_and_skyline_record_form() {
    let db = movie_db();
    let plan = db.explain("DELETE FROM movie WHERE pop < 100").unwrap();
    assert!(plan.contains("DELETE FROM movie"), "{plan}");
    let plan = db.explain("SELECT title FROM movie SKYLINE OF pop MAX, qual MAX").unwrap();
    assert!(plan.contains("RECORD SKYLINE: 2 attribute(s)"), "{plan}");
}

#[test]
fn group_by_having_without_matching_groups_is_empty() {
    let mut db = movie_db();
    let r =
        db.execute("SELECT director FROM movie GROUP BY director HAVING count(*) > 99").unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn limit_zero_and_huge() {
    let mut db = movie_db();
    assert!(db.execute("SELECT title FROM movie LIMIT 0").unwrap().rows.is_empty());
    assert_eq!(db.execute("SELECT title FROM movie LIMIT 9999").unwrap().rows.len(), 10);
}

#[test]
fn division_semantics_in_queries() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    db.execute("INSERT INTO t VALUES (7, 2), (5, 0)").unwrap();
    let r = db.execute("SELECT a / b FROM t ORDER BY a").unwrap();
    assert_eq!(r.rows[0][0], Value::Null, "division by zero is NULL");
    assert_eq!(r.rows[1][0], Value::Float(3.5), "integer division is exact");
}

/// `ORDER BY k` sorts by the k-th output column (1-based), as in SQLite,
/// and a k outside the output columns is a typed error.
#[test]
fn order_by_integer_names_an_output_column() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (2, 'x'), (1, 'y'), (3, 'z')").unwrap();
    let firsts = |db: &mut Database, sql: &str| -> Vec<Value> {
        db.execute(sql).unwrap().rows.into_iter().map(|r| r[0].clone()).collect()
    };
    let ints = |v: &[i64]| v.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>();
    assert_eq!(firsts(&mut db, "SELECT a, b FROM t ORDER BY 1"), ints(&[1, 2, 3]));
    assert_eq!(firsts(&mut db, "SELECT a, b FROM t ORDER BY 2 DESC"), ints(&[3, 1, 2]));
    assert_eq!(firsts(&mut db, "SELECT b, a FROM t ORDER BY 2 DESC"), {
        ["z", "x", "y"].iter().map(|s| Value::Str(s.to_string())).collect::<Vec<_>>()
    });
    assert_eq!(firsts(&mut db, "SELECT * FROM t ORDER BY 1 DESC"), ints(&[3, 2, 1]));
    // An aliased or computed column sorts by its value.
    assert_eq!(firsts(&mut db, "SELECT -a AS n FROM t ORDER BY 1"), ints(&[-3, -2, -1]));
    for bad in ["SELECT a, b FROM t ORDER BY 3", "SELECT a FROM t ORDER BY 0"] {
        match db.execute(bad) {
            Err(SqlError::UnknownColumn(m)) => assert!(m.contains("ORDER BY"), "{bad}: {m}"),
            other => panic!("{bad}: expected UnknownColumn, got {other:?}"),
        }
    }
}

/// Positional ORDER BY on grouped and `SKYLINE OF` statements: the k-th
/// output column may be an aggregate.
#[test]
fn order_by_integer_on_grouped_and_skyline_statements() {
    let mut db = movie_db();
    let r = db
        .execute("SELECT director, count(*) FROM movie GROUP BY director ORDER BY 2 DESC, 1")
        .unwrap();
    let got: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    assert_eq!(got, ["Cameron", "Coppola", "Tarantino", "Jackson", "Kershner", "Nolan", "Wiseau"]);
    let r = db
        .execute(
            "SELECT director, max(pop) FROM movie GROUP BY director \
             SKYLINE OF pop MAX, qual MAX ORDER BY 2 DESC",
        )
        .unwrap();
    let got: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    assert_eq!(got, ["Tarantino", "Coppola", "Jackson", "Kershner"]);
    let r = db
        .execute(
            "SELECT director FROM movie GROUP BY director SKYLINE OF pop MAX, qual MAX \
             ORDER BY 1 DESC",
        )
        .unwrap();
    let got: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    assert_eq!(got, ["Tarantino", "Kershner", "Jackson", "Coppola"]);
    assert!(matches!(
        db.execute("SELECT director FROM movie GROUP BY director ORDER BY 2"),
        Err(SqlError::UnknownColumn(_))
    ));
}

/// `1e16 + 1 == 1e16`: A's record dominates two of B's three at an equal
/// rounded sum, so p(A ≻ B) = 2/3 and B is out at γ 0.5, as the naive
/// oracle says.
#[test]
fn aggregate_skyline_sees_dominance_at_equal_rounded_sums() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (g TEXT, x FLOAT, y FLOAT)").unwrap();
    db.execute(
        "INSERT INTO t VALUES ('A', 10000000000000000.0, 1.0), \
         ('B', 10000000000000000.0, 0.0), ('B', 10000000000000000.0, 0.0), ('B', 0.0, 5.0)",
    )
    .unwrap();
    let got =
        column_strings(&mut db, "SELECT g FROM t GROUP BY g SKYLINE OF x MAX, y MAX GAMMA 0.5");
    assert_eq!(got, vec!["A"]);
}
