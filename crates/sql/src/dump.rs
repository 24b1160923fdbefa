//! Database dump and restore as portable SQL text (the engine's
//! persistence story, in the spirit of `sqlite3 .dump`).

use crate::ast::ColumnType;
use crate::engine::Database;
use crate::error::Result;
use crate::value::Value;
use std::fmt::Write as _;

impl Database {
    /// Serializes every table as `CREATE TABLE` + batched `INSERT`
    /// statements. Restoring the dump into an empty database reproduces the
    /// exact same contents (see [`Database::restore`]).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for name in self.table_names() {
            // Catalog names always resolve; skipping a phantom entry
            // beats panicking mid-dump.
            let Ok(table) = self.table(name) else { continue };
            // Writing into a String is infallible.
            let _ = write!(out, "CREATE TABLE {} (", table.name);
            for (i, c) in table.columns.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let ty = match c.ty {
                    ColumnType::Int => "INT",
                    ColumnType::Float => "FLOAT",
                    ColumnType::Text => "TEXT",
                };
                let _ = write!(out, "{} {}", c.name, ty);
            }
            out.push_str(");\n");
            // Batch inserts to keep the dump compact and the restore fast.
            let mut row = vec![Value::Null; table.columns.len()];
            for start in (0..table.len()).step_by(256) {
                let _ = write!(out, "INSERT INTO {} VALUES ", table.name);
                for id in start..table.len().min(start + 256) {
                    if id > start {
                        out.push_str(", ");
                    }
                    table.read_row(id, &mut row);
                    out.push('(');
                    for (j, v) in row.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&render_literal(v));
                    }
                    out.push(')');
                }
                out.push_str(";\n");
            }
        }
        out
    }

    /// Executes a dump produced by [`Database::dump`] (or any
    /// semicolon-separated SQL script) against this database.
    pub fn restore(&mut self, dump: &str) -> Result<()> {
        for stmt in split_script(dump) {
            self.execute(&stmt)?;
        }
        Ok(())
    }
}

/// Renders a value as a SQL literal that parses back to the same value.
fn render_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        // `-9223372036854775808` lexes as a minus and an integer one past
        // i64::MAX, so the minimum is written as an expression.
        Value::Int(i64::MIN) => format!("({} - 1)", i64::MIN + 1),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => {
            if f.is_finite() {
                // `{:?}` prints enough digits to round-trip f64 exactly and
                // always includes a decimal point or exponent.
                format!("{f:?}")
            } else if f.is_nan() {
                // No NaN literal in the dialect, but INSERT evaluates
                // expressions and inf - inf restores a NaN.
                "(1e999 - 1e999)".to_string()
            } else if aggsky_core::ord::gt(*f, 0.0) {
                "1e999".to_string() // parses as +inf
            } else {
                "-1e999".to_string()
            }
        }
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

/// Splits a SQL script on semicolons, ignoring semicolons inside
/// single-quoted strings. Shared by [`Database::restore`] and the CLI.
pub fn split_script(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in text.chars() {
        match c {
            '\'' => {
                in_str = !in_str;
                cur.push(c);
            }
            ';' if !in_str => {
                if !cur.trim().is_empty() {
                    out.push(cur.trim().to_string());
                }
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE movie (title TEXT, pop FLOAT, n INT)").unwrap();
        db.execute(
            "INSERT INTO movie VALUES ('Pulp Fiction', 557.5, 1), \
             ('O''Brother', 0.125, NULL), (NULL, -3.0, 42)",
        )
        .unwrap();
        db.execute("CREATE TABLE empty_table (a INT)").unwrap();
        db
    }

    #[test]
    fn dump_restore_round_trip() {
        let db = sample_db();
        let dump = db.dump();
        let mut restored = Database::new();
        restored.restore(&dump).unwrap();
        assert_eq!(restored.table_names(), db.table_names());
        for name in db.table_names() {
            let a = db.table(name).unwrap();
            let b = restored.table(name).unwrap();
            assert_eq!(a.rows(), b.rows(), "table {name}");
            assert_eq!(a.columns.len(), b.columns.len());
        }
    }

    #[test]
    fn dump_quotes_strings_and_preserves_floats() {
        let db = sample_db();
        let dump = db.dump();
        assert!(dump.contains("'O''Brother'"), "{dump}");
        assert!(dump.contains("0.125"), "{dump}");
        assert!(dump.contains("NULL"), "{dump}");
    }

    #[test]
    fn float_round_trip_is_exact() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (x FLOAT)").unwrap();
        let tricky = [0.1, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE, -0.0];
        for v in tricky {
            db.insert_rows("t", vec![vec![Value::Float(v)]]).unwrap();
        }
        let mut restored = Database::new();
        restored.restore(&db.dump()).unwrap();
        let a = &db.table("t").unwrap().rows();
        let b = &restored.table("t").unwrap().rows();
        for (x, y) in a.iter().zip(b.iter()) {
            let (Value::Float(x), Value::Float(y)) = (&x[0], &y[0]) else { panic!() };
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn infinities_and_nan_round_trip() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (x FLOAT)").unwrap();
        db.insert_rows(
            "t",
            vec![
                vec![Value::Float(f64::INFINITY)],
                vec![Value::Float(f64::NEG_INFINITY)],
                vec![Value::Float(f64::NAN)],
            ],
        )
        .unwrap();
        let mut restored = Database::new();
        restored.restore(&db.dump()).unwrap();
        let rows = &restored.table("t").unwrap().rows();
        let get = |i: usize| match rows[i][0] {
            Value::Float(f) => f,
            _ => panic!(),
        };
        assert_eq!(get(0), f64::INFINITY);
        assert_eq!(get(1), f64::NEG_INFINITY);
        assert!(get(2).is_nan(), "NaN restored as {}", get(2));
    }

    #[test]
    fn integer_extremes_round_trip() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.insert_rows("t", vec![vec![Value::Int(i64::MAX)], vec![Value::Int(i64::MIN)]]).unwrap();
        let mut restored = Database::new();
        restored.restore(&db.dump()).unwrap();
        assert_eq!(restored.table("t").unwrap().rows(), db.table("t").unwrap().rows());
    }

    #[test]
    fn large_batch_dump_round_trips() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT, b FLOAT)").unwrap();
        let rows: Vec<Vec<Value>> =
            (0..1000).map(|i| vec![Value::Int(i), Value::Float(i as f64 * 0.5)]).collect();
        db.insert_rows("t", rows).unwrap();
        let mut restored = Database::new();
        restored.restore(&db.dump()).unwrap();
        assert_eq!(restored.table_len("t").unwrap(), 1000);
        let r = restored.execute("SELECT sum(a) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Float(499_500.0));
    }
}
