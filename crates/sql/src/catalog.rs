//! Tables and the catalog.

use crate::ast::ColumnType;
use crate::error::{Result, SqlError};
use crate::value::Value;
use std::collections::HashMap;

/// A column definition.
#[derive(Debug, Clone)]
pub struct Column {
    /// Column name (case preserved; lookups are case-insensitive).
    pub name: String,
    /// Declared type (advisory: storage is dynamically typed, the declared
    /// type is used to coerce inserted integers into float columns).
    pub ty: ColumnType,
}

/// An in-memory, row-oriented table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Column definitions.
    pub columns: Vec<Column>,
    /// Row storage.
    pub rows: Vec<Vec<Value>>,
}

impl Table {
    /// Index of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Validates and appends one row (coercing ints into float columns).
    pub fn push_row(&mut self, mut row: Vec<Value>) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(SqlError::Eval(format!(
                "table {} expects {} values, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        for (v, c) in row.iter_mut().zip(self.columns.iter()) {
            if c.ty == ColumnType::Float {
                if let Value::Int(i) = v {
                    *v = Value::Float(*i as f64);
                }
            }
        }
        self.rows.push(row);
        Ok(())
    }
}

/// The set of tables known to a [`crate::Database`].
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, Table>,
    /// Bumped by every call that can change a table: [`Catalog::create`],
    /// [`Catalog::get_mut`] and [`Catalog::drop`], whether or not it
    /// succeeds. Two reads at one version see the same tables and rows.
    version: u64,
}

impl Catalog {
    /// The catalog version: equal versions mean no table was created,
    /// dropped or handed out for writing in between.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Creates a table; errors if the name is taken.
    pub fn create(&mut self, name: &str, columns: Vec<Column>) -> Result<()> {
        self.version += 1;
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(SqlError::TableExists(name.to_string()));
        }
        self.tables.insert(key, Table { name: name.to_string(), columns, rows: Vec::new() });
        Ok(())
    }

    /// Looks up a table by case-insensitive name.
    pub fn get(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.version += 1;
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// Drops a table.
    pub fn drop(&mut self, name: &str) -> Result<()> {
        self.version += 1;
        self.tables
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.values().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_get_drop() {
        let mut c = Catalog::default();
        c.create("T", vec![Column { name: "a".into(), ty: ColumnType::Int }]).unwrap();
        assert!(c.get("t").is_ok(), "lookup is case-insensitive");
        assert!(matches!(c.create("t", vec![]), Err(SqlError::TableExists(_))));
        c.drop("T").unwrap();
        assert!(c.get("t").is_err());
    }

    #[test]
    fn every_write_access_bumps_the_version() {
        let mut c = Catalog::default();
        let v0 = c.version();
        c.create("t", vec![Column { name: "a".into(), ty: ColumnType::Int }]).unwrap();
        let v1 = c.version();
        assert!(v1 > v0, "create bumps");
        c.get("t").unwrap();
        c.table_names();
        assert_eq!(c.version(), v1, "reads leave the version alone");
        c.get_mut("t").unwrap();
        let v2 = c.version();
        assert!(v2 > v1, "get_mut bumps");
        assert!(c.get_mut("nope").is_err());
        let v3 = c.version();
        assert!(v3 > v2, "a failed get_mut bumps too");
        c.drop("t").unwrap();
        assert!(c.version() > v3, "drop bumps");
    }

    #[test]
    fn push_row_coerces_and_validates() {
        let mut t = Table {
            name: "t".into(),
            columns: vec![
                Column { name: "a".into(), ty: ColumnType::Float },
                Column { name: "b".into(), ty: ColumnType::Text },
            ],
            rows: vec![],
        };
        t.push_row(vec![Value::Int(1), Value::Str("x".into())]).unwrap();
        assert_eq!(t.rows[0][0], Value::Float(1.0));
        assert!(t.push_row(vec![Value::Int(1)]).is_err());
    }
}
