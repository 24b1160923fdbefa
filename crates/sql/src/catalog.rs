//! Tables and the catalog.
//!
//! A table stores each declared column as one typed vector: INT as `i64`s,
//! FLOAT as `f64`s and TEXT as `u32` codes into a dictionary of the
//! column's distinct strings. SQL stays dynamically typed: the first value
//! a typed vector cannot hold (a NULL, or a value of another type, such as
//! an integer in a TEXT column) turns that column into a column of
//! [`Value`]s for the rest of its life. Which form a column has never
//! changes what a query returns; it changes how fast the grouped scan in
//! [`crate::exec`] can read it (DESIGN.md §20).

use crate::ast::ColumnType;
use crate::error::{Result, SqlError};
use crate::value::{Key, Value};
use std::borrow::Cow;
use std::collections::HashMap;

/// A column definition.
#[derive(Debug, Clone)]
pub struct Column {
    /// Column name (case preserved; lookups are case-insensitive).
    pub name: String,
    /// Declared type. It picks the column's typed vector, and integers
    /// stored into a FLOAT column become floats; storage stays dynamically
    /// typed.
    pub ty: ColumnType,
}

/// The cells of one column, in one of its forms.
#[derive(Debug, Clone)]
pub(crate) enum Cells {
    /// An INT column holding only integers.
    Int(Vec<i64>),
    /// A FLOAT column holding only numbers (integers stored as floats).
    Float(Vec<f64>),
    /// A TEXT column holding only strings.
    Text(TextCells),
    /// Any column once a value its typed vector cannot hold was stored.
    Value(Vec<Value>),
}

/// A dictionary-coded string column.
#[derive(Debug, Clone, Default)]
pub(crate) struct TextCells {
    /// One code per row.
    pub(crate) codes: Vec<u32>,
    /// The string of each code. A string stays in the dictionary after
    /// its last row is deleted or overwritten.
    pub(crate) dict: Vec<String>,
    index: HashMap<String, u32>,
}

impl TextCells {
    /// The string of a code.
    pub(crate) fn text(&self, code: u32) -> Option<&str> {
        self.dict.get(usize::try_from(code).ok()?).map(String::as_str)
    }

    /// The code of a string, added to the dictionary if new; `None` once
    /// codes run out.
    fn code(&mut self, s: &str) -> Option<u32> {
        if let Some(&code) = self.index.get(s) {
            return Some(code);
        }
        let code = u32::try_from(self.dict.len()).ok()?;
        self.dict.push(s.to_string());
        self.index.insert(s.to_string(), code);
        Some(code)
    }
}

impl Cells {
    fn new(ty: ColumnType) -> Cells {
        match ty {
            ColumnType::Int => Cells::Int(Vec::new()),
            ColumnType::Float => Cells::Float(Vec::new()),
            ColumnType::Text => Cells::Text(TextCells::default()),
        }
    }

    fn len(&self) -> usize {
        match self {
            Cells::Int(v) => v.len(),
            Cells::Float(v) => v.len(),
            Cells::Text(t) => t.codes.len(),
            Cells::Value(v) => v.len(),
        }
    }

    /// The value of row `i`.
    pub(crate) fn get(&self, i: usize) -> Option<Value> {
        match self {
            Cells::Int(v) => v.get(i).map(|&x| Value::Int(x)),
            Cells::Float(v) => v.get(i).map(|&x| Value::Float(x)),
            Cells::Text(t) => t.text(*t.codes.get(i)?).map(Value::from),
            Cells::Value(v) => v.get(i).cloned(),
        }
    }

    /// The grouping key of row `i`, borrowing its string (NULL past the
    /// end).
    pub(crate) fn key(&self, i: usize) -> Key<'_> {
        match self {
            Cells::Int(v) => v.get(i).map_or(Key::Null, |&x| Key::Int(x)),
            Cells::Float(v) => v.get(i).map_or(Key::Null, |&x| Key::of_f64(x)),
            Cells::Text(t) => t
                .codes
                .get(i)
                .and_then(|&c| t.text(c))
                .map_or(Key::Null, |s| Key::Str(Cow::Borrowed(s))),
            Cells::Value(v) => v.get(i).map_or(Key::Null, Key::of),
        }
    }

    /// Reads row `i` into `slot`, reusing a string's buffer. Leaves the
    /// slot alone past the end.
    pub(crate) fn read(&self, i: usize, slot: &mut Value) {
        match self {
            Cells::Int(v) => {
                if let Some(&x) = v.get(i) {
                    *slot = Value::Int(x);
                }
            }
            Cells::Float(v) => {
                if let Some(&x) = v.get(i) {
                    *slot = Value::Float(x);
                }
            }
            Cells::Text(t) => {
                if let Some(s) = t.codes.get(i).and_then(|&c| t.text(c)) {
                    match slot {
                        Value::Str(buf) => {
                            buf.clear();
                            buf.push_str(s);
                        }
                        other => *other = Value::from(s),
                    }
                }
            }
            Cells::Value(v) => {
                if let Some(x) = v.get(i) {
                    slot.clone_from(x);
                }
            }
        }
    }

    /// Stores `v` in the typed vector when it fits; `Err` hands it back.
    fn try_push(&mut self, v: Value) -> std::result::Result<(), Value> {
        match (self, v) {
            (Cells::Int(c), Value::Int(x)) => c.push(x),
            (Cells::Float(c), Value::Float(x)) => c.push(x),
            (Cells::Text(t), Value::Str(s)) => match t.code(&s) {
                Some(code) => t.codes.push(code),
                None => return Err(Value::Str(s)),
            },
            (Cells::Value(c), v) => c.push(v),
            (_, v) => return Err(v),
        }
        Ok(())
    }

    /// Appends one value, turning the column into its `Value` form first
    /// when the typed vector cannot hold it.
    fn push(&mut self, v: Value) {
        if let Err(v) = self.try_push(v) {
            self.values_mut().push(v);
        }
    }

    /// Overwrites row `i`, turning the column into its `Value` form first
    /// when the typed vector cannot hold `v`.
    fn set(&mut self, i: usize, v: Value) {
        let stored = match (&mut *self, &v) {
            (Cells::Int(c), Value::Int(x)) => c.get_mut(i).map(|slot| *slot = *x),
            (Cells::Float(c), Value::Float(x)) => c.get_mut(i).map(|slot| *slot = *x),
            (Cells::Text(t), Value::Str(s)) => {
                t.code(s).and_then(|code| t.codes.get_mut(i).map(|slot| *slot = code))
            }
            _ => None,
        };
        if stored.is_none() {
            if let Some(slot) = self.values_mut().get_mut(i) {
                *slot = v;
            }
        }
    }

    /// The column's values, after turning it into its `Value` form for
    /// good.
    fn values_mut(&mut self) -> &mut Vec<Value> {
        if !matches!(self, Cells::Value(_)) {
            *self = Cells::Value((0..self.len()).filter_map(|i| self.get(i)).collect());
        }
        match self {
            Cells::Value(values) => values,
            _ => unreachable!("the column was just turned into its Value form"),
        }
    }

    fn truncate(&mut self, len: usize) {
        match self {
            Cells::Int(v) => v.truncate(len),
            Cells::Float(v) => v.truncate(len),
            Cells::Text(t) => t.codes.truncate(len),
            Cells::Value(v) => v.truncate(len),
        }
    }

    /// Keeps the rows whose flag is set.
    fn retain(&mut self, keep: &[bool]) {
        fn go<T>(v: &mut Vec<T>, keep: &[bool]) {
            let mut flags = keep.iter();
            v.retain(|_| flags.next().copied().unwrap_or(true));
        }
        match self {
            Cells::Int(v) => go(v, keep),
            Cells::Float(v) => go(v, keep),
            Cells::Text(t) => go(&mut t.codes, keep),
            Cells::Value(v) => go(v, keep),
        }
    }

    /// Reorders the rows: row `i` becomes the old row `order[i]`.
    fn permute(&mut self, order: &[usize]) {
        fn go<T: Clone>(v: &mut Vec<T>, order: &[usize]) {
            *v = order.iter().filter_map(|&i| v.get(i).cloned()).collect();
        }
        match self {
            Cells::Int(v) => go(v, order),
            Cells::Float(v) => go(v, order),
            Cells::Text(t) => go(&mut t.codes, order),
            Cells::Value(v) => go(v, order),
        }
    }
}

/// An in-memory table stored column by column.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Column definitions.
    pub columns: Vec<Column>,
    /// One cell vector per column.
    cells: Vec<Cells>,
    /// Row count (kept apart from the cells so a table without columns has
    /// one too).
    len: usize,
}

impl Table {
    /// An empty table.
    pub fn new(name: &str, columns: Vec<Column>) -> Table {
        let cells = columns.iter().map(|c| Cells::new(c.ty)).collect();
        Table { name: name.to_string(), columns, cells, len: 0 }
    }

    /// Index of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads row `i` into `buf`, one value per column, reusing the
    /// buffer's strings. Returns false, leaving `buf` alone, when there is
    /// no row `i` or `buf` is not one value per column.
    pub fn read_row(&self, i: usize, buf: &mut [Value]) -> bool {
        if i >= self.len || buf.len() != self.cells.len() {
            return false;
        }
        for (cells, slot) in self.cells.iter().zip(buf) {
            cells.read(i, slot);
        }
        true
    }

    /// A copy of row `i`.
    pub fn row(&self, i: usize) -> Option<Vec<Value>> {
        let mut buf = vec![Value::Null; self.cells.len()];
        self.read_row(i, &mut buf).then_some(buf)
    }

    /// A copy of every row, in order.
    pub fn rows(&self) -> Vec<Vec<Value>> {
        (0..self.len).filter_map(|i| self.row(i)).collect()
    }

    /// The cells of column `c`.
    pub(crate) fn cells(&self, c: usize) -> Option<&Cells> {
        self.cells.get(c)
    }

    /// The value stored for `v` in column `c`: integers become floats in a
    /// FLOAT column.
    pub(crate) fn coerce(&self, c: usize, v: Value) -> Value {
        match (self.columns.get(c).map(|col| col.ty), v) {
            (Some(ColumnType::Float), Value::Int(i)) => Value::Float(i as f64),
            (_, v) => v,
        }
    }

    /// Validates and appends one row (coercing ints into float columns).
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(SqlError::Eval(format!(
                "table {} expects {} values, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        for (c, v) in row.into_iter().enumerate() {
            let v = self.coerce(c, v);
            if let Some(cells) = self.cells.get_mut(c) {
                cells.push(v);
            }
        }
        self.len += 1;
        Ok(())
    }

    /// Overwrites column `c` at each of `rows` with the matching value.
    pub(crate) fn update_column(&mut self, c: usize, rows: &[usize], values: Vec<Value>) {
        let values: Vec<Value> = values.into_iter().map(|v| self.coerce(c, v)).collect();
        if let Some(cells) = self.cells.get_mut(c) {
            for (&i, v) in rows.iter().zip(values) {
                cells.set(i, v);
            }
        }
    }

    /// Drops every row from `len` on.
    pub(crate) fn truncate(&mut self, len: usize) {
        for cells in &mut self.cells {
            cells.truncate(len);
        }
        self.len = self.len.min(len);
    }

    /// Keeps the rows whose flag in `keep` is set, in order; rows past the
    /// end of `keep` stay.
    pub(crate) fn retain(&mut self, keep: &[bool]) {
        for cells in &mut self.cells {
            cells.retain(keep);
        }
        let dropped = keep.iter().take(self.len).filter(|&&k| !k).count();
        self.len -= dropped;
    }

    /// Puts rows removed by [`Table::retain`] back at their old positions
    /// (ascending, as `retain`'s caller recorded them).
    pub(crate) fn reinsert(&mut self, positions: &[usize], rows: Vec<Vec<Value>>) -> Result<()> {
        let kept = self.len;
        for row in rows {
            self.push_row(row)?;
        }
        let mut order = Vec::with_capacity(self.len);
        let (mut next_kept, mut next_back) = (0..kept, kept..self.len);
        let mut back_at = positions.iter().peekable();
        for i in 0..self.len {
            let from = if back_at.next_if(|&&p| p == i).is_some() {
                next_back.next()
            } else {
                next_kept.next()
            };
            order.extend(from);
        }
        for cells in &mut self.cells {
            cells.permute(&order);
        }
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
        self.tables.insert(key, Table::new(name, columns));
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
        let mut t = Table::new(
            "t",
            vec![
                Column { name: "a".into(), ty: ColumnType::Float },
                Column { name: "b".into(), ty: ColumnType::Text },
            ],
        );
        t.push_row(vec![Value::Int(1), Value::Str("x".into())]).unwrap();
        assert_eq!(t.rows()[0][0], Value::Float(1.0));
        assert!(t.push_row(vec![Value::Int(1)]).is_err());
    }
}
