//! The `Database` façade: parse + execute statements against a catalog.

use crate::ast::{ColumnType, SelectStmt, Statement};
use crate::catalog::{Catalog, Column};
use crate::error::{Result, SqlError};
use crate::exec::{execute_select, KeptInput, QueryResult};
use crate::parser::parse;
use crate::plan::{eval, RExpr};
use crate::value::Value;
use aggsky_core::service::{Epoch, EpochReceipt, SkylineService, WriteBatch};
use aggsky_core::{Gamma, RunContext};
use aggsky_obs::{query_id, Counter, CounterSink, QueryJournal, QueryRecord, WallClock};
use std::collections::HashMap;
use std::sync::Arc;

/// A live serving binding: writes to the bound table are mirrored into an
/// epoch-published [`SkylineService`], so readers can answer γ-queries
/// against an immutable snapshot while DML keeps flowing.
#[derive(Debug)]
struct ServiceBinding {
    /// Column whose value labels the group (TEXT, or INT rendered as
    /// text).
    group_col: usize,
    /// Measure columns, in skyline-dimension order (all MAX preference).
    measure_cols: Vec<usize>,
    /// The service; `Arc` so [`Database::skyline_service`] can hand out
    /// long-lived reader handles.
    service: Arc<SkylineService>,
}

impl ServiceBinding {
    /// Converts one table row into a `(group label, record)` pair.
    fn row_parts(&self, row: &[Value]) -> Result<(String, Vec<f64>)> {
        let label = match row.get(self.group_col) {
            Some(Value::Str(s)) => s.clone(),
            Some(Value::Int(i)) => i.to_string(),
            other => {
                return Err(SqlError::Eval(format!(
                    "serving group column must be TEXT or INT, got {other:?}"
                )));
            }
        };
        let mut record = Vec::with_capacity(self.measure_cols.len());
        for &c in &self.measure_cols {
            let v = row
                .get(c)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| SqlError::Eval("serving measure must be numeric".into()))?;
            if !v.is_finite() {
                return Err(SqlError::Eval("serving measure must be finite".into()));
            }
            record.push(v);
        }
        Ok((label, record))
    }
}

/// An in-memory SQL database.
///
/// ```
/// use aggsky_sql::Database;
///
/// let mut db = Database::new();
/// db.execute("CREATE TABLE movie (title TEXT, pop FLOAT, qual FLOAT)").unwrap();
/// db.execute("INSERT INTO movie VALUES ('Pulp Fiction', 557, 9.0), ('The Room', 10, 3.2)")
///     .unwrap();
/// let r = db.execute("SELECT title FROM movie SKYLINE OF pop MAX, qual MAX").unwrap();
/// assert_eq!(r.rows.len(), 1);
/// assert_eq!(r.rows[0][0].to_string(), "Pulp Fiction");
/// ```
#[derive(Debug, Default)]
pub struct Database {
    catalog: Catalog,
    /// `SET TIMEOUT` budget in record-pair ticks; `0` = unlimited.
    timeout_ticks: u64,
    /// `SET CHECKPOINT` directory; when set, the aggregate-skyline step of
    /// each query is persisted as durable frames there and resumed from
    /// the newest valid frame on re-execution.
    checkpoint_dir: Option<String>,
    /// The structured query log: one [`QueryRecord`] per executed
    /// statement. Shared (`Arc`) so clones of the database journal into
    /// the same log.
    journal: Arc<QueryJournal>,
    /// 0-based sequence number of the next statement (feeds [`query_id`]).
    executed: u64,
    /// When true, journal records carry wall-clock durations. Off by
    /// default so the JSONL export stays byte-identical across runs.
    record_wall_time: bool,
    /// Live serving bindings keyed by lowercase table name: DML against a
    /// bound table is mirrored into its epoch-published skyline service.
    services: HashMap<String, ServiceBinding>,
    /// The last aggregate-skyline input a SELECT gathered, reused by the
    /// next SELECT that asks for the same input over the same catalog
    /// version (DESIGN.md §19).
    kept: KeptInput,
    /// Runs each SELECT under a full trace recorder instead of the
    /// counters-only sink, for tests that compare the two journals.
    #[cfg(test)]
    trace_selects: bool,
}

impl Clone for Database {
    /// Clones the catalog and settings; the journal stays shared (`Arc`),
    /// so clones keep logging into one query log. Live serving bindings
    /// are **not** carried over: each clone owns an independent copy of
    /// every table, so sharing a bound [`SkylineService`] would let DML on
    /// one copy silently diverge the epochs the other serves. Re-bind with
    /// [`Database::serve_skyline`] on the clone if it needs live serving.
    /// The clone starts with no kept aggregate-skyline input.
    fn clone(&self) -> Database {
        Database {
            catalog: self.catalog.clone(),
            timeout_ticks: self.timeout_ticks,
            checkpoint_dir: self.checkpoint_dir.clone(),
            journal: self.journal.clone(),
            executed: self.executed,
            record_wall_time: self.record_wall_time,
            services: HashMap::new(),
            kept: KeptInput::default(),
            #[cfg(test)]
            trace_selects: self.trace_selects,
        }
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// The active `SET TIMEOUT` budget in record-pair ticks (`0` =
    /// unlimited).
    pub fn timeout_ticks(&self) -> u64 {
        self.timeout_ticks
    }

    /// Programmatic equivalent of `SET TIMEOUT`.
    pub fn set_timeout_ticks(&mut self, ticks: u64) {
        self.timeout_ticks = ticks;
    }

    /// The active `SET CHECKPOINT` directory, if any.
    pub fn checkpoint_dir(&self) -> Option<&str> {
        self.checkpoint_dir.as_deref()
    }

    /// Programmatic equivalent of `SET CHECKPOINT 'dir'` / `SET CHECKPOINT
    /// OFF`.
    pub fn set_checkpoint_dir(&mut self, dir: Option<String>) {
        self.checkpoint_dir = dir;
    }

    /// The execution-control context queries run under: unlimited unless a
    /// non-zero `SET TIMEOUT` is active.
    fn run_context(&self) -> RunContext {
        if self.timeout_ticks == 0 {
            RunContext::unlimited()
        } else {
            RunContext::with_budget(self.timeout_ticks)
        }
    }

    /// Binds a table to a live [`SkylineService`]: existing rows seed epoch
    /// 0, and every subsequent `INSERT`/`DELETE` against the table is
    /// routed through the service as one write batch, publishing a new
    /// epoch snapshot per statement.
    ///
    /// `group_col` labels the group (TEXT, or INT rendered as text);
    /// `measures` are the skyline dimensions in order, all MAX preference.
    /// `UPDATE` against a bound table is rejected (`DELETE` + `INSERT`
    /// instead) so the mirrored state can never silently diverge.
    pub fn serve_skyline(
        &mut self,
        table: &str,
        group_col: &str,
        measures: &[&str],
        gamma: f64,
    ) -> Result<()> {
        let key = table.to_ascii_lowercase();
        if self.services.contains_key(&key) {
            return Err(SqlError::Eval(format!("table '{table}' already has a serving binding")));
        }
        let t = self.catalog.get(table)?;
        let group_col =
            t.column_index(group_col).ok_or_else(|| SqlError::UnknownColumn(group_col.into()))?;
        if measures.is_empty() {
            return Err(SqlError::Eval("serving needs at least one measure column".into()));
        }
        let measure_cols = measures
            .iter()
            .map(|m| t.column_index(m).ok_or_else(|| SqlError::UnknownColumn((*m).into())))
            .collect::<Result<Vec<usize>>>()?;
        let gamma = Gamma::new(gamma).map_err(|e| SqlError::Eval(e.to_string()))?;
        let service = SkylineService::new(measure_cols.len(), gamma)
            .map_err(|e| SqlError::Eval(e.to_string()))?;
        let binding = ServiceBinding { group_col, measure_cols, service: Arc::new(service) };
        // Seed epoch 0 from the rows already in the table; any invalid row
        // fails the whole bind before the binding is installed.
        let mut batch = WriteBatch::new();
        let mut row = vec![Value::Null; t.columns.len()];
        for id in 0..t.len() {
            t.read_row(id, &mut row);
            let (label, record) = binding.row_parts(&row)?;
            batch = batch.insert(label, &record);
        }
        binding
            .service
            .apply(&batch)
            .map_err(|e| SqlError::Eval(format!("serving seed failed: {e}")))?;
        self.services.insert(key, binding);
        Ok(())
    }

    /// The live serving handle bound to `table`, if any.
    pub fn skyline_service(&self, table: &str) -> Option<&Arc<SkylineService>> {
        self.services.get(&table.to_ascii_lowercase()).map(|b| &b.service)
    }

    /// The current epoch snapshot of `table`'s serving binding, if any.
    /// The returned handle stays valid (and immutable) across later writes.
    pub fn serving_epoch(&self, table: &str) -> Option<Arc<Epoch>> {
        self.services.get(&table.to_ascii_lowercase()).map(|b| b.service.current())
    }

    /// Mirrors routed DML rows into `table`'s serving binding, if bound,
    /// and self-describes the published epoch in the journal record.
    /// Returns `Ok(None)` when the table is unbound.
    fn route_serving(
        &mut self,
        table: &str,
        rows: &[Vec<Value>],
        delete: bool,
        record: &mut QueryRecord,
    ) -> Result<Option<EpochReceipt>> {
        let Some(binding) = self.services.get(&table.to_ascii_lowercase()) else {
            return Ok(None);
        };
        let mut batch = WriteBatch::new();
        for row in rows {
            let (label, rec) = binding.row_parts(row)?;
            batch = if delete { batch.delete(label, &rec) } else { batch.insert(label, &rec) };
        }
        // An apply error here is internal: the batch was validated above and
        // the engine mirrors the table state exactly.
        let receipt = binding
            .service
            .apply_ctx(&batch, &self.run_context())
            .map_err(|e| SqlError::Eval(format!("serving apply failed: {e}")))?;
        record.epoch = Some(receipt.epoch);
        record.batch_rows = receipt.batch_rows;
        record.deferred_pairs = receipt.deferred_pairs;
        record.flushed_pairs = receipt.flushed_pairs;
        Ok(Some(receipt))
    }

    /// Parses and executes one statement. DDL/DML statements return an
    /// empty result with a `rows_affected`-style single cell.
    ///
    /// Every successful execution appends one [`QueryRecord`] to the
    /// structured [`Database::journal`]: deterministic query id, plan
    /// shape, γ, counters harvested from a per-statement trace recorder,
    /// and the interrupted/slow flags. Parse and execution errors are not
    /// journaled (there is no completed statement to describe).
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let stmt = parse(sql)?;
        let seq = self.executed;
        self.executed += 1;
        let text = sql.trim();
        let mut record = QueryRecord {
            query_id: query_id(seq, text),
            seq,
            sql: text.to_string(),
            budget: self.timeout_ticks,
            kernel: "default".to_string(),
            ..QueryRecord::default()
        };
        let clock = if self.record_wall_time { Some(WallClock::start()) } else { None };
        let result = self.dispatch(stmt, &mut record)?;
        record.rows_out = u64::try_from(result.rows.len()).unwrap_or(u64::MAX);
        record.interrupted = result.interrupted.is_some();
        record.wall_micros = clock.map(|c| c.elapsed_micros());
        self.journal.push(record);
        Ok(result)
    }

    /// Executes one parsed statement, filling the journal record's
    /// statement-specific fields as a side effect.
    fn dispatch(&mut self, stmt: Statement, record: &mut QueryRecord) -> Result<QueryResult> {
        match stmt {
            Statement::Select(stmt) => {
                record.kind = "select";
                record.plan = plan_shape(&stmt);
                record.gamma_permille = gamma_permille(&stmt);
                #[cfg(test)]
                if self.trace_selects {
                    let rec = Arc::new(aggsky_obs::TraceRecorder::new());
                    let ctx = self.run_context().with_recorder(rec.clone());
                    let result = crate::exec::execute_select_with(
                        &self.catalog,
                        &stmt,
                        &ctx,
                        self.checkpoint_dir.as_deref(),
                        Some(&mut self.kept),
                    )?;
                    harvest_trace(record, &rec.snapshot());
                    return Ok(result);
                }
                // The journal needs the counters and whether the aggregate
                // skyline ran, not a trace.
                let sink = Arc::new(CounterSink::watching("skyline"));
                let ctx = self.run_context().with_recorder(sink.clone());
                let result = crate::exec::execute_select_with(
                    &self.catalog,
                    &stmt,
                    &ctx,
                    self.checkpoint_dir.as_deref(),
                    Some(&mut self.kept),
                )?;
                harvest_counters(record, |c| sink.counter(c), sink.opened());
                Ok(result)
            }
            Statement::Explain { analyze, stmt } => {
                record.plan = plan_shape(&stmt);
                record.gamma_permille = gamma_permille(&stmt);
                if analyze {
                    record.kind = "explain_analyze";
                    let (result, snap) = crate::exec::explain_analyze_select_with(
                        &self.catalog,
                        &stmt,
                        &self.run_context(),
                    )?;
                    harvest_trace(record, &snap);
                    Ok(result)
                } else {
                    record.kind = "explain";
                    let text = crate::exec::explain_select(&self.catalog, &stmt)?;
                    Ok(QueryResult {
                        columns: vec!["EXPLAIN".to_string()],
                        rows: text.lines().map(|l| vec![Value::Str(l.to_string())]).collect(),
                        interrupted: None,
                    })
                }
            }
            Statement::SetTimeout(ticks) => {
                record.kind = "set";
                self.timeout_ticks = ticks;
                record.budget = ticks;
                Ok(QueryResult {
                    columns: vec!["timeout_ticks".to_string()],
                    rows: vec![vec![Value::Int(i64::try_from(ticks).unwrap_or(i64::MAX))]],
                    interrupted: None,
                })
            }
            Statement::SetCheckpoint(dir) => {
                record.kind = "set";
                let shown = dir.clone().unwrap_or_else(|| "OFF".to_string());
                self.checkpoint_dir = dir;
                Ok(QueryResult {
                    columns: vec!["checkpoint_dir".to_string()],
                    rows: vec![vec![Value::Str(shown)]],
                    interrupted: None,
                })
            }
            Statement::SetSlowQuery(ticks) => {
                record.kind = "set";
                self.journal.set_slow_threshold_ticks(ticks);
                Ok(QueryResult {
                    columns: vec!["slow_query_ticks".to_string()],
                    rows: vec![vec![Value::Int(i64::try_from(ticks).unwrap_or(i64::MAX))]],
                    interrupted: None,
                })
            }
            Statement::CreateTable { name, columns } => {
                record.kind = "ddl";
                let cols = columns.into_iter().map(|(name, ty)| Column { name, ty }).collect();
                self.catalog.create(&name, cols)?;
                Ok(ddl_result(0))
            }
            Statement::Insert { table, columns, source } => {
                record.kind = "dml";
                let n = match source {
                    crate::ast::InsertSource::Values(rows) => {
                        self.insert_ast_rows(&table, columns.as_deref(), rows)?
                    }
                    crate::ast::InsertSource::Select(sel) => {
                        let result = execute_select(&self.catalog, &sel)?;
                        self.insert_value_rows(&table, columns.as_deref(), result.rows)?
                    }
                };
                let receipt = if self.services.contains_key(&table.to_ascii_lowercase()) {
                    let t = self.catalog.get(&table)?;
                    let start = t.len().saturating_sub(n);
                    let inserted: Vec<Vec<Value>> =
                        (start..t.len()).filter_map(|id| t.row(id)).collect();
                    match self.route_serving(&table, &inserted, false, record) {
                        Ok(receipt) => receipt,
                        Err(e) => {
                            // Roll the rows back out so the table stays in
                            // lock-step with the serving state.
                            self.catalog.get_mut(&table)?.truncate(start);
                            return Err(e);
                        }
                    }
                } else {
                    None
                };
                Ok(dml_result(n, receipt))
            }
            Statement::DropTable(name) => {
                record.kind = "ddl";
                self.catalog.drop(&name)?;
                self.services.remove(&name.to_ascii_lowercase());
                Ok(ddl_result(0))
            }
            Statement::Delete { table, where_clause } => {
                record.kind = "dml";
                let (removed, positions) = self.delete_rows(&table, where_clause.as_ref())?;
                let n = removed.len();
                let receipt = match self.route_serving(&table, &removed, true, record) {
                    Ok(receipt) => receipt,
                    Err(e) => {
                        // Splice the rows back at their original positions
                        // so the table stays in lock-step with the serving
                        // state (mirrors the INSERT rollback).
                        self.catalog.get_mut(&table)?.reinsert(&positions, removed)?;
                        return Err(e);
                    }
                };
                Ok(dml_result(n, receipt))
            }
            Statement::Update { table, sets, where_clause } => {
                record.kind = "dml";
                if self.services.contains_key(&table.to_ascii_lowercase()) {
                    return Err(SqlError::Unsupported(
                        "UPDATE on a table with a live skyline binding \
                         (use DELETE + INSERT so the mirrored epochs stay exact)"
                            .into(),
                    ));
                }
                let n = self.update_rows(&table, &sets, where_clause.as_ref())?;
                Ok(ddl_result(n))
            }
        }
    }

    /// The structured query log this database journals into.
    pub fn journal(&self) -> &QueryJournal {
        &self.journal
    }

    /// A shareable handle to the query log (clones journal into the same
    /// log).
    pub fn journal_handle(&self) -> Arc<QueryJournal> {
        self.journal.clone()
    }

    /// Enables or disables wall-clock durations in journal records.
    /// Disabled by default: the JSONL export is byte-identical across
    /// same-seed runs only without wall times.
    pub fn set_record_wall_time(&mut self, on: bool) {
        self.record_wall_time = on;
    }

    /// Compiles an expression against one table's schema (no aggregates, no
    /// subqueries — DML predicates are row-local).
    fn compile_row_expr(table: &crate::catalog::Table, expr: &crate::ast::Expr) -> Result<RExpr> {
        let schema = crate::plan::Schema {
            columns: table.columns.iter().map(|c| (table.name.clone(), c.name.clone())).collect(),
        };
        let no_sub = |_: &crate::ast::SelectStmt| {
            Err(SqlError::Unsupported("subquery in DML predicate".into()))
        };
        let mut compiler = crate::plan::Compiler::new(&schema, &no_sub);
        let compiled = compiler.compile(expr)?;
        if !compiler.aggs.is_empty() {
            return Err(SqlError::Unsupported("aggregate in DML statement".into()));
        }
        Ok(compiled)
    }

    /// Deletes matching rows and returns them alongside their original
    /// table positions (both in table order; `Table::reinsert` puts them
    /// back). The delete is all-or-nothing: the predicate is evaluated over
    /// every row before anything is removed, so an evaluation error leaves
    /// the table — and any serving binding mirroring it — untouched.
    fn delete_rows(
        &mut self,
        table: &str,
        where_clause: Option<&crate::ast::Expr>,
    ) -> Result<(Vec<Vec<Value>>, Vec<usize>)> {
        let t = self.catalog.get(table)?;
        let predicate = where_clause.map(|e| Self::compile_row_expr(t, e)).transpose()?;
        let mut keep = Vec::with_capacity(t.len());
        let (mut removed, mut positions) = (Vec::new(), Vec::new());
        let mut row = vec![Value::Null; t.columns.len()];
        for id in 0..t.len() {
            t.read_row(id, &mut row);
            let hit = match &predicate {
                None => true,
                Some(p) => eval(p, &row, &[])?.is_truthy(),
            };
            keep.push(!hit);
            if hit {
                removed.push(row.clone());
                positions.push(id);
            }
        }
        self.catalog.get_mut(table)?.retain(&keep);
        Ok((removed, positions))
    }

    /// Updates matching rows. All or nothing: the predicate and every SET
    /// expression are evaluated over every row before any value is
    /// written, so an evaluation error leaves the table untouched.
    fn update_rows(
        &mut self,
        table: &str,
        sets: &[(String, crate::ast::Expr)],
        where_clause: Option<&crate::ast::Expr>,
    ) -> Result<usize> {
        let t = self.catalog.get(table)?;
        let predicate = where_clause.map(|e| Self::compile_row_expr(t, e)).transpose()?;
        let mut compiled_sets = Vec::with_capacity(sets.len());
        for (col, expr) in sets {
            let idx = t.column_index(col).ok_or_else(|| SqlError::UnknownColumn(col.clone()))?;
            compiled_sets.push((idx, Self::compile_row_expr(t, expr)?));
        }
        let mut hits = Vec::new();
        // Per SET item, its new value for each hit row, evaluated against
        // the pre-update row.
        let mut new_values: Vec<Vec<Value>> = vec![Vec::new(); compiled_sets.len()];
        let mut row = vec![Value::Null; t.columns.len()];
        for id in 0..t.len() {
            t.read_row(id, &mut row);
            let hit = match &predicate {
                None => true,
                Some(p) => eval(p, &row, &[])?.is_truthy(),
            };
            if !hit {
                continue;
            }
            for ((_, rhs), values) in compiled_sets.iter().zip(&mut new_values) {
                values.push(eval(rhs, &row, &[])?);
            }
            hits.push(id);
        }
        let t = self.catalog.get_mut(table)?;
        for ((idx, _), values) in compiled_sets.iter().zip(new_values) {
            t.update_column(*idx, &hits, values);
        }
        Ok(hits.len())
    }

    fn insert_ast_rows(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        rows: Vec<Vec<crate::ast::Expr>>,
    ) -> Result<usize> {
        // Evaluate literal expressions (no row context).
        let no_sub =
            |_: &crate::ast::SelectStmt| Err(SqlError::Unsupported("subquery in INSERT".into()));
        let empty_schema = crate::plan::Schema { columns: Vec::new() };
        let mut compiler = crate::plan::Compiler::new(&empty_schema, &no_sub);
        let mut evaluated: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
        for row in rows {
            let vals: Vec<Value> = row
                .iter()
                .map(|e| {
                    let r: RExpr = compiler.compile(e)?;
                    eval(&r, &[], &[])
                })
                .collect::<Result<_>>()?;
            evaluated.push(vals);
        }
        self.insert_value_rows(table, columns, evaluated)
    }

    /// Inserts already-evaluated rows, honoring an optional column list.
    /// All or nothing: every row's arity is checked against the column
    /// list (or the table, without one) before any row is stored.
    fn insert_value_rows(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        rows: Vec<Vec<Value>>,
    ) -> Result<usize> {
        let t = self.catalog.get(table)?;
        let reorder = Self::column_reorder(t, columns)?;
        let width = t.columns.len();
        let expected = reorder.as_ref().map_or(width, Vec::len);
        let shaped = rows
            .into_iter()
            .map(|vals| {
                if vals.len() != expected {
                    return Err(SqlError::Eval(format!(
                        "INSERT row has {} values, expected {expected}",
                        vals.len()
                    )));
                }
                let Some(map) = &reorder else { return Ok(vals) };
                let mut shuffled = vec![Value::Null; width];
                for (&i, v) in map.iter().zip(vals) {
                    if let Some(slot) = shuffled.get_mut(i) {
                        *slot = v;
                    }
                }
                Ok(shuffled)
            })
            .collect::<Result<Vec<Vec<Value>>>>()?;
        let n = shaped.len();
        let t = self.catalog.get_mut(table)?;
        let start = t.len();
        for vals in shaped {
            if let Err(e) = t.push_row(vals) {
                t.truncate(start);
                return Err(e);
            }
        }
        Ok(n)
    }

    /// Maps an explicit INSERT column list onto table positions.
    fn column_reorder(
        t: &crate::catalog::Table,
        columns: Option<&[String]>,
    ) -> Result<Option<Vec<usize>>> {
        match columns {
            None => Ok(None),
            Some(cols) => {
                if cols.len() != t.columns.len() {
                    return Err(SqlError::Unsupported(
                        "partial-column INSERT is not supported".into(),
                    ));
                }
                cols.iter()
                    .map(|c| t.column_index(c).ok_or_else(|| SqlError::UnknownColumn(c.clone())))
                    .collect::<Result<Vec<usize>>>()
                    .map(Some)
            }
        }
    }

    /// Bulk loads rows programmatically (no SQL parsing): the fast path the
    /// benchmark harness uses to populate baseline tables.
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        let t = self.catalog.get_mut(table)?;
        let n = rows.len();
        for row in rows {
            t.push_row(row)?;
        }
        Ok(n)
    }

    /// Creates a table programmatically.
    pub fn create_table(&mut self, name: &str, columns: &[(&str, ColumnType)]) -> Result<()> {
        self.catalog.create(
            name,
            columns.iter().map(|(n, ty)| Column { name: n.to_string(), ty: *ty }).collect(),
        )
    }

    /// Number of rows in a table.
    pub fn table_len(&self, name: &str) -> Result<usize> {
        Ok(self.catalog.get(name)?.len())
    }

    /// Read access to a table's definition and rows.
    pub fn table(&self, name: &str) -> Result<&crate::catalog::Table> {
        self.catalog.get(name)
    }

    /// Describes how a SELECT would execute (scan order, pushed-down
    /// predicates, residual join filter, post-processing steps) without
    /// running it.
    pub fn explain(&self, sql: &str) -> Result<String> {
        match parse(sql)? {
            Statement::Select(stmt) => crate::exec::explain_select(&self.catalog, &stmt),
            other => Ok(format!("{other}\n(DDL/DML statements execute directly)\n")),
        }
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.catalog.table_names()
    }
}

fn ddl_result(rows_affected: usize) -> QueryResult {
    QueryResult {
        columns: vec!["rows_affected".to_string()],
        rows: vec![vec![Value::Int(i64::try_from(rows_affected).unwrap_or(i64::MAX))]],
        interrupted: None,
    }
}

/// A DML result that surfaces a routed write batch's budget edge: when the
/// serving apply was interrupted, the table rows are already in place and
/// the edits stay pending in the writer (absorbed by the next successful
/// apply), but no new epoch was published this statement.
fn dml_result(rows_affected: usize, receipt: Option<EpochReceipt>) -> QueryResult {
    let mut result = ddl_result(rows_affected);
    if let Some(reason) = receipt.and_then(|r| r.interrupted) {
        result.interrupted = Some(crate::exec::Interruption { reason, undecided_groups: 0 });
    }
    result
}

/// A compact deterministic plan-shape label for the query log, e.g.
/// `scan(movie)+filter+group+skyline(d=2)+sort`.
fn plan_shape(stmt: &SelectStmt) -> String {
    let tables: Vec<&str> = stmt.from.iter().map(|t| t.name.as_str()).collect();
    let mut parts = vec![format!("scan({})", tables.join(","))];
    if stmt.where_clause.is_some() {
        parts.push("filter".to_string());
    }
    if !stmt.group_by.is_empty() {
        parts.push("group".to_string());
    }
    if stmt.having.is_some() {
        parts.push("having".to_string());
    }
    if let Some(sky) = &stmt.skyline {
        parts.push(format!("skyline(d={})", sky.items.len()));
    }
    if !stmt.order_by.is_empty() {
        parts.push("sort".to_string());
    }
    if stmt.limit.is_some() {
        parts.push("limit".to_string());
    }
    parts.join("+")
}

/// The statement's γ threshold in per-mille, `None` without a skyline
/// clause. Uses the sanctioned saturating float→int conversion (lint L3).
fn gamma_permille(stmt: &SelectStmt) -> Option<u64> {
    let sky = stmt.skyline.as_ref()?;
    let g = sky.gamma.unwrap_or(0.5);
    Some(u64::try_from(aggsky_core::num::floor_usize(g * 1000.0 + 0.5)).unwrap_or(u64::MAX))
}

/// Copies the counters a query record self-describes with into it, and
/// the kernel when the aggregate skyline ran (`skyline_ran`).
fn harvest_counters(record: &mut QueryRecord, c: impl Fn(Counter) -> u64, skyline_ran: bool) {
    record.ticks = c(Counter::RecordPairs);
    record.cache_hits = c(Counter::CacheHits);
    record.cache_misses = c(Counter::CacheMisses);
    record.blocks_full = c(Counter::BlocksFull);
    record.blocks_skipped = c(Counter::BlocksSkipped);
    record.rows_scanned = c(Counter::SqlRowsScanned);
    record.groups_built = c(Counter::SqlGroupsBuilt);
    record.input_reused = c(Counter::SqlInputReused) > 0;
    record.frames_skipped = c(Counter::CheckpointFramesSkipped);
    // Only a statement whose aggregate skyline ran counted with a kernel.
    if skyline_ran {
        record.kernel = crate::exec::skyline_kernel_name().to_string();
    }
}

/// [`harvest_counters`] from a statement's trace snapshot.
fn harvest_trace(record: &mut QueryRecord, snap: &aggsky_obs::TraceSnapshot) {
    let skyline_ran = snap.spans.iter().any(|s| s.name == "skyline");
    harvest_counters(record, |c| snap.metrics.counter(c), skyline_ran);
}

#[cfg(test)]
mod journal_tests {
    use super::*;

    fn movie_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE movie (director TEXT, pop FLOAT, qual FLOAT)").unwrap();
        db.execute(
            "INSERT INTO movie VALUES ('T', 313, 8.2), ('T', 557, 9.0), \
             ('K', 362, 8.8), ('W', 10, 3.2)",
        )
        .unwrap();
        db
    }

    const SKYLINE: &str = "SELECT director FROM movie \
         GROUP BY director SKYLINE OF pop MAX, qual MAX GAMMA 0.75";

    #[test]
    fn journal_describes_every_statement() {
        let mut db = movie_db();
        db.execute(SKYLINE).unwrap();
        let records = db.journal().records();
        assert_eq!(records.len(), 3, "ddl + dml + select all journaled");
        assert_eq!(records[0].kind, "ddl");
        assert_eq!(records[1].kind, "dml");
        let sel = &records[2];
        assert_eq!(sel.kind, "select");
        assert_eq!(sel.seq, 2);
        assert_eq!(sel.query_id, query_id(2, SKYLINE));
        assert_eq!(sel.plan, "scan(movie)+group+skyline(d=2)");
        assert_eq!(sel.gamma_permille, Some(750));
        assert!(sel.ticks > 0, "aggregate skyline spends record pairs");
        assert!(sel.rows_scanned >= 4, "scan counter harvested: {}", sel.rows_scanned);
        assert!(sel.groups_built >= 3, "group counter harvested: {}", sel.groups_built);
        assert_eq!(sel.rows_out, 2);
        assert!(!sel.interrupted);
        assert!(sel.wall_micros.is_none(), "wall time off by default");
    }

    #[test]
    fn insert_rows_must_match_the_column_list() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (g TEXT, a FLOAT, b FLOAT)").unwrap();
        db.execute("CREATE TABLE src (g TEXT, a FLOAT)").unwrap();
        db.execute("INSERT INTO src VALUES ('s', 1)").unwrap();
        for bad in [
            "INSERT INTO t (g, a, b) VALUES ('x', 1)",
            "INSERT INTO t (g, a, b) VALUES ('y', 2, 3, 4)",
            "INSERT INTO t (g, a, b) VALUES ('ok', 1, 2), ('x', 1)",
            "INSERT INTO t VALUES ('ok', 1, 2), ('y', 2, 3, 4)",
            "INSERT INTO t (g, a, b) SELECT g, a FROM src",
            "INSERT INTO t SELECT g, a FROM src",
        ] {
            let err = db.execute(bad).unwrap_err();
            assert!(matches!(err, SqlError::Eval(_)), "{bad}: {err}");
            assert_eq!(db.table_len("t").unwrap(), 0, "{bad} inserted a row");
        }
        db.execute("INSERT INTO t (b, g, a) VALUES (3, 'z', 2)").unwrap();
        assert_eq!(
            db.table("t").unwrap().rows(),
            vec![vec![Value::Str("z".into()), Value::Float(2.0), Value::Float(3.0)]]
        );
    }

    #[test]
    fn set_slow_query_flags_expensive_statements() {
        let mut db = movie_db();
        let r = db.execute("SET SLOW_QUERY 1").unwrap();
        assert_eq!(r.columns, vec!["slow_query_ticks".to_string()]);
        assert_eq!(db.journal().slow_threshold_ticks(), 1);
        db.execute(SKYLINE).unwrap();
        let slow = db.journal().slow_records();
        assert_eq!(slow.len(), 1, "only the skyline select is slow");
        assert_eq!(slow[0].kind, "select");
        // Statement text round-trips through the parser's display form.
        assert_eq!(
            crate::parser::parse("SET SLOW_QUERY 9").unwrap().to_string(),
            "SET SLOW_QUERY 9"
        );
    }

    #[test]
    fn journal_jsonl_is_deterministic_across_sessions() {
        let run = || {
            let mut db = movie_db();
            db.execute("SET SLOW_QUERY 5").unwrap();
            db.execute(SKYLINE).unwrap();
            db.execute("EXPLAIN ANALYZE SELECT director FROM movie WHERE pop > 100").unwrap();
            db.journal().export_jsonl()
        };
        let a = run();
        assert_eq!(a, run(), "same script, same bytes");
        assert_eq!(a.lines().count(), 5);
        assert!(a.contains("\"kind\":\"explain_analyze\""), "{a}");
        assert!(!a.contains("wall_micros"), "default export carries no wall time");
    }

    #[test]
    fn counters_only_sink_journals_what_a_full_trace_does() {
        let dir = std::env::temp_dir().join(format!("aggsky-journal-sink-{}", std::process::id()));
        let run = |trace_selects: bool| {
            let _ = std::fs::remove_dir_all(&dir);
            let mut db = movie_db();
            db.trace_selects = trace_selects;
            db.execute(SKYLINE).unwrap();
            db.execute("INSERT INTO movie VALUES ('K', 100, 9.5), ('W', 900, 1.0)").unwrap();
            db.execute("SET TIMEOUT 1").unwrap();
            let cut = db.execute(SKYLINE).unwrap();
            db.execute(&format!("SET CHECKPOINT '{}'", dir.display())).unwrap();
            while db.execute(SKYLINE).unwrap().interrupted.is_some() {}
            db.execute("SET TIMEOUT 0").unwrap();
            db.execute("SELECT director FROM movie WHERE pop > 100").unwrap();
            db.execute(&format!("EXPLAIN {SKYLINE}")).unwrap();
            db.execute(&format!("EXPLAIN ANALYZE {SKYLINE}")).unwrap();
            (cut.interrupted.is_some(), db.journal().export_jsonl())
        };
        let (cut, sink) = run(false);
        assert!(cut, "one tick must interrupt the plain statement");
        assert_eq!(sink, run(true).1);
        assert!(sink.lines().count() > 10, "{sink}");
        assert!(sink.contains("\"interrupted\":true"), "{sink}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_and_explain_name_the_kernel_the_skyline_counted_with() {
        let kernel =
            if aggsky_core::cpu::simd_active() { "columnar-avx2" } else { "columnar-scalar" };
        let dir =
            std::env::temp_dir().join(format!("aggsky-journal-kernel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = movie_db();
        db.execute(SKYLINE).unwrap();
        db.execute(&format!("EXPLAIN ANALYZE {SKYLINE}")).unwrap();
        db.execute("SELECT director FROM movie WHERE pop > 100").unwrap();
        db.execute(&format!("SET CHECKPOINT '{}'", dir.display())).unwrap();
        db.execute(SKYLINE).unwrap();
        let records = db.journal().records();
        let kernels: Vec<&str> = records.iter().map(|r| r.kernel.as_str()).collect();
        assert_eq!(
            kernels,
            ["default", "default", kernel, kernel, "default", "default", kernel],
            "plain, analyzed and durable skylines name the kernel; nothing else does"
        );
        assert!(db.journal().export_jsonl().contains(&format!("\"kernel\":\"{kernel}\"")));
        let plan = db.explain(SKYLINE).unwrap();
        assert!(
            plan.contains(&format!("(anytime engine, dominators first, {kernel} kernel)")),
            "{plan}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// 96 rows in 12 groups whose durable skyline takes several chunks
    /// under a budget of a quarter of its ticks.
    fn chunky_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE r (g TEXT, a FLOAT, b FLOAT)").unwrap();
        let mut x = 7u64;
        let mut rows = Vec::new();
        for i in 0..96 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rows.push(format!("('g{}', {}, {})", i % 12, (x >> 33) % 100, (x >> 13) % 100));
        }
        db.execute(&format!("INSERT INTO r VALUES {}", rows.join(", "))).unwrap();
        db
    }

    #[test]
    fn durable_reissues_reuse_the_kept_input_and_the_log_says_so() {
        const SKY: &str = "SELECT g FROM r GROUP BY g SKYLINE OF a MAX, b MAX GAMMA 0.6";
        let dir = std::env::temp_dir().join(format!("aggsky-journal-reuse-{}", std::process::id()));
        let set_dir = format!("SET CHECKPOINT '{}'", dir.display());
        // The statement's ticks in one unbudgeted durable chunk.
        let _ = std::fs::remove_dir_all(&dir);
        let mut probe = chunky_db();
        probe.execute(&set_dir).unwrap();
        probe.execute(SKY).unwrap();
        let ticks = probe.journal().records().last().unwrap().ticks;
        let run = || {
            let _ = std::fs::remove_dir_all(&dir);
            let mut db = chunky_db();
            db.execute(&set_dir).unwrap();
            db.execute(&format!("SET TIMEOUT {}", ticks / 4 + 1)).unwrap();
            while db.execute(SKY).unwrap().interrupted.is_some() {}
            db.journal().export_jsonl()
        };
        let jsonl = run();
        assert_eq!(jsonl, run(), "same script, same bytes");
        let _ = std::fs::remove_dir_all(&dir);
        let sky: Vec<&str> = jsonl.lines().filter(|l| l.contains("\"plan\":\"scan(r)")).collect();
        assert_eq!(sky.len(), 4, "a quarter of the ticks per chunk takes 4 chunks:\n{jsonl}");
        assert!(sky[0].contains("\"rows_scanned\":96,\"groups_built\":12,\"input_reused\":false"));
        for line in &sky[1..] {
            assert!(
                line.contains("\"rows_scanned\":0,\"groups_built\":0,\"input_reused\":true"),
                "a re-issue reuses the kept input: {line}"
            );
        }
    }

    #[test]
    fn wall_time_is_recorded_only_when_enabled() {
        let mut db = movie_db();
        db.set_record_wall_time(true);
        db.execute("SELECT director FROM movie").unwrap();
        let last = db.journal().records().pop().unwrap();
        assert!(last.wall_micros.is_some());
    }

    #[test]
    fn clones_share_one_journal() {
        let mut db = movie_db();
        let mut other = db.clone();
        other.execute("SELECT director FROM movie").unwrap();
        assert_eq!(db.journal().len(), 3, "clone journaled into the shared log");
        db.execute("SELECT pop FROM movie").unwrap();
        assert_eq!(other.journal().len(), 4);
    }
}

#[cfg(test)]
mod dml_tests {
    use super::*;

    #[test]
    fn a_failed_update_changes_no_row() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a TEXT, b FLOAT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 1.0), ('x', 2.0), (3, 3.0)").unwrap();
        let before = db.execute("SELECT a, b FROM t").unwrap();
        let err = db.execute("UPDATE t SET a = -a").unwrap_err();
        assert!(err.to_string().contains("cannot negate a string"), "{err}");
        assert_eq!(db.execute("SELECT a, b FROM t").unwrap(), before);
        db.execute("UPDATE t SET b = b * 2 WHERE b > 1").unwrap();
        let after = db.execute("SELECT b FROM t").unwrap();
        assert_eq!(after.rows, [[Value::Float(1.0)], [Value::Float(4.0)], [Value::Float(6.0)]]);
    }

    #[test]
    fn integer_overflow_in_a_statement_is_an_eval_error() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (9223372036854775807), (-9223372036854775807 - 1)")
            .unwrap();
        for sql in [
            "SELECT a + 1 FROM t",
            "SELECT a * 2 FROM t",
            "SELECT a - 1 FROM t WHERE a < 0",
            "SELECT -a FROM t WHERE a < 0",
            "UPDATE t SET a = a + 1",
        ] {
            match db.execute(sql) {
                Err(SqlError::Eval(m)) => assert!(m.starts_with("integer overflow"), "{sql}: {m}"),
                other => panic!("{sql} gave {other:?}"),
            }
        }
        let r = db.execute("SELECT a FROM t").unwrap();
        assert_eq!(r.rows, [[Value::Int(i64::MAX)], [Value::Int(i64::MIN)]]);
    }
}

#[cfg(test)]
mod serving_tests {
    use super::*;

    const ORACLE: &str = "SELECT director FROM movie \
         GROUP BY director SKYLINE OF pop MAX, qual MAX GAMMA 0.5";

    fn movie_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE movie (director TEXT, pop FLOAT, qual FLOAT)").unwrap();
        db.execute(
            "INSERT INTO movie VALUES ('T', 313, 8.2), ('T', 557, 9.0), \
             ('K', 362, 8.8), ('W', 10, 3.2)",
        )
        .unwrap();
        db
    }

    fn bound_db() -> Database {
        let mut db = movie_db();
        db.serve_skyline("movie", "director", &["pop", "qual"], 0.5).unwrap();
        db
    }

    /// The from-scratch answer the live epoch must always agree with.
    fn oracle(db: &mut Database) -> Vec<String> {
        let mut labels: Vec<String> =
            db.execute(ORACLE).unwrap().rows.iter().map(|r| r[0].to_string()).collect();
        labels.sort();
        labels
    }

    fn epoch_labels(db: &Database) -> Vec<String> {
        let mut labels: Vec<String> = db
            .serving_epoch("movie")
            .expect("movie is bound")
            .skyline_labels()
            .iter()
            .map(|l| (*l).to_string())
            .collect();
        labels.sort();
        labels
    }

    #[test]
    fn writes_route_through_the_binding_and_match_the_oracle() {
        let mut db = bound_db();
        let seed = db.serving_epoch("movie").unwrap();
        assert_eq!(seed.id(), 1, "the existing rows seed one batch: epoch 1");
        assert_eq!(epoch_labels(&db), oracle(&mut db));

        db.execute("INSERT INTO movie VALUES ('W', 900, 9.5), ('W', 880, 9.4)").unwrap();
        let e1 = db.serving_epoch("movie").unwrap();
        assert_eq!(e1.id(), 2, "one statement publishes one epoch");
        assert_eq!(epoch_labels(&db), oracle(&mut db));

        db.execute("DELETE FROM movie WHERE director = 'W'").unwrap();
        let e2 = db.serving_epoch("movie").unwrap();
        assert_eq!(e2.id(), 3);
        assert_eq!(epoch_labels(&db), oracle(&mut db));
        assert!(
            !e2.dataset()
                .sorted_labels(&(0..e2.dataset().n_groups()).collect::<Vec<_>>())
                .contains(&"W"),
            "fully deleted group leaves the snapshot"
        );
        // The older epoch handle still answers against its own snapshot.
        assert_eq!(e1.skyline_labels().len(), e1.skyline().len());
    }

    #[test]
    fn journal_records_describe_routed_batches() {
        let mut db = bound_db();
        db.execute("INSERT INTO movie VALUES ('W', 900, 9.5)").unwrap();
        db.execute("DELETE FROM movie WHERE director = 'K'").unwrap();
        let records = db.journal().records();
        let ins = &records[records.len() - 2];
        assert_eq!(ins.epoch, Some(2));
        assert_eq!(ins.batch_rows, 1);
        assert!(
            ins.deferred_pairs + ins.flushed_pairs > 0,
            "a routed write settles at least one pair"
        );
        let del = &records[records.len() - 1];
        assert_eq!(del.epoch, Some(3));
        assert_eq!(del.batch_rows, 1);
        let jsonl = db.journal().export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[lines.len() - 1].contains("\"epoch\":3,\"batch_rows\":1"));
        assert!(
            !lines[0].contains("\"epoch\""),
            "unrouted statements carry no serving fields: {}",
            lines[0]
        );
    }

    #[test]
    fn invalid_inserts_roll_back_and_publish_nothing() {
        let mut db = bound_db();
        let before = db.table_len("movie").unwrap();
        let err = db.execute("INSERT INTO movie VALUES ('X', NULL, 5.0)").unwrap_err();
        assert!(matches!(err, SqlError::Eval(_)), "{err}");
        assert_eq!(db.table_len("movie").unwrap(), before, "rows rolled back");
        assert_eq!(db.serving_epoch("movie").unwrap().id(), 1, "no epoch published");
        assert_eq!(epoch_labels(&db), oracle(&mut db), "binding still serves");
    }

    #[test]
    fn failed_delete_routing_restores_the_removed_rows() {
        let mut db = bound_db();
        // Make the mirrored engine diverge behind the table's back by
        // deleting K's record directly through the service handle: the
        // next routed DELETE of that row then fails inside the service.
        let svc = db.skyline_service("movie").unwrap().clone();
        svc.apply(&WriteBatch::new().delete("K", &[362.0, 8.8])).unwrap();
        let before = db.table("movie").unwrap().rows();
        let err = db.execute("DELETE FROM movie WHERE director = 'K'").unwrap_err();
        assert!(matches!(err, SqlError::Eval(_)), "{err}");
        assert_eq!(
            db.table("movie").unwrap().rows(),
            before,
            "removed rows restored at their original positions"
        );
    }

    #[test]
    fn wrong_arity_inserts_store_and_publish_nothing() {
        let mut db = bound_db();
        let before = db.table("movie").unwrap().rows();
        for bad in [
            "INSERT INTO movie (director, pop, qual) VALUES ('X', 1)",
            "INSERT INTO movie (director, pop, qual) VALUES ('X', 1, 2, 3)",
            "INSERT INTO movie VALUES ('X', 1, 2), ('Y', 1)",
        ] {
            let err = db.execute(bad).unwrap_err();
            assert!(matches!(err, SqlError::Eval(_)), "{bad}: {err}");
            assert_eq!(db.table("movie").unwrap().rows(), before, "{bad} stored a row");
            assert_eq!(db.serving_epoch("movie").unwrap().id(), 1, "{bad} published");
        }
    }

    #[test]
    fn clones_do_not_carry_serving_bindings() {
        let db = bound_db();
        let mut other = db.clone();
        assert!(other.skyline_service("movie").is_none(), "bindings are not cloned");
        // DML on the clone touches only the clone's tables, never the
        // original's serving state.
        other.execute("INSERT INTO movie VALUES ('X', 1000, 9.9)").unwrap();
        assert_eq!(db.serving_epoch("movie").unwrap().id(), 1);
        assert_eq!(db.table_len("movie").unwrap(), 4);
        assert_eq!(other.table_len("movie").unwrap(), 5);
        // The clone can bind its own independent service.
        other.serve_skyline("movie", "director", &["pop", "qual"], 0.5).unwrap();
        assert_eq!(other.serving_epoch("movie").unwrap().id(), 1);
    }

    #[test]
    fn update_on_a_bound_table_is_rejected() {
        let mut db = bound_db();
        let err = db.execute("UPDATE movie SET pop = 1000 WHERE director = 'W'").unwrap_err();
        assert!(matches!(err, SqlError::Unsupported(_)), "{err}");
        assert_eq!(db.serving_epoch("movie").unwrap().id(), 1);
        // Unbound tables still take UPDATEs.
        let mut plain = movie_db();
        plain.execute("UPDATE movie SET pop = 1000 WHERE director = 'W'").unwrap();
    }

    #[test]
    fn bind_validates_its_inputs_and_drop_unbinds() {
        let mut db = movie_db();
        assert!(db.serve_skyline("movie", "nope", &["pop"], 0.5).is_err());
        assert!(db.serve_skyline("movie", "director", &[], 0.5).is_err());
        assert!(db.serve_skyline("movie", "director", &["pop"], 2.0).is_err());
        db.serve_skyline("movie", "director", &["pop", "qual"], 0.5).unwrap();
        assert!(
            db.serve_skyline("movie", "director", &["pop"], 0.5).is_err(),
            "double bind is rejected"
        );
        assert!(db.skyline_service("movie").is_some());
        db.execute("DROP TABLE movie").unwrap();
        assert!(db.skyline_service("movie").is_none(), "drop removes the binding");
        assert!(db.serving_epoch("movie").is_none());
    }

    #[test]
    fn interrupted_applies_stay_pending_until_the_next_statement() {
        let mut db = bound_db();
        db.execute("SET TIMEOUT 1").unwrap();
        // (600, 8.5) straddles T's movies (dominates one, incomparable to
        // the other), so the forced recount must compare record pairs —
        // corner tests alone cannot classify it — and the 1-tick budget
        // trips.
        let r = db.execute("INSERT INTO movie VALUES ('W', 600, 8.5)").unwrap();
        assert!(r.interrupted.is_some(), "1-tick budget cuts the apply short");
        assert_eq!(db.serving_epoch("movie").unwrap().id(), 1, "nothing published");
        let records = db.journal().records();
        assert!(records[records.len() - 1].interrupted);
        // Lifting the budget lets the next statement absorb the backlog.
        db.execute("SET TIMEOUT 0").unwrap();
        db.execute("INSERT INTO movie VALUES ('W', 880, 9.4)").unwrap();
        assert!(db.serving_epoch("movie").unwrap().id() >= 2);
        assert_eq!(epoch_labels(&db), oracle(&mut db));
    }
}
