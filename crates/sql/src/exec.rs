//! Query execution.
//!
//! The executor streams the FROM cross-product row by row (the joined row
//! is never materialized as a whole relation, which keeps the quadratic
//! self-join of the paper's Algorithm 1 memory-bounded), filters with
//! WHERE, then either emits rows directly or folds them into group states
//! for GROUP BY / aggregate queries. `SKYLINE OF` is executed natively: the
//! record form through the BNL skyline of `aggsky-core`, the aggregate form
//! (with GROUP BY) through its exact anytime engine, which compares cheap
//! pairs and likely dominators first.
//!
//! An aggregate skyline runs in two steps: [`gather`] builds its input (the
//! surviving groups, their dataset and its columnar preparation), and
//! [`skyline_rows`] counts the skyline over it. A [`crate::Database`] keeps
//! the last input in a [`KeptInput`] slot, so a statement re-issued over
//! unchanged data (a durable chain, or another γ) skips straight to the
//! count.

use crate::ast::{AggFunc, Expr, SelectItem, SelectStmt, SkyDir, SortDir};
use crate::catalog::{Catalog, Cells, Table};
use crate::error::{Result, SqlError};
use crate::plan::{eval, AggCall, Compiler, RExpr, Schema};
use crate::pushdown::{columns_used, ScanPlan};
use crate::value::{Key, Value};
use aggsky_core::{
    anytime_skyline_with, checkpoint_step_with, CheckpointStore, Fingerprint, Gamma,
    GroupedDataset, InterruptReason, Kernel, PreparedDataset, RunContext,
};
use aggsky_obs::{render_summary, Counter, Stamp, TraceRecorder};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// How a query that ran out of budget (or was cancelled) degraded: the
/// returned rows are the groups *proven* to belong to the skyline; this
/// records why the run stopped and how many groups were left undecided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interruption {
    /// Why the skyline computation stopped early.
    pub reason: InterruptReason,
    /// Groups that were neither confirmed in nor out when it stopped.
    pub undecided_groups: usize,
}

/// Result of a query: column names plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
    /// `Some` when a `SET TIMEOUT` budget (or cancellation) cut the skyline
    /// computation short: `rows` then holds only the confirmed members.
    pub interrupted: Option<Interruption>,
}

impl QueryResult {
    /// Renders the result as an aligned text table (for examples/demos).
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.iter().map(|v| v.to_string()).collect()).collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths.iter()) {
                line.push_str(&format!(" {c:w$} |"));
            }
            line.push('\n');
            line
        };
        let header: Vec<String> = self.columns.clone();
        out.push_str(&fmt_row(&header, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push('\n');
        for row in &rendered {
            out.push_str(&fmt_row(row, &widths));
        }
        if let Some(i) = &self.interrupted {
            out.push_str(&format!(
                "-- interrupted ({}): {} group(s) undecided; rows above are confirmed members\n",
                i.reason, i.undecided_groups
            ));
        }
        out
    }
}

/// Executes a SELECT against a catalog with no execution limits.
pub fn execute_select(cat: &Catalog, stmt: &SelectStmt) -> Result<QueryResult> {
    execute_select_ctx(cat, stmt, &RunContext::unlimited())
}

/// Executes a SELECT under an execution-control context: the aggregate
/// skyline step honours the context's tick budget and cancellation token,
/// degrading to the confirmed skyline members (see [`Interruption`])
/// instead of failing.
pub fn execute_select_ctx(
    cat: &Catalog,
    stmt: &SelectStmt,
    ctx: &RunContext,
) -> Result<QueryResult> {
    execute_select_durable(cat, stmt, ctx, None)
}

/// [`execute_select_ctx`] with an optional checkpoint directory: when set,
/// the aggregate-skyline step runs through the durable
/// [`aggsky_core::checkpoint_step`] driver — its partition is persisted as
/// a crash-consistent frame under `checkpoint` and recovered (resumed, or
/// served outright when already complete) on re-execution of the same
/// query over the same data.
pub fn execute_select_durable(
    cat: &Catalog,
    stmt: &SelectStmt,
    ctx: &RunContext,
    checkpoint: Option<&str>,
) -> Result<QueryResult> {
    execute_select_with(cat, stmt, ctx, checkpoint, None)
}

/// The executor behind every SELECT. With a `slot`, a statement that has
/// both GROUP BY and SKYLINE OF reuses the aggregate-skyline input the slot
/// keeps when it was gathered at the catalog's current version for the
/// same statement, γ aside; otherwise it gathers the input and keeps it in
/// the slot's place. Either way it counts the skyline itself, so the result
/// does not depend on the slot.
pub(crate) fn execute_select_with(
    cat: &Catalog,
    stmt: &SelectStmt,
    ctx: &RunContext,
    checkpoint: Option<&str>,
    slot: Option<&mut KeptInput>,
) -> Result<QueryResult> {
    let select_span = ctx.obs().map_or(0, |rec| rec.span_start("select", 0, Stamp::ZERO));
    // ---- resolve FROM ----
    let mut tables = Vec::with_capacity(stmt.from.len());
    let mut schema = Schema { columns: Vec::new() };
    let mut seen_aliases: HashSet<String> = HashSet::new();
    for tref in &stmt.from {
        let table = cat.get(&tref.name)?;
        let alias = tref.effective_alias().to_string();
        if !seen_aliases.insert(alias.to_ascii_lowercase()) {
            return Err(SqlError::Parse(format!("duplicate table alias {alias:?}")));
        }
        for c in &table.columns {
            schema.columns.push((alias.clone(), c.name.clone()));
        }
        tables.push(table);
    }

    // ---- compile expressions ----
    let run_subquery = |sub: &SelectStmt| -> Result<HashSet<Key<'static>>> {
        let result = execute_select(cat, sub)?;
        if result.columns.len() != 1 {
            return Err(SqlError::Eval(format!(
                "IN subquery must return one column, got {}",
                result.columns.len()
            )));
        }
        Ok(result.rows.iter().filter_map(|r| r.first()).map(|v| Key::of(v).into_owned()).collect())
    };
    let mut compiler = Compiler::new(&schema, &run_subquery);

    let where_expr = stmt.where_clause.as_ref().map(|e| compiler.compile(e)).transpose()?;
    if !compiler.aggs.is_empty() {
        return Err(SqlError::Unsupported("aggregates in WHERE".into()));
    }
    let group_exprs: Vec<RExpr> =
        stmt.group_by.iter().map(|e| compiler.compile(e)).collect::<Result<_>>()?;
    if !compiler.aggs.is_empty() {
        return Err(SqlError::Unsupported("aggregates in GROUP BY".into()));
    }

    // Projection (wildcard expands to every schema column).
    let mut proj_exprs: Vec<RExpr> = Vec::new();
    let mut columns: Vec<String> = Vec::new();
    for item in &stmt.projection {
        match item {
            SelectItem::Wildcard => {
                for (i, (_, name)) in schema.columns.iter().enumerate() {
                    proj_exprs.push(RExpr::Col(i));
                    columns.push(name.clone());
                }
            }
            SelectItem::Expr { expr, alias } => {
                proj_exprs.push(compiler.compile(expr)?);
                columns.push(alias.clone().unwrap_or_else(|| render_name(expr)));
            }
        }
    }
    let having_expr = stmt.having.as_ref().map(|e| compiler.compile(e)).transpose()?;
    let order_exprs: Vec<(RExpr, SortDir)> = stmt
        .order_by
        .iter()
        .map(|(e, d)| match e {
            // An integer names the k-th output column (1-based), as in SQLite.
            Expr::Literal(Value::Int(k)) => usize::try_from(*k)
                .ok()
                .and_then(|k| proj_exprs.get(k.checked_sub(1)?))
                .map(|p| (p.clone(), *d))
                .ok_or_else(|| {
                    SqlError::UnknownColumn(format!(
                        "ORDER BY {k}: the result has {} columns",
                        proj_exprs.len()
                    ))
                }),
            e => Ok((compiler.compile(e)?, *d)),
        })
        .collect::<Result<_>>()?;
    let sky_exprs: Vec<(RExpr, SkyDir)> = match &stmt.skyline {
        Some(clause) => clause
            .items
            .iter()
            .map(|(e, d)| Ok((compiler.compile(e)?, *d)))
            .collect::<Result<_>>()?,
        None => Vec::new(),
    };
    let gamma = match &stmt.skyline {
        Some(clause) => Gamma::new(clause.gamma.unwrap_or(0.5)).map_err(eval_error)?,
        None => Gamma::DEFAULT,
    };
    let aggs = std::mem::take(&mut compiler.aggs);
    let grouped = !stmt.group_by.is_empty() || !aggs.is_empty();
    if grouped && stmt.skyline.is_some() && stmt.group_by.is_empty() {
        return Err(SqlError::Unsupported("SKYLINE OF with aggregates requires GROUP BY".into()));
    }
    let grouping = Grouping {
        exprs: &group_exprs,
        aggs: &aggs,
        having: having_expr.as_ref(),
        sky: &sky_exprs,
    };

    // ---- pushdown planning ----
    let widths: Vec<usize> = tables.iter().map(|t| t.columns.len()).collect();
    let offsets: Vec<usize> = widths
        .iter()
        .scan(0usize, |acc, w| {
            let o = *acc;
            *acc += w;
            Some(o)
        })
        .collect();
    let plan = ScanPlan::new(where_expr.as_ref(), &offsets, &widths)?;
    let residual = plan.residual.as_ref();

    // ---- scan ----
    let (mut out, interrupted) = if plan.always_empty {
        if grouped && stmt.group_by.is_empty() {
            // Aggregates over an empty input still produce one group; keep
            // the parts' widths so the implicit group's NULL row has the
            // right shape, but drop every row.
            let empty_parts: Vec<Part<'_>> =
                tables.iter().map(|&table| Part { table, ids: Some(Vec::new()) }).collect();
            let input = gather(&empty_parts, None, &grouping, ctx)?;
            (project(input.survivors.iter(), &proj_exprs, &order_exprs)?, None)
        } else {
            (Vec::new(), None)
        }
    } else if grouped && !sky_exprs.is_empty() {
        // The aggregate skyline (SKYLINE OF has GROUP BY here, see above).
        let gather_now = || gather(&push_down(&tables, &plan)?, residual, &grouping, ctx);
        let mut fresh = None;
        let input = match slot {
            Some(slot) => {
                let (input, reused) = slot.get_or_gather(cat.version(), stmt, gather_now)?;
                if let (true, Some(rec)) = (reused, ctx.obs()) {
                    rec.add(Counter::SqlInputReused, 1);
                }
                input
            }
            None => fresh.insert(gather_now()?),
        };
        skyline_rows(input, gamma, &proj_exprs, &order_exprs, ctx, checkpoint)?
    } else if grouped {
        let input = gather(&push_down(&tables, &plan)?, residual, &grouping, ctx)?;
        (project(input.survivors.iter(), &proj_exprs, &order_exprs)?, None)
    } else {
        let parts = push_down(&tables, &plan)?;
        (scan_plain(&parts, residual, &sky_exprs, &proj_exprs, &order_exprs, ctx)?, None)
    };

    // ---- distinct / order / limit ----
    if stmt.distinct {
        let mut seen: HashSet<Vec<Key<'_>>> = HashSet::new();
        let first: Vec<bool> =
            out.iter().map(|(row, _)| seen.insert(row.iter().map(Key::of).collect())).collect();
        drop(seen);
        let mut first = first.into_iter();
        out.retain(|_| first.next().unwrap_or(true));
    }
    if !order_exprs.is_empty() {
        out.sort_by(|(_, ka), (_, kb)| {
            for ((_, dir), (a, b)) in order_exprs.iter().zip(ka.iter().zip(kb)) {
                let ord = compare_for_sort(a, b);
                let ord = match dir {
                    SortDir::Asc => ord,
                    SortDir::Desc => ord.reverse(),
                };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    if let Some(limit) = stmt.limit {
        out.truncate(limit);
    }
    if let Some(rec) = ctx.obs() {
        rec.span_end(select_span, Stamp::ZERO, &[("rows_out", wide(out.len()))]);
    }
    Ok(QueryResult { columns, rows: out.into_iter().map(|(r, _)| r).collect(), interrupted })
}

/// The record loop every aggregate-skyline step counts with, plain or
/// durable: the anytime engine's columnar kernel, on AVX2 when the CPU has
/// it.
pub(crate) fn skyline_kernel_name() -> &'static str {
    if aggsky_core::cpu::simd_active() {
        "columnar-avx2"
    } else {
        "columnar-scalar"
    }
}

/// Widens a length to a counter delta (sanctioned lossless conversion).
fn wide(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Executes a SELECT under a dedicated trace recorder and renders the
/// `EXPLAIN ANALYZE` report: the static plan, the recorded span tree with
/// counters inline, and the result cardinality. The trace's counter totals
/// equal the `Stats` of the same query run plainly (the skyline step dumps
/// its counters exactly once).
pub fn explain_analyze_select(
    cat: &Catalog,
    stmt: &SelectStmt,
    ctx: &RunContext,
) -> Result<QueryResult> {
    explain_analyze_select_with(cat, stmt, ctx).map(|(result, _)| result)
}

/// [`explain_analyze_select`] also returning the recorded trace snapshot,
/// so the engine can journal the measured counters alongside the report.
pub fn explain_analyze_select_with(
    cat: &Catalog,
    stmt: &SelectStmt,
    ctx: &RunContext,
) -> Result<(QueryResult, aggsky_obs::TraceSnapshot)> {
    let rec = Arc::new(TraceRecorder::new());
    let traced = ctx.clone().with_recorder(rec.clone());
    let result = execute_select_ctx(cat, stmt, &traced)?;
    let mut text = explain_select(cat, stmt)?;
    text.push('\n');
    text.push_str(&render_summary(&rec.snapshot()));
    text.push_str(&format!("\n{} row(s) returned\n", result.rows.len()));
    if let Some(i) = &result.interrupted {
        text.push_str(&format!(
            "interrupted ({}): {} group(s) undecided\n",
            i.reason, i.undecided_groups
        ));
    }
    let rows = text.lines().map(|l| vec![Value::Str(l.to_string())]).collect();
    let report = QueryResult {
        columns: vec!["EXPLAIN ANALYZE".to_string()],
        rows,
        interrupted: result.interrupted,
    };
    Ok((report, rec.snapshot()))
}

/// Builds the EXPLAIN description for a SELECT (shared logic with
/// [`execute_select`]'s planning phase, without touching any rows).
pub fn explain_select(cat: &Catalog, stmt: &SelectStmt) -> Result<String> {
    let mut tables = Vec::new();
    let mut schema = Schema { columns: Vec::new() };
    let mut names = Vec::new();
    for tref in &stmt.from {
        let table = cat.get(&tref.name)?;
        let alias = tref.effective_alias().to_string();
        for c in &table.columns {
            schema.columns.push((alias.clone(), c.name.clone()));
        }
        names.push(if alias.eq_ignore_ascii_case(&table.name) {
            table.name.clone()
        } else {
            format!("{} AS {alias}", table.name)
        });
        tables.push(table);
    }
    let run_subquery = |_: &SelectStmt| -> Result<HashSet<Key<'static>>> {
        // EXPLAIN must not execute subqueries; membership sets are opaque.
        Ok(HashSet::new())
    };
    let mut compiler = Compiler::new(&schema, &run_subquery);
    let where_expr = stmt.where_clause.as_ref().map(|e| compiler.compile(e)).transpose()?;
    let widths: Vec<usize> = tables.iter().map(|t| t.columns.len()).collect();
    let offsets: Vec<usize> = widths
        .iter()
        .scan(0usize, |acc, w| {
            let o = *acc;
            *acc += w;
            Some(o)
        })
        .collect();
    let plan = ScanPlan::new(where_expr.as_ref(), &offsets, &widths)?;
    let mut out = plan.describe(&names);
    if !stmt.group_by.is_empty() {
        out.push_str(&format!("HASH AGGREGATE: {} grouping key(s)\n", stmt.group_by.len()));
    }
    if stmt.having.is_some() {
        out.push_str("HAVING FILTER\n");
    }
    if let Some(sky) = &stmt.skyline {
        if stmt.group_by.is_empty() {
            out.push_str(&format!("RECORD SKYLINE: {} attribute(s) (BNL)\n", sky.items.len()));
        } else {
            out.push_str(&format!(
                "AGGREGATE SKYLINE: {} attribute(s), gamma = {} (anytime engine, dominators \
                 first, {} kernel)\n",
                sky.items.len(),
                sky.gamma.unwrap_or(0.5),
                skyline_kernel_name()
            ));
        }
    }
    if stmt.distinct {
        out.push_str("DISTINCT\n");
    }
    if !stmt.order_by.is_empty() {
        out.push_str("SORT\n");
    }
    if let Some(n) = stmt.limit {
        out.push_str(&format!("LIMIT {n}\n"));
    }
    Ok(out)
}

/// NULLs sort first; mixed types sort by type tag.
fn compare_for_sort(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match a.sql_cmp(b) {
        Some(o) => o,
        None => {
            let tag = |v: &Value| match v {
                Value::Null => 0u8,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Str(_) => 2,
            };
            match (tag(a), tag(b)) {
                (x, y) if x != y => x.cmp(&y),
                _ => Ordering::Equal,
            }
        }
    }
}

fn render_name(expr: &Expr) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Aggregate { func, arg } => {
            let f = match func {
                AggFunc::Count => "count",
                AggFunc::Sum => "sum",
                AggFunc::Avg => "avg",
                AggFunc::Min => "min",
                AggFunc::Max => "max",
            };
            match arg {
                None => format!("{f}(*)"),
                Some(a) => format!("{f}({})", render_name(a)),
            }
        }
        _ => "expr".to_string(),
    }
}

/// One FROM entry prepared for scanning: its table and the rows that
/// passed the predicate pushed down to it.
struct Part<'a> {
    table: &'a Table,
    /// Ids of the rows that passed, ascending; `None` when no predicate was
    /// pushed down to this entry.
    ids: Option<Vec<usize>>,
}

impl Part<'_> {
    /// Number of selected rows.
    fn len(&self) -> usize {
        self.ids.as_ref().map_or(self.table.len(), Vec::len)
    }

    fn width(&self) -> usize {
        self.table.columns.len()
    }

    /// The table row id of the `k`-th selected row.
    fn id(&self, k: usize) -> Option<usize> {
        match &self.ids {
            Some(ids) => ids.get(k).copied(),
            None => (k < self.table.len()).then_some(k),
        }
    }

    /// The selected row ids, in order.
    fn row_ids(&self) -> impl Iterator<Item = usize> + '_ {
        let all = self.ids.is_none().then(|| 0..self.table.len());
        self.ids.iter().flatten().copied().chain(all.into_iter().flatten())
    }

    /// Reads the `k`-th selected row into the `[start, end)` segment of a
    /// joined row.
    fn read(&self, k: usize, buf: &mut [Value], (start, end): (usize, usize)) {
        if let (Some(id), Some(slots)) = (self.id(k), buf.get_mut(start..end)) {
            self.table.read_row(id, slots);
        }
    }
}

/// Each FROM entry's selection: the ids of the rows that pass the predicate
/// the plan pushed down to it, if any. The predicate reads only the
/// columns it names.
fn push_down<'a>(tables: &[&'a Table], plan: &ScanPlan) -> Result<Vec<Part<'a>>> {
    tables
        .iter()
        .zip(plan.per_table.iter())
        .map(|(&table, pred)| {
            let Some(p) = pred else { return Ok(Part { table, ids: None }) };
            let mut used = Vec::new();
            columns_used(p, &mut used);
            used.sort_unstable();
            used.dedup();
            let cells: Vec<(usize, &Cells)> =
                used.iter().filter_map(|&c| Some((c, table.cells(c)?))).collect();
            let mut row = vec![Value::Null; table.columns.len()];
            let mut kept = Vec::new();
            for id in 0..table.len() {
                for &(c, col) in &cells {
                    if let Some(slot) = row.get_mut(c) {
                        col.read(id, slot);
                    }
                }
                if eval(p, &row, &[])?.is_truthy() {
                    kept.push(id);
                }
            }
            Ok(Part { table, ids: Some(kept) })
        })
        .collect()
}

/// Streams the cross product of the prepared parts, invoking `on_row` for
/// each combined row that passes the residual predicate. The joined row is
/// one buffer: advancing a part reads its next selected row into its
/// segment.
fn stream_product(
    parts: &[Part<'_>],
    residual: Option<&RExpr>,
    mut on_row: impl FnMut(&[Value]) -> Result<()>,
) -> Result<()> {
    if parts.is_empty() || parts.iter().any(|p| p.len() == 0) {
        return Ok(());
    }
    let total_width: usize = parts.iter().map(Part::width).sum();
    let mut row_buf: Vec<Value> = vec![Value::Null; total_width];
    // Each part's `[start, end)` segment of the joined row.
    let segments: Vec<(usize, usize)> = parts
        .iter()
        .scan(0usize, |acc, p| {
            let start = *acc;
            *acc += p.width();
            Some((start, *acc))
        })
        .collect();
    let mut idx = vec![0usize; parts.len()];
    // Prime every segment.
    for (part, &segment) in parts.iter().zip(&segments) {
        part.read(0, &mut row_buf, segment);
    }
    loop {
        let passes = match residual {
            Some(e) => eval(e, &row_buf, &[])?.is_truthy(),
            None => true,
        };
        if passes {
            on_row(&row_buf)?;
        }
        // Odometer advance (last table spins fastest): a part that runs
        // out wraps to its first row and carries into the part before it.
        let mut carried = true;
        for ((k, part), &segment) in idx.iter_mut().zip(parts).zip(&segments).rev() {
            *k += 1;
            carried = *k >= part.len();
            if carried {
                *k = 0;
            }
            part.read(*k, &mut row_buf, segment);
            if !carried {
                break;
            }
        }
        if carried {
            return Ok(());
        }
    }
}

type RowWithKeys = (Vec<Value>, Vec<Value>);

/// Ungrouped scan: project each passing row, with optional record skyline.
fn scan_plain(
    parts: &[Part<'_>],
    residual: Option<&RExpr>,
    sky_exprs: &[(RExpr, SkyDir)],
    proj_exprs: &[RExpr],
    order_exprs: &[(RExpr, SortDir)],
    ctx: &RunContext,
) -> Result<Vec<RowWithKeys>> {
    let scan_span = ctx.obs().map_or(0, |rec| rec.span_start("scan", 0, Stamp::ZERO));
    let mut out: Vec<RowWithKeys> = Vec::new();
    let mut sky_flat: Vec<f64> = Vec::new();
    stream_product(parts, residual, |row| {
        let proj: Vec<Value> =
            proj_exprs.iter().map(|e| eval(e, row, &[])).collect::<Result<_>>()?;
        let keys: Vec<Value> =
            order_exprs.iter().map(|(e, _)| eval(e, row, &[])).collect::<Result<_>>()?;
        for (e, dir) in sky_exprs {
            sky_flat.push(sky_value(e, *dir, row)?);
        }
        out.push((proj, keys));
        Ok(())
    })?;
    if let Some(rec) = ctx.obs() {
        rec.add(Counter::SqlRowsScanned, wide(out.len()));
        rec.span_end(scan_span, Stamp::ZERO, &[("rows", wide(out.len()))]);
    }
    if !sky_exprs.is_empty() && !out.is_empty() {
        let sky_span = ctx.obs().map_or(0, |rec| rec.span_start("record_skyline", 0, Stamp::ZERO));
        let input = out.len();
        let keep = aggsky_core::record_skyline::bnl(&sky_flat, sky_exprs.len());
        let keep_set: HashSet<usize> = keep.into_iter().collect();
        let mut i = 0;
        out.retain(|_| {
            let k = keep_set.contains(&i);
            i += 1;
            k
        });
        if let Some(rec) = ctx.obs() {
            rec.span_end(
                sky_span,
                Stamp::ZERO,
                &[("input_rows", wide(input)), ("kept", wide(out.len()))],
            );
        }
    }
    Ok(out)
}

/// One SKYLINE OF attribute of a row, negated for MIN so larger is better.
fn sky_value(e: &RExpr, dir: SkyDir, row: &[Value]) -> Result<f64> {
    Ok(directed(sky_number(&eval(e, row, &[])?)?, dir))
}

/// A SKYLINE OF value as a number.
fn sky_number(v: &Value) -> Result<f64> {
    v.as_f64().ok_or_else(|| SqlError::Eval("SKYLINE OF attribute must be numeric".into()))
}

/// Negates a MIN attribute so larger is better.
fn directed(v: f64, dir: SkyDir) -> f64 {
    match dir {
        SkyDir::Max => v,
        SkyDir::Min => -v,
    }
}

/// One aggregate accumulator.
#[derive(Debug, Clone)]
enum Acc {
    Count(u64),
    Sum { sum: f64, seen: bool },
    Avg { sum: f64, n: u64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum { sum: 0.0, seen: false },
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match self {
            Acc::Count(c) => {
                // `v = None` encodes COUNT(*): count unconditionally.
                match v {
                    None => *c += 1,
                    Some(val) if !val.is_null() => *c += 1,
                    Some(_) => {}
                }
            }
            Acc::Sum { sum, seen } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        *sum += val
                            .as_f64()
                            .ok_or_else(|| SqlError::Eval("SUM over non-numeric value".into()))?;
                        *seen = true;
                    }
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        *sum += val
                            .as_f64()
                            .ok_or_else(|| SqlError::Eval("AVG over non-numeric value".into()))?;
                        *n += 1;
                    }
                }
            }
            Acc::Min(cur) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let replace = match cur {
                            None => true,
                            Some(c) => matches!(val.sql_cmp(c), Some(std::cmp::Ordering::Less)),
                        };
                        if replace {
                            *cur = Some(val.clone());
                        }
                    }
                }
            }
            Acc::Max(cur) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let replace = match cur {
                            None => true,
                            Some(c) => matches!(val.sql_cmp(c), Some(std::cmp::Ordering::Greater)),
                        };
                        if replace {
                            *cur = Some(val.clone());
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(&self) -> Value {
        match self {
            Acc::Count(c) => Value::Int(i64::try_from(*c).unwrap_or(i64::MAX)),
            Acc::Sum { sum, seen } => {
                if *seen {
                    Value::Float(*sum)
                } else {
                    Value::Null
                }
            }
            Acc::Avg { sum, n } => {
                if *n > 0 {
                    Value::Float(*sum / *n as f64)
                } else {
                    Value::Null
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Null),
        }
    }
}

/// A group being folded by the grouped scan.
struct GroupState {
    /// First row of the group (resolves bare column references, SQLite
    /// style).
    repr: Vec<Value>,
    accs: Vec<Acc>,
    /// Flat skyline-attribute rows of the group's records.
    sky: Vec<f64>,
}

impl GroupState {
    fn new(repr: Vec<Value>, grouping: &Grouping<'_>) -> GroupState {
        let accs = grouping.aggs.iter().map(|a| Acc::new(a.func)).collect();
        GroupState { repr, accs, sky: Vec::new() }
    }
}

/// What a grouped statement folds its rows by: the compiled GROUP BY keys,
/// aggregate calls, HAVING predicate and SKYLINE OF attributes.
struct Grouping<'a> {
    exprs: &'a [RExpr],
    aggs: &'a [AggCall],
    having: Option<&'a RExpr>,
    sky: &'a [(RExpr, SkyDir)],
}

/// A group that passed HAVING: its representative row and its aggregate
/// values, all a projection reads.
type Survivor = (Vec<Value>, Vec<Value>);

/// The input of a grouped statement: everything before the aggregate
/// skyline is counted, and nothing that depends on γ.
#[derive(Debug)]
struct SkylineInput {
    /// Groups that passed HAVING, in order of first appearance.
    survivors: Vec<Survivor>,
    /// The survivors' SKYLINE OF attributes as a dataset, labelled with
    /// each group's position among all groups, and its columnar
    /// preparation. `None` without SKYLINE OF, or when fewer than two
    /// groups survived, since no skyline is counted then.
    data: Option<(GroupedDataset, PreparedDataset)>,
    /// The dataset's fingerprint, computed by the first durable statement
    /// over this input and reused with each later statement's γ.
    fingerprint: Option<Fingerprint>,
}

/// Gathers a grouped statement's input: folds the selected rows into
/// groups, finishes the aggregates, applies HAVING and, for an aggregate
/// skyline over two or more surviving groups, builds their dataset and its
/// columnar preparation. One FROM table folds column by column; a join
/// folds its streamed product row by row.
fn gather(
    parts: &[Part<'_>],
    residual: Option<&RExpr>,
    grouping: &Grouping<'_>,
    ctx: &RunContext,
) -> Result<SkylineInput> {
    let scan_span = ctx.obs().map_or(0, |rec| rec.span_start("scan", 0, Stamp::ZERO));
    let (mut groups, scanned) = match (parts, residual) {
        // An error is reported as the row fold reports it, so it names the
        // first failing row's first failing expression.
        ([part], None) => {
            fold_columns(part, grouping).or_else(|_| fold_rows(parts, residual, grouping))?
        }
        _ => fold_rows(parts, residual, grouping)?,
    };
    if let Some(rec) = ctx.obs() {
        rec.add(Counter::SqlRowsScanned, scanned);
        rec.add(Counter::SqlGroupsBuilt, wide(groups.len()));
        rec.span_end(scan_span, Stamp::ZERO, &[("rows", scanned), ("groups", wide(groups.len()))]);
    }

    // Aggregate-less GROUP BY-less aggregate query (e.g. SELECT count(*)):
    // one implicit group even over an empty input.
    if groups.is_empty() && grouping.exprs.is_empty() {
        let width: usize = parts.iter().map(Part::width).sum();
        groups.push(GroupState::new(vec![Value::Null; width], grouping));
    }

    // Finalize aggregates and apply HAVING.
    let mut survivors: Vec<Survivor> = Vec::new();
    let mut skies: Vec<(usize, Vec<f64>)> = Vec::new();
    for (order, g) in groups.into_iter().enumerate() {
        let agg_values: Vec<Value> = g.accs.iter().map(Acc::finish).collect();
        let keep = match grouping.having {
            Some(h) => eval(h, &g.repr, &agg_values)?.is_truthy(),
            None => true,
        };
        if keep {
            survivors.push((g.repr, agg_values));
            skies.push((order, g.sky));
        }
    }

    let dim = grouping.sky.len();
    let data = if dim > 0 && survivors.len() > 1 {
        let mut b = aggsky_core::GroupedDatasetBuilder::new(dim).trusted_labels();
        for (order, sky) in &skies {
            let rows: Vec<&[f64]> = sky.chunks_exact(dim).collect();
            b.push_group(order.to_string(), &rows).map_err(eval_error)?;
        }
        let ds = b.build().map_err(eval_error)?;
        let prep =
            PreparedDataset::build(&ds, PreparedDataset::DEFAULT_BLOCK_SIZE).map_err(eval_error)?;
        Some((ds, prep))
    } else {
        None
    };
    Ok(SkylineInput { survivors, data, fingerprint: None })
}

/// Groups in order of first appearance, and the number of rows folded.
type Folded = (Vec<GroupState>, u64);

/// Folds the streamed product row by row: every key, aggregate argument
/// and SKYLINE OF attribute is evaluated on the joined row.
fn fold_rows(
    parts: &[Part<'_>],
    residual: Option<&RExpr>,
    grouping: &Grouping<'_>,
) -> Result<Folded> {
    let mut index: HashMap<Vec<Key<'static>>, usize> = HashMap::new();
    let mut groups: Vec<GroupState> = Vec::new();
    let mut key: Vec<Key<'static>> = Vec::with_capacity(grouping.exprs.len());
    let mut scanned = 0u64;
    stream_product(parts, residual, |row| {
        scanned = scanned.saturating_add(1);
        key.clear();
        for e in grouping.exprs {
            key.push(Key::of(&eval(e, row, &[])?).into_owned());
        }
        let g = match index.get(key.as_slice()) {
            Some(&g) => g,
            None => {
                index.insert(key.clone(), groups.len());
                groups.push(GroupState::new(row.to_vec(), grouping));
                groups.len() - 1
            }
        };
        let Some(state) = groups.get_mut(g) else { return Ok(()) };
        for (acc, call) in state.accs.iter_mut().zip(grouping.aggs) {
            match &call.arg {
                Some(a) => acc.update(Some(&eval(a, row, &[])?))?,
                None => acc.update(None)?,
            }
        }
        for (e, dir) in grouping.sky {
            state.sky.push(sky_value(e, *dir, row)?);
        }
        Ok(())
    })?;
    Ok((groups, scanned))
}

/// How the column fold reads one expression: straight from the cells of a
/// plain column reference, or by evaluating it on the row.
enum Operand<'a> {
    Cells(&'a Cells),
    Expr(&'a RExpr),
}

impl<'a> Operand<'a> {
    fn of(table: &'a Table, e: &'a RExpr) -> Operand<'a> {
        match e {
            RExpr::Col(c) => table.cells(*c).map_or(Operand::Expr(e), Operand::Cells),
            e => Operand::Expr(e),
        }
    }

    /// The operand's value at row `id`, read into `slot`; `row` is a
    /// scratch buffer for evaluated expressions.
    fn read(&self, table: &Table, id: usize, row: &mut [Value], slot: &mut Value) -> Result<()> {
        match self {
            Operand::Cells(cells) => cells.read(id, slot),
            Operand::Expr(e) => {
                table.read_row(id, row);
                *slot = eval(e, row, &[])?;
            }
        }
        Ok(())
    }
}

/// Folds one FROM table column by column: first the group of every
/// selected row, then each aggregate, then each SKYLINE OF attribute
/// scattered into its groups' flat rows. Plain column references read the
/// cells; any other expression is evaluated on the row.
fn fold_columns(part: &Part<'_>, grouping: &Grouping<'_>) -> Result<Folded> {
    let table = part.table;
    let mut row = vec![Value::Null; table.columns.len()];
    let (of_row, mut groups) = assign_groups(part, grouping, &mut row)?;
    let mut slot = Value::Null;
    for (a, call) in grouping.aggs.iter().enumerate() {
        let arg = call.arg.as_ref().map(|e| Operand::of(table, e));
        for (id, &g) in part.row_ids().zip(&of_row) {
            let acc = groups.get_mut(g).and_then(|s| s.accs.get_mut(a)).ok_or_else(out_of_step)?;
            match &arg {
                None => acc.update(None)?,
                Some(arg) => {
                    arg.read(table, id, &mut row, &mut slot)?;
                    acc.update(Some(&slot))?;
                }
            }
        }
    }
    let dim = grouping.sky.len();
    if dim > 0 {
        // Each row's position inside its group, and the groups' sizes.
        let mut sizes = vec![0usize; groups.len()];
        let mut at = Vec::with_capacity(of_row.len());
        for &g in &of_row {
            let n = sizes.get_mut(g).ok_or_else(out_of_step)?;
            at.push(*n);
            *n += 1;
        }
        for (state, n) in groups.iter_mut().zip(sizes) {
            state.sky = vec![0.0; n * dim];
        }
        for (j, (e, dir)) in grouping.sky.iter().enumerate() {
            let arg = Operand::of(table, e);
            for ((id, &g), &k) in part.row_ids().zip(&of_row).zip(&at) {
                let v = match arg {
                    Operand::Cells(Cells::Float(col)) => col.get(id).copied(),
                    Operand::Cells(Cells::Int(col)) => col.get(id).map(|&x| x as f64),
                    _ => {
                        arg.read(table, id, &mut row, &mut slot)?;
                        Some(sky_number(&slot)?)
                    }
                };
                let cell = groups.get_mut(g).and_then(|s| s.sky.get_mut(k * dim + j));
                match (cell, v) {
                    (Some(cell), Some(v)) => *cell = directed(v, *dir),
                    _ => return Err(out_of_step()),
                }
            }
        }
    }
    Ok((groups, wide(of_row.len())))
}

/// The column fold lost track of a row: never expected, and answered by the
/// row fold, as every column-fold error is.
fn out_of_step() -> SqlError {
    SqlError::Eval("the column fold lost a row".into())
}

/// The group of every selected row, and the groups in order of first
/// appearance, each with its first row. One TEXT key column maps its
/// dictionary codes to groups through a dense array; other keys hash.
fn assign_groups(
    part: &Part<'_>,
    grouping: &Grouping<'_>,
    row: &mut [Value],
) -> Result<(Vec<usize>, Vec<GroupState>)> {
    let table = part.table;
    let mut of_row = Vec::with_capacity(part.len());
    let mut groups = Vec::new();
    let first_row = |id: usize| table.row(id).unwrap_or_default();
    let text_key = match grouping.exprs {
        [RExpr::Col(c)] => match table.cells(*c) {
            Some(Cells::Text(text)) => Some(text),
            _ => None,
        },
        _ => None,
    };
    if let Some(text) = text_key {
        let mut group_of_code = vec![usize::MAX; text.dict.len()];
        for id in part.row_ids() {
            let code = text.codes.get(id).and_then(|&c| usize::try_from(c).ok());
            let g = code.and_then(|c| group_of_code.get_mut(c)).ok_or_else(out_of_step)?;
            if *g == usize::MAX {
                *g = groups.len();
                groups.push(GroupState::new(first_row(id), grouping));
            }
            of_row.push(*g);
        }
        return Ok((of_row, groups));
    }
    let keys: Vec<Operand<'_>> = grouping.exprs.iter().map(|e| Operand::of(table, e)).collect();
    let mut index: HashMap<Vec<Key<'_>>, usize> = HashMap::new();
    let mut key: Vec<Key<'_>> = Vec::with_capacity(keys.len());
    for id in part.row_ids() {
        key.clear();
        for op in &keys {
            key.push(match op {
                Operand::Cells(cells) => cells.key(id),
                Operand::Expr(e) => {
                    table.read_row(id, row);
                    Key::of(&eval(e, row, &[])?).into_owned()
                }
            });
        }
        let g = match index.get(key.as_slice()) {
            Some(&g) => g,
            None => {
                index.insert(key.clone(), groups.len());
                groups.push(GroupState::new(first_row(id), grouping));
                groups.len() - 1
            }
        };
        of_row.push(g);
    }
    Ok((of_row, groups))
}

/// Counts the aggregate skyline over a gathered input (Example 3
/// semantics: the skyline acts as a HAVING-like filter on groups) and
/// projects the groups it keeps, with the interruption when a budget or
/// cancellation cut the count short. A kept input and a freshly gathered
/// one run this same code, so ticks, `Stats`, spans and checkpoint frames
/// do not depend on where the input came from.
fn skyline_rows(
    input: &mut SkylineInput,
    gamma: Gamma,
    proj_exprs: &[RExpr],
    order_exprs: &[(RExpr, SortDir)],
    ctx: &RunContext,
    checkpoint: Option<&str>,
) -> Result<(Vec<RowWithKeys>, Option<Interruption>)> {
    let SkylineInput { survivors, data, fingerprint } = input;
    let Some((ds, prep)) = data else {
        // Fewer than two groups survived: none can dominate another.
        return Ok((project(survivors.iter(), proj_exprs, order_exprs)?, None));
    };
    let sky_span = ctx.obs().map_or(0, |rec| rec.span_start("skyline", 0, Stamp::ZERO));
    let kernel = Kernel::with_prepared(ds, prep);
    // Both paths run the anytime engine. A budget-exhausted (or cancelled)
    // run degrades gracefully: keep only the groups proven to belong to the
    // skyline and record the interruption instead of failing the query.
    let (result, interrupt) = if let Some(dir) = checkpoint {
        // Durable path (`SET CHECKPOINT`): persist the partition as a
        // crash-consistent frame and resume from the newest valid one. A
        // mismatched fingerprint (different data/γ in the same directory)
        // is a hard error, not silent degradation. The data hash does not
        // depend on γ, so a kept fingerprint only takes this γ's bits.
        let fp = *fingerprint.get_or_insert_with(|| Fingerprint::of(ds, gamma));
        let fp = Fingerprint { gamma_bits: gamma.value().to_bits(), ..fp };
        let store = CheckpointStore::open(std::path::Path::new(dir)).map_err(eval_error)?;
        let out = checkpoint_step_with(&kernel, gamma, ctx, &store, &fp).map_err(eval_error)?;
        (out.result, out.interrupt)
    } else {
        let result = anytime_skyline_with(&kernel, gamma, ctx);
        let interrupt = result.interrupt(ctx);
        (result, interrupt)
    };
    let undecided_groups = result.undecided.len();
    let interrupted = interrupt.map(|reason| Interruption { reason, undecided_groups });
    let members = result.confirmed_in;
    let mut keep = vec![false; survivors.len()];
    for g in members {
        if let Some(k) = keep.get_mut(g) {
            *k = true;
        }
    }
    if let Some(rec) = ctx.obs() {
        let kept = keep.iter().filter(|&&k| k).count();
        rec.span_end(
            sky_span,
            Stamp::ZERO,
            &[("groups", wide(survivors.len())), ("kept", wide(kept))],
        );
    }
    let members = survivors.iter().zip(&keep).filter(|(_, &k)| k).map(|(s, _)| s);
    Ok((project(members, proj_exprs, order_exprs)?, interrupted))
}

/// Projects groups to output rows, each with its ORDER BY keys.
fn project<'a>(
    groups: impl Iterator<Item = &'a Survivor>,
    proj_exprs: &[RExpr],
    order_exprs: &[(RExpr, SortDir)],
) -> Result<Vec<RowWithKeys>> {
    groups
        .map(|(repr, aggs)| {
            let proj: Vec<Value> =
                proj_exprs.iter().map(|e| eval(e, repr, aggs)).collect::<Result<_>>()?;
            let keys: Vec<Value> =
                order_exprs.iter().map(|(e, _)| eval(e, repr, aggs)).collect::<Result<_>>()?;
            Ok((proj, keys))
        })
        .collect()
}

fn eval_error(e: impl std::fmt::Display) -> SqlError {
    SqlError::Eval(e.to_string())
}

/// The one aggregate-skyline input a [`crate::Database`] keeps: the last
/// one it gathered, with the catalog version and the statement (its
/// `GAMMA` removed) it was gathered for. One slot, not one per table, so it
/// holds at most the input the last statement had to build anyway. It is
/// not a result cache: every statement still counts its skyline.
#[derive(Debug, Default)]
pub(crate) struct KeptInput {
    kept: Option<(u64, SelectStmt, SkylineInput)>,
}

impl KeptInput {
    /// The kept input when it was gathered at `version` for `stmt`, γ
    /// aside; otherwise the one `gather` returns, kept in its place. A
    /// failed `gather` leaves the slot as it was. The flag says whether the
    /// input was reused.
    fn get_or_gather(
        &mut self,
        version: u64,
        stmt: &SelectStmt,
        gather: impl FnOnce() -> Result<SkylineInput>,
    ) -> Result<(&mut SkylineInput, bool)> {
        let mut key = stmt.clone();
        if let Some(sky) = &mut key.skyline {
            sky.gamma = None;
        }
        let (entry, reused) = match self.kept.take() {
            Some(kept) if kept.0 == version && kept.1 == key => (kept, true),
            old => match gather() {
                Ok(input) => ((version, key, input), false),
                Err(e) => {
                    self.kept = old;
                    return Err(e);
                }
            },
        };
        let (_, _, input) = self.kept.insert(entry);
        Ok((input, reused))
    }
}

#[cfg(test)]
mod exec_obs_tests {
    use crate::engine::Database;

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

    #[test]
    fn explain_analyze_renders_span_tree_for_skyline_select() {
        let mut db = movie_db();
        let r = db
            .execute(
                "EXPLAIN ANALYZE SELECT director FROM movie \
                 GROUP BY director SKYLINE OF pop MAX, qual MAX",
            )
            .unwrap();
        let text: String = r.rows.iter().map(|row| format!("{}\n", row[0])).collect();
        assert!(text.contains("select"), "no select span: {text}");
        assert!(text.contains("scan"), "no scan span: {text}");
        assert!(text.contains("skyline"), "no skyline span: {text}");
        assert!(text.contains("aggsky_sql_rows_scanned_total"), "no scan counter: {text}");
        assert!(text.contains("row(s) returned"), "no cardinality line: {text}");
    }

    #[test]
    fn explain_analyze_works_for_plain_selects() {
        let mut db = movie_db();
        let r = db.execute("EXPLAIN ANALYZE SELECT director FROM movie WHERE pop > 100").unwrap();
        let text: String = r.rows.iter().map(|row| format!("{}\n", row[0])).collect();
        assert!(text.contains("select"), "no select span: {text}");
        assert!(text.contains("3 row(s) returned"), "wrong cardinality: {text}");
    }

    #[test]
    fn explain_without_analyze_describes_without_executing() {
        let mut db = movie_db();
        let r = db.execute("EXPLAIN SELECT director FROM movie WHERE pop > 100").unwrap();
        assert_eq!(r.columns, vec!["EXPLAIN".to_string()]);
        let text: String = r.rows.iter().map(|row| format!("{}\n", row[0])).collect();
        assert!(text.contains("SCAN"), "no scan description: {text}");
        assert!(!text.contains("row(s) returned"), "EXPLAIN must not execute: {text}");
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use crate::engine::Database;

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

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("aggsky-sqlck-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const SKY: &str =
        "SELECT director FROM movie GROUP BY director SKYLINE OF pop MAX, qual MAX ORDER BY director";

    #[test]
    fn set_checkpoint_persists_frames_and_reruns_identically() {
        let dir = tmpdir("basic");
        let mut db = movie_db();
        let plain = db.execute(SKY).unwrap();
        db.execute(&format!("SET CHECKPOINT '{}'", dir.display())).unwrap();
        assert_eq!(db.checkpoint_dir(), Some(dir.display().to_string().as_str()));
        let durable = db.execute(SKY).unwrap();
        assert_eq!(durable.rows, plain.rows, "durable path changed the skyline");
        let frames = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "agsk"))
            .count();
        assert!(frames > 0, "no frame written under {}", dir.display());
        // Re-running recovers the complete frame and returns the same rows.
        let again = db.execute(SKY).unwrap();
        assert_eq!(again.rows, plain.rows);
        db.execute("SET CHECKPOINT OFF").unwrap();
        assert_eq!(db.checkpoint_dir(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The fingerprint a durable statement writes over a kept input is
    /// `Fingerprint::of` on a freshly built dataset at the statement's γ,
    /// also when the input was kept from a statement at another γ, so
    /// frames written before the input was kept still resume.
    #[test]
    fn kept_fingerprint_is_the_fresh_one_at_the_statements_gamma() {
        use aggsky_core::{CheckpointStore, Fingerprint, Gamma, GroupedDatasetBuilder};
        let mut db = movie_db();
        let sky = |gamma: f64| {
            format!("SELECT director FROM movie GROUP BY director SKYLINE OF pop MAX, qual MAX GAMMA {gamma}")
        };
        // Labels are each group's position in order of first appearance.
        let mut b = GroupedDatasetBuilder::new(2);
        b.push_group("0", &[[313.0, 8.2], [557.0, 9.0]]).unwrap();
        b.push_group("1", &[[362.0, 8.8]]).unwrap();
        b.push_group("2", &[[10.0, 3.2]]).unwrap();
        let fresh = b.build().unwrap();
        let mut dirs = Vec::new();
        for (i, gamma) in [0.6, 0.8, 0.6].into_iter().enumerate() {
            let dir = tmpdir(&format!("fp{i}"));
            db.execute(&format!("SET CHECKPOINT '{}'", dir.display())).unwrap();
            db.execute(&sky(gamma)).unwrap();
            let last = db.journal().records().pop().unwrap();
            assert_eq!(last.input_reused, i > 0, "statement {i}");
            let want = Fingerprint::of(&fresh, Gamma::new(gamma).unwrap());
            let recovery = CheckpointStore::open(&dir).unwrap().load_for(&want).unwrap();
            let (_, snap) = recovery.snapshot.expect("the statement wrote a frame");
            assert_eq!(snap.fingerprint, want, "statement {i} at gamma {gamma}");
            dirs.push(dir);
        }
        for dir in dirs {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn budgeted_checkpoint_queries_converge_across_executions() {
        let dir = tmpdir("budget");
        let mut db = movie_db();
        let exact = db.execute(SKY).unwrap();
        db.execute("SET TIMEOUT 1").unwrap();
        db.execute(&format!("SET CHECKPOINT '{}'", dir.display())).unwrap();
        // Each execution advances one budgeted chunk from the durable
        // frame; the chain must converge to the exact answer.
        let mut rounds = 0;
        let converged = loop {
            let r = db.execute(SKY).unwrap();
            if r.interrupted.is_none() {
                break r;
            }
            rounds += 1;
            assert!(rounds < 10_000, "checkpointed resume chain did not converge");
        };
        assert_eq!(converged.rows, exact.rows);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
