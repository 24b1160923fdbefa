//! Query execution.
//!
//! The executor streams the FROM cross-product row by row (the joined row
//! is never materialized as a whole relation, which keeps the quadratic
//! self-join of the paper's Algorithm 1 memory-bounded), filters with
//! WHERE, then either emits rows directly or folds them into group states
//! for GROUP BY / aggregate queries. `SKYLINE OF` is executed natively: the
//! record form through the BNL skyline of `aggsky-core`, the aggregate form
//! (with GROUP BY) through the exact indexed aggregate-skyline algorithm.

use crate::ast::{AggFunc, Expr, SelectItem, SelectStmt, SkyDir, SortDir};
use crate::catalog::Catalog;
use crate::error::{Result, SqlError};
use crate::plan::{eval, AggCall, Compiler, RExpr, Schema};
use crate::pushdown::ScanPlan;
use crate::value::Value;
use aggsky_core::{InterruptReason, RunContext};
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
    let run_subquery = |sub: &SelectStmt| -> Result<HashSet<String>> {
        let result = execute_select(cat, sub)?;
        if result.columns.len() != 1 {
            return Err(SqlError::Eval(format!(
                "IN subquery must return one column, got {}",
                result.columns.len()
            )));
        }
        Ok(result.rows.into_iter().filter_map(|mut r| r.pop().map(|v| v.group_key())).collect())
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
    let order_exprs: Vec<(RExpr, SortDir)> =
        stmt.order_by.iter().map(|(e, d)| Ok((compiler.compile(e)?, *d))).collect::<Result<_>>()?;
    let sky_exprs: Vec<(RExpr, SkyDir)> = match &stmt.skyline {
        Some(clause) => clause
            .items
            .iter()
            .map(|(e, d)| Ok((compiler.compile(e)?, *d)))
            .collect::<Result<_>>()?,
        None => Vec::new(),
    };
    let gamma = match &stmt.skyline {
        Some(clause) => aggsky_core::Gamma::new(clause.gamma.unwrap_or(0.5))
            .map_err(|e| SqlError::Eval(e.to_string()))?,
        None => aggsky_core::Gamma::DEFAULT,
    };
    let aggs = std::mem::take(&mut compiler.aggs);
    let grouped = !stmt.group_by.is_empty() || !aggs.is_empty();
    if grouped && stmt.skyline.is_some() && stmt.group_by.is_empty() {
        return Err(SqlError::Unsupported("SKYLINE OF with aggregates requires GROUP BY".into()));
    }

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
    let parts: Vec<Part<'_>> = tables
        .iter()
        .zip(plan.per_table.iter())
        .map(|(table, pred)| {
            let rows = match pred {
                None => PartRows::Borrowed(&table.rows),
                Some(p) => {
                    let mut kept = Vec::new();
                    for row in &table.rows {
                        if eval(p, row, &[])?.is_truthy() {
                            kept.push(row.clone());
                        }
                    }
                    PartRows::Owned(kept)
                }
            };
            Ok(Part { rows, width: table.columns.len() })
        })
        .collect::<Result<_>>()?;

    // ---- scan ----
    let mut interrupted: Option<Interruption> = None;
    let mut out = if plan.always_empty {
        if grouped && stmt.group_by.is_empty() {
            // Aggregates over an empty input still produce one group; keep
            // the parts' widths so the implicit group's NULL row has the
            // right shape, but drop every row.
            let empty_parts: Vec<Part<'_>> = parts
                .iter()
                .map(|p| Part { rows: PartRows::Owned(Vec::new()), width: p.width })
                .collect();
            scan_grouped(
                &empty_parts,
                None,
                &group_exprs,
                &aggs,
                having_expr.as_ref(),
                &sky_exprs,
                gamma,
                &proj_exprs,
                &order_exprs,
                ctx,
                checkpoint,
                &mut interrupted,
            )?
        } else {
            Vec::new()
        }
    } else if grouped {
        scan_grouped(
            &parts,
            plan.residual.as_ref(),
            &group_exprs,
            &aggs,
            having_expr.as_ref(),
            &sky_exprs,
            gamma,
            &proj_exprs,
            &order_exprs,
            ctx,
            checkpoint,
            &mut interrupted,
        )?
    } else {
        scan_plain(&parts, plan.residual.as_ref(), &sky_exprs, &proj_exprs, &order_exprs, ctx)?
    };

    // ---- distinct / order / limit ----
    if stmt.distinct {
        let mut seen: HashSet<String> = HashSet::new();
        out.retain(|(row, _)| {
            let key: String = row.iter().map(Value::group_key).collect();
            seen.insert(key)
        });
    }
    if !order_exprs.is_empty() {
        out.sort_by(|(_, ka), (_, kb)| {
            for (i, (_, dir)) in order_exprs.iter().enumerate() {
                let ord = compare_for_sort(&ka[i], &kb[i]);
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
/// durable: the columnar kernel of `AlgoOptions::exact`, which the anytime
/// engine shares, on AVX2 when the CPU has it.
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
    let run_subquery = |_: &SelectStmt| -> Result<std::collections::HashSet<String>> {
        // EXPLAIN must not execute subqueries; membership sets are opaque.
        Ok(std::collections::HashSet::new())
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
                "AGGREGATE SKYLINE: {} attribute(s), gamma = {} (indexed, exact pruning, {} \
                 kernel)\n",
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

/// Rows of one FROM entry, possibly pre-filtered by a pushed-down
/// predicate.
enum PartRows<'a> {
    Borrowed(&'a [Vec<Value>]),
    Owned(Vec<Vec<Value>>),
}

/// One FROM entry prepared for scanning.
struct Part<'a> {
    rows: PartRows<'a>,
    width: usize,
}

impl Part<'_> {
    fn rows(&self) -> &[Vec<Value>] {
        match &self.rows {
            PartRows::Borrowed(r) => r,
            PartRows::Owned(r) => r,
        }
    }
}

/// Streams the cross product of the prepared parts, invoking `on_row` for
/// each combined row that passes the residual predicate.
fn stream_product(
    parts: &[Part<'_>],
    residual: Option<&RExpr>,
    mut on_row: impl FnMut(&[Value]) -> Result<()>,
) -> Result<()> {
    let n = parts.len();
    let sizes: Vec<usize> = parts.iter().map(|p| p.rows().len()).collect();
    if n == 0 || sizes.contains(&0) {
        return Ok(());
    }
    let offsets: Vec<usize> = parts
        .iter()
        .scan(0usize, |acc, p| {
            let o = *acc;
            *acc += p.width;
            Some(o)
        })
        .collect();
    let total_width: usize = parts.iter().map(|p| p.width).sum();
    let mut row_buf: Vec<Value> = vec![Value::Null; total_width];
    let mut idx = vec![0usize; n];
    // Prime every segment.
    for k in 0..n {
        refresh_segment(&mut row_buf, &parts[k], 0, offsets[k]);
    }
    loop {
        let passes = match residual {
            Some(e) => eval(e, &row_buf, &[])?.is_truthy(),
            None => true,
        };
        if passes {
            on_row(&row_buf)?;
        }
        // Odometer advance (last table spins fastest).
        let mut k = n;
        loop {
            if k == 0 {
                return Ok(());
            }
            k -= 1;
            idx[k] += 1;
            if idx[k] < sizes[k] {
                refresh_segment(&mut row_buf, &parts[k], idx[k], offsets[k]);
                break;
            }
            idx[k] = 0;
            refresh_segment(&mut row_buf, &parts[k], 0, offsets[k]);
        }
    }
}

#[inline]
fn refresh_segment(buf: &mut [Value], part: &Part<'_>, row: usize, offset: usize) {
    for (slot, v) in buf[offset..offset + part.width].iter_mut().zip(&part.rows()[row]) {
        slot.clone_from(v);
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
            let v = eval(e, row, &[])?
                .as_f64()
                .ok_or_else(|| SqlError::Eval("SKYLINE OF attribute must be numeric".into()))?;
            sky_flat.push(match dir {
                SkyDir::Max => v,
                SkyDir::Min => -v,
            });
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

    fn update(&mut self, v: Option<Value>) -> Result<()> {
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
                            *cur = Some(val);
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
                            *cur = Some(val);
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

struct GroupState {
    /// First row of the group (resolves bare column references, SQLite
    /// style).
    repr: Vec<Value>,
    accs: Vec<Acc>,
    /// Flat skyline-attribute rows of the group's records.
    sky: Vec<f64>,
}

/// Grouped scan: fold rows into group states, apply HAVING, then the
/// aggregate skyline, then project per surviving group.
#[allow(clippy::too_many_arguments)]
fn scan_grouped(
    parts: &[Part<'_>],
    residual: Option<&RExpr>,
    group_exprs: &[RExpr],
    aggs: &[AggCall],
    having_expr: Option<&RExpr>,
    sky_exprs: &[(RExpr, SkyDir)],
    gamma: aggsky_core::Gamma,
    proj_exprs: &[RExpr],
    order_exprs: &[(RExpr, SortDir)],
    ctx: &RunContext,
    checkpoint: Option<&str>,
    interrupted: &mut Option<Interruption>,
) -> Result<Vec<RowWithKeys>> {
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut groups: Vec<GroupState> = Vec::new();
    let scan_span = ctx.obs().map_or(0, |rec| rec.span_start("scan", 0, Stamp::ZERO));
    let mut scanned = 0u64;
    stream_product(parts, residual, |row| {
        scanned = scanned.saturating_add(1);
        let mut key = String::new();
        for e in group_exprs {
            key.push_str(&eval(e, row, &[])?.group_key());
            key.push('\u{1}');
        }
        let gi = match index.get(&key) {
            Some(&gi) => gi,
            None => {
                groups.push(GroupState {
                    repr: row.to_vec(),
                    accs: aggs.iter().map(|a| Acc::new(a.func)).collect(),
                    sky: Vec::new(),
                });
                index.insert(key, groups.len() - 1);
                groups.len() - 1
            }
        };
        let state = &mut groups[gi];
        for (acc, call) in state.accs.iter_mut().zip(aggs.iter()) {
            let v = match &call.arg {
                Some(a) => Some(eval(a, row, &[])?),
                None => None,
            };
            acc.update(v)?;
        }
        for (e, dir) in sky_exprs {
            let v = eval(e, row, &[])?
                .as_f64()
                .ok_or_else(|| SqlError::Eval("SKYLINE OF attribute must be numeric".into()))?;
            state.sky.push(match dir {
                SkyDir::Max => v,
                SkyDir::Min => -v,
            });
        }
        Ok(())
    })?;
    if let Some(rec) = ctx.obs() {
        rec.add(Counter::SqlRowsScanned, scanned);
        rec.add(Counter::SqlGroupsBuilt, wide(groups.len()));
        rec.span_end(scan_span, Stamp::ZERO, &[("rows", scanned), ("groups", wide(groups.len()))]);
    }

    // Aggregate-less GROUP BY-less aggregate query (e.g. SELECT count(*)):
    // one implicit group even over an empty input.
    if groups.is_empty() && group_exprs.is_empty() {
        let width: usize = parts.iter().map(|p| p.width).sum();
        groups.push(GroupState {
            repr: vec![Value::Null; width],
            accs: aggs.iter().map(|a| Acc::new(a.func)).collect(),
            sky: Vec::new(),
        });
    }

    // Finalize aggregates and apply HAVING.
    let mut survivors: Vec<(usize, Vec<Value>)> = Vec::new();
    for (gi, g) in groups.iter().enumerate() {
        let agg_values: Vec<Value> = g.accs.iter().map(Acc::finish).collect();
        let keep = match having_expr {
            Some(h) => eval(h, &g.repr, &agg_values)?.is_truthy(),
            None => true,
        };
        if keep {
            survivors.push((gi, agg_values));
        }
    }

    // Aggregate skyline over the surviving groups (Example 3 semantics:
    // the skyline acts as a HAVING-like filter on groups).
    if !sky_exprs.is_empty() && survivors.len() > 1 {
        let sky_span = ctx.obs().map_or(0, |rec| rec.span_start("skyline", 0, Stamp::ZERO));
        let candidate_groups = survivors.len();
        let dim = sky_exprs.len();
        let mut b = aggsky_core::GroupedDatasetBuilder::new(dim).trusted_labels();
        for (gi, _) in &survivors {
            let rows: Vec<&[f64]> = groups[*gi].sky.chunks_exact(dim).collect();
            b.push_group(gi.to_string(), &rows).map_err(|e| SqlError::Eval(e.to_string()))?;
        }
        let ds = b.build().map_err(|e| SqlError::Eval(e.to_string()))?;
        // A budget-exhausted (or cancelled) run degrades gracefully: keep
        // only the groups proven to belong to the skyline and record the
        // interruption instead of failing the query.
        let keep: HashSet<usize> = if let Some(dir) = checkpoint {
            // Durable path (`SET CHECKPOINT`): persist the partition as a
            // crash-consistent frame and resume from the newest valid one.
            // A mismatched fingerprint (different data/γ in the same
            // directory) is a hard error, not silent degradation.
            let store = aggsky_core::CheckpointStore::open(std::path::Path::new(dir))
                .map_err(|e| SqlError::Eval(e.to_string()))?;
            let out = aggsky_core::checkpoint_step(&ds, gamma, ctx, &store)
                .map_err(|e| SqlError::Eval(e.to_string()))?;
            if let Some(reason) = out.interrupt {
                *interrupted =
                    Some(Interruption { reason, undecided_groups: out.result.undecided.len() });
            }
            out.result.confirmed_in.into_iter().collect()
        } else {
            let opts = aggsky_core::AlgoOptions::exact(gamma);
            let outcome = aggsky_core::Algorithm::Indexed
                .run_ctx(&ds, opts, ctx)
                .map_err(|e| SqlError::Eval(e.to_string()))?;
            match outcome {
                aggsky_core::Outcome::Complete(result) => result.skyline.into_iter().collect(),
                aggsky_core::Outcome::Interrupted { reason, partial } => {
                    *interrupted =
                        Some(Interruption { reason, undecided_groups: partial.undecided.len() });
                    partial.confirmed_in.into_iter().collect()
                }
            }
        };
        let mut i = 0;
        survivors.retain(|_| {
            let k = keep.contains(&i);
            i += 1;
            k
        });
        if let Some(rec) = ctx.obs() {
            rec.span_end(
                sky_span,
                Stamp::ZERO,
                &[("groups", wide(candidate_groups)), ("kept", wide(survivors.len()))],
            );
        }
    }

    // Project per group.
    let mut out = Vec::with_capacity(survivors.len());
    for (gi, agg_values) in survivors {
        let g = &groups[gi];
        let proj: Vec<Value> =
            proj_exprs.iter().map(|e| eval(e, &g.repr, &agg_values)).collect::<Result<_>>()?;
        let keys: Vec<Value> = order_exprs
            .iter()
            .map(|(e, _)| eval(e, &g.repr, &agg_values))
            .collect::<Result<_>>()?;
        out.push((proj, keys));
    }
    Ok(out)
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
