//! Predicate pushdown for the FROM cross product.
//!
//! WHERE conjuncts that reference columns of a single table are evaluated
//! once per base row *before* the join instead of once per joined row,
//! which turns `O(|A|·|B|)` predicate evaluations into `O(|A| + |B|)` for
//! the pushable part and shrinks the product itself. Conjuncts spanning
//! tables remain as the residual join predicate. (The paper's Algorithm 1
//! baseline is unaffected by design: its dominance predicate spans both
//! sides of the self-join.)

use crate::plan::{eval, RExpr};

/// Where each WHERE conjunct ended up.
pub struct ScanPlan {
    /// Per-table pushed-down predicate (column indices rebased to the
    /// table's local row).
    pub per_table: Vec<Option<RExpr>>,
    /// Conjuncts spanning multiple tables, evaluated on the joined row.
    pub residual: Option<RExpr>,
    /// True when a constant conjunct already evaluated to false/NULL: the
    /// query returns no rows regardless of the data.
    pub always_empty: bool,
}

impl ScanPlan {
    /// Plans the pushdown for a WHERE expression over tables whose columns
    /// occupy `[offsets[i], offsets[i] + widths[i])` in the joined row.
    /// Fails if a constant conjunct raises a type error (e.g. `1 LIKE 'x'`),
    /// mirroring what per-row evaluation would have reported.
    pub fn new(
        where_expr: Option<&RExpr>,
        offsets: &[usize],
        widths: &[usize],
    ) -> crate::error::Result<ScanPlan> {
        let n = offsets.len();
        let mut plan = ScanPlan {
            per_table: (0..n).map(|_| None).collect(),
            residual: None,
            always_empty: false,
        };
        let Some(expr) = where_expr else {
            return Ok(plan);
        };
        let mut residual_parts: Vec<RExpr> = Vec::new();
        for conjunct in split_conjuncts(expr) {
            let mut cols = Vec::new();
            columns_used(&conjunct, &mut cols);
            let tables: std::collections::BTreeSet<usize> =
                cols.iter().map(|&c| table_of(c, offsets, widths)).collect();
            match tables.iter().next() {
                None => {
                    // Constant conjunct: decide the whole query right now.
                    let v = eval(&conjunct, &[], &[])?;
                    if !v.is_truthy() {
                        plan.always_empty = true;
                    }
                }
                Some(&t) if tables.len() == 1 => {
                    match (offsets.get(t), plan.per_table.get_mut(t)) {
                        (Some(&offset), Some(slot)) => {
                            let shifted = shift_columns(conjunct, offset);
                            *slot = Some(match slot.take() {
                                None => shifted,
                                Some(prev) => and(prev, shifted),
                            });
                        }
                        // `table_of` only returns segments of `offsets`, which
                        // `per_table` mirrors; anything else stays on the join.
                        _ => residual_parts.push(conjunct),
                    }
                }
                Some(_) => residual_parts.push(conjunct),
            }
        }
        plan.residual = residual_parts.into_iter().reduce(and);
        Ok(plan)
    }

    /// Human-readable plan description for EXPLAIN.
    pub fn describe(&self, table_names: &[String]) -> String {
        let mut out = String::new();
        for (i, name) in table_names.iter().enumerate() {
            let filter = match self.per_table.get(i) {
                Some(Some(_)) => "filtered scan (pushed-down predicate)",
                _ => "full scan",
            };
            let op = if i == 0 { "SCAN" } else { "CROSS JOIN" };
            out.push_str(&format!("{op} {name}: {filter}\n"));
        }
        match (&self.residual, self.always_empty) {
            (_, true) => out.push_str("RESULT: constant-false predicate, empty\n"),
            (Some(_), _) => out.push_str("JOIN FILTER: residual multi-table predicate\n"),
            (None, _) => {}
        }
        out
    }
}

fn and(a: RExpr, b: RExpr) -> RExpr {
    RExpr::Binary { op: crate::ast::BinOp::And, left: Box::new(a), right: Box::new(b) }
}

fn table_of(col: usize, offsets: &[usize], widths: &[usize]) -> usize {
    for (t, (&o, &w)) in offsets.iter().zip(widths.iter()).enumerate() {
        if col >= o && col < o + w {
            return t;
        }
    }
    unreachable!("column {col} outside every table segment")
}

/// Splits an expression on top-level ANDs.
///
/// Sound for WHERE because truthiness is all that matters there: the row
/// passes iff every conjunct is truthy (NULL conjuncts fail the row either
/// way).
pub fn split_conjuncts(expr: &RExpr) -> Vec<RExpr> {
    let mut out = Vec::new();
    fn walk(e: &RExpr, out: &mut Vec<RExpr>) {
        if let RExpr::Binary { op: crate::ast::BinOp::And, left, right } = e {
            walk(left, out);
            walk(right, out);
        } else {
            out.push(e.clone());
        }
    }
    walk(expr, &mut out);
    out
}

/// Collects every flat column index referenced by an expression.
pub fn columns_used(expr: &RExpr, out: &mut Vec<usize>) {
    match expr {
        RExpr::Col(i) => out.push(*i),
        RExpr::Lit(_) | RExpr::Agg(_) => {}
        RExpr::Binary { left, right, .. } => {
            columns_used(left, out);
            columns_used(right, out);
        }
        RExpr::Neg(e) | RExpr::Not(e) => columns_used(e, out),
        RExpr::Scalar { args, .. } => {
            for a in args {
                columns_used(a, out);
            }
        }
        RExpr::InSet { expr, .. } => columns_used(expr, out),
        RExpr::InList { expr, list, .. } => {
            columns_used(expr, out);
            for item in list {
                columns_used(item, out);
            }
        }
        RExpr::Between { expr, low, high, .. } => {
            columns_used(expr, out);
            columns_used(low, out);
            columns_used(high, out);
        }
        RExpr::Like { expr, pattern, .. } => {
            columns_used(expr, out);
            columns_used(pattern, out);
        }
    }
}

/// Rebases every column index by `-offset` (for evaluation against a single
/// table's local row).
fn shift_columns(expr: RExpr, offset: usize) -> RExpr {
    match expr {
        RExpr::Col(i) => RExpr::Col(i - offset),
        e @ (RExpr::Lit(_) | RExpr::Agg(_)) => e,
        RExpr::Binary { op, left, right } => RExpr::Binary {
            op,
            left: Box::new(shift_columns(*left, offset)),
            right: Box::new(shift_columns(*right, offset)),
        },
        RExpr::Neg(e) => RExpr::Neg(Box::new(shift_columns(*e, offset))),
        RExpr::Not(e) => RExpr::Not(Box::new(shift_columns(*e, offset))),
        RExpr::Scalar { func, args } => RExpr::Scalar {
            func,
            args: args.into_iter().map(|a| shift_columns(a, offset)).collect(),
        },
        RExpr::InSet { expr, set, negated } => {
            RExpr::InSet { expr: Box::new(shift_columns(*expr, offset)), set, negated }
        }
        RExpr::InList { expr, list, negated } => RExpr::InList {
            expr: Box::new(shift_columns(*expr, offset)),
            list: list.into_iter().map(|e| shift_columns(e, offset)).collect(),
            negated,
        },
        RExpr::Between { expr, low, high, negated } => RExpr::Between {
            expr: Box::new(shift_columns(*expr, offset)),
            low: Box::new(shift_columns(*low, offset)),
            high: Box::new(shift_columns(*high, offset)),
            negated,
        },
        RExpr::Like { expr, pattern, negated } => RExpr::Like {
            expr: Box::new(shift_columns(*expr, offset)),
            pattern: Box::new(shift_columns(*pattern, offset)),
            negated,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinOp;
    use crate::value::Value;

    fn col(i: usize) -> RExpr {
        RExpr::Col(i)
    }

    fn gt(l: RExpr, r: RExpr) -> RExpr {
        RExpr::Binary { op: BinOp::Gt, left: Box::new(l), right: Box::new(r) }
    }

    fn lit(i: i64) -> RExpr {
        RExpr::Lit(Value::Int(i))
    }

    #[test]
    fn splits_nested_ands() {
        let e = and(and(gt(col(0), lit(1)), gt(col(2), lit(2))), gt(col(0), col(2)));
        assert_eq!(split_conjuncts(&e).len(), 3);
    }

    #[test]
    fn plans_per_table_and_residual() {
        // Two tables of width 2: columns 0-1 and 2-3.
        let e = and(and(gt(col(0), lit(1)), gt(col(2), lit(2))), gt(col(1), col(3)));
        let plan = ScanPlan::new(Some(&e), &[0, 2], &[2, 2]).unwrap();
        assert!(plan.per_table[0].is_some());
        assert!(plan.per_table[1].is_some());
        assert!(plan.residual.is_some());
        assert!(!plan.always_empty);
        // The pushed-down predicate for table 1 must reference local col 0.
        let mut cols = Vec::new();
        columns_used(plan.per_table[1].as_ref().unwrap(), &mut cols);
        assert_eq!(cols, vec![0]);
    }

    #[test]
    fn constant_false_short_circuits() {
        let e = gt(lit(1), lit(2));
        let plan = ScanPlan::new(Some(&e), &[0], &[3]).unwrap();
        assert!(plan.always_empty);
        let e = gt(lit(2), lit(1));
        let plan = ScanPlan::new(Some(&e), &[0], &[3]).unwrap();
        assert!(!plan.always_empty);
        assert!(plan.residual.is_none());
    }

    #[test]
    fn describe_mentions_pushdown() {
        let e = and(gt(col(0), lit(1)), gt(col(0), col(2)));
        let plan = ScanPlan::new(Some(&e), &[0, 2], &[2, 2]).unwrap();
        let text = plan.describe(&["a".into(), "b".into()]);
        assert!(text.contains("SCAN a: filtered scan"));
        assert!(text.contains("CROSS JOIN b: full scan"));
        assert!(text.contains("JOIN FILTER"));
    }
}
