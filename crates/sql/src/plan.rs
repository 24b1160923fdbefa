//! Name resolution and expression compilation.
//!
//! Before execution, every [`Expr`] is compiled into an [`RExpr`] whose
//! column references are flat indices into the joined row, whose aggregate
//! calls are indices into a deduplicated aggregate table, and whose
//! uncorrelated subqueries are pre-evaluated into value sets.

use crate::ast::{AggFunc, BinOp, Expr};
use crate::error::{Result, SqlError};
use crate::value::{Key, Value};
use std::collections::HashSet;

/// The schema of a joined row: one entry per flat column position.
#[derive(Debug, Clone)]
pub struct Schema {
    /// `(table_alias, column_name)` for each flat position.
    pub columns: Vec<(String, String)>,
}

impl Schema {
    /// Resolves a possibly-qualified column name to a flat index.
    /// Unqualified names must be unambiguous across the joined tables.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize> {
        let mut found: Option<usize> = None;
        for (i, (alias, col)) in self.columns.iter().enumerate() {
            if !col.eq_ignore_ascii_case(name) {
                continue;
            }
            if let Some(t) = table {
                if !alias.eq_ignore_ascii_case(t) {
                    continue;
                }
            }
            if found.is_some() {
                return Err(SqlError::UnknownColumn(format!("{name} is ambiguous")));
            }
            found = Some(i);
        }
        found.ok_or_else(|| {
            let full = match table {
                Some(t) => format!("{t}.{name}"),
                None => name.to_string(),
            };
            SqlError::UnknownColumn(full)
        })
    }
}

/// One deduplicated aggregate call: the function and its compiled argument
/// (`None` for `COUNT(*)`).
#[derive(Debug, Clone)]
pub struct AggCall {
    /// Aggregate function.
    pub func: AggFunc,
    /// Compiled argument.
    pub arg: Option<RExpr>,
    /// The original AST node, used for structural deduplication.
    pub source: Expr,
}

/// A compiled expression: columns are flat indices, aggregates are indices
/// into the plan's aggregate table, subqueries are materialized sets.
#[derive(Debug, Clone)]
pub enum RExpr {
    /// Flat column index into the joined row.
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<RExpr>,
        /// Right operand.
        right: Box<RExpr>,
    },
    /// Unary minus.
    Neg(Box<RExpr>),
    /// Logical NOT.
    Not(Box<RExpr>),
    /// Aggregate result lookup (only valid post-grouping).
    Agg(usize),
    /// Scalar function call.
    Scalar {
        /// Which function.
        func: crate::ast::ScalarFunc,
        /// Compiled arguments.
        args: Vec<RExpr>,
    },
    /// Membership in a pre-evaluated set (`[NOT] IN (subquery)` or a
    /// literal-only IN list).
    InSet {
        /// Tested expression.
        expr: Box<RExpr>,
        /// Keys of the set elements.
        set: HashSet<Key<'static>>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `[NOT] IN` over general expressions, evaluated per row.
    InList {
        /// Tested expression.
        expr: Box<RExpr>,
        /// List items.
        list: Vec<RExpr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `[NOT] BETWEEN` (inclusive).
    Between {
        /// Tested expression.
        expr: Box<RExpr>,
        /// Lower bound.
        low: Box<RExpr>,
        /// Upper bound.
        high: Box<RExpr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `[NOT] LIKE` with `%`/`_` wildcards.
    Like {
        /// Tested expression.
        expr: Box<RExpr>,
        /// Pattern.
        pattern: Box<RExpr>,
        /// True for `NOT LIKE`.
        negated: bool,
    },
}

/// Compilation context: resolves subqueries via a callback into the
/// executor (breaking the module cycle).
pub struct Compiler<'a> {
    /// Schema of the current FROM product.
    pub schema: &'a Schema,
    /// Deduplicated aggregate calls collected so far.
    pub aggs: Vec<AggCall>,
    /// Executes an uncorrelated subquery, returning the keys of its single
    /// output column.
    pub run_subquery: &'a dyn Fn(&crate::ast::SelectStmt) -> Result<HashSet<Key<'static>>>,
}

impl<'a> Compiler<'a> {
    /// Creates a compiler for a schema.
    pub fn new(
        schema: &'a Schema,
        run_subquery: &'a dyn Fn(&crate::ast::SelectStmt) -> Result<HashSet<Key<'static>>>,
    ) -> Self {
        Compiler { schema, aggs: Vec::new(), run_subquery }
    }

    /// Compiles an expression.
    pub fn compile(&mut self, expr: &Expr) -> Result<RExpr> {
        match expr {
            Expr::Column { table, name } => {
                Ok(RExpr::Col(self.schema.resolve(table.as_deref(), name)?))
            }
            Expr::Literal(v) => Ok(RExpr::Lit(v.clone())),
            Expr::Binary { op, left, right } => Ok(RExpr::Binary {
                op: *op,
                left: Box::new(self.compile(left)?),
                right: Box::new(self.compile(right)?),
            }),
            Expr::Neg(e) => Ok(RExpr::Neg(Box::new(self.compile(e)?))),
            Expr::Not(e) => Ok(RExpr::Not(Box::new(self.compile(e)?))),
            Expr::Aggregate { func, arg } => {
                // Structural dedup so `count(*)` in HAVING and in the
                // projection share one accumulator.
                if let Some(i) = self.aggs.iter().position(|a| &a.source == expr) {
                    return Ok(RExpr::Agg(i));
                }
                let compiled_arg = match arg {
                    Some(a) => {
                        if a.has_aggregate() {
                            return Err(SqlError::Unsupported("nested aggregates".to_string()));
                        }
                        Some(self.compile(a)?)
                    }
                    None => None,
                };
                self.aggs.push(AggCall { func: *func, arg: compiled_arg, source: expr.clone() });
                Ok(RExpr::Agg(self.aggs.len() - 1))
            }
            Expr::InSubquery { expr, subquery, negated } => {
                let set = (self.run_subquery)(subquery)?;
                Ok(RExpr::InSet { expr: Box::new(self.compile(expr)?), set, negated: *negated })
            }
            Expr::InList { expr, list, negated } => {
                let compiled = self.compile(expr)?;
                // Literal-only lists become a set for O(1) membership.
                if list.iter().all(|e| matches!(e, Expr::Literal(_))) {
                    let set = list
                        .iter()
                        .map(|e| match e {
                            Expr::Literal(v) => Key::of(v).into_owned(),
                            _ => unreachable!(),
                        })
                        .collect();
                    return Ok(RExpr::InSet { expr: Box::new(compiled), set, negated: *negated });
                }
                let items: Result<Vec<RExpr>> = list.iter().map(|e| self.compile(e)).collect();
                Ok(RExpr::InList { expr: Box::new(compiled), list: items?, negated: *negated })
            }
            Expr::Between { expr, low, high, negated } => Ok(RExpr::Between {
                expr: Box::new(self.compile(expr)?),
                low: Box::new(self.compile(low)?),
                high: Box::new(self.compile(high)?),
                negated: *negated,
            }),
            Expr::Like { expr, pattern, negated } => Ok(RExpr::Like {
                expr: Box::new(self.compile(expr)?),
                pattern: Box::new(self.compile(pattern)?),
                negated: *negated,
            }),
            Expr::Scalar { func, args } => Ok(RExpr::Scalar {
                func: *func,
                args: args.iter().map(|a| self.compile(a)).collect::<Result<_>>()?,
            }),
        }
    }
}

/// Evaluates a compiled expression against a flat row, with aggregate
/// results (empty until grouping has run).
pub fn eval(expr: &RExpr, row: &[Value], aggs: &[Value]) -> Result<Value> {
    match expr {
        RExpr::Col(i) => row
            .get(*i)
            .cloned()
            .ok_or_else(|| SqlError::Eval(format!("column {i} is outside the row"))),
        RExpr::Lit(v) => Ok(v.clone()),
        RExpr::Agg(i) => aggs
            .get(*i)
            .cloned()
            .ok_or_else(|| SqlError::Eval("aggregate used outside GROUP BY context".into())),
        RExpr::Neg(e) => match eval(e, row, aggs)? {
            Value::Int(i) => {
                i.checked_neg().map(Value::Int).ok_or_else(|| overflow(format!("-({i})")))
            }
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Null => Ok(Value::Null),
            Value::Str(_) => Err(SqlError::Eval("cannot negate a string".into())),
        },
        RExpr::Not(e) => {
            let v = eval(e, row, aggs)?;
            if v.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Int(i64::from(!v.is_truthy())))
            }
        }
        RExpr::Binary { op, left, right } => {
            let l = eval(left, row, aggs)?;
            match op {
                // SQL three-valued logic: FALSE AND NULL = FALSE,
                // TRUE OR NULL = TRUE, otherwise NULL propagates.
                BinOp::And => {
                    if !l.is_null() && !l.is_truthy() {
                        return Ok(Value::Int(0)); // short-circuit on FALSE
                    }
                    let r = eval(right, row, aggs)?;
                    if !r.is_null() && !r.is_truthy() {
                        return Ok(Value::Int(0));
                    }
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    Ok(Value::Int(1))
                }
                BinOp::Or => {
                    if l.is_truthy() {
                        return Ok(Value::Int(1)); // short-circuit on TRUE
                    }
                    let r = eval(right, row, aggs)?;
                    if r.is_truthy() {
                        return Ok(Value::Int(1));
                    }
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    Ok(Value::Int(0))
                }
                BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let r = eval(right, row, aggs)?;
                    let Some(ord) = l.sql_cmp(&r) else {
                        return Ok(Value::Null);
                    };
                    use std::cmp::Ordering::*;
                    let b = match op {
                        BinOp::Eq => ord == Equal,
                        BinOp::Neq => ord != Equal,
                        BinOp::Lt => ord == Less,
                        BinOp::Le => ord != Greater,
                        BinOp::Gt => ord == Greater,
                        BinOp::Ge => ord != Less,
                        _ => unreachable!(),
                    };
                    Ok(Value::Int(i64::from(b)))
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                    let r = eval(right, row, aggs)?;
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    arith(*op, &l, &r)
                }
            }
        }
        RExpr::InSet { expr, set, negated } => {
            let v = eval(expr, row, aggs)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            // A set of owned keys takes a borrowed key (`HashSet` is
            // covariant), so membership copies no string.
            let set: &HashSet<Key<'_>> = set;
            let member = set.contains(&Key::of(&v));
            Ok(Value::Int(i64::from(member != *negated)))
        }
        RExpr::InList { expr, list, negated } => {
            let v = eval(expr, row, aggs)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut member = false;
            for item in list {
                let w = eval(item, row, aggs)?;
                if v.key_eq(&w) {
                    member = true;
                    break;
                }
            }
            Ok(Value::Int(i64::from(member != *negated)))
        }
        RExpr::Scalar { func, args } => {
            use crate::ast::ScalarFunc as F;
            let vals: Vec<Value> =
                args.iter().map(|a| eval(a, row, aggs)).collect::<Result<_>>()?;
            if vals.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let numeric = |v: &Value, what: &str| {
                v.as_f64().ok_or_else(|| SqlError::Eval(format!("{what} expects a number")))
            };
            let arg = vals
                .first()
                .ok_or_else(|| SqlError::Eval(format!("{func:?} expects an argument")))?;
            Ok(match func {
                F::Abs => match arg {
                    Value::Int(i) => {
                        Value::Int(i.checked_abs().ok_or_else(|| overflow(format!("ABS({i})")))?)
                    }
                    other => Value::Float(numeric(other, "ABS")?.abs()),
                },
                F::Round => {
                    let x = numeric(arg, "ROUND")?;
                    // Clamp to the range where the scale factor stays
                    // finite and meaningful for f64 (±18 covers every
                    // representable decimal position).
                    let digits = match vals.get(1) {
                        Some(d) => {
                            aggsky_core::num::to_i32_sat(numeric(d, "ROUND")?).clamp(-18, 18)
                        }
                        None => 0,
                    };
                    let scale = 10f64.powi(digits);
                    Value::Float((x * scale).round() / scale)
                }
                F::Floor => Value::Float(numeric(arg, "FLOOR")?.floor()),
                F::Ceil => Value::Float(numeric(arg, "CEIL")?.ceil()),
                F::Sqrt => {
                    let x = numeric(arg, "SQRT")?;
                    if aggsky_core::ord::lt(x, 0.0) {
                        Value::Null
                    } else {
                        Value::Float(x.sqrt())
                    }
                }
                F::Lower | F::Upper | F::Length => match arg {
                    Value::Str(s) => match func {
                        F::Lower => Value::Str(s.to_lowercase()),
                        F::Upper => Value::Str(s.to_uppercase()),
                        F::Length => {
                            Value::Int(i64::try_from(s.chars().count()).unwrap_or(i64::MAX))
                        }
                        _ => unreachable!(),
                    },
                    _ => return Err(SqlError::Eval(format!("{func:?} expects a string"))),
                },
            })
        }
        RExpr::Between { expr, low, high, negated } => {
            let v = eval(expr, row, aggs)?;
            let lo = eval(low, row, aggs)?;
            let hi = eval(high, row, aggs)?;
            let (Some(ge), Some(le)) = (v.sql_cmp(&lo), v.sql_cmp(&hi)) else {
                return Ok(Value::Null);
            };
            use std::cmp::Ordering::*;
            let inside = ge != Less && le != Greater;
            Ok(Value::Int(i64::from(inside != *negated)))
        }
        RExpr::Like { expr, pattern, negated } => {
            let v = eval(expr, row, aggs)?;
            let p = eval(pattern, row, aggs)?;
            match (&v, &p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(s), Value::Str(pat)) => {
                    let hit = like_match(s.as_bytes(), pat.as_bytes());
                    Ok(Value::Int(i64::from(hit != *negated)))
                }
                _ => Err(SqlError::Eval("LIKE requires string operands".into())),
            }
        }
    }
}

/// SQL LIKE matcher: `%` matches any run (including empty), `_` matches one
/// character. Case-sensitive, byte-oriented. Uses the classic greedy
/// two-pointer algorithm with single-level backtracking — `O(|s|·|p|)`
/// worst case, so adversarial patterns like `'%%%%%%%%z'` cannot blow up.
fn like_match(s: &[u8], p: &[u8]) -> bool {
    let (mut si, mut pi) = (0usize, 0usize);
    let mut star: Option<usize> = None;
    let mut mark = 0usize;
    while let Some(&c) = s.get(si) {
        match p.get(pi) {
            Some(b'%') => {
                star = Some(pi);
                mark = si;
                pi += 1;
            }
            Some(&q) if q == b'_' || q == c => {
                si += 1;
                pi += 1;
            }
            // Backtrack: let the last '%' absorb one more byte.
            _ => match star {
                Some(sp) => {
                    pi = sp + 1;
                    mark += 1;
                    si = mark;
                }
                None => return false,
            },
        }
    }
    while p.get(pi) == Some(&b'%') {
        pi += 1;
    }
    pi == p.len()
}

/// The error of an integer result outside i64.
fn overflow(what: String) -> SqlError {
    SqlError::Eval(format!("integer overflow: {what}"))
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    // Integer arithmetic stays integral except division, which is float
    // (the paper's `1.0*count(*)/(x.num*y.num)` relies on float division;
    // making `/` always float avoids the classic integer-division trap
    // without changing that query's result).
    // Integer `+`, `-` and `*` are checked: a result outside i64 is an
    // error, not a wrapped or panicking one.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        let (result, symbol) = match op {
            BinOp::Add => (a.checked_add(*b), '+'),
            BinOp::Sub => (a.checked_sub(*b), '-'),
            BinOp::Mul => (a.checked_mul(*b), '*'),
            BinOp::Div => {
                return Ok(if *b == 0 { Value::Null } else { Value::Float(*a as f64 / *b as f64) })
            }
            _ => unreachable!(),
        };
        return result.map(Value::Int).ok_or_else(|| overflow(format!("{a} {symbol} {b}")));
    }
    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
        return Err(SqlError::Eval(format!("arithmetic on non-numeric values {l} and {r}")));
    };
    Ok(match op {
        BinOp::Add => Value::Float(a + b),
        BinOp::Sub => Value::Float(a - b),
        BinOp::Mul => Value::Float(a * b),
        BinOp::Div => {
            if aggsky_core::ord::eq(b, 0.0) {
                Value::Null
            } else {
                Value::Float(a / b)
            }
        }
        _ => unreachable!(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema {
            columns: vec![
                ("t".into(), "a".into()),
                ("t".into(), "b".into()),
                ("u".into(), "a".into()),
            ],
        }
    }

    #[test]
    fn resolution_rules() {
        let s = schema();
        assert_eq!(s.resolve(None, "b").unwrap(), 1);
        assert_eq!(s.resolve(Some("u"), "a").unwrap(), 2);
        assert_eq!(s.resolve(Some("T"), "A").unwrap(), 0, "case-insensitive");
        assert!(matches!(s.resolve(None, "a"), Err(SqlError::UnknownColumn(_))), "ambiguous");
        assert!(s.resolve(None, "zzz").is_err());
    }

    #[test]
    fn like_matches_wildcards_and_rejects_without_indexing_past_either_end() {
        let cases = [
            ("", "", true),
            ("", "%", true),
            ("", "_", false),
            ("abc", "abc", true),
            ("abc", "a_c", true),
            ("abc", "%c", true),
            ("abc", "a%", true),
            ("abc", "%b%", true),
            ("abc", "%%%", true),
            ("abc", "ab", false),
            ("ab", "abc", false),
            ("abc", "%d", false),
            ("a%c", "a%c", true),
            ("aaaaaaaaaaaaaaaaaaaa", "%%%%%%%%z", false),
            ("mississippi", "m%iss%pi", true),
        ];
        for (text, pattern, want) in cases {
            assert_eq!(like_match(text.as_bytes(), pattern.as_bytes()), want, "{text} {pattern}");
        }
    }

    #[test]
    fn a_column_outside_the_row_is_an_error() {
        assert!(matches!(eval(&RExpr::Col(3), &[Value::Int(1)], &[]), Err(SqlError::Eval(_))));
    }

    #[test]
    fn eval_arithmetic_and_logic() {
        let row = vec![Value::Int(3), Value::Float(2.0), Value::Int(10)];
        let no_sub =
            |_: &crate::ast::SelectStmt| -> Result<HashSet<Key<'static>>> { unreachable!() };
        let s = schema();
        let mut c = Compiler::new(&s, &no_sub);
        let e = crate::parser_test_expr("t.a * b + 1");
        let r = c.compile(&e).unwrap();
        assert_eq!(eval(&r, &row, &[]).unwrap(), Value::Float(7.0));
        let e = crate::parser_test_expr("t.a > 2 and u.a <= 10");
        let r = c.compile(&e).unwrap();
        assert_eq!(eval(&r, &row, &[]).unwrap(), Value::Int(1));
        let e = crate::parser_test_expr("not (t.a = 3)");
        let r = c.compile(&e).unwrap();
        assert_eq!(eval(&r, &row, &[]).unwrap(), Value::Int(0));
    }

    #[test]
    fn division_is_float_and_by_zero_is_null() {
        let row: Vec<Value> = vec![];
        let e = RExpr::Binary {
            op: BinOp::Div,
            left: Box::new(RExpr::Lit(Value::Int(1))),
            right: Box::new(RExpr::Lit(Value::Int(2))),
        };
        assert_eq!(eval(&e, &row, &[]).unwrap(), Value::Float(0.5));
        let z = RExpr::Binary {
            op: BinOp::Div,
            left: Box::new(RExpr::Lit(Value::Int(1))),
            right: Box::new(RExpr::Lit(Value::Int(0))),
        };
        assert_eq!(eval(&z, &row, &[]).unwrap(), Value::Null);
    }

    #[test]
    fn integer_overflow_is_an_error_in_every_build() {
        use BinOp::{Add, Mul, Sub};
        let (max, min) = (i64::MAX, i64::MIN);
        let lit = |i: i64| Box::new(RExpr::Lit(Value::Int(i)));
        let bin = |op, a, b| RExpr::Binary { op, left: lit(a), right: lit(b) };
        let abs = |i| RExpr::Scalar { func: crate::ast::ScalarFunc::Abs, args: vec![*lit(i)] };
        for e in [
            bin(Add, max, 1),
            bin(Add, min, -1),
            bin(Sub, min, 1),
            bin(Sub, max, -1),
            bin(Mul, max, 2),
            bin(Mul, min, -1),
            RExpr::Neg(lit(min)),
            abs(min),
        ] {
            match eval(&e, &[], &[]) {
                Err(SqlError::Eval(m)) => assert!(m.starts_with("integer overflow"), "{m}"),
                other => panic!("{e:?} gave {other:?}"),
            }
        }
        // Results at the edges still compute.
        assert_eq!(eval(&bin(Add, max - 1, 1), &[], &[]).unwrap(), Value::Int(max));
        assert_eq!(eval(&bin(Sub, min + 1, 1), &[], &[]).unwrap(), Value::Int(min));
        assert_eq!(eval(&RExpr::Neg(lit(max)), &[], &[]).unwrap(), Value::Int(-max));
        assert_eq!(eval(&abs(min + 1), &[], &[]).unwrap(), Value::Int(max));
    }

    #[test]
    fn aggregates_are_deduplicated() {
        let s = schema();
        let no_sub =
            |_: &crate::ast::SelectStmt| -> Result<HashSet<Key<'static>>> { unreachable!() };
        let mut c = Compiler::new(&s, &no_sub);
        let e1 = crate::parser_test_expr("count(*)");
        let e2 = crate::parser_test_expr("count(*) + max(t.a)");
        c.compile(&e1).unwrap();
        c.compile(&e2).unwrap();
        assert_eq!(c.aggs.len(), 2, "count(*) shared, max added");
    }
}
