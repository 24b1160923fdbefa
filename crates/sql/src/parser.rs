//! Recursive-descent parser for the mini SQL dialect.

use crate::ast::*;
use crate::error::{Result, SqlError};
use crate::lexer::{tokenize, Token};
use crate::value::Value;

/// How deep a statement may nest. Every expression opens a level (so every
/// parenthesis does), as do `NOT`s, unary minuses and subqueries, and every
/// operator of an `OR`, `AND`, `+`/`-` or `*`/`/` chain, which puts its left
/// operand one node deeper in the tree. The parser, planner, executor and
/// EXPLAIN all recurse over that tree, so a deeper statement is rejected with
/// [`SqlError::Parse`] before it can overflow the stack. A statement at the
/// limit parses, plans, executes and EXPLAINs on a 2 MB thread stack, with
/// half of it to spare in a debug build, where a parenthesis costs the
/// parser about 15 KB of stack.
pub const MAX_DEPTH: usize = 64;

/// Parses one statement (a trailing `;` is allowed).
pub fn parse(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0, depth: 0 };
    let stmt = p.statement()?;
    p.eat_symbol(";");
    p.expect_eof()?;
    Ok(stmt)
}

/// Words that cannot be used as bare aliases/identifiers in positions where
/// a clause keyword could follow.
const RESERVED: [&str; 30] = [
    "select", "distinct", "from", "where", "group", "by", "having", "order", "limit", "skyline",
    "of", "and", "or", "not", "in", "as", "asc", "desc", "values", "insert", "create", "drop",
    "delete", "update", "set", "between", "like", "join", "on", "inner",
];

fn is_reserved(word: &str) -> bool {
    RESERVED.iter().any(|k| word.eq_ignore_ascii_case(k))
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels open at `pos`; see [`MAX_DEPTH`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        self.tokens.get(self.pos).unwrap_or(&Token::Eof)
    }

    fn peek2(&self) -> &Token {
        self.tokens.get(self.pos + 1).unwrap_or(&Token::Eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!("expected {}, found {:?}", kw.to_uppercase(), self.peek())))
        }
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Token::Symbol(s) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<()> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!("expected {sym:?}, found {:?}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if matches!(self.peek(), Token::Eof) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!("trailing input at {:?}", self.peek())))
        }
    }

    /// Opens one nesting level, failing past [`MAX_DEPTH`]. A failed parse
    /// is abandoned, so a level opened before an error is never closed.
    fn descend(&mut self) -> Result<()> {
        if self.depth >= MAX_DEPTH {
            return Err(SqlError::Parse(format!("statement nests deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `parse` one nesting level down.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.descend()?;
        let out = parse(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Token::Ident(s) => Ok(s),
            other => Err(SqlError::Parse(format!("expected identifier, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.peek().is_kw("select") {
            Ok(Statement::Select(self.select()?))
        } else if self.eat_kw("explain") {
            let analyze = self.eat_kw("analyze");
            Ok(Statement::Explain { analyze, stmt: Box::new(self.select()?) })
        } else if self.eat_kw("create") {
            self.create_table()
        } else if self.eat_kw("insert") {
            self.insert()
        } else if self.eat_kw("drop") {
            self.expect_kw("table")?;
            Ok(Statement::DropTable(self.ident()?))
        } else if self.eat_kw("delete") {
            self.expect_kw("from")?;
            let table = self.ident()?;
            let where_clause = if self.eat_kw("where") { Some(self.expr()?) } else { None };
            Ok(Statement::Delete { table, where_clause })
        } else if self.eat_kw("set") {
            // `SET` only opens a statement as `SET TIMEOUT n`,
            // `SET CHECKPOINT 'dir' | OFF` or `SET SLOW_QUERY n` (inside
            // UPDATE it is consumed by the UPDATE branch).
            if self.eat_kw("checkpoint") {
                return match self.bump() {
                    Token::Str(dir) => Ok(Statement::SetCheckpoint(Some(dir))),
                    tok if tok.is_kw("off") => Ok(Statement::SetCheckpoint(None)),
                    other => Err(SqlError::Parse(format!(
                        "expected a quoted directory or OFF after SET CHECKPOINT, found {other:?}"
                    ))),
                };
            }
            if self.eat_kw("slow_query") {
                return match self.bump() {
                    Token::Int(n) => match u64::try_from(n) {
                        Ok(ticks) => Ok(Statement::SetSlowQuery(ticks)),
                        Err(_) => {
                            Err(SqlError::Parse("SET SLOW_QUERY must be non-negative".into()))
                        }
                    },
                    other => Err(SqlError::Parse(format!(
                        "expected a tick threshold after SET SLOW_QUERY, found {other:?}"
                    ))),
                };
            }
            self.expect_kw("timeout")?;
            match self.bump() {
                Token::Int(n) => match u64::try_from(n) {
                    Ok(ticks) => Ok(Statement::SetTimeout(ticks)),
                    Err(_) => Err(SqlError::Parse("SET TIMEOUT must be non-negative".into())),
                },
                other => Err(SqlError::Parse(format!("expected tick count, found {other:?}"))),
            }
        } else if self.eat_kw("update") {
            let table = self.ident()?;
            self.expect_kw("set")?;
            let mut sets = Vec::new();
            loop {
                let col = self.ident()?;
                self.expect_symbol("=")?;
                sets.push((col, self.expr()?));
                if !self.eat_symbol(",") {
                    break;
                }
            }
            let where_clause = if self.eat_kw("where") { Some(self.expr()?) } else { None };
            Ok(Statement::Update { table, sets, where_clause })
        } else {
            Err(SqlError::Parse(format!("expected a statement, found {:?}", self.peek())))
        }
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_kw("table")?;
        let name = self.ident()?;
        self.expect_symbol("(")?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let ty_name = self.ident()?;
            let ty = match ty_name.to_ascii_lowercase().as_str() {
                "int" | "integer" | "bigint" => ColumnType::Int,
                "float" | "real" | "double" | "numeric" => ColumnType::Float,
                "text" | "varchar" | "string" | "char" => ColumnType::Text,
                other => return Err(SqlError::Parse(format!("unknown column type {other:?}"))),
            };
            // Skip an optional length like VARCHAR(20).
            if self.eat_symbol("(") {
                self.bump();
                self.expect_symbol(")")?;
            }
            columns.push((col, ty));
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_symbol(")")?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("into")?;
        let table = self.ident()?;
        let columns = if self.eat_symbol("(") {
            let mut cols = vec![self.ident()?];
            while self.eat_symbol(",") {
                cols.push(self.ident()?);
            }
            self.expect_symbol(")")?;
            Some(cols)
        } else {
            None
        };
        if self.peek().is_kw("select") {
            let select = self.select()?;
            return Ok(Statement::Insert {
                table,
                columns,
                source: InsertSource::Select(Box::new(select)),
            });
        }
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol("(")?;
            let mut row = vec![self.expr()?];
            while self.eat_symbol(",") {
                row.push(self.expr()?);
            }
            self.expect_symbol(")")?;
            rows.push(row);
            if !self.eat_symbol(",") {
                break;
            }
        }
        Ok(Statement::Insert { table, columns, source: InsertSource::Values(rows) })
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut projection = vec![self.select_item()?];
        while self.eat_symbol(",") {
            projection.push(self.select_item()?);
        }
        self.expect_kw("from")?;
        let mut from = vec![self.table_ref()?];
        // Comma lists and `[INNER] JOIN t ON cond` both desugar to a cross
        // product; ON conditions are folded into WHERE, where the pushdown
        // planner treats them as the join filter.
        let mut join_conditions: Vec<Expr> = Vec::new();
        loop {
            if self.eat_symbol(",") {
                from.push(self.table_ref()?);
            } else if self.peek().is_kw("join") || self.peek().is_kw("inner") {
                self.eat_kw("inner");
                self.expect_kw("join")?;
                from.push(self.table_ref()?);
                self.expect_kw("on")?;
                join_conditions.push(self.expr()?);
            } else {
                break;
            }
        }
        let mut stmt = SelectStmt {
            distinct,
            projection,
            from,
            where_clause: None,
            group_by: Vec::new(),
            having: None,
            skyline: None,
            order_by: Vec::new(),
            limit: None,
        };
        loop {
            if self.eat_kw("where") {
                if stmt.where_clause.is_some() {
                    return Err(SqlError::Parse("duplicate WHERE".into()));
                }
                stmt.where_clause = Some(self.expr()?);
            } else if self.peek().is_kw("group") {
                self.bump();
                self.expect_kw("by")?;
                loop {
                    stmt.group_by.push(self.expr()?);
                    if !self.eat_symbol(",") {
                        break;
                    }
                }
            } else if self.eat_kw("having") {
                stmt.having = Some(self.expr()?);
            } else if self.peek().is_kw("skyline") {
                self.bump();
                self.expect_kw("of")?;
                let mut items = Vec::new();
                loop {
                    let e = self.expr()?;
                    let dir = if self.eat_kw("max") {
                        SkyDir::Max
                    } else if self.eat_kw("min") {
                        SkyDir::Min
                    } else {
                        SkyDir::Max // MAX is the paper's default orientation
                    };
                    items.push((e, dir));
                    if !self.eat_symbol(",") {
                        break;
                    }
                }
                let gamma = if self.eat_kw("gamma") {
                    match self.bump() {
                        Token::Float(f) => Some(f),
                        Token::Int(i) => Some(i as f64),
                        other => {
                            return Err(SqlError::Parse(format!(
                                "expected a number after GAMMA, found {other:?}"
                            )))
                        }
                    }
                } else {
                    None
                };
                stmt.skyline = Some(SkylineClause { items, gamma });
            } else if self.peek().is_kw("order") {
                self.bump();
                self.expect_kw("by")?;
                loop {
                    let e = self.expr()?;
                    let dir = if self.eat_kw("desc") {
                        SortDir::Desc
                    } else {
                        self.eat_kw("asc");
                        SortDir::Asc
                    };
                    stmt.order_by.push((e, dir));
                    if !self.eat_symbol(",") {
                        break;
                    }
                }
            } else if self.eat_kw("limit") {
                match self.bump() {
                    Token::Int(n) if n >= 0 => {
                        stmt.limit = Some(usize::try_from(n).unwrap_or(usize::MAX))
                    }
                    other => {
                        return Err(SqlError::Parse(format!(
                            "expected a row count after LIMIT, found {other:?}"
                        )))
                    }
                }
            } else {
                break;
            }
        }
        for cond in join_conditions {
            stmt.where_clause = Some(match stmt.where_clause.take() {
                None => cond,
                Some(w) => {
                    Expr::Binary { op: BinOp::And, left: Box::new(w), right: Box::new(cond) }
                }
            });
        }
        Ok(stmt)
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_symbol("*") {
            return Ok(SelectItem::Wildcard);
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else if let Token::Ident(name) = self.peek() {
            if !is_reserved(name) {
                let a = name.clone();
                self.bump();
                Some(a)
            } else {
                None
            }
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let name = self.ident()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else if let Token::Ident(word) = self.peek() {
            if !is_reserved(word) {
                let a = word.clone();
                self.bump();
                Some(a)
            } else {
                None
            }
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    // ----- expressions, by precedence -----

    fn expr(&mut self) -> Result<Expr> {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let depth = self.depth;
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            self.descend()?;
            let right = self.and_expr()?;
            left = Expr::Binary { op: BinOp::Or, left: Box::new(left), right: Box::new(right) };
        }
        self.depth = depth;
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let depth = self.depth;
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            self.descend()?;
            let right = self.not_expr()?;
            left = Expr::Binary { op: BinOp::And, left: Box::new(left), right: Box::new(right) };
        }
        self.depth = depth;
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            Ok(Expr::Not(Box::new(self.nested(Self::not_expr)?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // `[NOT] IN / BETWEEN / LIKE`
        let negated = if self.peek().is_kw("not")
            && (self.peek2().is_kw("in")
                || self.peek2().is_kw("between")
                || self.peek2().is_kw("like"))
        {
            self.bump();
            true
        } else {
            false
        };
        if self.eat_kw("between") {
            // Bounds bind at additive level so BETWEEN's AND is unambiguous.
            let low = self.additive()?;
            self.expect_kw("and")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("like") {
            let pattern = self.additive()?;
            return Ok(Expr::Like { expr: Box::new(left), pattern: Box::new(pattern), negated });
        }
        if self.eat_kw("in") {
            self.expect_symbol("(")?;
            if self.peek().is_kw("select") {
                let sub = self.nested(Self::select)?;
                self.expect_symbol(")")?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    subquery: Box::new(sub),
                    negated,
                });
            }
            let mut list = vec![self.expr()?];
            while self.eat_symbol(",") {
                list.push(self.expr()?);
            }
            self.expect_symbol(")")?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if negated {
            return Err(SqlError::Parse("expected IN, BETWEEN or LIKE after NOT".into()));
        }
        let op = match self.peek() {
            Token::Symbol("=") => BinOp::Eq,
            Token::Symbol("<>") | Token::Symbol("!=") => BinOp::Neq,
            Token::Symbol("<") => BinOp::Lt,
            Token::Symbol("<=") => BinOp::Le,
            Token::Symbol(">") => BinOp::Gt,
            Token::Symbol(">=") => BinOp::Ge,
            _ => return Ok(left),
        };
        self.bump();
        let right = self.additive()?;
        Ok(Expr::Binary { op, left: Box::new(left), right: Box::new(right) })
    }

    fn additive(&mut self) -> Result<Expr> {
        let depth = self.depth;
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Symbol("+") => BinOp::Add,
                Token::Symbol("-") => BinOp::Sub,
                _ => break,
            };
            self.bump();
            self.descend()?;
            let right = self.multiplicative()?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        self.depth = depth;
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let depth = self.depth;
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Token::Symbol("*") => BinOp::Mul,
                Token::Symbol("/") => BinOp::Div,
                _ => break,
            };
            self.bump();
            self.descend()?;
            let right = self.unary()?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        self.depth = depth;
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_symbol("-") {
            Ok(Expr::Neg(Box::new(self.nested(Self::unary)?)))
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.bump() {
            Token::Int(i) => Ok(Expr::Literal(Value::Int(i))),
            Token::Float(f) => Ok(Expr::Literal(Value::Float(f))),
            Token::Str(s) => Ok(Expr::Literal(Value::Str(s))),
            Token::Symbol("(") => {
                let e = self.expr()?;
                self.expect_symbol(")")?;
                Ok(e)
            }
            Token::Ident(name) => {
                if name.eq_ignore_ascii_case("null") {
                    return Ok(Expr::Literal(Value::Null));
                }
                // Function call?
                if matches!(self.peek(), Token::Symbol("(")) {
                    if let Some(func) = AggFunc::from_name(&name) {
                        self.bump(); // (
                        if self.eat_symbol("*") {
                            self.expect_symbol(")")?;
                            if func != AggFunc::Count {
                                return Err(SqlError::Parse("only COUNT accepts *".into()));
                            }
                            return Ok(Expr::Aggregate { func, arg: None });
                        }
                        let arg = self.expr()?;
                        self.expect_symbol(")")?;
                        return Ok(Expr::Aggregate { func, arg: Some(Box::new(arg)) });
                    }
                    if let Some(func) = ScalarFunc::from_name(&name) {
                        self.bump(); // (
                        let mut args = vec![self.expr()?];
                        while self.eat_symbol(",") {
                            args.push(self.expr()?);
                        }
                        self.expect_symbol(")")?;
                        if !func.arity().contains(&args.len()) {
                            return Err(SqlError::Parse(format!(
                                "{name} expects {:?} arguments, got {}",
                                func.arity(),
                                args.len()
                            )));
                        }
                        return Ok(Expr::Scalar { func, args });
                    }
                    return Err(SqlError::Unsupported(format!("unknown function {name:?}")));
                }
                // Qualified column?
                if self.eat_symbol(".") {
                    let col = self.ident()?;
                    return Ok(Expr::Column { table: Some(name), name: col });
                }
                Ok(Expr::Column { table: None, name })
            }
            other => Err(SqlError::Parse(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStmt {
        match parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("not a select: {other:?}"),
        }
    }

    #[test]
    fn parses_example_1_record_skyline() {
        let s = sel("SELECT * FROM Movie SKYLINE OF Pop MAX, Qual MAX");
        assert_eq!(s.projection, vec![SelectItem::Wildcard]);
        let sky = s.skyline.unwrap();
        assert_eq!(sky.items.len(), 2);
        assert_eq!(sky.items[0].1, SkyDir::Max);
        assert!(sky.gamma.is_none());
    }

    #[test]
    fn parses_example_3_aggregate_skyline() {
        let s = sel("SELECT director FROM movies GROUP BY Director SKYLINE OF Pop MAX, Qual MAX");
        assert_eq!(s.group_by.len(), 1);
        assert!(s.skyline.is_some());
    }

    #[test]
    fn parses_skyline_gamma_and_min() {
        let s = sel("SELECT * FROM t SKYLINE OF price MIN, rating MAX GAMMA 0.75");
        let sky = s.skyline.unwrap();
        assert_eq!(sky.items[0].1, SkyDir::Min);
        assert_eq!(sky.gamma, Some(0.75));
    }

    #[test]
    fn parses_algorithm_1_query() {
        let s = sel("select distinct director from movies where director not in (\
             select X.director from movies X, movies Y \
             where ((Y.votes > X.votes and Y.rank >= X.rank) or (Y.votes >= X.votes and Y.rank > X.rank)) \
             group by X.director, Y.director \
             having 1.0*count(*)/(X.num*Y.num) > .5)");
        assert!(s.distinct);
        let w = s.where_clause.unwrap();
        match w {
            Expr::InSubquery { negated, subquery, .. } => {
                assert!(negated);
                assert_eq!(subquery.from.len(), 2);
                assert_eq!(subquery.from[0].effective_alias(), "X");
                assert_eq!(subquery.group_by.len(), 2);
                assert!(subquery.having.unwrap().has_aggregate());
            }
            other => panic!("expected NOT IN subquery, got {other:?}"),
        }
    }

    #[test]
    fn parses_create_insert_drop() {
        let c = parse("CREATE TABLE t (a INT, b FLOAT, c VARCHAR(20))").unwrap();
        match c {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "t");
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[2].1, ColumnType::Text);
            }
            other => panic!("{other:?}"),
        }
        let i = parse("INSERT INTO t (a, b) VALUES (1, 2.5), (3, -4.0)").unwrap();
        match i {
            Statement::Insert { source: InsertSource::Values(rows), columns, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(columns.unwrap(), vec!["a", "b"]);
            }
            other => panic!("{other:?}"),
        }
        let i = parse("INSERT INTO t SELECT a, b FROM u WHERE a > 0").unwrap();
        match i {
            Statement::Insert { source: InsertSource::Select(sel), .. } => {
                assert!(sel.where_clause.is_some());
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(parse("DROP TABLE t").unwrap(), Statement::DropTable(_)));
    }

    #[test]
    fn operator_precedence() {
        let s = sel("SELECT a + b * c FROM t");
        match &s.projection[0] {
            SelectItem::Expr { expr: Expr::Binary { op: BinOp::Add, right, .. }, .. } => {
                assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn order_by_and_limit() {
        let s = sel("SELECT a FROM t ORDER BY a DESC, b LIMIT 10");
        assert_eq!(s.order_by.len(), 2);
        assert_eq!(s.order_by[0].1, SortDir::Desc);
        assert_eq!(s.order_by[1].1, SortDir::Asc);
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("SELECT a FROM t garbage garbage").is_err());
        assert!(parse("SELECT FROM t").is_err());
    }

    #[test]
    fn in_list() {
        let s = sel("SELECT a FROM t WHERE a IN (1, 2, 3) AND b NOT IN ('x')");
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn set_checkpoint_takes_a_directory_or_off() {
        assert_eq!(
            parse("SET CHECKPOINT '/tmp/frames'").unwrap(),
            Statement::SetCheckpoint(Some("/tmp/frames".into()))
        );
        assert_eq!(parse("SET CHECKPOINT OFF").unwrap(), Statement::SetCheckpoint(None));
        assert!(parse("SET CHECKPOINT").is_err());
        assert!(parse("SET CHECKPOINT 42").is_err());
    }

    #[test]
    fn set_slow_query_takes_a_tick_threshold() {
        assert_eq!(parse("SET SLOW_QUERY 500").unwrap(), Statement::SetSlowQuery(500));
        assert_eq!(parse("set slow_query 0").unwrap(), Statement::SetSlowQuery(0));
        assert!(parse("SET SLOW_QUERY").is_err());
        assert!(parse("SET SLOW_QUERY 'fast'").is_err());
        assert!(parse("SET SLOW_QUERY -1").is_err());
    }
}
