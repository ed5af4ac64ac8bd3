//! Recursive-descent SQL parser producing the [`crate::ast`] types.
//!
//! Parses the superset dialect (`DialectKind::Generic`): everything the
//! printer can emit in any dialect, including `QUALIFY`, `IGNORE NULLS`
//! (both placements), and `TABLE(RESULT_SCAN(...))`.

use std::fmt;

use sigma_value::{calendar, DataType, Value};

use crate::ast::*;
use crate::lexer::{lex_sql, SqlLexError, SqlToken, SqlTokenKind};

/// Deepest nesting the parser accepts: every parenthesis, subquery,
/// prefix operator, and each link of an operator or `UNION ALL` chain
/// counts one level. Past it parsing fails with an error instead of
/// recursing until the thread's stack overflows. Compiled workbook SQL
/// nests far less; the deepest accepted statement parses on a default
/// 2 MiB thread stack even unoptimized.
pub const MAX_DEPTH: usize = 128;

/// Parse failure with offset.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlParseError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for SqlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SQL parse error: {} at offset {}",
            self.message, self.offset
        )
    }
}

impl std::error::Error for SqlParseError {}

impl From<SqlLexError> for SqlParseError {
    fn from(e: SqlLexError) -> Self {
        SqlParseError {
            message: e.message,
            offset: e.offset,
        }
    }
}

/// Parse a single SQL statement.
pub fn parse_statement(input: &str) -> Result<Statement, SqlParseError> {
    let tokens = lex_sql(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        input_len: input.len(),
        depth: 0,
    };
    let stmt = p.statement()?;
    p.expect_end()?;
    Ok(stmt)
}

/// Parse a query (SELECT / WITH / VALUES).
pub fn parse_query(input: &str) -> Result<Query, SqlParseError> {
    let tokens = lex_sql(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        input_len: input.len(),
        depth: 0,
    };
    let q = p.query()?;
    p.expect_end()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<SqlToken>,
    pos: usize,
    input_len: usize,
    /// Current nesting, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&SqlTokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn peek_at(&self, n: usize) -> Option<&SqlTokenKind> {
        self.tokens.get(self.pos + n).map(|t| &t.kind)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map_or(self.input_len, |t| t.offset)
    }

    fn advance(&mut self) -> Option<SqlTokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> SqlParseError {
        SqlParseError {
            message: message.into(),
            offset: self.offset(),
        }
    }

    /// Go one nesting level deeper, failing past [`MAX_DEPTH`]. Callers
    /// save `self.depth` on entry and restore it on success.
    fn descend(&mut self) -> Result<(), SqlParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn expect_end(&self) -> Result<(), SqlParseError> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(self.err(format!("unexpected trailing token {t}"))),
        }
    }

    /// True when the next token is the given bare word (case-insensitive).
    fn at_word(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(SqlTokenKind::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn at_word_n(&self, n: usize, kw: &str) -> bool {
        matches!(self.peek_at(n), Some(SqlTokenKind::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_word(&mut self, kw: &str) -> bool {
        if self.at_word(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_word(&mut self, kw: &str) -> Result<(), SqlParseError> {
        if self.eat_word(kw) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {kw}, found {}",
                self.peek()
                    .map_or("end of input".to_string(), |t| t.to_string())
            )))
        }
    }

    fn eat(&mut self, kind: &SqlTokenKind) -> bool {
        if self.peek() == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &SqlTokenKind) -> Result<(), SqlParseError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {kind}, found {}",
                self.peek()
                    .map_or("end of input".to_string(), |t| t.to_string())
            )))
        }
    }

    /// An identifier: quoted, or any bare word.
    fn ident(&mut self) -> Result<String, SqlParseError> {
        match self.advance() {
            Some(SqlTokenKind::Word(w)) => Ok(w),
            Some(SqlTokenKind::QuotedIdent(s)) => Ok(s),
            other => Err(SqlParseError {
                message: format!(
                    "expected identifier, found {}",
                    other.map_or("end of input".to_string(), |t| t.to_string())
                ),
                offset: self
                    .tokens
                    .get(self.pos - 1)
                    .map_or(self.input_len, |t| t.offset),
            }),
        }
    }

    fn object_name(&mut self) -> Result<ObjectName, SqlParseError> {
        let mut parts = vec![self.ident()?];
        while self.eat(&SqlTokenKind::Dot) {
            parts.push(self.ident()?);
        }
        Ok(ObjectName(parts))
    }

    // ------------------------------------------------------------------
    // statements
    // ------------------------------------------------------------------

    fn statement(&mut self) -> Result<Statement, SqlParseError> {
        if self.at_word("SELECT") || self.at_word("WITH") || self.at_word("VALUES") {
            return Ok(Statement::Query(self.query()?));
        }
        if self.at_word("CREATE") {
            return self.create();
        }
        if self.eat_word("INSERT") {
            self.expect_word("INTO")?;
            let table = self.object_name()?;
            // Optional column list: a '(' followed by an identifier then
            // ',' or ')' — otherwise the '(' starts a subquery source.
            let columns =
                if self.peek() == Some(&SqlTokenKind::LParen) && self.looks_like_column_list() {
                    self.expect(&SqlTokenKind::LParen)?;
                    let mut cols = vec![self.ident()?];
                    while self.eat(&SqlTokenKind::Comma) {
                        cols.push(self.ident()?);
                    }
                    self.expect(&SqlTokenKind::RParen)?;
                    Some(cols)
                } else {
                    None
                };
            let source = self.query()?;
            return Ok(Statement::Insert {
                table,
                columns,
                source,
            });
        }
        if self.eat_word("UPDATE") {
            let table = self.object_name()?;
            self.expect_word("SET")?;
            let mut assignments = Vec::new();
            loop {
                let col = self.ident()?;
                self.expect(&SqlTokenKind::Eq)?;
                let val = self.expr(0)?;
                assignments.push((col, val));
                if !self.eat(&SqlTokenKind::Comma) {
                    break;
                }
            }
            let selection = if self.eat_word("WHERE") {
                Some(self.expr(0)?)
            } else {
                None
            };
            return Ok(Statement::Update {
                table,
                assignments,
                selection,
            });
        }
        if self.eat_word("DELETE") {
            self.expect_word("FROM")?;
            let table = self.object_name()?;
            let selection = if self.eat_word("WHERE") {
                Some(self.expr(0)?)
            } else {
                None
            };
            return Ok(Statement::Delete { table, selection });
        }
        if self.eat_word("DROP") {
            self.expect_word("TABLE")?;
            let if_exists = if self.eat_word("IF") {
                self.expect_word("EXISTS")?;
                true
            } else {
                false
            };
            let name = self.object_name()?;
            return Ok(Statement::DropTable { name, if_exists });
        }
        Err(self.err("expected a statement"))
    }

    /// Heuristic: after INSERT INTO t, does '(' open a column list?
    fn looks_like_column_list(&self) -> bool {
        // '(' ident (',' | ')')
        let id_ok = matches!(
            self.peek_at(1),
            Some(SqlTokenKind::Word(_) | SqlTokenKind::QuotedIdent(_))
        );
        // "(select ...)" is a subquery, not a column list.
        if self.at_word_n(1, "SELECT") || self.at_word_n(1, "WITH") || self.at_word_n(1, "VALUES") {
            return false;
        }
        id_ok
            && matches!(
                self.peek_at(2),
                Some(SqlTokenKind::Comma | SqlTokenKind::RParen)
            )
    }

    fn create(&mut self) -> Result<Statement, SqlParseError> {
        self.expect_word("CREATE")?;
        let or_replace = if self.eat_word("OR") {
            self.expect_word("REPLACE")?;
            true
        } else {
            false
        };
        self.expect_word("TABLE")?;
        let if_not_exists = if self.eat_word("IF") {
            self.expect_word("NOT")?;
            self.expect_word("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.object_name()?;
        if self.eat_word("AS") {
            let query = self.query()?;
            return Ok(Statement::CreateTableAs {
                name,
                query,
                or_replace,
            });
        }
        self.expect(&SqlTokenKind::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let ty_word = self.ident()?;
            let dtype = DataType::parse_sql(&ty_word)
                .ok_or_else(|| self.err(format!("unknown type {ty_word}")))?;
            columns.push((col, dtype));
            if !self.eat(&SqlTokenKind::Comma) {
                break;
            }
        }
        self.expect(&SqlTokenKind::RParen)?;
        Ok(Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        })
    }

    // ------------------------------------------------------------------
    // queries
    // ------------------------------------------------------------------

    fn query(&mut self) -> Result<Query, SqlParseError> {
        let depth = self.depth;
        self.descend()?;
        let mut ctes = Vec::new();
        if self.eat_word("WITH") {
            loop {
                let name = self.ident()?;
                self.expect_word("AS")?;
                self.expect(&SqlTokenKind::LParen)?;
                let cte = self.query()?;
                self.expect(&SqlTokenKind::RParen)?;
                ctes.push((name, cte));
                if !self.eat(&SqlTokenKind::Comma) {
                    break;
                }
            }
        }
        let body = self.set_expr()?;
        let mut order_by = Vec::new();
        if self.eat_word("ORDER") {
            self.expect_word("BY")?;
            order_by = self.order_list()?;
        }
        let mut limit = None;
        let mut offset = None;
        if self.eat_word("LIMIT") {
            limit = Some(self.unsigned_number()?);
        }
        if self.eat_word("OFFSET") {
            offset = Some(self.unsigned_number()?);
        }
        self.depth = depth;
        Ok(Query {
            ctes,
            body,
            order_by,
            limit,
            offset,
        })
    }

    fn unsigned_number(&mut self) -> Result<u64, SqlParseError> {
        match self.advance() {
            Some(SqlTokenKind::Number(n)) => n
                .parse::<u64>()
                .map_err(|_| self.err(format!("expected an unsigned integer, found {n}"))),
            other => Err(self.err(format!(
                "expected a number, found {}",
                other.map_or("end of input".to_string(), |t| t.to_string())
            ))),
        }
    }

    fn order_list(&mut self) -> Result<Vec<OrderExpr>, SqlParseError> {
        let mut out = Vec::new();
        loop {
            let expr = self.expr(0)?;
            let mut descending = false;
            if self.eat_word("ASC") {
            } else if self.eat_word("DESC") {
                descending = true;
            }
            let nulls_last = if self.eat_word("NULLS") {
                if self.eat_word("LAST") {
                    Some(true)
                } else {
                    self.expect_word("FIRST")?;
                    Some(false)
                }
            } else {
                None
            };
            out.push(OrderExpr {
                expr,
                descending,
                nulls_last,
            });
            if !self.eat(&SqlTokenKind::Comma) {
                break;
            }
        }
        Ok(out)
    }

    fn set_expr(&mut self) -> Result<SetExpr, SqlParseError> {
        let depth = self.depth;
        self.descend()?;
        let mut left = self.set_primary()?;
        while self.at_word("UNION") {
            self.expect_word("UNION")?;
            self.expect_word("ALL")?;
            let right = self.set_primary()?;
            left = SetExpr::UnionAll(Box::new(left), Box::new(right));
            self.descend()?;
        }
        self.depth = depth;
        Ok(left)
    }

    fn set_primary(&mut self) -> Result<SetExpr, SqlParseError> {
        if self.eat(&SqlTokenKind::LParen) {
            let inner = self.set_expr()?;
            self.expect(&SqlTokenKind::RParen)?;
            return Ok(inner);
        }
        if self.eat_word("VALUES") {
            let mut rows = Vec::new();
            loop {
                self.expect(&SqlTokenKind::LParen)?;
                let mut row = Vec::new();
                if self.peek() != Some(&SqlTokenKind::RParen) {
                    loop {
                        row.push(self.expr(0)?);
                        if !self.eat(&SqlTokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&SqlTokenKind::RParen)?;
                rows.push(row);
                if !self.eat(&SqlTokenKind::Comma) {
                    break;
                }
            }
            return Ok(SetExpr::Values(rows));
        }
        Ok(SetExpr::Select(Box::new(self.select()?)))
    }

    fn select(&mut self) -> Result<Select, SqlParseError> {
        self.expect_word("SELECT")?;
        let mut s = Select::new();
        s.distinct = self.eat_word("DISTINCT");
        loop {
            if self.eat(&SqlTokenKind::Star) {
                s.projection.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr(0)?;
                let alias = self.optional_alias()?;
                s.projection.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat(&SqlTokenKind::Comma) {
                break;
            }
        }
        if self.eat_word("FROM") {
            s.from = Some(self.table_ref()?);
            loop {
                let kind = if self.at_word("JOIN") || self.at_word("INNER") {
                    self.eat_word("INNER");
                    self.expect_word("JOIN")?;
                    JoinKind::Inner
                } else if self.at_word("LEFT") {
                    self.expect_word("LEFT")?;
                    self.eat_word("OUTER");
                    self.expect_word("JOIN")?;
                    JoinKind::Left
                } else if self.at_word("FULL") {
                    self.expect_word("FULL")?;
                    self.eat_word("OUTER");
                    self.expect_word("JOIN")?;
                    JoinKind::Full
                } else if self.at_word("CROSS") {
                    self.expect_word("CROSS")?;
                    self.expect_word("JOIN")?;
                    JoinKind::Cross
                } else {
                    break;
                };
                let relation = self.table_ref()?;
                let on = if kind == JoinKind::Cross {
                    None
                } else {
                    self.expect_word("ON")?;
                    Some(self.expr(0)?)
                };
                s.joins.push(Join { kind, relation, on });
            }
        }
        if self.eat_word("WHERE") {
            s.selection = Some(self.expr(0)?);
        }
        if self.eat_word("GROUP") {
            self.expect_word("BY")?;
            loop {
                s.group_by.push(self.expr(0)?);
                if !self.eat(&SqlTokenKind::Comma) {
                    break;
                }
            }
        }
        if self.eat_word("HAVING") {
            s.having = Some(self.expr(0)?);
        }
        if self.eat_word("QUALIFY") {
            s.qualify = Some(self.expr(0)?);
        }
        Ok(s)
    }

    /// `AS ident`, a quoted identifier, or a bare non-keyword word.
    fn optional_alias(&mut self) -> Result<Option<String>, SqlParseError> {
        if self.eat_word("AS") {
            return Ok(Some(self.ident()?));
        }
        match self.peek() {
            Some(SqlTokenKind::QuotedIdent(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(Some(s))
            }
            Some(SqlTokenKind::Word(w)) if !crate::dialect::is_reserved(w) => {
                let w = w.clone();
                self.pos += 1;
                Ok(Some(w))
            }
            _ => Ok(None),
        }
    }

    fn table_ref(&mut self) -> Result<TableRef, SqlParseError> {
        if self.eat_word("TABLE") {
            // TABLE(fn(args)) [AS alias]
            self.expect(&SqlTokenKind::LParen)?;
            let name = self.ident()?;
            self.expect(&SqlTokenKind::LParen)?;
            let mut args = Vec::new();
            if self.peek() != Some(&SqlTokenKind::RParen) {
                loop {
                    args.push(self.expr(0)?);
                    if !self.eat(&SqlTokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(&SqlTokenKind::RParen)?;
            self.expect(&SqlTokenKind::RParen)?;
            let alias = self.optional_alias()?;
            return Ok(TableRef::Function { name, args, alias });
        }
        if self.eat(&SqlTokenKind::LParen) {
            let query = self.query()?;
            self.expect(&SqlTokenKind::RParen)?;
            let alias = self
                .optional_alias()?
                .ok_or_else(|| self.err("derived table requires an alias"))?;
            return Ok(TableRef::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.object_name()?;
        let alias = self.optional_alias()?;
        Ok(TableRef::Table { name, alias })
    }

    // ------------------------------------------------------------------
    // expressions
    // ------------------------------------------------------------------

    fn expr(&mut self, min_prec: u8) -> Result<SqlExpr, SqlParseError> {
        let depth = self.depth;
        self.descend()?;
        let mut left = self.prefix()?;
        // Each postfix predicate or binary operator below wraps `left`
        // one level deeper.
        loop {
            // Postfix predicates at comparison precedence.
            if min_prec <= 4 && self.at_postfix_predicate() {
                left = self.postfix_predicate(left)?;
                self.descend()?;
                continue;
            }
            let Some(op) = self.peek_binop() else { break };
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.advance();
            let right = self.expr(prec + 1)?;
            left = SqlExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
            self.descend()?;
        }
        self.depth = depth;
        Ok(left)
    }

    /// `IS [NOT] NULL`, `[NOT] IN`, `[NOT] BETWEEN`, or `[NOT] LIKE` ahead.
    fn at_postfix_predicate(&self) -> bool {
        self.at_word("IS")
            || self.at_word("IN")
            || self.at_word("BETWEEN")
            || self.at_word("LIKE")
            || (self.at_word("NOT")
                && (self.at_word_n(1, "IN")
                    || self.at_word_n(1, "BETWEEN")
                    || self.at_word_n(1, "LIKE")))
    }

    /// Wrap `left` in the postfix predicate [`Parser::at_postfix_predicate`]
    /// found. Kept out of [`Parser::expr`] so the frames on the recursion
    /// path stay small.
    fn postfix_predicate(&mut self, left: SqlExpr) -> Result<SqlExpr, SqlParseError> {
        if self.eat_word("IS") {
            let negated = self.eat_word("NOT");
            self.expect_word("NULL")?;
            return Ok(SqlExpr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = self.eat_word("NOT");
        if self.eat_word("IN") {
            self.expect(&SqlTokenKind::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr(0)?);
                if !self.eat(&SqlTokenKind::Comma) {
                    break;
                }
            }
            self.expect(&SqlTokenKind::RParen)?;
            Ok(SqlExpr::InList {
                expr: Box::new(left),
                list,
                negated,
            })
        } else if self.eat_word("BETWEEN") {
            let low = self.expr(5)?;
            self.expect_word("AND")?;
            let high = self.expr(5)?;
            Ok(SqlExpr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            })
        } else {
            self.expect_word("LIKE")?;
            let pattern = self.expr(5)?;
            Ok(SqlExpr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            })
        }
    }

    fn peek_binop(&self) -> Option<SqlBinaryOp> {
        Some(match self.peek()? {
            SqlTokenKind::Plus => SqlBinaryOp::Add,
            SqlTokenKind::Minus => SqlBinaryOp::Sub,
            SqlTokenKind::Star => SqlBinaryOp::Mul,
            SqlTokenKind::Slash => SqlBinaryOp::Div,
            SqlTokenKind::Percent => SqlBinaryOp::Mod,
            SqlTokenKind::Eq => SqlBinaryOp::Eq,
            SqlTokenKind::NotEq => SqlBinaryOp::NotEq,
            SqlTokenKind::Lt => SqlBinaryOp::Lt,
            SqlTokenKind::LtEq => SqlBinaryOp::LtEq,
            SqlTokenKind::Gt => SqlBinaryOp::Gt,
            SqlTokenKind::GtEq => SqlBinaryOp::GtEq,
            SqlTokenKind::ConcatOp => SqlBinaryOp::Concat,
            SqlTokenKind::Word(w) if w.eq_ignore_ascii_case("AND") => SqlBinaryOp::And,
            SqlTokenKind::Word(w) if w.eq_ignore_ascii_case("OR") => SqlBinaryOp::Or,
            _ => return None,
        })
    }

    fn prefix(&mut self) -> Result<SqlExpr, SqlParseError> {
        match self.peek().cloned() {
            Some(SqlTokenKind::Number(_)) => {
                let Some(SqlTokenKind::Number(n)) = self.advance() else {
                    unreachable!()
                };
                self.number_literal(&n, false)
            }
            Some(SqlTokenKind::Str(_)) => {
                let Some(SqlTokenKind::Str(s)) = self.advance() else {
                    unreachable!()
                };
                Ok(SqlExpr::Literal(Value::Text(s)))
            }
            Some(SqlTokenKind::Minus) => {
                self.advance();
                // Fold into numeric literals so -3 round-trips.
                if let Some(SqlTokenKind::Number(n)) = self.peek().cloned() {
                    self.advance();
                    return self.number_literal(&n, true);
                }
                let expr = self.expr(8)?;
                Ok(SqlExpr::Unary {
                    op: SqlUnaryOp::Neg,
                    expr: Box::new(expr),
                })
            }
            Some(SqlTokenKind::Plus) => {
                self.advance();
                self.expr(8)
            }
            Some(SqlTokenKind::Star) => {
                self.advance();
                Ok(SqlExpr::Star)
            }
            Some(SqlTokenKind::LParen) => {
                self.advance();
                let inner = self.expr(0)?;
                self.expect(&SqlTokenKind::RParen)?;
                Ok(inner)
            }
            Some(SqlTokenKind::QuotedIdent(_)) => self.column_or_call(),
            Some(SqlTokenKind::Word(w)) => match self.keyword_prefix(&w)? {
                Some(expr) => Ok(expr),
                // Reserved words are only valid here as function names
                // (`LEFT(x, 2)`); identifiers spelled like keywords
                // arrive quoted.
                None if crate::dialect::is_reserved(&w)
                    && self.peek_at(1) != Some(&SqlTokenKind::LParen) =>
                {
                    Err(self.err(format!("unexpected keyword {w}")))
                }
                None => self.column_or_call(),
            },
            other => Err(self.err(format!(
                "unexpected {} in expression",
                other.map_or("end of input".to_string(), |t| t.to_string())
            ))),
        }
    }

    /// A prefix expression led by a keyword (literal keywords, NOT, CASE,
    /// CAST, typed literals), or `None` when the word starts a column or
    /// call. Kept out of [`Parser::prefix`] so the frames on the recursion
    /// path through parentheses and calls stay small.
    fn keyword_prefix(&mut self, w: &str) -> Result<Option<SqlExpr>, SqlParseError> {
        let upper = w.to_ascii_uppercase();
        let expr = match upper.as_str() {
            "TRUE" => {
                self.advance();
                Ok(SqlExpr::Literal(Value::Bool(true)))
            }
            "FALSE" => {
                self.advance();
                Ok(SqlExpr::Literal(Value::Bool(false)))
            }
            "NULL" => {
                self.advance();
                Ok(SqlExpr::Literal(Value::Null))
            }
            "NOT" => {
                self.advance();
                let expr = self.expr(3)?;
                Ok(SqlExpr::Unary {
                    op: SqlUnaryOp::Not,
                    expr: Box::new(expr),
                })
            }
            "CASE" => self.case_expr(),
            "CAST" => {
                self.advance();
                self.expect(&SqlTokenKind::LParen)?;
                let expr = self.expr(0)?;
                self.expect_word("AS")?;
                let ty_word = self.ident()?;
                let dtype = DataType::parse_sql(&ty_word)
                    .ok_or_else(|| self.err(format!("unknown type {ty_word}")))?;
                self.expect(&SqlTokenKind::RParen)?;
                Ok(SqlExpr::Cast {
                    expr: Box::new(expr),
                    dtype,
                })
            }
            "DATE" if matches!(self.peek_at(1), Some(SqlTokenKind::Str(_))) => {
                self.advance();
                let Some(SqlTokenKind::Str(s)) = self.advance() else {
                    unreachable!()
                };
                let days = calendar::parse_date(&s)
                    .ok_or_else(|| self.err(format!("bad date literal {s:?}")))?;
                Ok(SqlExpr::Literal(Value::Date(days)))
            }
            "TIMESTAMP" if matches!(self.peek_at(1), Some(SqlTokenKind::Str(_))) => {
                self.advance();
                let Some(SqlTokenKind::Str(s)) = self.advance() else {
                    unreachable!()
                };
                let micros = calendar::parse_timestamp(&s)
                    .ok_or_else(|| self.err(format!("bad timestamp literal {s:?}")))?;
                Ok(SqlExpr::Literal(Value::Timestamp(micros)))
            }
            _ => return Ok(None),
        };
        expr.map(Some)
    }

    fn number_literal(&self, text: &str, negate: bool) -> Result<SqlExpr, SqlParseError> {
        if !text.contains('.') && !text.contains(['e', 'E']) {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(SqlExpr::Literal(Value::Int(if negate { -v } else { v })));
            }
        }
        let v: f64 = text
            .parse()
            .map_err(|_| self.err(format!("bad number {text:?}")))?;
        Ok(SqlExpr::Literal(Value::Float(if negate { -v } else { v })))
    }

    fn case_expr(&mut self) -> Result<SqlExpr, SqlParseError> {
        self.expect_word("CASE")?;
        let operand = if self.at_word("WHEN") {
            None
        } else {
            Some(Box::new(self.expr(0)?))
        };
        let mut whens = Vec::new();
        while self.eat_word("WHEN") {
            let w = self.expr(0)?;
            self.expect_word("THEN")?;
            let t = self.expr(0)?;
            whens.push((w, t));
        }
        if whens.is_empty() {
            return Err(self.err("CASE requires at least one WHEN"));
        }
        let else_ = if self.eat_word("ELSE") {
            Some(Box::new(self.expr(0)?))
        } else {
            None
        };
        self.expect_word("END")?;
        Ok(SqlExpr::Case {
            operand,
            whens,
            else_,
        })
    }

    /// Column reference (possibly qualified) or function call (possibly a
    /// window function).
    fn column_or_call(&mut self) -> Result<SqlExpr, SqlParseError> {
        let first = self.ident()?;
        if self.peek() == Some(&SqlTokenKind::LParen) {
            self.advance();
            let mut distinct = false;
            let mut args = Vec::new();
            if self.peek() != Some(&SqlTokenKind::RParen) {
                distinct = self.eat_word("DISTINCT");
                loop {
                    if self.eat(&SqlTokenKind::Star) {
                        args.push(SqlExpr::Star);
                    } else {
                        args.push(self.expr(0)?);
                    }
                    if !self.eat(&SqlTokenKind::Comma) {
                        break;
                    }
                }
            }
            // BigQuery-style `fn(x IGNORE NULLS)`.
            let mut ignore_nulls = false;
            if self.at_word("IGNORE") {
                self.expect_word("IGNORE")?;
                self.expect_word("NULLS")?;
                ignore_nulls = true;
            }
            self.expect(&SqlTokenKind::RParen)?;
            // Standard `fn(x) IGNORE NULLS`.
            if self.at_word("IGNORE") {
                self.expect_word("IGNORE")?;
                self.expect_word("NULLS")?;
                ignore_nulls = true;
            }
            if self.at_word("OVER") {
                self.expect_word("OVER")?;
                let spec = self.window_spec()?;
                return Ok(SqlExpr::WindowFunc {
                    name: first.to_ascii_uppercase(),
                    args,
                    ignore_nulls,
                    spec,
                });
            }
            if ignore_nulls {
                return Err(self.err("IGNORE NULLS requires an OVER clause"));
            }
            return Ok(SqlExpr::Func {
                name: first.to_ascii_uppercase(),
                args,
                distinct,
            });
        }
        if self.peek() == Some(&SqlTokenKind::Dot) {
            self.advance();
            let name = self.ident()?;
            return Ok(SqlExpr::Column {
                table: Some(first),
                name,
            });
        }
        Ok(SqlExpr::Column {
            table: None,
            name: first,
        })
    }

    fn window_spec(&mut self) -> Result<WindowSpec, SqlParseError> {
        self.expect(&SqlTokenKind::LParen)?;
        let mut spec = WindowSpec::default();
        if self.eat_word("PARTITION") {
            self.expect_word("BY")?;
            loop {
                spec.partition_by.push(self.expr(0)?);
                if !self.eat(&SqlTokenKind::Comma) {
                    break;
                }
            }
        }
        if self.eat_word("ORDER") {
            self.expect_word("BY")?;
            spec.order_by = self.order_list()?;
        }
        if self.eat_word("ROWS") {
            self.expect_word("BETWEEN")?;
            let start = self.frame_bound()?;
            self.expect_word("AND")?;
            let end = self.frame_bound()?;
            spec.frame = Some(WindowFrame { start, end });
        }
        self.expect(&SqlTokenKind::RParen)?;
        Ok(spec)
    }

    fn frame_bound(&mut self) -> Result<FrameBound, SqlParseError> {
        if self.eat_word("UNBOUNDED") {
            if self.eat_word("PRECEDING") {
                return Ok(FrameBound::UnboundedPreceding);
            }
            self.expect_word("FOLLOWING")?;
            return Ok(FrameBound::UnboundedFollowing);
        }
        if self.eat_word("CURRENT") {
            self.expect_word("ROW")?;
            return Ok(FrameBound::CurrentRow);
        }
        let n = self.unsigned_number()?;
        if self.eat_word("PRECEDING") {
            Ok(FrameBound::Preceding(n))
        } else {
            self.expect_word("FOLLOWING")?;
            Ok(FrameBound::Following(n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::Dialect;
    use crate::printer::{print_query, print_statement};

    fn round_trip_query(sql: &str) {
        let q1 = parse_query(sql).unwrap_or_else(|e| panic!("parse {sql:?}: {e}"));
        let printed = print_query(&q1, &Dialect::generic());
        let q2 = parse_query(&printed).unwrap_or_else(|e| panic!("reparse {printed:?}: {e}"));
        assert_eq!(q1, q2, "round trip failed:\n{sql}\n->\n{printed}");
    }

    #[test]
    fn select_basics() {
        let q = parse_query("SELECT a, b AS c FROM t WHERE a > 1").unwrap();
        if let SetExpr::Select(s) = &q.body {
            assert_eq!(s.projection.len(), 2);
            assert!(s.selection.is_some());
        } else {
            panic!("expected select");
        }
    }

    #[test]
    fn round_trips() {
        for sql in [
            "SELECT 1",
            "SELECT * FROM flights",
            "SELECT DISTINCT carrier FROM flights LIMIT 5 OFFSET 2",
            "SELECT a.x, b.y FROM a JOIN b ON a.k = b.k LEFT JOIN c ON b.k2 = c.k2",
            "SELECT x FROM t WHERE x BETWEEN 1 AND 10 AND y IN (1, 2, 3) AND z IS NOT NULL",
            "SELECT CASE WHEN a = 1 THEN 'one' ELSE 'other' END FROM t",
            "SELECT CASE a WHEN 1 THEN 'one' END FROM t",
            "SELECT CAST(x AS DOUBLE) FROM t",
            "SELECT COUNT(*), COUNT(DISTINCT x), SUM(y) FROM t GROUP BY z HAVING SUM(y) > 0",
            "WITH base AS (SELECT 1 AS one) SELECT one FROM base",
            "SELECT x FROM t QUALIFY ROW_NUMBER() OVER (PARTITION BY g ORDER BY o) = 1",
            "SELECT LAST_VALUE(x) IGNORE NULLS OVER (PARTITION BY g ORDER BY o ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) FROM t",
            "SELECT SUM(x) OVER (ORDER BY o ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) FROM t",
            "SELECT 1 UNION ALL SELECT 2 UNION ALL SELECT 3",
            "VALUES (1, 'a'), (2, 'b')",
            "SELECT * FROM (SELECT 1 AS x) AS sub",
            "SELECT * FROM TABLE(RESULT_SCAN('q-7')) AS r",
            "SELECT NOT a AND b, -x + 2, 'it''s' FROM t",
            "SELECT x FROM t ORDER BY x DESC NULLS LAST, y",
            "SELECT \"Mixed Case\" FROM \"Weird Table\"",
            "SELECT x LIKE 'a%' FROM t",
            "SELECT DATE '2020-01-01', TIMESTAMP '2020-01-01 12:30:00' FROM t",
            "SELECT x FROM t WHERE a NOT IN (1) AND b NOT BETWEEN 1 AND 2 AND c NOT LIKE 'x%'",
        ] {
            round_trip_query(sql);
        }
    }

    #[test]
    fn statement_round_trips() {
        for sql in [
            "CREATE TABLE t (a BIGINT, b VARCHAR)",
            "CREATE TABLE IF NOT EXISTS t (a DOUBLE)",
            "CREATE OR REPLACE TABLE m AS SELECT 1 AS x",
            "INSERT INTO t VALUES (1, 'x')",
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
            "INSERT INTO t SELECT * FROM s",
            "UPDATE t SET a = 1, b = 'x' WHERE c = 2",
            "DELETE FROM t WHERE a IS NULL",
            "DROP TABLE IF EXISTS t",
        ] {
            let s1 = parse_statement(sql).unwrap_or_else(|e| panic!("parse {sql:?}: {e}"));
            let printed = print_statement(&s1, &Dialect::generic());
            let s2 =
                parse_statement(&printed).unwrap_or_else(|e| panic!("reparse {printed:?}: {e}"));
            assert_eq!(s1, s2, "round trip failed:\n{sql}\n->\n{printed}");
        }
    }

    #[test]
    fn precedence_matches_printer() {
        let q = parse_query("SELECT a OR b AND c = d + e * f FROM t").unwrap();
        let printed = print_query(&q, &Dialect::generic());
        // No parens needed: precedence already groups this way.
        assert!(printed.contains("a OR b AND c = d + e * f"), "{printed}");
    }

    #[test]
    fn negative_numbers_fold() {
        let q = parse_query("SELECT -3, -2.5, -x FROM t").unwrap();
        if let SetExpr::Select(s) = &q.body {
            assert!(matches!(
                &s.projection[0],
                SelectItem::Expr {
                    expr: SqlExpr::Literal(Value::Int(-3)),
                    ..
                }
            ));
            assert!(matches!(
                &s.projection[2],
                SelectItem::Expr {
                    expr: SqlExpr::Unary { .. },
                    ..
                }
            ));
        } else {
            panic!()
        }
    }

    #[test]
    fn errors_have_offsets() {
        let e = parse_query("SELECT FROM").unwrap_err();
        assert!(e.offset > 0);
        assert!(parse_query("SELECT 1 WHERE").is_err());
        assert!(parse_query("").is_err());
        assert!(parse_statement("TRUNCATE t").is_err());
    }

    #[test]
    fn bigquery_ignore_nulls_placement_parses() {
        let q = parse_query("SELECT LAST_VALUE(x IGNORE NULLS) OVER (ORDER BY o) FROM t").unwrap();
        if let SetExpr::Select(s) = &q.body {
            assert!(matches!(
                &s.projection[0],
                SelectItem::Expr {
                    expr: SqlExpr::WindowFunc {
                        ignore_nulls: true,
                        ..
                    },
                    ..
                }
            ));
        } else {
            panic!()
        }
    }

    /// Parse on a fresh thread with the default (2 MiB) stack, the size
    /// server session threads get.
    fn parse_on_default_stack(sql: String) -> Result<Statement, SqlParseError> {
        std::thread::spawn(move || parse_statement(&sql))
            .join()
            .expect("parser thread overflowed its stack")
    }

    #[test]
    fn nesting_past_the_limit_is_an_error() {
        let n = 100_000;
        let hostile = [
            format!("SELECT {}1{}", "(".repeat(n), ")".repeat(n)),
            format!(
                "SELECT * FROM {}t{}",
                "(SELECT * FROM ".repeat(n),
                ") x".repeat(n)
            ),
            format!(
                "SELECT 1 UNION ALL {}SELECT 1{}",
                "(".repeat(n),
                ")".repeat(n)
            ),
            format!("SELECT {}TRUE", "NOT ".repeat(n)),
            format!("SELECT {}1", "-(".repeat(n)),
            format!("SELECT {}1", "1 + ".repeat(n)),
            format!("SELECT {}1", "ABS(".repeat(n)),
            "SELECT 1 UNION ALL ".repeat(n) + "SELECT 1",
        ];
        for sql in hostile {
            let head: String = sql.chars().take(24).collect();
            let err = parse_on_default_stack(sql).unwrap_err();
            assert!(err.message.contains("nesting deeper than"), "{head}: {err}");
        }
        // The deepest accepted inputs parse (and drop) on the same stack.
        // Query, set expression, and select-list expression take three
        // levels; each parenthesis or call one more.
        let parens = |k: usize| format!("SELECT {}1{}", "(".repeat(k), ")".repeat(k));
        assert!(parse_on_default_stack(parens(MAX_DEPTH - 3)).is_ok());
        assert!(parse_on_default_stack(parens(MAX_DEPTH - 2)).is_err());
        let k = MAX_DEPTH - 3;
        let calls = format!("SELECT {}1{}", "ABS(".repeat(k), ")".repeat(k));
        assert!(parse_on_default_stack(calls).is_ok());
        // Derived tables cost two levels each (query + set expression).
        let k = MAX_DEPTH / 2 - 1;
        let subqueries = format!(
            "SELECT * FROM {}t{}",
            "(SELECT * FROM ".repeat(k),
            ") x".repeat(k)
        );
        assert!(parse_on_default_stack(subqueries).is_ok());
    }

    #[test]
    fn qualify_wrap_output_reparses() {
        // Print a QUALIFY select for Postgres and ensure the wrapped form
        // parses back (not equal structurally, but valid SQL).
        let q = parse_query("SELECT x FROM t QUALIFY ROW_NUMBER() OVER (ORDER BY x) = 1").unwrap();
        let pg = print_query(&q, &Dialect::new(crate::dialect::DialectKind::Postgres));
        parse_query(&pg).unwrap_or_else(|e| panic!("wrapped qualify reparse: {e}\n{pg}"));
    }
}
