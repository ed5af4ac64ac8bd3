//! Recursive-descent (Pratt) parser for formulas.

use std::fmt;

use sigma_value::Value;

use crate::ast::{BinaryOp, ColumnRef, Formula, UnaryOp};
use crate::functions::registry;
use crate::lexer::{lex, LexError, Token, TokenKind};

/// A parse failure with offset information.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at offset {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            offset: e.offset,
        }
    }
}

/// Deepest nesting a formula may have: every parenthesis, function
/// call, prefix operator, and each link of an operator chain counts one
/// level. Past it parsing fails with an error instead of recursing until
/// the thread's stack overflows. 64 is the nesting limit spreadsheet
/// users already know, and keeps a compiled formula well inside the SQL
/// parser's own limit.
pub const MAX_DEPTH: usize = 64;

/// Parse a formula from text.
pub fn parse_formula(input: &str) -> Result<Formula, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        input_len: input.len(),
        depth: 0,
    };
    let expr = p.parse_expr(0)?;
    if let Some(tok) = p.peek() {
        return Err(ParseError {
            message: format!("unexpected token {}", tok.kind),
            offset: tok.offset,
        });
    }
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    input_len: usize,
    /// Current nesting, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, message: impl Into<String>) -> ParseError {
        let offset = self.peek().map_or(self.input_len, |t| t.offset);
        ParseError {
            message: message.into(),
            offset,
        }
    }

    /// Go one nesting level deeper, failing past [`MAX_DEPTH`].
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err_here(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if &t.kind == kind => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => Err(ParseError {
                message: format!("expected {kind}, found {}", t.kind),
                offset: t.offset,
            }),
            None => Err(self.err_here(format!("expected {kind}, found end of input"))),
        }
    }

    /// Binary operator at the cursor, if any (including keyword and/or).
    fn peek_binop(&self) -> Option<BinaryOp> {
        let t = self.peek()?;
        Some(match &t.kind {
            TokenKind::Plus => BinaryOp::Add,
            TokenKind::Minus => BinaryOp::Sub,
            TokenKind::Star => BinaryOp::Mul,
            TokenKind::Slash => BinaryOp::Div,
            TokenKind::Percent => BinaryOp::Mod,
            TokenKind::Caret => BinaryOp::Pow,
            TokenKind::Amp => BinaryOp::Concat,
            TokenKind::Eq => BinaryOp::Eq,
            TokenKind::Ne => BinaryOp::Ne,
            TokenKind::Lt => BinaryOp::Lt,
            TokenKind::Le => BinaryOp::Le,
            TokenKind::Gt => BinaryOp::Gt,
            TokenKind::Ge => BinaryOp::Ge,
            TokenKind::AndAnd => BinaryOp::And,
            TokenKind::OrOr => BinaryOp::Or,
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("and") => BinaryOp::And,
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("or") => BinaryOp::Or,
            _ => return None,
        })
    }

    fn parse_expr(&mut self, min_prec: u8) -> Result<Formula, ParseError> {
        let depth = self.depth;
        self.descend()?;
        let mut left = self.parse_prefix()?;
        while let Some(op) = self.peek_binop() {
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.next();
            let next_min = if op.right_assoc() { prec } else { prec + 1 };
            let right = self.parse_expr(next_min)?;
            left = Formula::binary(op, left, right);
            // The chain wrapped `left` one level deeper.
            self.descend()?;
        }
        self.depth = depth;
        Ok(left)
    }

    fn parse_prefix(&mut self) -> Result<Formula, ParseError> {
        let Some(tok) = self.next() else {
            return Err(self.err_here("unexpected end of input"));
        };
        match tok.kind {
            TokenKind::Int(v) => Ok(Formula::Literal(Value::Int(v))),
            TokenKind::Float(v) => Ok(Formula::Literal(Value::Float(v))),
            TokenKind::Str(s) => Ok(Formula::Literal(Value::Text(s))),
            TokenKind::Minus => {
                // Unary minus binds tighter than mul/div but looser than ^.
                let expr = self.parse_expr(8)?;
                // Fold -literal so "-3" round-trips as a literal.
                match expr {
                    Formula::Literal(Value::Int(v)) => Ok(Formula::Literal(Value::Int(-v))),
                    Formula::Literal(Value::Float(v)) => Ok(Formula::Literal(Value::Float(-v))),
                    other => Ok(Formula::Unary {
                        op: UnaryOp::Neg,
                        expr: Box::new(other),
                    }),
                }
            }
            TokenKind::Bang => {
                let expr = self.parse_expr(3)?;
                Ok(Formula::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(expr),
                })
            }
            TokenKind::LParen => {
                let inner = self.parse_expr(0)?;
                self.expect(&TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::Bracket(text) => Ok(Formula::Ref(parse_bracket_ref(&text))),
            TokenKind::Ident(name) => {
                let lower = name.to_ascii_lowercase();
                match lower.as_str() {
                    "true" => return Ok(Formula::Literal(Value::Bool(true))),
                    "false" => return Ok(Formula::Literal(Value::Bool(false))),
                    "null" => return Ok(Formula::Literal(Value::Null)),
                    "not" => {
                        let expr = self.parse_expr(3)?;
                        return Ok(Formula::Unary {
                            op: UnaryOp::Not,
                            expr: Box::new(expr),
                        });
                    }
                    _ => {}
                }
                if self.peek().map(|t| &t.kind) == Some(&TokenKind::LParen) {
                    // Function call. Unknown names fail here so typos
                    // surface as "unknown function", not "unknown column".
                    let Some(def) = registry(&name) else {
                        return Err(ParseError {
                            message: format!("unknown function {name}"),
                            offset: tok.offset,
                        });
                    };
                    self.next(); // consume '('
                    let mut args = Vec::new();
                    if self.peek().map(|t| &t.kind) != Some(&TokenKind::RParen) {
                        loop {
                            args.push(self.parse_expr(0)?);
                            if self.peek().map(|t| &t.kind) == Some(&TokenKind::Comma) {
                                self.next();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    if args.len() < def.min_args || def.max_args.is_some_and(|m| args.len() > m) {
                        let expected = match def.max_args {
                            Some(m) if m == def.min_args => format!("{m}"),
                            Some(m) => format!("{}..{m}", def.min_args),
                            None => format!("at least {}", def.min_args),
                        };
                        return Err(ParseError {
                            message: format!(
                                "{} expects {expected} argument(s), got {}",
                                def.name,
                                args.len()
                            ),
                            offset: tok.offset,
                        });
                    }
                    Ok(Formula::Call {
                        func: def.name.to_string(),
                        args,
                    })
                } else {
                    Ok(Formula::Ref(ColumnRef::local(name)))
                }
            }
            other => Err(ParseError {
                message: format!("unexpected token {other}"),
                offset: tok.offset,
            }),
        }
    }
}

/// Split a bracket reference into element/column at the first `/`.
fn parse_bracket_ref(text: &str) -> ColumnRef {
    match text.split_once('/') {
        Some((element, name)) if !element.trim().is_empty() && !name.trim().is_empty() => {
            ColumnRef::qualified(element.trim(), name.trim())
        }
        _ => ColumnRef::local(text.trim()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinaryOp;

    fn p(input: &str) -> Formula {
        parse_formula(input).unwrap()
    }

    /// Parse on a fresh thread with the default (2 MiB) stack, the size
    /// server session threads get.
    fn parse_on_default_stack(input: String) -> Result<Formula, ParseError> {
        std::thread::spawn(move || parse_formula(&input))
            .join()
            .expect("parser thread overflowed its stack")
    }

    #[test]
    fn nesting_past_the_limit_is_an_error() {
        let n = 100_000;
        let hostile = [
            format!("{}1{}", "(".repeat(n), ")".repeat(n)),
            format!("{}1{}", "Abs(".repeat(n), ")".repeat(n)),
            format!("{}[x]", "-".repeat(n)),
            format!("{}true", "not ".repeat(n)),
            format!("{}2", "2^".repeat(n)),
            format!("{}1", "1+".repeat(n)),
        ];
        for input in hostile {
            let head: String = input.chars().take(8).collect();
            let err = parse_on_default_stack(input).unwrap_err();
            assert!(err.message.contains("nesting deeper than"), "{head}: {err}");
        }
        // The deepest accepted input parses (and drops) on the same stack:
        // the top level plus one level per parenthesis.
        let parens = |k: usize| format!("{}1{}", "(".repeat(k), ")".repeat(k));
        assert!(parse_on_default_stack(parens(MAX_DEPTH - 1)).is_ok());
        assert!(parse_on_default_stack(parens(MAX_DEPTH)).is_err());
        let chain = |k: usize| format!("{}1", "1+".repeat(k));
        assert!(parse_on_default_stack(chain(MAX_DEPTH - 1)).is_ok());
        assert!(parse_on_default_stack(chain(MAX_DEPTH)).is_err());
    }

    #[test]
    fn precedence() {
        assert_eq!(p("1 + 2 * 3"), p("1 + (2 * 3)"));
        assert_ne!(p("(1 + 2) * 3"), p("1 + 2 * 3"));
        assert_eq!(
            p("1 < 2 and 3 < 4 or false"),
            p("((1 < 2) and (3 < 4)) or false")
        );
        // Pow is right-associative.
        assert_eq!(p("2 ^ 3 ^ 2"), p("2 ^ (3 ^ 2)"));
        // Concat binds looser than +.
        assert_eq!(p("\"a\" & 1 + 2"), p("\"a\" & (1 + 2)"));
    }

    #[test]
    fn keywords_and_symbols_equivalent() {
        assert_eq!(p("a and b"), p("a && b"));
        assert_eq!(p("a or b"), p("a || b"));
        assert_eq!(p("not a"), p("!a"));
        // "and" in prefix position is not a function.
        assert!(parse_formula("and(1, 1)").is_err());
    }

    #[test]
    fn calls_and_arity() {
        let f = p("Sum([Revenue]) / Count()");
        assert_eq!(f.to_string(), "Sum(Revenue) / Count()");
        assert!(parse_formula("Sum()").is_err());
        assert!(parse_formula("Abs(1, 2)").is_err());
        assert!(parse_formula("Bogus(1)").is_err());
    }

    #[test]
    fn case_insensitive_function_names_canonicalize() {
        assert_eq!(p("sum(x)").to_string(), "Sum(x)");
        assert_eq!(p("COUNTDISTINCT(x)").to_string(), "CountDistinct(x)");
    }

    #[test]
    fn qualified_refs() {
        let f = p("Lookup([Airports/Name], [Origin], [Airports/Code])");
        if let Formula::Call { func, args } = &f {
            assert_eq!(func, "Lookup");
            assert_eq!(
                args[0],
                Formula::Ref(ColumnRef::qualified("Airports", "Name"))
            );
            assert_eq!(args[1], Formula::Ref(ColumnRef::local("Origin")));
        } else {
            panic!("expected call");
        }
    }

    #[test]
    fn negative_literals_fold() {
        assert_eq!(p("-3"), Formula::lit(-3i64));
        assert_eq!(p("-2.5"), Formula::lit(-2.5));
        // But negation of a ref stays unary.
        assert!(matches!(p("-x"), Formula::Unary { .. }));
        // And -2^2 parses as -(2^2) = unary over pow.
        assert!(matches!(p("-2 ^ 2"), Formula::Unary { .. }));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_formula("1 + 2 )").is_err());
        assert!(parse_formula("1 2").is_err());
        assert!(parse_formula("").is_err());
    }

    #[test]
    fn unary_not_precedence() {
        // not a and b == (not a) and b per precedence 3 > 2.
        let f = p("not a and b");
        if let Formula::Binary { op, .. } = &f {
            assert_eq!(*op, BinaryOp::And);
        } else {
            panic!("expected binary and at top: {f:?}");
        }
    }

    #[test]
    fn display_parse_round_trip() {
        for src in [
            "Sum(Revenue) / Count()",
            "If([Dep Delay] > 15, \"late\", \"on time\")",
            "(a + b) * c - d / e",
            "DateTrunc(\"quarter\", [Flight Date])",
            "Lag([Flight Date], 1) != [Flight Date]",
            "not (a and b) or c",
            "-x ^ 2",
            "a - (b - c)",
            "Rollup(Min([Flights/Flight Date]), [Tail Number], [Flights/Tail Number])",
        ] {
            let f1 = p(src);
            let printed = f1.to_string();
            let f2 =
                parse_formula(&printed).unwrap_or_else(|e| panic!("reparse of {printed:?}: {e}"));
            assert_eq!(f1, f2, "round trip failed for {src:?} -> {printed:?}");
        }
    }
}
