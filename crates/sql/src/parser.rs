//! Recursive-descent SQL parser.
//!
//! Grammar (informal):
//!
//! ```text
//! query      := [WITH cte ("," cte)*] set_expr [ORDER BY ...] [LIMIT n] [OFFSET n]
//! cte        := ident AS "(" query ")"
//! set_expr   := select ((UNION|INTERSECT|EXCEPT|MINUS) [ALL] select)*
//! select     := SELECT [DISTINCT] items [FROM table_ref] [WHERE expr]
//!               [GROUP BY exprs] [HAVING expr]
//! table_ref  := factor (join factor)*
//! factor     := ident [alias] | "(" query ")" alias | "(" table_ref ")"
//! join       := [INNER|LEFT [OUTER]|RIGHT [OUTER]|FULL [OUTER]|CROSS] JOIN
//!               factor [ON expr | USING "(" idents ")"]
//! ```
//!
//! Expression parsing uses precedence climbing:
//! `OR < AND < NOT < (comparison | IN | BETWEEN | LIKE | IS) < +- < */% < unary`.
//!
//! Every construct that makes the parser recurse — a subquery in any
//! position, a parenthesized or nested expression, a parenthesized join
//! or set operation, a `NOT`/sign chain — counts against
//! [`MAX_NESTING_DEPTH`], so hostile text fails with a [`ParseError`]
//! instead of overflowing the stack. A chain of one operator — `OR`,
//! `AND`, `+ -`, `* / %`, a set operation or a join — is parsed by a loop
//! but builds a left-deep tree that every later walk recurses down, so
//! its operands (a join's factors) are capped too
//! ([`MAX_CHAIN_OPERANDS`]).

use crate::ast::*;
use crate::error::{ParseError, Result};
use crate::lexer::{recycle, tokenize};
use crate::token::{Keyword, Token, TokenKind};

/// Deepest nesting the parser accepts. A fixed bound, not a knob: one
/// level of parenthesized expression costs ten parser frames — about
/// 17 KiB of stack in an unoptimized build — so 64 of them stay inside
/// half of a 2 MiB service-worker stack, and real queries nest a
/// fraction of that.
pub const MAX_NESTING_DEPTH: usize = 64;

/// Most operands one chain of a binary operator or a set operation may
/// have. A fixed bound, not a knob: a chain of `n` operands is a tree
/// `n` levels deep. A query holding a chain this long at
/// [`MAX_NESTING_DEPTH`] runs end to end on a 2 MiB service-worker stack
/// in an unoptimized build, where one of 160 operands overflows it. No
/// shipped workload query has a chain of more than 8 operands; the
/// engine's own tests run a 96-arm set operation.
pub const MAX_CHAIN_OPERANDS: usize = 100;

/// Parse a single SQL query (an optional trailing `;` is allowed).
pub fn parse_query(sql: &str) -> Result<Query> {
    parse_query_nesting(sql).map(|(q, _)| q)
}

/// [`parse_query`], plus the deepest nesting level the text reached (at
/// most [`MAX_NESTING_DEPTH`]) — what the stack a query needs
/// downstream scales with.
pub fn parse_query_nesting(sql: &str) -> Result<(Query, usize)> {
    let mut p = Parser::new(tokenize(sql)?);
    let q = p.query()?;
    p.eat(&TokenKind::Semicolon);
    p.expect_eof()?;
    recycle(p.tokens);
    Ok((q, p.deepest))
}

/// Parse a `;`-separated script into its constituent queries.
pub fn parse_script(sql: &str) -> Result<Vec<Query>> {
    let mut p = Parser::new(tokenize(sql)?);
    let mut out = Vec::new();
    loop {
        while p.eat(&TokenKind::Semicolon) {}
        if p.peek_kind() == &TokenKind::Eof {
            break;
        }
        out.push(p.query()?);
    }
    recycle(p.tokens);
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Recursion levels currently open (see [`MAX_NESTING_DEPTH`]).
    depth: usize,
    /// Most levels ever open at once.
    deepest: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            deepest: 0,
        }
    }

    /// Run one recursive production a level deeper, or refuse at the cap.
    fn nested<T>(&mut self, production: fn(&mut Parser) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING_DEPTH {
            return Err(self.error(format!(
                "query nests deeper than {MAX_NESTING_DEPTH} levels"
            )));
        }
        self.depth += 1;
        self.deepest = self.deepest.max(self.depth);
        let parsed = production(self);
        self.depth -= 1;
        parsed
    }

    /// Count the next operand of a chain that holds `operands` so far,
    /// or refuse past [`MAX_CHAIN_OPERANDS`].
    fn chain_operand(&self, operands: &mut usize) -> Result<()> {
        *operands += 1;
        if *operands > MAX_CHAIN_OPERANDS {
            return Err(self.error(format!(
                "an operator chain has more than {MAX_CHAIN_OPERANDS} operands"
            )));
        }
        Ok(())
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek_ahead(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    /// Consume the current token and hand it over. The parser never
    /// goes back, so the token is moved out, not cloned; the `Eof` at the
    /// end is never consumed.
    fn advance(&mut self) -> Token {
        let eof = self.tokens.len() - 1;
        if self.pos >= eof {
            return self.tokens[eof].clone();
        }
        let token = &mut self.tokens[self.pos];
        let consumed = Token {
            kind: std::mem::replace(&mut token.kind, TokenKind::Eof),
            span: token.span,
        };
        self.pos += 1;
        consumed
    }

    /// The current token's name, consumed, if it is an identifier (never
    /// the `Eof` at the end).
    fn take_ident(&mut self) -> Option<String> {
        let TokenKind::Ident(name) = &mut self.tokens[self.pos].kind else {
            return None;
        };
        let name = std::mem::take(name);
        self.pos += 1;
        Some(name)
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        self.eat(&TokenKind::Keyword(kw))
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.error(format!("expected {kind}, found {}", self.peek_kind())))
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<()> {
        self.expect(&TokenKind::Keyword(kw))
    }

    fn expect_eof(&self) -> Result<()> {
        if self.peek_kind() == &TokenKind::Eof {
            Ok(())
        } else {
            Err(self.error(format!("unexpected trailing {}", self.peek_kind())))
        }
    }

    fn error(&self, message: String) -> ParseError {
        ParseError::syntax(self.peek().span.start, message)
    }

    fn ident(&mut self) -> Result<String> {
        self.take_ident()
            .ok_or_else(|| self.error(format!("expected identifier, found {}", self.peek_kind())))
    }

    // ---- queries -------------------------------------------------------

    fn query(&mut self) -> Result<Query> {
        self.nested(Parser::query_unguarded)
    }

    fn query_unguarded(&mut self) -> Result<Query> {
        let mut ctes = Vec::new();
        if self.eat_kw(Keyword::With) {
            loop {
                let name = self.ident()?;
                self.expect_kw(Keyword::As)?;
                self.expect(&TokenKind::LParen)?;
                let q = self.query()?;
                self.expect(&TokenKind::RParen)?;
                ctes.push(Cte { name, query: q });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let body = self.set_expr()?;
        let mut order_by = Vec::new();
        if self.eat_kw(Keyword::Order) {
            self.expect_kw(Keyword::By)?;
            loop {
                let expr = self.expr()?;
                let descending = if self.eat_kw(Keyword::Desc) {
                    true
                } else {
                    self.eat_kw(Keyword::Asc);
                    false
                };
                order_by.push(OrderByItem { expr, descending });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        if self.eat_kw(Keyword::Limit) {
            limit = Some(self.unsigned()?);
        }
        let mut offset = None;
        if self.eat_kw(Keyword::Offset) {
            offset = Some(self.unsigned()?);
        }
        Ok(Query {
            ctes,
            body,
            order_by,
            limit,
            offset,
        })
    }

    fn unsigned(&mut self) -> Result<u64> {
        match *self.peek_kind() {
            TokenKind::Integer(v) if v >= 0 => {
                self.advance();
                Ok(v as u64)
            }
            _ => Err(self.error(format!(
                "expected non-negative integer, found {}",
                self.peek_kind()
            ))),
        }
    }

    fn set_expr(&mut self) -> Result<SetExpr> {
        let mut left = self.set_operand()?;
        let mut operands = 1;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Keyword(Keyword::Union) => SetOperator::Union,
                TokenKind::Keyword(Keyword::Intersect) => SetOperator::Intersect,
                TokenKind::Keyword(Keyword::Except) | TokenKind::Keyword(Keyword::Minus) => {
                    SetOperator::Except
                }
                _ => break,
            };
            self.chain_operand(&mut operands)?;
            self.advance();
            let all = self.eat_kw(Keyword::All);
            self.eat_kw(Keyword::Distinct);
            let right = self.set_operand()?;
            left = SetExpr::SetOp {
                op,
                all,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    /// One operand of a set operation: a select, or a parenthesized query.
    fn set_operand(&mut self) -> Result<SetExpr> {
        if self.peek_kind() == &TokenKind::LParen && self.is_query_start(1) {
            self.expect(&TokenKind::LParen)?;
            let inner = self.nested(Parser::set_expr)?;
            self.expect(&TokenKind::RParen)?;
            return Ok(inner);
        }
        Ok(SetExpr::Select(Box::new(self.select()?)))
    }

    /// Does a query begin at lookahead `offset`? Skips any run of opening
    /// parentheses and requires `SELECT`/`WITH` behind them, so expression
    /// parentheses (e.g. in `IN (((a)) , b)`) are not mistaken for
    /// subqueries.
    fn is_query_start(&self, offset: usize) -> bool {
        let mut off = offset;
        while self.peek_ahead(off) == &TokenKind::LParen {
            off += 1;
        }
        matches!(
            self.peek_ahead(off),
            TokenKind::Keyword(Keyword::Select) | TokenKind::Keyword(Keyword::With)
        )
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_kw(Keyword::Select)?;
        let distinct = self.eat_kw(Keyword::Distinct);
        self.eat_kw(Keyword::All);

        let mut projection = Vec::new();
        loop {
            projection.push(self.select_item()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }

        let from = if self.eat_kw(Keyword::From) {
            Some(self.table_ref()?)
        } else {
            None
        };

        let selection = if self.eat_kw(Keyword::Where) {
            Some(self.expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_kw(Keyword::Group) {
            self.expect_kw(Keyword::By)?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let having = if self.eat_kw(Keyword::Having) {
            Some(self.expr()?)
        } else {
            None
        };

        Ok(Select {
            distinct,
            projection,
            from,
            selection,
            group_by,
            having,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if matches!(self.peek_kind(), TokenKind::Ident(_))
            && self.peek_ahead(1) == &TokenKind::Dot
            && self.peek_ahead(2) == &TokenKind::Star
        {
            let name = self.ident()?;
            self.advance();
            self.advance();
            return Ok(SelectItem::QualifiedWildcard(name));
        }
        let expr = self.expr()?;
        let alias = self.maybe_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    /// `[AS] ident`, where a bare identifier only counts if it is not a
    /// keyword that could start the next clause.
    fn maybe_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw(Keyword::As) {
            return self.ident().map(Some);
        }
        Ok(self.take_ident())
    }

    // ---- FROM clause ---------------------------------------------------

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.table_factor()?;
        let mut factors = 1;
        loop {
            let join_type = if self.eat_kw(Keyword::Cross) {
                self.expect_kw(Keyword::Join)?;
                JoinType::Cross
            } else if self.eat_kw(Keyword::Inner) {
                self.expect_kw(Keyword::Join)?;
                JoinType::Inner
            } else if self.eat_kw(Keyword::Left) {
                self.eat_kw(Keyword::Outer);
                self.expect_kw(Keyword::Join)?;
                JoinType::Left
            } else if self.eat_kw(Keyword::Right) {
                self.eat_kw(Keyword::Outer);
                self.expect_kw(Keyword::Join)?;
                JoinType::Right
            } else if self.eat_kw(Keyword::Full) {
                self.eat_kw(Keyword::Outer);
                self.expect_kw(Keyword::Join)?;
                JoinType::Full
            } else if self.eat_kw(Keyword::Join) {
                JoinType::Inner
            } else if self.eat(&TokenKind::Comma) {
                // Comma joins are implicit cross joins.
                JoinType::Cross
            } else {
                break;
            };

            self.chain_operand(&mut factors)?;
            let right = self.table_factor()?;
            let constraint = if join_type == JoinType::Cross {
                JoinConstraint::None
            } else if self.eat_kw(Keyword::On) {
                JoinConstraint::On(self.expr()?)
            } else if self.eat_kw(Keyword::Using) {
                self.expect(&TokenKind::LParen)?;
                let mut cols = Vec::new();
                loop {
                    cols.push(self.ident()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RParen)?;
                JoinConstraint::Using(cols)
            } else {
                JoinConstraint::None
            };

            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                join_type,
                constraint,
            };
        }
        Ok(left)
    }

    fn table_factor(&mut self) -> Result<TableRef> {
        if self.peek_kind() == &TokenKind::LParen {
            if self.is_query_start(1) {
                self.expect(&TokenKind::LParen)?;
                let q = self.query()?;
                self.expect(&TokenKind::RParen)?;
                self.eat_kw(Keyword::As);
                let alias = self
                    .ident()
                    .map_err(|_| self.error("derived table requires an alias".to_string()))?;
                return Ok(TableRef::Derived {
                    query: Box::new(q),
                    alias,
                });
            }
            // Parenthesized join tree.
            self.expect(&TokenKind::LParen)?;
            let inner = self.nested(Parser::table_ref)?;
            self.expect(&TokenKind::RParen)?;
            return Ok(inner);
        }
        let name = self.ident()?;
        let alias = if self.eat_kw(Keyword::As) {
            Some(self.ident()?)
        } else {
            self.take_ident()
        };
        Ok(TableRef::Table { name, alias })
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.nested(Parser::or_expr)
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        let mut operands = 1;
        while self.eat_kw(Keyword::Or) {
            self.chain_operand(&mut operands)?;
            let right = self.and_expr()?;
            left = Expr::binary(left, BinaryOperator::Or, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        let mut operands = 1;
        while self.eat_kw(Keyword::And) {
            self.chain_operand(&mut operands)?;
            let right = self.not_expr()?;
            left = Expr::binary(left, BinaryOperator::And, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw(Keyword::Not) {
            let inner = self.nested(Parser::not_expr)?;
            return Ok(Expr::UnaryOp {
                op: UnaryOperator::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison_expr()
    }

    fn comparison_expr(&mut self) -> Result<Expr> {
        let left = self.additive_expr()?;
        // Postfix predicates: IS [NOT] NULL, [NOT] IN, [NOT] BETWEEN, [NOT] LIKE.
        if self.eat_kw(Keyword::Is) {
            let negated = self.eat_kw(Keyword::Not);
            self.expect_kw(Keyword::Null)?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = if self.peek_kind() == &TokenKind::Keyword(Keyword::Not)
            && matches!(
                self.peek_ahead(1),
                TokenKind::Keyword(Keyword::In)
                    | TokenKind::Keyword(Keyword::Between)
                    | TokenKind::Keyword(Keyword::Like)
            ) {
            self.advance();
            true
        } else {
            false
        };
        if self.eat_kw(Keyword::In) {
            self.expect(&TokenKind::LParen)?;
            if self.is_query_start(0) {
                let q = self.query()?;
                self.expect(&TokenKind::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(q),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw(Keyword::Between) {
            let low = self.additive_expr()?;
            self.expect_kw(Keyword::And)?;
            let high = self.additive_expr()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw(Keyword::Like) {
            let pattern = self.additive_expr()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(self.error("expected IN, BETWEEN, or LIKE after NOT".into()));
        }
        let op = match self.peek_kind() {
            TokenKind::Eq => BinaryOperator::Eq,
            TokenKind::NotEq => BinaryOperator::NotEq,
            TokenKind::Lt => BinaryOperator::Lt,
            TokenKind::LtEq => BinaryOperator::LtEq,
            TokenKind::Gt => BinaryOperator::Gt,
            TokenKind::GtEq => BinaryOperator::GtEq,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.additive_expr()?;
        Ok(Expr::binary(left, op, right))
    }

    fn additive_expr(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative_expr()?;
        let mut operands = 1;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinaryOperator::Plus,
                TokenKind::Minus => BinaryOperator::Minus,
                _ => break,
            };
            self.chain_operand(&mut operands)?;
            self.advance();
            let right = self.multiplicative_expr()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn multiplicative_expr(&mut self) -> Result<Expr> {
        let mut left = self.unary_expr()?;
        let mut operands = 1;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinaryOperator::Multiply,
                TokenKind::Slash => BinaryOperator::Divide,
                TokenKind::Percent => BinaryOperator::Modulo,
                _ => break,
            };
            self.chain_operand(&mut operands)?;
            self.advance();
            let right = self.unary_expr()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            let inner = self.nested(Parser::unary_expr)?;
            // Fold `-<literal>` into a negative literal so `-1` round-trips
            // through the printer as the same AST.
            return Ok(match inner {
                Expr::Literal(Literal::Integer(v)) => {
                    Expr::Literal(Literal::Integer(v.wrapping_neg()))
                }
                Expr::Literal(Literal::Float(v)) => Expr::Literal(Literal::Float(-v)),
                other => Expr::UnaryOp {
                    op: UnaryOperator::Minus,
                    expr: Box::new(other),
                },
            });
        }
        if self.eat(&TokenKind::Plus) {
            let inner = self.nested(Parser::unary_expr)?;
            return Ok(Expr::UnaryOp {
                op: UnaryOperator::Plus,
                expr: Box::new(inner),
            });
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        let token = self.advance();
        Ok(match token.kind {
            TokenKind::Integer(v) => Expr::Literal(Literal::Integer(v)),
            TokenKind::Float(v) => Expr::Literal(Literal::Float(v)),
            TokenKind::String(s) => Expr::Literal(Literal::String(s)),
            TokenKind::Keyword(Keyword::Null) => Expr::Literal(Literal::Null),
            TokenKind::Keyword(Keyword::True) => Expr::Literal(Literal::Boolean(true)),
            TokenKind::Keyword(Keyword::False) => Expr::Literal(Literal::Boolean(false)),
            TokenKind::Keyword(Keyword::Case) => self.case_expr()?,
            TokenKind::Keyword(Keyword::Exists) => {
                self.expect(&TokenKind::LParen)?;
                let q = self.query()?;
                self.expect(&TokenKind::RParen)?;
                Expr::Exists(Box::new(q))
            }
            TokenKind::Keyword(Keyword::Cast) => {
                self.expect(&TokenKind::LParen)?;
                let inner = self.expr()?;
                self.expect_kw(Keyword::As)?;
                let data_type = self.ident()?;
                self.expect(&TokenKind::RParen)?;
                Expr::Cast {
                    expr: Box::new(inner),
                    data_type,
                }
            }
            TokenKind::LParen => {
                let inner = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                inner
            }
            // Function call?
            TokenKind::Ident(name) if self.eat(&TokenKind::LParen) => {
                let distinct = self.eat_kw(Keyword::Distinct);
                let mut args = Vec::new();
                if self.peek_kind() != &TokenKind::RParen {
                    loop {
                        if self.eat(&TokenKind::Star) {
                            args.push(FunctionArg::Wildcard);
                        } else {
                            args.push(FunctionArg::Expr(self.expr()?));
                        }
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RParen)?;
                Expr::Function {
                    name,
                    distinct,
                    args,
                }
            }
            // Qualified column `q.name`?
            TokenKind::Ident(name) if self.eat(&TokenKind::Dot) => {
                Expr::Column(ColumnRef::qualified(name, self.ident()?))
            }
            TokenKind::Ident(name) => Expr::Column(ColumnRef::bare(name)),
            other => {
                return Err(ParseError::syntax(
                    token.span.start,
                    format!("unexpected {other} in expression"),
                ))
            }
        })
    }

    /// The rest of a `CASE` expression, its keyword consumed.
    fn case_expr(&mut self) -> Result<Expr> {
        let operand = if self.peek_kind() != &TokenKind::Keyword(Keyword::When) {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        let mut branches = Vec::new();
        while self.eat_kw(Keyword::When) {
            let cond = self.expr()?;
            self.expect_kw(Keyword::Then)?;
            let result = self.expr()?;
            branches.push((cond, result));
        }
        if branches.is_empty() {
            return Err(self.error("CASE requires at least one WHEN branch".into()));
        }
        let else_result = if self.eat_kw(Keyword::Else) {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw(Keyword::End)?;
        Ok(Expr::Case {
            operand,
            branches,
            else_result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(sql: &str) -> Query {
        parse_query(sql).unwrap_or_else(|e| panic!("parse failed for {sql:?}: {e}"))
    }

    #[test]
    fn parses_count_star() {
        let q = parse("SELECT COUNT(*) FROM trips");
        let s = q.as_select().unwrap();
        assert_eq!(s.projection.len(), 1);
        match &s.projection[0] {
            SelectItem::Expr { expr, .. } => match expr {
                Expr::Function { name, args, .. } => {
                    assert_eq!(name, "count");
                    assert!(matches!(args[0], FunctionArg::Wildcard));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_join_with_compound_on() {
        let q = parse("SELECT count(*) FROM a JOIN b ON a.id = b.id AND a.size > b.size");
        let s = q.as_select().unwrap();
        match s.from.as_ref().unwrap() {
            TableRef::Join {
                join_type,
                constraint: JoinConstraint::On(on),
                ..
            } => {
                assert_eq!(*join_type, JoinType::Inner);
                assert_eq!(on.conjuncts().len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_triangle_query() {
        let q = parse(
            "SELECT COUNT(*) FROM edges e1 \
             JOIN edges e2 ON e1.dest = e2.source AND e1.source < e2.source \
             JOIN edges e3 ON e2.dest = e3.source AND e3.dest = e1.source \
             AND e2.source < e3.source",
        );
        let s = q.as_select().unwrap();
        let from = s.from.as_ref().unwrap();
        assert_eq!(from.base_tables(), vec!["edges", "edges", "edges"]);
    }

    #[test]
    fn parses_left_and_cross_joins() {
        let q = parse("SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y CROSS JOIN c");
        let s = q.as_select().unwrap();
        match s.from.as_ref().unwrap() {
            TableRef::Join {
                join_type: JoinType::Cross,
                left,
                ..
            } => match left.as_ref() {
                TableRef::Join {
                    join_type: JoinType::Left,
                    ..
                } => {}
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_using_constraint() {
        let q = parse("SELECT count(*) FROM a JOIN b USING (id, region)");
        let s = q.as_select().unwrap();
        match s.from.as_ref().unwrap() {
            TableRef::Join {
                constraint: JoinConstraint::Using(cols),
                ..
            } => assert_eq!(cols, &["id", "region"]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_group_by_having_order_limit() {
        let q = parse(
            "SELECT city_id, COUNT(*) AS n FROM trips \
             WHERE status = 'completed' GROUP BY city_id \
             HAVING COUNT(*) > 10 ORDER BY n DESC LIMIT 5 OFFSET 2",
        );
        assert_eq!(q.limit, Some(5));
        assert_eq!(q.offset, Some(2));
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].descending);
        let s = q.as_select().unwrap();
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
    }

    #[test]
    fn parses_with_ctes() {
        let q = parse(
            "WITH a AS (SELECT count(*) FROM t1), b AS (SELECT count(*) FROM t2) \
             SELECT count(*) FROM a JOIN b ON a.count = b.count",
        );
        assert_eq!(q.ctes.len(), 2);
        assert_eq!(q.ctes[0].name, "a");
    }

    #[test]
    fn parses_derived_table() {
        let q = parse("SELECT count(*) FROM (SELECT * FROM trips WHERE fare > 10) t");
        let s = q.as_select().unwrap();
        match s.from.as_ref().unwrap() {
            TableRef::Derived { alias, .. } => assert_eq!(alias, "t"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn derived_table_requires_alias() {
        assert!(parse_query("SELECT count(*) FROM (SELECT * FROM t)").is_err());
    }

    #[test]
    fn parses_set_operations() {
        let q = parse("SELECT a FROM t1 UNION ALL SELECT a FROM t2 EXCEPT SELECT a FROM t3");
        match &q.body {
            SetExpr::SetOp {
                op: SetOperator::Except,
                left,
                ..
            } => match left.as_ref() {
                SetExpr::SetOp {
                    op: SetOperator::Union,
                    all: true,
                    ..
                } => {}
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn minus_is_except() {
        let q = parse("SELECT a FROM t1 MINUS SELECT a FROM t2");
        assert!(matches!(
            q.body,
            SetExpr::SetOp {
                op: SetOperator::Except,
                ..
            }
        ));
    }

    #[test]
    fn parses_expression_precedence() {
        let q = parse("SELECT 1 + 2 * 3 FROM t");
        let s = q.as_select().unwrap();
        match &s.projection[0] {
            SelectItem::Expr {
                expr:
                    Expr::BinaryOp {
                        op: BinaryOperator::Plus,
                        right,
                        ..
                    },
                ..
            } => {
                assert!(matches!(
                    right.as_ref(),
                    Expr::BinaryOp {
                        op: BinaryOperator::Multiply,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let q = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
        let s = q.as_select().unwrap();
        match s.selection.as_ref().unwrap() {
            Expr::BinaryOp {
                op: BinaryOperator::Or,
                right,
                ..
            } => assert!(matches!(
                right.as_ref(),
                Expr::BinaryOp {
                    op: BinaryOperator::And,
                    ..
                }
            )),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_in_between_like_is_null() {
        let q = parse(
            "SELECT * FROM t WHERE a IN (1,2,3) AND b NOT BETWEEN 1 AND 5 \
             AND c LIKE 'x%' AND d IS NOT NULL AND e NOT IN (4)",
        );
        let s = q.as_select().unwrap();
        assert_eq!(s.selection.as_ref().unwrap().conjuncts().len(), 5);
    }

    #[test]
    fn parses_case_expression() {
        let q = parse(
            "SELECT CASE WHEN fare > 100 THEN 'high' WHEN fare > 10 THEN 'mid' \
             ELSE 'low' END FROM trips",
        );
        let s = q.as_select().unwrap();
        match &s.projection[0] {
            SelectItem::Expr {
                expr:
                    Expr::Case {
                        branches,
                        else_result,
                        ..
                    },
                ..
            } => {
                assert_eq!(branches.len(), 2);
                assert!(else_result.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_exists_and_in_subquery() {
        let q = parse(
            "SELECT count(*) FROM t WHERE EXISTS (SELECT 1 FROM u) \
             AND id IN (SELECT id FROM v)",
        );
        let s = q.as_select().unwrap();
        let parts = s.selection.as_ref().unwrap().conjuncts();
        assert!(matches!(parts[0], Expr::Exists(_)));
        assert!(matches!(parts[1], Expr::InSubquery { .. }));
    }

    #[test]
    fn parses_count_distinct() {
        let q = parse("SELECT COUNT(DISTINCT driver_id) FROM trips");
        let s = q.as_select().unwrap();
        match &s.projection[0] {
            SelectItem::Expr {
                expr: Expr::Function { distinct, .. },
                ..
            } => assert!(*distinct),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_comma_join_as_cross() {
        let q = parse("SELECT count(*) FROM a, b WHERE a.id = b.id");
        let s = q.as_select().unwrap();
        assert!(matches!(
            s.from.as_ref().unwrap(),
            TableRef::Join {
                join_type: JoinType::Cross,
                ..
            }
        ));
    }

    #[test]
    fn parses_script() {
        let qs = parse_script("SELECT 1; SELECT 2;").unwrap();
        assert_eq!(qs.len(), 2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_query("SELECT FROM WHERE").is_err());
        assert!(parse_query("FROM t SELECT *").is_err());
        assert!(parse_query("SELECT * FROM t WHERE a NOT b").is_err());
    }

    #[test]
    fn rejects_trailing_tokens() {
        assert!(parse_query("SELECT 1 FROM t garbage garbage garbage").is_err());
    }

    #[test]
    fn nesting_depth_is_capped_exactly() {
        // The query is level 1 and its select item level 2; every
        // parenthesis opens one more.
        let parens = |n: usize| format!("SELECT {}1{} FROM t", "(".repeat(n), ")".repeat(n));
        assert!(parse_query(&parens(MAX_NESTING_DEPTH - 2)).is_ok());
        let err = parse_query(&parens(MAX_NESTING_DEPTH - 1)).unwrap_err();
        assert!(err.message.contains("nests deeper"), "{err}");
    }

    #[test]
    fn chain_operands_are_capped_exactly() {
        let chains: [fn(usize) -> String; 5] = [
            |n| format!("SELECT 1 FROM t WHERE a = 1{}", " OR a = 1".repeat(n - 1)),
            |n| format!("SELECT 1 FROM t WHERE a = 1{}", " AND a = 1".repeat(n - 1)),
            |n| format!("SELECT 1{} FROM t", " - 1".repeat(n - 1)),
            |n| format!("SELECT 1{} FROM t", " * 1".repeat(n - 1)),
            |n| format!("SELECT a FROM t{}", " EXCEPT SELECT a FROM t".repeat(n - 1)),
        ];
        for chain in chains {
            assert!(parse_query(&chain(MAX_CHAIN_OPERANDS)).is_ok());
            let err = parse_query(&chain(MAX_CHAIN_OPERANDS + 1)).unwrap_err();
            assert!(err.message.contains("operator chain"), "{err}");
        }
        // Each chain counts its own operands.
        let sum = format!("(1{})", " + 1".repeat(MAX_CHAIN_OPERANDS - 1));
        let product = vec![sum; MAX_CHAIN_OPERANDS].join(" * ");
        assert!(parse_query(&format!("SELECT {product} FROM t")).is_ok());
    }

    #[test]
    fn nesting_is_reported() {
        let parens = |n: usize| format!("SELECT {}1{} FROM t", "(".repeat(n), ")".repeat(n));
        for n in [0, 5, MAX_NESTING_DEPTH - 2] {
            let (_, deepest) = parse_query_nesting(&parens(n)).unwrap();
            assert_eq!(deepest, n + 2, "{n} parentheses");
        }
        let subquery = "SELECT COUNT(*) FROM (SELECT * FROM (SELECT * FROM t) a) b";
        let (_, deepest) = parse_query_nesting(subquery).unwrap();
        assert!(deepest > parse_query_nesting("SELECT * FROM t").unwrap().1);
    }

    #[test]
    fn every_recursive_production_is_capped() {
        // Unclosed on purpose: the cap must fire on the way down. (Without
        // it a test thread's stack lasts some 120 levels.)
        const N: usize = 10_000;
        for (what, sql) in [
            (
                "parenthesized expression",
                "SELECT 1 FROM t WHERE x = ".to_string() + &"(".repeat(N),
            ),
            (
                "derived table",
                "SELECT 1 FROM ".to_string() + &"(SELECT 1 FROM ".repeat(N),
            ),
            (
                "parenthesized join",
                "SELECT 1 FROM ".to_string() + &"(t JOIN ".repeat(N),
            ),
            ("parenthesized set operation", "(".repeat(N) + "SELECT 1"),
            (
                "IN subquery",
                "SELECT 1 FROM t WHERE ".to_string() + &"x IN (SELECT 1 FROM t WHERE ".repeat(N),
            ),
            (
                "EXISTS subquery",
                "SELECT 1 FROM t WHERE ".to_string() + &"EXISTS (SELECT 1 FROM t WHERE ".repeat(N),
            ),
            ("CTE body", "WITH a AS (".repeat(N)),
            (
                "NOT chain",
                "SELECT 1 FROM t WHERE ".to_string() + &"NOT ".repeat(N) + "x",
            ),
            (
                "sign chain",
                "SELECT ".to_string() + &"- ".repeat(N) + "x FROM t",
            ),
            (
                "function arguments",
                "SELECT ".to_string() + &"f(".repeat(N),
            ),
            (
                "CASE operands",
                "SELECT ".to_string() + &"CASE WHEN ".repeat(N),
            ),
            ("CAST operands", "SELECT ".to_string() + &"CAST(".repeat(N)),
            (
                "IN list",
                "SELECT 1 FROM t WHERE ".to_string() + &"x IN (".repeat(N),
            ),
        ] {
            let err = parse_query(&sql).expect_err(what);
            assert!(err.message.contains("nests deeper"), "{what}: {err}");
        }
    }

    #[test]
    fn parses_qualified_wildcard() {
        let q = parse("SELECT t.* FROM trips t");
        let s = q.as_select().unwrap();
        assert!(matches!(
            &s.projection[0],
            SelectItem::QualifiedWildcard(a) if a == "t"
        ));
    }

    #[test]
    fn parses_cast() {
        let q = parse("SELECT CAST(fare AS integer) FROM trips");
        let s = q.as_select().unwrap();
        assert!(matches!(
            &s.projection[0],
            SelectItem::Expr {
                expr: Expr::Cast { .. },
                ..
            }
        ));
    }
}
