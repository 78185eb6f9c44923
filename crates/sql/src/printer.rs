//! AST → SQL text. The output always re-parses to an equivalent AST
//! (checked by a property test in this module). One walk, `Printer`,
//! prints a tree as it is, or canonicalizes it on the way
//! ([`crate::canonical_form`]), so the two texts share one layout.

use crate::ast::*;
use std::cmp::Ordering;
use std::fmt::Write;

/// Render a [`Query`] back to SQL text.
pub fn print_query(q: &Query) -> String {
    let mut printer = Printer::new(false);
    printer.query(&mut q.clone());
    printer.into_text()
}

/// Render an [`Expr`] back to SQL text.
pub fn print_expr(e: &Expr) -> String {
    let mut printer = Printer::new(false);
    printer.expr(&mut e.clone());
    printer.into_text()
}

/// ` UNION `, ` EXCEPT ALL `, …: the text between two set-operation arms.
fn set_op_text(op: SetOperator, all: bool) -> &'static str {
    match (op, all) {
        (SetOperator::Union, false) => " UNION ",
        (SetOperator::Union, true) => " UNION ALL ",
        (SetOperator::Intersect, false) => " INTERSECT ",
        (SetOperator::Intersect, true) => " INTERSECT ALL ",
        (SetOperator::Except, false) => " EXCEPT ",
        (SetOperator::Except, true) => " EXCEPT ALL ",
    }
}

/// ` JOIN `, ` LEFT JOIN `, …: the text between two join factors.
fn join_text(join_type: JoinType) -> &'static str {
    match join_type {
        JoinType::Inner => " JOIN ",
        JoinType::Left => " LEFT JOIN ",
        JoinType::Right => " RIGHT JOIN ",
        JoinType::Full => " FULL JOIN ",
        JoinType::Cross => " CROSS JOIN ",
    }
}

/// ` AND `, ` = `, …: the text between a binary operator's operands.
fn binary_op_text(op: BinaryOperator) -> &'static str {
    match op {
        BinaryOperator::Or => " OR ",
        BinaryOperator::And => " AND ",
        BinaryOperator::Eq => " = ",
        BinaryOperator::NotEq => " <> ",
        BinaryOperator::Lt => " < ",
        BinaryOperator::LtEq => " <= ",
        BinaryOperator::Gt => " > ",
        BinaryOperator::GtEq => " >= ",
        BinaryOperator::Plus => " + ",
        BinaryOperator::Minus => " - ",
        BinaryOperator::Multiply => " * ",
        BinaryOperator::Divide => " / ",
        BinaryOperator::Modulo => " % ",
    }
}

/// `NOT `, `-`, `+`: the text before a unary operator's operand.
fn unary_op_text(op: UnaryOperator) -> &'static str {
    match op {
        UnaryOperator::Not => "NOT ",
        UnaryOperator::Minus => "-",
        UnaryOperator::Plus => "+",
    }
}

fn write_literal(out: &mut String, l: &Literal) {
    match l {
        Literal::Null => out.push_str("NULL"),
        Literal::Boolean(true) => out.push_str("TRUE"),
        Literal::Boolean(false) => out.push_str("FALSE"),
        Literal::Integer(v) => {
            let _ = write!(out, "{v}");
        }
        Literal::Float(v) => {
            // `{:?}` keeps a decimal point or exponent so the literal
            // re-lexes as a float.
            let _ = write!(out, "{v:?}");
        }
        Literal::String(s) => write_quoted(out, '\'', s),
    }
}

/// ` AS name`, if there is a name.
fn write_alias(out: &mut String, alias: Option<&str>) {
    if let Some(a) = alias {
        out.push_str(" AS ");
        write_ident(out, a);
    }
}

/// An identifier, quoted if needed (keyword collision, upper case, or
/// non-alphanumeric characters).
fn write_ident(out: &mut String, name: &str) {
    let plain = name
        .bytes()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'_')
        && name.bytes().next().is_some_and(|c| !c.is_ascii_digit())
        && crate::token::Keyword::from_str_lower(name).is_none();
    if plain {
        out.push_str(name);
    } else {
        write_quoted(out, '"', name);
    }
}

/// `text` between two `quote`s, each `quote` inside doubled.
fn write_quoted(out: &mut String, quote: char, text: &str) {
    out.push(quote);
    for (i, run) in text.split(quote).enumerate() {
        if i > 0 {
            out.push(quote);
            out.push(quote);
        }
        out.push_str(run);
    }
    out.push(quote);
}

/// A stand-in left where a node was moved out for a moment.
const HOLE: Expr = Expr::Literal(Literal::Null);

/// The one walk from an AST to its SQL text. Plain, it prints the tree as
/// it is; canonical, it also applies the canonical form's rules
/// ([`crate::canonical`]) to each node as it leaves it, rewriting the
/// tree in place, and prints the result — each node once.
pub(crate) struct Printer {
    /// Whether the walk canonicalizes.
    canonical: bool,
    /// The text so far. A reordered run of operands is put together at
    /// its end, then moved down over the run.
    out: String,
    /// Where each operand of the unordered runs being printed starts and
    /// ends in `out`, and its position as written; a stack, as runs nest.
    spans: Vec<Span>,
    /// The operands of the `AND`/`OR` chains being printed, each in the
    /// box the parser gave it; a stack, as chains nest.
    leaves: Vec<Option<Box<Expr>>>,
    /// Boxes of flattened chain nodes, reused when a chain is rebuilt:
    /// the allocations themselves are what this keeps, so they stay boxed.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<Expr>>,
}

/// An operand's text, `out[start..end]`, and its position as written.
#[derive(Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
    written: usize,
}

impl Printer {
    pub(crate) fn new(canonical: bool) -> Self {
        Printer {
            canonical,
            // Room for a typical query's text and one reordered run.
            out: String::with_capacity(512),
            spans: Vec::new(),
            leaves: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// The text printed so far.
    pub(crate) fn into_text(self) -> String {
        self.out
    }

    pub(crate) fn query(&mut self, q: &mut Query) {
        if !q.ctes.is_empty() {
            self.out.push_str("WITH ");
            for (i, cte) in q.ctes.iter_mut().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                write_ident(&mut self.out, &cte.name);
                self.out.push_str(" AS (");
                self.query(&mut cte.query);
                self.out.push(')');
            }
            self.out.push(' ');
        }
        self.set_expr(&mut q.body);
        if !q.order_by.is_empty() {
            self.out.push_str(" ORDER BY ");
            for (i, item) in q.order_by.iter_mut().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                self.expr(&mut item.expr);
                if item.descending {
                    self.out.push_str(" DESC");
                }
            }
        }
        if let Some(n) = q.limit {
            let _ = write!(self.out, " LIMIT {n}");
        }
        if let Some(n) = q.offset {
            let _ = write!(self.out, " OFFSET {n}");
        }
    }

    fn set_expr(&mut self, body: &mut SetExpr) {
        match body {
            SetExpr::Select(s) => self.select(s),
            SetExpr::SetOp {
                op,
                all,
                left,
                right,
            } => {
                self.set_expr(left);
                self.out.push_str(set_op_text(*op, *all));
                let nested = matches!(**right, SetExpr::SetOp { .. });
                self.parenthesized(nested, |c| c.set_expr(right));
            }
        }
    }

    fn select(&mut self, s: &mut Select) {
        self.out.push_str("SELECT ");
        if s.distinct {
            self.out.push_str("DISTINCT ");
        }
        for (i, item) in s.projection.iter_mut().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            match item {
                SelectItem::Wildcard => self.out.push('*'),
                SelectItem::QualifiedWildcard(q) => {
                    write_ident(&mut self.out, q);
                    self.out.push_str(".*");
                }
                SelectItem::Expr { expr, alias } => {
                    self.expr(expr);
                    write_alias(&mut self.out, alias.as_deref());
                }
            }
        }
        if let Some(from) = &mut s.from {
            self.out.push_str(" FROM ");
            self.table_ref(from);
        }
        if let Some(w) = &mut s.selection {
            self.out.push_str(" WHERE ");
            self.expr(w);
        }
        if !s.group_by.is_empty() {
            self.out.push_str(" GROUP BY ");
            self.ordered(&mut s.group_by, false);
        }
        if let Some(h) = &mut s.having {
            self.out.push_str(" HAVING ");
            self.expr(h);
        }
    }

    fn table_ref(&mut self, t: &mut TableRef) {
        match t {
            TableRef::Table { name, alias } => {
                write_ident(&mut self.out, name);
                write_alias(&mut self.out, alias.as_deref());
            }
            TableRef::Derived { query, alias } => {
                self.parenthesized(true, |c| c.query(query));
                write_alias(&mut self.out, Some(alias));
            }
            TableRef::Join {
                left,
                right,
                join_type,
                constraint,
            } => {
                self.table_ref(left);
                self.out.push_str(join_text(*join_type));
                let nested = matches!(**right, TableRef::Join { .. });
                self.parenthesized(nested, |c| c.table_ref(right));
                match constraint {
                    JoinConstraint::On(e) => {
                        self.out.push_str(" ON ");
                        self.expr(e);
                    }
                    JoinConstraint::Using(cols) => {
                        self.out.push_str(" USING (");
                        for (i, c) in cols.iter().enumerate() {
                            if i > 0 {
                                self.out.push_str(", ");
                            }
                            write_ident(&mut self.out, c);
                        }
                        self.out.push(')');
                    }
                    JoinConstraint::None => {}
                }
            }
        }
    }

    /// `walk`'s text, in parentheses if `parens`.
    fn parenthesized(&mut self, parens: bool, walk: impl FnOnce(&mut Self)) {
        if parens {
            self.out.push('(');
        }
        walk(self);
        if parens {
            self.out.push(')');
        }
    }

    /// Print `e`, canonicalizing it first if the walk does: children
    /// first, then the node's own rule.
    pub(crate) fn expr(&mut self, e: &mut Expr) {
        use BinaryOperator::{And, Eq, Gt, GtEq, Lt, LtEq, Multiply, NotEq, Or, Plus};
        match e {
            Expr::Column(c) => {
                if let Some(q) = &c.qualifier {
                    write_ident(&mut self.out, q);
                    self.out.push('.');
                }
                write_ident(&mut self.out, &c.name);
            }
            Expr::Literal(l) => write_literal(&mut self.out, l),
            Expr::BinaryOp {
                op: op @ (And | Or),
                ..
            } if self.canonical => {
                let op = *op;
                self.chain(e, op);
            }
            Expr::BinaryOp { left, op, right } => {
                // Mirror > and >= so both directions of the same
                // comparison agree.
                if let (true, Gt | GtEq) = (self.canonical, *op) {
                    std::mem::swap(left, right);
                    *op = if *op == Gt { Lt } else { LtEq };
                }
                self.out.push('(');
                let start = self.out.len();
                self.expr(left);
                let split = self.out.len();
                self.out.push_str(binary_op_text(*op));
                let right_at = self.out.len();
                self.expr(right);
                // Order the operands of the symmetric operators by text.
                if self.canonical
                    && matches!(op, Eq | NotEq | Plus | Multiply)
                    && self.out[start..split] > self.out[right_at..]
                {
                    std::mem::swap(left, right);
                    let end = self.out.len();
                    for (from, to) in [(right_at, end), (split, right_at), (start, split)] {
                        self.out.extend_from_within(from..to);
                    }
                    self.out.drain(start..end);
                }
                self.out.push(')');
            }
            Expr::UnaryOp { op, expr } => {
                self.out.push('(');
                self.out.push_str(unary_op_text(*op));
                self.expr(expr);
                self.out.push(')');
            }
            Expr::Function {
                name,
                distinct,
                args,
            } => {
                write_ident(&mut self.out, name);
                self.out.push('(');
                if *distinct {
                    self.out.push_str("DISTINCT ");
                }
                for (i, a) in args.iter_mut().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    match a {
                        FunctionArg::Wildcard => self.out.push('*'),
                        FunctionArg::Expr(e) => self.expr(e),
                    }
                }
                self.out.push(')');
            }
            Expr::Case {
                operand,
                branches,
                else_result,
            } => {
                self.out.push_str("CASE");
                if let Some(op) = operand {
                    self.out.push(' ');
                    self.expr(op);
                }
                for (cond, result) in branches {
                    self.out.push_str(" WHEN ");
                    self.expr(cond);
                    self.out.push_str(" THEN ");
                    self.expr(result);
                }
                if let Some(e) = else_result {
                    self.out.push_str(" ELSE ");
                    self.expr(e);
                }
                self.out.push_str(" END");
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                self.out.push('(');
                self.expr(expr);
                self.out
                    .push_str(if *negated { " NOT IN (" } else { " IN (" });
                self.ordered(list, true);
                self.out.push_str("))");
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                self.out.push('(');
                self.expr(expr);
                self.out.push_str(if *negated {
                    " NOT BETWEEN "
                } else {
                    " BETWEEN "
                });
                self.expr(low);
                self.out.push_str(" AND ");
                self.expr(high);
                self.out.push(')');
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                self.out.push('(');
                self.expr(expr);
                self.out
                    .push_str(if *negated { " NOT LIKE " } else { " LIKE " });
                self.expr(pattern);
                self.out.push(')');
            }
            Expr::IsNull { expr, negated } => {
                self.out.push('(');
                self.expr(expr);
                self.out
                    .push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
                self.out.push(')');
            }
            Expr::Cast { expr, data_type } => {
                self.out.push_str("CAST(");
                self.expr(expr);
                write_alias(&mut self.out, Some(data_type));
                self.out.push(')');
            }
            Expr::Exists(q) => {
                self.out.push_str("EXISTS ");
                self.parenthesized(true, |c| c.query(q));
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                self.out.push('(');
                self.expr(expr);
                self.out
                    .push_str(if *negated { " NOT IN (" } else { " IN (" });
                self.query(query);
                self.out.push_str("))");
            }
        }
    }

    /// An `AND`/`OR` chain, whatever its shape: flattened into its
    /// operands, each canonicalized and printed, ordered by text without
    /// repeats, and rebuilt left-deep — `((a AND b) AND c)` — from the
    /// boxes it had.
    fn chain(&mut self, e: &mut Expr, op: BinaryOperator) {
        let base = self.leaves.len();
        self.flatten(std::mem::replace(e, HOLE), op);
        let n = self.leaves.len() - base;
        let start = self.out.len();
        let spans = self.spans.len();
        self.out.extend(std::iter::repeat_n('(', n - 1));
        for i in 0..n {
            if i > 0 {
                self.out.push_str(binary_op_text(op));
            }
            let mut leaf = self.leaves[base + i].take().expect("an operand");
            self.operand(i, |c| c.expr(&mut leaf));
            self.leaves[base + i] = Some(leaf);
            if i > 0 {
                self.out.push(')');
            }
        }
        if self.sort_run(spans, true) {
            let end = self.out.len();
            let k = self.spans.len() - spans;
            self.out.extend(std::iter::repeat_n('(', k - 1));
            for j in 0..k {
                let Span { start, end, .. } = self.spans[spans + j];
                if j > 0 {
                    self.out.push_str(binary_op_text(op));
                }
                self.out.extend_from_within(start..end);
                if j > 0 {
                    self.out.push(')');
                }
            }
            self.out.drain(start..end);
        }
        // Rebuild left-deep in text order, each node in a spare box.
        let take = |c: &mut Self, j: usize| {
            let i = base + c.spans[spans + j].written;
            c.leaves[i].take().expect("each operand once")
        };
        let mut acc = take(self, 0);
        for j in 1..self.spans.len() - spans {
            let right = take(self, j);
            acc = self.node(acc, op, right);
        }
        *e = std::mem::replace(&mut *acc, HOLE);
        self.spare.push(acc);
        self.spans.truncate(spans);
        self.leaves.truncate(base);
    }

    /// Print operand `written` of a run with `walk`, recording its span.
    fn operand(&mut self, written: usize, walk: impl FnOnce(&mut Self)) {
        let start = self.out.len();
        walk(self);
        let end = self.out.len();
        self.spans.push(Span {
            start,
            end,
            written,
        });
    }

    /// `left op right`, in a spare box if there is one.
    fn node(&mut self, left: Box<Expr>, op: BinaryOperator, right: Box<Expr>) -> Box<Expr> {
        let node = Expr::BinaryOp { left, op, right };
        match self.spare.pop() {
            Some(mut b) => {
                *b = node;
                b
            }
            None => Box::new(node),
        }
    }

    /// Push the operands of a (possibly nested) `op`-tree onto `leaves`,
    /// in order, each in its box; the boxes of the `op` nodes below the
    /// root go to `spare`.
    fn flatten(&mut self, e: Expr, op: BinaryOperator) {
        let Expr::BinaryOp {
            left,
            op: inner,
            right,
        } = e
        else {
            unreachable!("a chain's root is an operator node");
        };
        debug_assert_eq!(inner, op);
        for mut child in [left, right] {
            match *child {
                Expr::BinaryOp { op: o, .. } if o == op => {
                    let node = std::mem::replace(&mut *child, HOLE);
                    self.spare.push(child);
                    self.flatten(node, op);
                }
                _ => self.leaves.push(Some(child)),
            }
        }
    }

    /// Print `members` separated by `, `; canonical, order them by text
    /// too (without repeats if `unique`), in the AST and in the text
    /// alike.
    fn ordered(&mut self, members: &mut Vec<Expr>, unique: bool) {
        let spans = self.spans.len();
        let start = self.out.len();
        for (i, m) in members.iter_mut().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.operand(i, |c| c.expr(m));
        }
        if self.canonical && self.sort_run(spans, unique) {
            let end = self.out.len();
            for j in spans..self.spans.len() {
                let Span { start, end, .. } = self.spans[j];
                if j > spans {
                    self.out.push_str(", ");
                }
                self.out.extend_from_within(start..end);
            }
            self.out.drain(start..end);
            let mut written = std::mem::take(members);
            let order = self.spans[spans..].iter();
            members.extend(order.map(|s| std::mem::replace(&mut written[s.written], HOLE)));
        }
        self.spans.truncate(spans);
    }

    /// Sort the spans above `base` by their text (a stable sort, so equal
    /// texts keep their written order) and, if `unique`, drop the later
    /// of two equal texts. Whether that changed the run: `false` when it
    /// was in order already.
    fn sort_run(&mut self, base: usize, unique: bool) -> bool {
        let out = &self.out;
        let text = |s: &Span| &out[s.start..s.end];
        let run = &mut self.spans[base..];
        let in_order = run.windows(2).all(|w| match text(&w[0]).cmp(text(&w[1])) {
            Ordering::Less => true,
            Ordering::Equal => !unique,
            Ordering::Greater => false,
        });
        if in_order {
            return false;
        }
        run.sort_by(|a, b| text(a).cmp(text(b)));
        if unique {
            let mut kept = base + 1;
            for i in base + 1..self.spans.len() {
                if text(&self.spans[i]) != text(&self.spans[kept - 1]) {
                    self.spans[kept] = self.spans[i];
                    kept += 1;
                }
            }
            self.spans.truncate(kept);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn roundtrip(sql: &str) {
        let q1 = parse_query(sql).unwrap_or_else(|e| panic!("parse {sql:?}: {e}"));
        let printed = print_query(&q1);
        let q2 = parse_query(&printed).unwrap_or_else(|e| panic!("reparse {printed:?}: {e}"));
        let printed2 = print_query(&q2);
        assert_eq!(printed, printed2, "printer not a fixed point for {sql:?}");
    }

    #[test]
    fn roundtrips_representative_queries() {
        for sql in [
            "SELECT COUNT(*) FROM trips",
            "SELECT COUNT(DISTINCT driver_id) FROM trips WHERE city_id = 3",
            "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id GROUP BY c.name",
            "SELECT * FROM a LEFT JOIN b ON a.x = b.y CROSS JOIN c",
            "WITH x AS (SELECT 1 AS one) SELECT one FROM x",
            "SELECT count(*) FROM (SELECT * FROM t WHERE v > 2.5) s",
            "SELECT a FROM t1 UNION ALL SELECT a FROM t2",
            "SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END FROM t",
            "SELECT * FROM t WHERE a IN (1, 2) AND b BETWEEN 0 AND 9 AND c LIKE 'z%'",
            "SELECT * FROM t WHERE a IS NOT NULL ORDER BY a DESC LIMIT 3 OFFSET 1",
            "SELECT \"Weird Name\".col FROM \"Weird Name\"",
            "SELECT -1, +2, NOT TRUE FROM t",
            "SELECT CAST(x AS integer) FROM t",
        ] {
            roundtrip(sql);
        }
    }

    fn ident(name: &str) -> String {
        let mut out = String::new();
        write_ident(&mut out, name);
        out
    }

    #[test]
    fn keyword_identifiers_are_quoted() {
        assert_eq!(ident("select"), "\"select\"");
        assert_eq!(ident("count"), "count");
        assert_eq!(ident("MyCol"), "\"MyCol\"");
    }

    #[test]
    fn string_escape_roundtrip() {
        let q = parse_query("SELECT 'it''s' FROM t").unwrap();
        let printed = print_query(&q);
        assert!(printed.contains("'it''s'"));
        assert_eq!(parse_query(&printed).unwrap(), q);
    }

    #[test]
    fn quotes_and_multibyte_text_roundtrip() {
        for sql in [
            "SELECT '''', '''a', 'a''', '' FROM t",
            r#"SELECT 'héllo — 日本''語' FROM "Ça ""va""""#,
            r#"SELECT "Select", "select", "FROM"."Where" FROM "FROM""#,
        ] {
            let q = parse_query(sql).unwrap();
            assert_eq!(parse_query(&print_query(&q)).unwrap(), q, "{sql}");
        }
        let q = parse_query(r#"SELECT "Select", "select", 'it''s ''x''' FROM "Ça""#).unwrap();
        assert_eq!(
            print_query(&q),
            r#"SELECT "Select", "select", 'it''s ''x''' FROM "Ça""#
        );
    }

    #[test]
    fn float_literals_stay_floats() {
        let q = parse_query("SELECT 2.0 FROM t").unwrap();
        let printed = print_query(&q);
        let q2 = parse_query(&printed).unwrap();
        assert_eq!(q, q2);
    }
}
