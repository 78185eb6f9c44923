//! AST → SQL text. The output always re-parses to an equivalent AST
//! (checked by a property test in this module).

use crate::ast::*;
use std::fmt::Write;

/// Render a [`Query`] back to SQL text.
pub fn print_query(q: &Query) -> String {
    // Room for a typical query's text at once, not a doubling per power
    // of two on the way there.
    let mut out = String::with_capacity(256);
    write_query(&mut out, q);
    out
}

/// Render an [`Expr`] back to SQL text.
pub fn print_expr(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e);
    out
}

fn write_query(out: &mut String, q: &Query) {
    if !q.ctes.is_empty() {
        out.push_str("WITH ");
        for (i, cte) in q.ctes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_ident(out, &cte.name);
            out.push_str(" AS (");
            write_query(out, &cte.query);
            out.push(')');
        }
        out.push(' ');
    }
    write_set_expr(out, &q.body);
    if !q.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        for (i, item) in q.order_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_expr(out, &item.expr);
            if item.descending {
                out.push_str(" DESC");
            }
        }
    }
    if let Some(n) = q.limit {
        let _ = write!(out, " LIMIT {n}");
    }
    if let Some(n) = q.offset {
        let _ = write!(out, " OFFSET {n}");
    }
}

fn write_set_expr(out: &mut String, body: &SetExpr) {
    match body {
        SetExpr::Select(s) => write_select(out, s),
        SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } => {
            write_set_expr(out, left);
            let name = match op {
                SetOperator::Union => "UNION",
                SetOperator::Intersect => "INTERSECT",
                SetOperator::Except => "EXCEPT",
            };
            let _ = write!(out, " {name}{} ", if *all { " ALL" } else { "" });
            // Right operand of a set op must not itself swallow trailing
            // clauses, so parenthesize nested set ops on the right.
            match right.as_ref() {
                SetExpr::SetOp { .. } => {
                    out.push('(');
                    write_set_expr(out, right);
                    out.push(')');
                }
                SetExpr::Select(_) => write_set_expr(out, right),
            }
        }
    }
}

fn write_select(out: &mut String, s: &Select) {
    out.push_str("SELECT ");
    if s.distinct {
        out.push_str("DISTINCT ");
    }
    for (i, item) in s.projection.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match item {
            SelectItem::Wildcard => out.push('*'),
            SelectItem::QualifiedWildcard(q) => {
                write_ident(out, q);
                out.push_str(".*");
            }
            SelectItem::Expr { expr, alias } => {
                write_expr(out, expr);
                write_alias(out, alias.as_deref());
            }
        }
    }
    if let Some(from) = &s.from {
        out.push_str(" FROM ");
        write_table_ref(out, from);
    }
    if let Some(w) = &s.selection {
        out.push_str(" WHERE ");
        write_expr(out, w);
    }
    if !s.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        for (i, g) in s.group_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_expr(out, g);
        }
    }
    if let Some(h) = &s.having {
        out.push_str(" HAVING ");
        write_expr(out, h);
    }
}

fn write_table_ref(out: &mut String, t: &TableRef) {
    match t {
        TableRef::Table { name, alias } => {
            write_ident(out, name);
            write_alias(out, alias.as_deref());
        }
        TableRef::Derived { query, alias } => {
            out.push('(');
            write_query(out, query);
            out.push(')');
            write_alias(out, Some(alias));
        }
        TableRef::Join {
            left,
            right,
            join_type,
            constraint,
        } => {
            write_table_ref(out, left);
            let kw = match join_type {
                JoinType::Inner => " JOIN ",
                JoinType::Left => " LEFT JOIN ",
                JoinType::Right => " RIGHT JOIN ",
                JoinType::Full => " FULL JOIN ",
                JoinType::Cross => " CROSS JOIN ",
            };
            out.push_str(kw);
            // The right side of a join binds as a factor; parenthesize
            // nested joins so the tree shape round-trips.
            match right.as_ref() {
                TableRef::Join { .. } => {
                    out.push('(');
                    write_table_ref(out, right);
                    out.push(')');
                }
                _ => write_table_ref(out, right),
            }
            match constraint {
                JoinConstraint::On(e) => {
                    out.push_str(" ON ");
                    write_expr(out, e);
                }
                JoinConstraint::Using(cols) => {
                    out.push_str(" USING (");
                    for (i, c) in cols.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        write_ident(out, c);
                    }
                    out.push(')');
                }
                JoinConstraint::None => {}
            }
        }
    }
}

/// Append the SQL text of `e` to `out`.
pub(crate) fn write_expr(out: &mut String, e: &Expr) {
    match e {
        Expr::Column(c) => {
            if let Some(q) = &c.qualifier {
                write_ident(out, q);
                out.push('.');
            }
            write_ident(out, &c.name);
        }
        Expr::Literal(l) => write_literal(out, l),
        Expr::BinaryOp { left, op, right } => {
            out.push('(');
            write_expr(out, left);
            let op_str = match op {
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
            };
            out.push_str(op_str);
            write_expr(out, right);
            out.push(')');
        }
        Expr::UnaryOp { op, expr } => {
            let op_str = match op {
                UnaryOperator::Not => "NOT ",
                UnaryOperator::Minus => "-",
                UnaryOperator::Plus => "+",
            };
            out.push('(');
            out.push_str(op_str);
            write_expr(out, expr);
            out.push(')');
        }
        Expr::Function {
            name,
            distinct,
            args,
        } => {
            write_ident(out, name);
            out.push('(');
            if *distinct {
                out.push_str("DISTINCT ");
            }
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                match a {
                    FunctionArg::Wildcard => out.push('*'),
                    FunctionArg::Expr(e) => write_expr(out, e),
                }
            }
            out.push(')');
        }
        Expr::Case {
            operand,
            branches,
            else_result,
        } => {
            out.push_str("CASE");
            if let Some(op) = operand {
                out.push(' ');
                write_expr(out, op);
            }
            for (cond, result) in branches {
                out.push_str(" WHEN ");
                write_expr(out, cond);
                out.push_str(" THEN ");
                write_expr(out, result);
            }
            if let Some(e) = else_result {
                out.push_str(" ELSE ");
                write_expr(out, e);
            }
            out.push_str(" END");
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            out.push('(');
            write_expr(out, expr);
            out.push_str(if *negated { " NOT IN (" } else { " IN (" });
            for (i, item) in list.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, item);
            }
            out.push_str("))");
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            out.push('(');
            write_expr(out, expr);
            out.push_str(if *negated {
                " NOT BETWEEN "
            } else {
                " BETWEEN "
            });
            write_expr(out, low);
            out.push_str(" AND ");
            write_expr(out, high);
            out.push(')');
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            out.push('(');
            write_expr(out, expr);
            out.push_str(if *negated { " NOT LIKE " } else { " LIKE " });
            write_expr(out, pattern);
            out.push(')');
        }
        Expr::IsNull { expr, negated } => {
            out.push('(');
            write_expr(out, expr);
            out.push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
            out.push(')');
        }
        Expr::Cast { expr, data_type } => {
            out.push_str("CAST(");
            write_expr(out, expr);
            write_alias(out, Some(data_type));
            out.push(')');
        }
        Expr::Exists(q) => {
            out.push_str("EXISTS (");
            write_query(out, q);
            out.push(')');
        }
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            out.push('(');
            write_expr(out, expr);
            out.push_str(if *negated { " NOT IN (" } else { " IN (" });
            write_query(out, query);
            out.push_str("))");
        }
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
