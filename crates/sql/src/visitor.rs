//! AST walkers: the one direct-children walk of [`Expr`], and the
//! read-only whole-query walks built on it, which the workload-study
//! analyzer (`flex_core::study`) uses.

use crate::ast::*;

/// Visit every [`Expr`] in a query, including those nested inside CTEs,
/// derived tables, join constraints and subquery expressions.
pub fn walk_exprs<'a, F: FnMut(&'a Expr)>(q: &'a Query, f: &mut F) {
    for cte in &q.ctes {
        walk_exprs(&cte.query, f);
    }
    walk_set_exprs(&q.body, f);
    for item in &q.order_by {
        walk_expr(&item.expr, f);
    }
}

fn walk_set_exprs<'a, F: FnMut(&'a Expr)>(body: &'a SetExpr, f: &mut F) {
    match body {
        SetExpr::Select(s) => {
            for item in &s.projection {
                if let SelectItem::Expr { expr, .. } = item {
                    walk_expr(expr, f);
                }
            }
            if let Some(from) = &s.from {
                walk_table_exprs(from, f);
            }
            if let Some(w) = &s.selection {
                walk_expr(w, f);
            }
            for g in &s.group_by {
                walk_expr(g, f);
            }
            if let Some(h) = &s.having {
                walk_expr(h, f);
            }
        }
        SetExpr::SetOp { left, right, .. } => {
            walk_set_exprs(left, f);
            walk_set_exprs(right, f);
        }
    }
}

fn walk_table_exprs<'a, F: FnMut(&'a Expr)>(t: &'a TableRef, f: &mut F) {
    match t {
        TableRef::Table { .. } => {}
        TableRef::Derived { query, .. } => walk_exprs(query, f),
        TableRef::Join {
            left,
            right,
            constraint,
            ..
        } => {
            walk_table_exprs(left, f);
            walk_table_exprs(right, f);
            if let JoinConstraint::On(e) = constraint {
                walk_expr(e, f);
            }
        }
    }
}

/// Visit `e` and all of its sub-expressions (pre-order), subqueries'
/// expressions included.
pub fn walk_expr<'a, F: FnMut(&'a Expr)>(e: &'a Expr, f: &mut F) {
    f(e);
    e.for_each_child(|child| walk_expr(child, f));
    if let Some(q) = e.subquery() {
        walk_exprs(q, f);
    }
}

/// The direct-children walk of [`Expr`], written once and instantiated
/// shared and `&mut`: the only code outside the parser and the printer
/// with an arm per variant. Everything else that recurses over
/// expressions — [`walk_expr`], `Expr::contains_aggregate`, the `WITH`
/// inliner, the canonicalizer, the engine's group-mode compiler and the
/// test oracle's evaluator — is a few lines over it.
macro_rules! expr_child_walk {
    ($(#[$doc:meta])* $name:ident $(, $m:tt)?) => {
        $(#[$doc])*
        pub fn $name<'a>(&'a $($m)? self, mut f: impl FnMut(&'a $($m)? Expr)) {
            match self {
                Expr::Column(_) | Expr::Literal(_) | Expr::Exists(_) => {}
                Expr::BinaryOp { left, right, .. } => {
                    f(left);
                    f(right);
                }
                Expr::UnaryOp { expr, .. }
                | Expr::IsNull { expr, .. }
                | Expr::Cast { expr, .. }
                | Expr::InSubquery { expr, .. } => f(expr),
                Expr::Function { args, .. } => {
                    for arg in args {
                        if let FunctionArg::Expr(e) = arg {
                            f(e);
                        }
                    }
                }
                Expr::Case { operand, branches, else_result } => {
                    if let Some(operand) = operand {
                        f(operand);
                    }
                    for (when, then) in branches {
                        f(when);
                        f(then);
                    }
                    if let Some(else_result) = else_result {
                        f(else_result);
                    }
                }
                Expr::InList { expr, list, .. } => {
                    f(expr);
                    for item in list {
                        f(item);
                    }
                }
                Expr::Between { expr, low, high, .. } => {
                    f(expr);
                    f(low);
                    f(high);
                }
                Expr::Like { expr, pattern, .. } => {
                    f(expr);
                    f(pattern);
                }
            }
        }
    };
}

impl Expr {
    expr_child_walk! {
        /// Call `f` on each direct sub-expression, in the order the SQL
        /// spells them. A subquery is not a sub-expression: see
        /// [`Expr::subquery`].
        for_each_child
    }
    expr_child_walk! {
        /// [`Expr::for_each_child`], mutably.
        for_each_child_mut, mut
    }

    /// The query of `EXISTS (…)` / `… IN (SELECT …)`.
    pub fn subquery(&self) -> Option<&Query> {
        match self {
            Expr::Exists(query) | Expr::InSubquery { query, .. } => Some(query),
            _ => None,
        }
    }

    /// [`Expr::subquery`], mutably.
    pub fn subquery_mut(&mut self) -> Option<&mut Query> {
        match self {
            Expr::Exists(query) | Expr::InSubquery { query, .. } => Some(query),
            _ => None,
        }
    }
}

/// Visit every join in a query (including joins inside CTEs and derived
/// tables), passing the join type and constraint.
pub fn walk_joins<'a, F: FnMut(&'a TableRef)>(q: &'a Query, f: &mut F) {
    for cte in &q.ctes {
        walk_joins(&cte.query, f);
    }
    walk_joins_set(&q.body, f);
}

fn walk_joins_set<'a, F: FnMut(&'a TableRef)>(body: &'a SetExpr, f: &mut F) {
    match body {
        SetExpr::Select(s) => {
            if let Some(from) = &s.from {
                walk_joins_table(from, f);
            }
        }
        SetExpr::SetOp { left, right, .. } => {
            walk_joins_set(left, f);
            walk_joins_set(right, f);
        }
    }
}

fn walk_joins_table<'a, F: FnMut(&'a TableRef)>(t: &'a TableRef, f: &mut F) {
    match t {
        TableRef::Table { .. } => {}
        TableRef::Derived { query, .. } => walk_joins(query, f),
        TableRef::Join { left, right, .. } => {
            f(t);
            walk_joins_table(left, f);
            walk_joins_table(right, f);
        }
    }
}

/// Visit every [`Select`] block in a query, including CTEs, derived tables
/// and set-operation branches.
pub fn walk_selects<'a, F: FnMut(&'a Select)>(q: &'a Query, f: &mut F) {
    for cte in &q.ctes {
        walk_selects(&cte.query, f);
    }
    walk_selects_set(&q.body, f);
}

fn walk_selects_set<'a, F: FnMut(&'a Select)>(body: &'a SetExpr, f: &mut F) {
    match body {
        SetExpr::Select(s) => {
            f(s);
            if let Some(from) = &s.from {
                walk_selects_table(from, f);
            }
        }
        SetExpr::SetOp { left, right, .. } => {
            walk_selects_set(left, f);
            walk_selects_set(right, f);
        }
    }
}

fn walk_selects_table<'a, F: FnMut(&'a Select)>(t: &'a TableRef, f: &mut F) {
    match t {
        TableRef::Table { .. } => {}
        TableRef::Derived { query, .. } => walk_selects(query, f),
        TableRef::Join { left, right, .. } => {
            walk_selects_table(left, f);
            walk_selects_table(right, f);
        }
    }
}

/// Count the number of "clauses" in a query — a crude size metric matching
/// the paper's Question 7 ("query size" measured in clauses). Each select
/// item, relation, predicate conjunct, group-by key, and order-by item
/// counts as one clause.
pub fn clause_count(q: &Query) -> usize {
    let mut n = 0;
    walk_selects(q, &mut |s| {
        n += s.projection.len();
        if let Some(from) = &s.from {
            n += from.base_tables().len().max(1);
        }
        if let Some(w) = &s.selection {
            n += w.conjuncts().len();
        }
        n += s.group_by.len();
        if s.having.is_some() {
            n += 1;
        }
    });
    n += q.order_by.len();
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn walk_exprs_reaches_all_contexts() {
        let q = parse_query(
            "WITH c AS (SELECT a + 1 AS b FROM t) \
             SELECT count(*) FROM c JOIN u ON c.b = u.b \
             WHERE u.v > 2 GROUP BY u.g HAVING count(*) > 3 ORDER BY 1",
        )
        .unwrap();
        let mut columns = 0;
        walk_exprs(&q, &mut |e| {
            if matches!(e, Expr::Column(_)) {
                columns += 1;
            }
        });
        // a, c.b, u.b, u.v, u.g
        assert_eq!(columns, 5);
    }

    #[test]
    fn walk_joins_counts_nested_joins() {
        let q =
            parse_query("SELECT count(*) FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y").unwrap();
        let mut joins = 0;
        walk_joins(&q, &mut |_| joins += 1);
        assert_eq!(joins, 2);
    }

    #[test]
    fn walk_joins_descends_into_derived() {
        let q =
            parse_query("SELECT count(*) FROM (SELECT * FROM a JOIN b ON a.x = b.x) s").unwrap();
        let mut joins = 0;
        walk_joins(&q, &mut |_| joins += 1);
        assert_eq!(joins, 1);
    }

    #[test]
    fn clause_count_is_monotone_in_query_size() {
        let small = parse_query("SELECT count(*) FROM t").unwrap();
        let big = parse_query(
            "SELECT a, b, c FROM t JOIN u ON t.x = u.x \
             WHERE a = 1 AND b = 2 GROUP BY c ORDER BY a",
        )
        .unwrap();
        assert!(clause_count(&big) > clause_count(&small));
    }
}
