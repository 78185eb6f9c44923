//! `WITH` is sugar: [`inline_ctes`] rewrites every CTE reference into the
//! derived table it abbreviates, so everything downstream of the parser
//! — the sensitivity analysis and both execution engines — binds relation
//! names in a tree that has no `WITH` left in it, and binds them once.
//!
//! # The scoping rule
//!
//! Standard non-recursive `WITH`:
//!
//! * the body of CTE *i* sees CTEs 0..*i*−1 of its own list plus every
//!   enclosing list — never itself, never a later one (such a name is a
//!   base table, or unknown);
//! * a CTE name shadows base tables and outer CTEs of the same name in
//!   the query body (`ORDER BY` included), in later CTEs of the list, and
//!   in the derived tables and expression subqueries nested in those;
//! * `FROM name [alias]` becomes `FROM (body) AS alias-or-name`, with
//!   `body` already closed under this rule at its definition — a name
//!   inside it never re-binds at the point of use.
//!
//! A CTE nobody references disappears; one referenced twice is copied
//! twice.
//!
//! # Bounds
//!
//! Copying makes the output exponential in the input (`b` = `a ⋈ a`,
//! `c` = `b ⋈ b`, …) and nests bodies inside bodies, so the pass counts
//! the AST nodes it visits and copies and the nesting it builds, and
//! fails closed past [`MAX_INLINED_NODES`] / [`MAX_INLINED_DEPTH`] before
//! making the copy that would cross either.

use crate::ast::*;
use crate::error::{ParseError, Result};
use std::borrow::Cow;

/// Most AST nodes (queries, set operations, relations, expressions) the
/// pass will visit plus copy for one query.
pub const MAX_INLINED_NODES: usize = 8192;

/// Deepest node nesting an expansion may reach — what every recursive
/// walker downstream (lowering, both engines, printer, `Drop`) then has
/// to survive on a service-worker stack. The costliest of them spends
/// about 11 KiB a level in an unoptimized build (the expression
/// compiler), so 128 levels stay inside a 2 MiB stack; a derived table is
/// three levels (relation, query, select).
pub const MAX_INLINED_DEPTH: usize = 128;

/// Expand every `WITH` in `q`, at any depth, per the [module docs](self).
/// A query without one is returned borrowed after a single
/// allocation-free walk.
pub fn inline_ctes(q: &Query) -> Result<Cow<'_, Query>> {
    if !query_has_with(q) {
        return Ok(Cow::Borrowed(q));
    }
    let mut inlined = q.clone();
    Inliner::default().query(&mut inlined)?;
    Ok(Cow::Owned(inlined))
}

fn query_has_with(q: &Query) -> bool {
    !q.ctes.is_empty()
        || set_expr_has_with(&q.body)
        || q.order_by.iter().any(|item| expr_has_with(&item.expr))
}

fn set_expr_has_with(body: &SetExpr) -> bool {
    match body {
        SetExpr::Select(s) => {
            s.projection
                .iter()
                .any(|item| matches!(item, SelectItem::Expr { expr, .. } if expr_has_with(expr)))
                || s.from.as_ref().is_some_and(table_ref_has_with)
                || s.selection.as_ref().is_some_and(expr_has_with)
                || s.group_by.iter().any(expr_has_with)
                || s.having.as_ref().is_some_and(expr_has_with)
        }
        SetExpr::SetOp { left, right, .. } => set_expr_has_with(left) || set_expr_has_with(right),
    }
}

fn table_ref_has_with(t: &TableRef) -> bool {
    match t {
        TableRef::Table { .. } => false,
        TableRef::Derived { query, .. } => query_has_with(query),
        TableRef::Join {
            left,
            right,
            constraint,
            ..
        } => {
            table_ref_has_with(left)
                || table_ref_has_with(right)
                || matches!(constraint, JoinConstraint::On(on) if expr_has_with(on))
        }
    }
}

fn expr_has_with(e: &Expr) -> bool {
    let mut found = e.subquery().is_some_and(query_has_with);
    e.for_each_child(|child| found = found || expr_has_with(child));
    found
}

/// One CTE in scope: its body with every reference inside it already
/// expanded, and what a copy of that body costs.
struct Binding {
    name: String,
    body: Query,
    /// Nodes in `body`.
    nodes: usize,
    /// Levels `body` adds below the relation that references it.
    height: usize,
}

/// Rewrites a query in place. The walk is an ordinary recursive descent;
/// `scope` is the one name environment (innermost binding last).
#[derive(Default)]
struct Inliner {
    scope: Vec<Binding>,
    /// Nodes visited or copied so far.
    nodes: usize,
    /// Nesting of the node being rewritten.
    depth: usize,
    /// Deepest nesting reached, expansions included, since the innermost
    /// CTE body being closed began.
    deepest: usize,
}

impl Inliner {
    fn enter(&mut self) {
        self.nodes += 1;
        self.depth += 1;
        self.deepest = self.deepest.max(self.depth);
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn query(&mut self, q: &mut Query) -> Result<()> {
        self.enter();
        let outer = self.scope.len();
        for Cte { name, mut query } in std::mem::take(&mut q.ctes) {
            let nodes_before = self.nodes;
            let deepest_outside = std::mem::replace(&mut self.deepest, self.depth);
            self.query(&mut query)?;
            let binding = Binding {
                name,
                body: query,
                nodes: self.nodes - nodes_before,
                height: self.deepest - self.depth,
            };
            self.deepest = self.deepest.max(deepest_outside);
            self.scope.push(binding);
        }
        self.set_expr(&mut q.body)?;
        for item in &mut q.order_by {
            self.expr(&mut item.expr)?;
        }
        self.scope.truncate(outer);
        self.leave();
        Ok(())
    }

    fn set_expr(&mut self, body: &mut SetExpr) -> Result<()> {
        self.enter();
        match body {
            SetExpr::Select(s) => {
                for item in &mut s.projection {
                    if let SelectItem::Expr { expr, .. } = item {
                        self.expr(expr)?;
                    }
                }
                if let Some(from) = &mut s.from {
                    self.table_ref(from)?;
                }
                if let Some(selection) = &mut s.selection {
                    self.expr(selection)?;
                }
                for g in &mut s.group_by {
                    self.expr(g)?;
                }
                if let Some(having) = &mut s.having {
                    self.expr(having)?;
                }
            }
            SetExpr::SetOp { left, right, .. } => {
                self.set_expr(left)?;
                self.set_expr(right)?;
            }
        }
        self.leave();
        Ok(())
    }

    fn table_ref(&mut self, t: &mut TableRef) -> Result<()> {
        self.enter();
        match t {
            TableRef::Table { name, alias } => {
                if let Some(b) = self.scope.iter().rev().find(|b| b.name == *name) {
                    let refuse = |why: String| {
                        Err(ParseError::syntax(
                            0,
                            format!("expanding WITH `{name}` {why}"),
                        ))
                    };
                    if self.nodes + b.nodes > MAX_INLINED_NODES {
                        return refuse(format!("takes the query past {MAX_INLINED_NODES} nodes"));
                    }
                    if self.depth + b.height > MAX_INLINED_DEPTH {
                        return refuse(format!("nests deeper than {MAX_INLINED_DEPTH} levels"));
                    }
                    self.nodes += b.nodes;
                    self.deepest = self.deepest.max(self.depth + b.height);
                    *t = TableRef::Derived {
                        query: Box::new(b.body.clone()),
                        alias: alias.take().unwrap_or_else(|| std::mem::take(name)),
                    };
                }
            }
            TableRef::Derived { query, .. } => self.query(query)?,
            TableRef::Join {
                left,
                right,
                constraint,
                ..
            } => {
                self.table_ref(left)?;
                self.table_ref(right)?;
                if let JoinConstraint::On(on) = constraint {
                    self.expr(on)?;
                }
            }
        }
        self.leave();
        Ok(())
    }

    /// Expressions only matter for the subqueries they can hold.
    fn expr(&mut self, e: &mut Expr) -> Result<()> {
        self.enter();
        let mut done = Ok(());
        e.for_each_child_mut(|child| {
            if done.is_ok() {
                done = self.expr(child);
            }
        });
        done?;
        if let Some(query) = e.subquery_mut() {
            self.query(query)?;
        }
        self.leave();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::printer::print_query;

    /// Inline `sql` and print the result.
    fn inlined(sql: &str) -> String {
        let q = parse_query(sql).unwrap();
        print_query(&inline_ctes(&q).unwrap())
    }

    /// `sql`, parsed and printed — the spelling `inlined` is compared to.
    fn printed(sql: &str) -> String {
        print_query(&parse_query(sql).unwrap())
    }

    #[test]
    fn with_free_query_is_borrowed() {
        let q = parse_query(
            "SELECT c.name, COUNT(*) FROM trips t JOIN (SELECT * FROM cities) c ON t.city_id = c.id \
             WHERE t.fare IN (SELECT fare FROM trips) GROUP BY c.name ORDER BY 2",
        )
        .unwrap();
        assert!(matches!(inline_ctes(&q).unwrap(), Cow::Borrowed(_)));
    }

    #[test]
    fn reference_becomes_derived_table_named_by_alias_or_cte() {
        assert_eq!(
            inlined("WITH c AS (SELECT a FROM t) SELECT COUNT(*) FROM c"),
            printed("SELECT COUNT(*) FROM (SELECT a FROM t) AS c"),
        );
        assert_eq!(
            inlined("WITH c AS (SELECT a FROM t) SELECT x.a FROM c x JOIN c ON x.a = c.a"),
            printed(
                "SELECT x.a FROM (SELECT a FROM t) AS x JOIN (SELECT a FROM t) AS c ON x.a = c.a"
            ),
        );
    }

    #[test]
    fn a_body_sees_earlier_ctes_only() {
        // `a` is closed before `trips` is bound, so its `trips` stays the
        // base table even where the CTE `trips` is in scope.
        assert_eq!(
            inlined(
                "WITH a AS (SELECT * FROM trips), trips AS (SELECT * FROM cities) \
                 SELECT COUNT(*) FROM a"
            ),
            printed("SELECT COUNT(*) FROM (SELECT * FROM trips) AS a"),
        );
        // A CTE never sees itself …
        assert_eq!(
            inlined("WITH trips AS (SELECT * FROM trips) SELECT COUNT(*) FROM trips"),
            printed("SELECT COUNT(*) FROM (SELECT * FROM trips) AS trips"),
        );
        // … nor a later one: `b` here is whatever base table has the name.
        assert_eq!(
            inlined("WITH a AS (SELECT * FROM b), b AS (SELECT 1 AS x) SELECT COUNT(*) FROM a"),
            printed("SELECT COUNT(*) FROM (SELECT * FROM b) AS a"),
        );
        // Earlier ones it does see.
        assert_eq!(
            inlined("WITH l AS (SELECT k FROM r), x AS (SELECT k FROM l) SELECT COUNT(*) FROM x"),
            printed("SELECT COUNT(*) FROM (SELECT k FROM (SELECT k FROM r) AS l) AS x"),
        );
    }

    #[test]
    fn inner_lists_shadow_outer_ones_and_end_with_their_query() {
        assert_eq!(
            inlined(
                "WITH c AS (SELECT a FROM t) \
                 SELECT * FROM (WITH c AS (SELECT b FROM u) SELECT b FROM c) d JOIN c ON d.b = c.a"
            ),
            printed(
                "SELECT * FROM (SELECT b FROM (SELECT b FROM u) AS c) AS d \
                 JOIN (SELECT a FROM t) AS c ON d.b = c.a"
            ),
        );
    }

    #[test]
    fn names_bind_in_subqueries_join_conditions_and_order_by() {
        assert_eq!(
            inlined(
                "WITH c AS (SELECT a FROM t) \
                 SELECT COUNT(*) FROM u JOIN v ON u.a IN (SELECT a FROM c) \
                 WHERE EXISTS (SELECT 1 FROM c) AND u.a NOT IN (SELECT a FROM c y) \
                 ORDER BY EXISTS (SELECT 1 FROM c)"
            ),
            printed(
                "SELECT COUNT(*) FROM u JOIN v ON u.a IN (SELECT a FROM (SELECT a FROM t) AS c) \
                 WHERE EXISTS (SELECT 1 FROM (SELECT a FROM t) AS c) \
                 AND u.a NOT IN (SELECT a FROM (SELECT a FROM t) AS y) \
                 ORDER BY EXISTS (SELECT 1 FROM (SELECT a FROM t) AS c)"
            ),
        );
    }

    #[test]
    fn set_operation_arms_and_unreferenced_ctes() {
        assert_eq!(
            inlined(
                "WITH c AS (SELECT a FROM t), unused AS (SELECT 1 / 0 AS boom) \
                 SELECT a FROM c UNION SELECT a FROM u"
            ),
            printed("SELECT a FROM (SELECT a FROM t) AS c UNION SELECT a FROM u"),
        );
    }

    #[test]
    fn output_is_with_free_and_a_fixed_point() {
        let q = parse_query(
            "WITH a AS (SELECT * FROM t), b AS (SELECT * FROM a x JOIN a y ON x.k = y.k) \
             SELECT COUNT(*) FROM b WHERE k IN (WITH c AS (SELECT k FROM a) SELECT k FROM c)",
        )
        .unwrap();
        let once = inline_ctes(&q).unwrap().into_owned();
        assert!(!query_has_with(&once));
        assert!(matches!(inline_ctes(&once).unwrap(), Cow::Borrowed(_)));
        assert_eq!(parse_query(&print_query(&once)).unwrap(), once);
    }

    /// `WITH c0 AS (SELECT * FROM t), c1 AS (<step 1>), … SELECT COUNT(*) FROM c<n>`.
    fn chain(n: usize, step: impl Fn(usize) -> String) -> String {
        let mut sql = "WITH c0 AS (SELECT * FROM t)".to_string();
        for i in 1..=n {
            sql.push_str(&format!(", c{i} AS ({})", step(i)));
        }
        sql.push_str(&format!(" SELECT COUNT(*) FROM c{n}"));
        sql
    }

    #[test]
    fn doubling_chain_hits_the_node_cap_before_copying_it() {
        let doubling = |i: usize| {
            format!(
                "SELECT x.k FROM c{} x JOIN c{} y ON x.k = y.k",
                i - 1,
                i - 1
            )
        };
        // Six doublings are 64 copies of `c0`: fine.
        assert!(inline_ctes(&parse_query(&chain(6, doubling)).unwrap()).is_ok());
        // Twelve would be 4096, each a handful of nodes.
        let started = std::time::Instant::now();
        let err = inline_ctes(&parse_query(&chain(12, doubling)).unwrap()).unwrap_err();
        assert!(err.message.contains("nodes"), "{err}");
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        // Defining the chain is already the work, referenced or not.
        let unreferenced = chain(40, doubling).replace("FROM c40", "FROM t");
        assert!(inline_ctes(&parse_query(&unreferenced).unwrap()).is_err());
    }

    #[test]
    fn linear_chain_hits_the_depth_cap() {
        // Each link nests its predecessor three levels deeper.
        let linear = |i: usize| format!("SELECT * FROM c{}", i - 1);
        assert!(inline_ctes(&parse_query(&chain(30, linear)).unwrap()).is_ok());
        let err = inline_ctes(&parse_query(&chain(50, linear)).unwrap()).unwrap_err();
        assert!(err.message.contains("levels"), "{err}");
    }
}
