//! Query canonicalization: a semantics-preserving normal form used as the
//! cache key of the `flex-service` noisy-answer cache.
//!
//! Two queries that differ only in formatting or in a small set of
//! provably-safe syntactic permutations map to the same canonical AST and
//! therefore the same canonical SQL text:
//!
//! * whitespace, keyword case, and unquoted identifier case (erased by the
//!   lexer/printer round-trip);
//! * order of `AND`/`OR` operands — conjunct/disjunct trees are flattened,
//!   deduplicated, sorted, and rebuilt left-deep;
//! * operand order of the symmetric operators `=`, `<>`, `+`, `*`
//!   (`t.a = u.b` vs `u.b = t.a`);
//! * comparison direction: `>` and `>=` are rewritten as mirrored `<` /
//!   `<=` (`x > 5` and `5 < x` agree);
//! * `IN`-list member order and duplicates;
//! * `GROUP BY` key order.
//!
//! Deliberately *not* normalized because it can change results or output
//! shape: projection order and aliases, join tree shape (outer joins do
//! not commute), `USING` column order, set-operation branch order
//! (`EXCEPT` is asymmetric), `ORDER BY`/`LIMIT`/`OFFSET`, and CTE order
//! (later CTEs may reference earlier ones).
//!
//! The canonical form is a **fixpoint**: canonicalizing a canonical query
//! is the identity, and printing + reparsing a canonical query yields the
//! same canonical AST (checked by tests here and in the workspace-level
//! suite).

use crate::ast::*;
use crate::printer::{print_expr, print_query, write_expr};
use std::cmp::Ordering;

/// Canonicalize a query. An owned query is rewritten in place; a borrowed
/// one is cloned first and left untouched.
pub fn canonicalize(q: impl Into<Query>) -> Query {
    let mut q = q.into();
    let mut canon = Canonicalizer {
        text: String::with_capacity(128),
    };
    canon.query(&mut q);
    q
}

impl From<&Query> for Query {
    fn from(q: &Query) -> Query {
        q.clone()
    }
}

/// The canonical SQL text of a query — equal strings iff the queries have
/// the same canonical form. This is the `flex-service` cache key.
pub fn canonical_sql(q: &Query) -> String {
    print_query(&canonicalize(q))
}

/// One canonicalization's scratch: operands are ordered by their printed
/// text, and every print goes into this one buffer, reused from node to
/// node, instead of a fresh `String` per operand.
struct Canonicalizer {
    text: String,
}

impl Canonicalizer {
    fn query(&mut self, q: &mut Query) {
        for cte in &mut q.ctes {
            self.query(&mut cte.query);
        }
        self.set_expr(&mut q.body);
        for item in &mut q.order_by {
            self.expr(&mut item.expr);
        }
    }

    fn set_expr(&mut self, body: &mut SetExpr) {
        match body {
            SetExpr::Select(s) => {
                for item in &mut s.projection {
                    if let SelectItem::Expr { expr, .. } = item {
                        self.expr(expr);
                    }
                }
                if let Some(from) = &mut s.from {
                    self.table_ref(from);
                }
                let clauses = s.selection.iter_mut().chain(&mut s.group_by);
                clauses.chain(&mut s.having).for_each(|e| self.expr(e));
                s.group_by.sort_by_cached_key(print_expr);
            }
            SetExpr::SetOp { left, right, .. } => {
                self.set_expr(left);
                self.set_expr(right);
            }
        }
    }

    fn table_ref(&mut self, t: &mut TableRef) {
        match t {
            TableRef::Table { .. } => {}
            TableRef::Derived { query, .. } => self.query(query),
            TableRef::Join {
                left,
                right,
                constraint,
                ..
            } => {
                self.table_ref(left);
                self.table_ref(right);
                if let JoinConstraint::On(e) = constraint {
                    self.expr(e);
                }
            }
        }
    }

    /// Children first (over the one child walk), then the node's own rule.
    fn expr(&mut self, e: &mut Expr) {
        use BinaryOperator::{And, Eq, Gt, GtEq, Lt, LtEq, Multiply, NotEq, Or, Plus};
        if let Expr::BinaryOp {
            op: op @ (And | Or),
            ..
        } = e
        {
            // A whole chain at once: flattened, sorted, rebuilt left-deep.
            let op = *op;
            let mut operands = Vec::new();
            let chain = std::mem::replace(e, Expr::Literal(Literal::Null));
            flatten(chain, op, &mut operands);
            operands.iter_mut().for_each(|o| self.expr(o));
            let chain = (self.sorted_unique(operands).into_iter())
                .reduce(|acc, next| Expr::binary(acc, op, next));
            *e = chain.expect("a chain has an operand");
            return;
        }
        e.for_each_child_mut(|child| self.expr(child));
        if let Some(q) = e.subquery_mut() {
            self.query(q);
        }
        match e {
            // Mirror > and >= so both directions of the same comparison
            // agree; order the operands of the symmetric operators.
            Expr::BinaryOp { left, op, right } => match op {
                Gt | GtEq => {
                    std::mem::swap(left, right);
                    *op = if *op == Gt { Lt } else { LtEq };
                }
                Eq | NotEq | Plus | Multiply if self.printed_cmp(left, right).is_gt() => {
                    std::mem::swap(left, right)
                }
                _ => {}
            },
            Expr::InList { list, .. } => *list = self.sorted_unique(std::mem::take(list)),
            _ => {}
        }
    }

    /// The order of `a` and `b` by their printed text.
    fn printed_cmp(&mut self, a: &Expr, b: &Expr) -> Ordering {
        self.text.clear();
        write_expr(&mut self.text, a);
        let split = self.text.len();
        write_expr(&mut self.text, b);
        self.text[..split].cmp(&self.text[split..])
    }

    /// An unordered collection of canonical expressions (`AND`/`OR`
    /// operands, an `IN` list), sorted by printed form and without
    /// duplicates. Each member is printed once, into one buffer.
    fn sorted_unique(&mut self, members: Vec<Expr>) -> Vec<Expr> {
        let text = &mut self.text;
        text.clear();
        let mut keyed: Vec<(usize, usize, Expr)> = (members.into_iter())
            .map(|m| {
                let start = text.len();
                write_expr(text, &m);
                (start, text.len(), m)
            })
            .collect();
        let key = |&(start, end, _): &(usize, usize, Expr)| &text[start..end];
        keyed.sort_by(|a, b| key(a).cmp(key(b)));
        keyed.dedup_by(|a, b| key(a) == key(b));
        keyed.into_iter().map(|(_, _, e)| e).collect()
    }
}

/// Flatten a (possibly nested) `op`-tree into its operand list.
fn flatten(e: Expr, op: BinaryOperator, out: &mut Vec<Expr>) {
    match e {
        Expr::BinaryOp {
            left,
            op: inner,
            right,
        } if inner == op => {
            flatten(*left, op, out);
            flatten(*right, op, out);
        }
        other => out.push(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn key(sql: &str) -> String {
        canonical_sql(&parse_query(sql).unwrap())
    }

    fn assert_same_key(a: &str, b: &str) {
        assert_eq!(key(a), key(b), "expected {a:?} and {b:?} to share a key");
    }

    fn assert_different_key(a: &str, b: &str) {
        assert_ne!(key(a), key(b), "expected {a:?} and {b:?} to differ");
    }

    #[test]
    fn whitespace_and_case_are_erased() {
        assert_same_key(
            "SELECT COUNT(*) FROM trips WHERE city_id = 3",
            "select   count(*)\n  from TRIPS\nwhere CITY_ID=3",
        );
    }

    #[test]
    fn conjunct_order_is_erased() {
        assert_same_key(
            "SELECT COUNT(*) FROM t WHERE a = 1 AND b = 2 AND c = 3",
            "SELECT COUNT(*) FROM t WHERE c = 3 AND (a = 1 AND b = 2)",
        );
        assert_same_key(
            "SELECT COUNT(*) FROM t WHERE a = 1 OR b = 2",
            "SELECT COUNT(*) FROM t WHERE b = 2 OR a = 1",
        );
        // AND vs OR must stay distinct.
        assert_different_key(
            "SELECT COUNT(*) FROM t WHERE a = 1 AND b = 2",
            "SELECT COUNT(*) FROM t WHERE a = 1 OR b = 2",
        );
    }

    #[test]
    fn duplicate_conjuncts_collapse() {
        assert_same_key(
            "SELECT COUNT(*) FROM t WHERE a = 1 AND a = 1",
            "SELECT COUNT(*) FROM t WHERE a = 1",
        );
    }

    #[test]
    fn symmetric_operand_order_is_erased() {
        assert_same_key(
            "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k",
            "SELECT COUNT(*) FROM a JOIN b ON b.k = a.k",
        );
        assert_same_key(
            "SELECT COUNT(*) FROM t WHERE x + y = 3",
            "SELECT COUNT(*) FROM t WHERE y + x = 3",
        );
        // `-` is not symmetric.
        assert_different_key(
            "SELECT COUNT(*) FROM t WHERE x - y = 3",
            "SELECT COUNT(*) FROM t WHERE y - x = 3",
        );
    }

    #[test]
    fn comparison_direction_is_erased() {
        assert_same_key(
            "SELECT COUNT(*) FROM t WHERE x > 5",
            "SELECT COUNT(*) FROM t WHERE 5 < x",
        );
        assert_same_key(
            "SELECT COUNT(*) FROM t WHERE x >= 5",
            "SELECT COUNT(*) FROM t WHERE 5 <= x",
        );
        assert_different_key(
            "SELECT COUNT(*) FROM t WHERE x > 5",
            "SELECT COUNT(*) FROM t WHERE x < 5",
        );
    }

    #[test]
    fn in_list_order_and_duplicates_are_erased() {
        assert_same_key(
            "SELECT COUNT(*) FROM t WHERE a IN (3, 1, 2, 1)",
            "SELECT COUNT(*) FROM t WHERE a IN (1, 2, 3)",
        );
        assert_different_key(
            "SELECT COUNT(*) FROM t WHERE a IN (1, 2)",
            "SELECT COUNT(*) FROM t WHERE a NOT IN (1, 2)",
        );
    }

    #[test]
    fn group_by_order_is_erased() {
        assert_same_key(
            "SELECT a, b, COUNT(*) FROM t GROUP BY a, b",
            "SELECT a, b, COUNT(*) FROM t GROUP BY b, a",
        );
    }

    #[test]
    fn semantic_differences_are_preserved() {
        assert_different_key("SELECT COUNT(*) FROM t", "SELECT COUNT(*) FROM u");
        assert_different_key("SELECT COUNT(*) FROM t", "SELECT COUNT(DISTINCT x) FROM t");
        assert_different_key(
            "SELECT a, COUNT(*) FROM t GROUP BY a",
            "SELECT b, COUNT(*) FROM t GROUP BY b",
        );
        // Projection order changes the output shape.
        assert_different_key("SELECT a, b FROM t", "SELECT b, a FROM t");
        // EXCEPT branches must not be swapped.
        assert_different_key(
            "SELECT a FROM t EXCEPT SELECT a FROM u",
            "SELECT a FROM u EXCEPT SELECT a FROM t",
        );
        // Outer-join sides must not be swapped.
        assert_different_key(
            "SELECT COUNT(*) FROM a LEFT JOIN b ON a.k = b.k",
            "SELECT COUNT(*) FROM b LEFT JOIN a ON a.k = b.k",
        );
    }

    #[test]
    fn canonicalization_is_a_fixpoint() {
        for sql in [
            "SELECT COUNT(*) FROM trips WHERE c = 3 AND a = 1 AND b = 2",
            "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON c.id = t.city_id GROUP BY c.name",
            "WITH w AS (SELECT a FROM t WHERE x > 2) SELECT COUNT(*) FROM w",
            "SELECT COUNT(*) FROM t WHERE a IN (9, 1, 4) OR b BETWEEN 2 AND 7",
            "SELECT CASE WHEN y > x THEN 'a' ELSE 'b' END FROM t ORDER BY 1 DESC LIMIT 5",
            "SELECT a FROM t1 UNION ALL SELECT a FROM t2",
        ] {
            let q = parse_query(sql).unwrap();
            let once = canonicalize(&q);
            let twice = canonicalize(&once);
            assert_eq!(once, twice, "canonicalize not idempotent for {sql:?}");
            let reparsed = parse_query(&print_query(&once)).unwrap();
            assert_eq!(
                once,
                canonicalize(&reparsed),
                "print/reparse not a fixpoint for {sql:?}"
            );
        }
    }
}
