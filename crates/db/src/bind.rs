//! Name binding: the one place a SQL name becomes a position of a scope
//! (a `&[ColMeta]`: the columns of a FROM subtree, each with the alias
//! that qualifies it). Only the planner (`plan`, `Exec::compile_scalar`)
//! binds, once per block; the sensitivity analysis reads the plan
//! ([`crate::planned`]). The test oracle (`flex-oracle`) resolves names
//! and splits join constraints here too — the rest is crate-private.

use crate::error::{DbError, Result};
use flex_sql::{ColumnRef, Expr, JoinConstraint, Literal, Select, SelectItem};

/// Metadata for one column of an intermediate relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColMeta {
    /// Table alias (or table name) qualifying the column, if any.
    pub qualifier: Option<String>,
    /// The column's (output) name.
    pub name: String,
}

impl ColMeta {
    /// Column metadata with an optional qualifier.
    pub fn new(qualifier: Option<String>, name: impl Into<String>) -> Self {
        ColMeta {
            qualifier,
            name: name.into(),
        }
    }

    fn matches(&self, r: &ColumnRef) -> bool {
        if self.name != r.name {
            return false;
        }
        match &r.qualifier {
            None => true,
            Some(q) => self.qualifier.as_deref() == Some(q.as_str()),
        }
    }
}

/// The scope a derived table `(SELECT …) AS alias` exposes: its output
/// header, every column qualified by the alias.
pub(crate) fn derived_scope(alias: &str, header: impl IntoIterator<Item = String>) -> Vec<ColMeta> {
    let named = |name| ColMeta::new(Some(alias.to_string()), name);
    header.into_iter().map(named).collect()
}

/// Resolve a column reference to an index into a scope.
///
/// Bare names must be unambiguous; qualified names must match a column
/// with that qualifier.
pub fn resolve_column(cols: &[ColMeta], r: &ColumnRef) -> Result<usize> {
    let mut found = None;
    for (i, c) in cols.iter().enumerate() {
        if c.matches(r) {
            if found.is_some() {
                return Err(DbError::AmbiguousColumn(r.to_string()));
            }
            found = Some(i);
        }
    }
    found.ok_or_else(|| DbError::UnknownColumn(r.to_string()))
}

/// A join constraint split by [`split_join_constraint`]: equi-key pairs
/// as (left-local, right-local) column indices, and the `ON` conjuncts
/// left over as a residual predicate, in `ON` order.
pub type JoinSplit<'a> = (Vec<(usize, usize)>, Vec<&'a Expr>);

/// The equi-key a single conjunct contributes to a join of `left_cols`
/// and `right_cols`: `a = b` between two columns is a key when `a`
/// resolves on the left and `b` on the right, or the other way round.
pub(crate) fn equi_key(
    left_cols: &[ColMeta],
    right_cols: &[ColMeta],
    conjunct: &Expr,
) -> Option<(usize, usize)> {
    conjunct.as_column_equality().and_then(|(a, b)| {
        match (resolve_column(left_cols, a), resolve_column(right_cols, b)) {
            (Ok(l), Ok(r)) => Some((l, r)),
            _ => resolve_column(left_cols, b)
                .ok()
                .zip(resolve_column(right_cols, a).ok()),
        }
    })
}

/// Split a join constraint into equi-key pairs and a residual.
/// `USING (c)` is the pair `c = c`; an `ON` conjunct is a key when
/// `equi_key` says so; everything else stays residual. The one
/// definition the executor (and through its plan the sensitivity
/// analysis) and the test oracle join by: a `USING` column missing or
/// ambiguous on either side is the error.
pub fn split_join_constraint<'a>(
    left_cols: &[ColMeta],
    right_cols: &[ColMeta],
    constraint: &'a JoinConstraint,
) -> Result<JoinSplit<'a>> {
    let mut key_pairs = Vec::new();
    let mut residual = Vec::new();
    match constraint {
        JoinConstraint::None => {}
        JoinConstraint::Using(names) => {
            for name in names {
                let c = ColumnRef::bare(name.clone());
                key_pairs.push((
                    resolve_column(left_cols, &c)?,
                    resolve_column(right_cols, &c)?,
                ));
            }
        }
        JoinConstraint::On(on) => {
            for conjunct in on.conjuncts() {
                match equi_key(left_cols, right_cols, conjunct) {
                    Some(pair) => key_pairs.push(pair),
                    None => residual.push(conjunct),
                }
            }
        }
    }
    Ok((key_pairs, residual))
}

/// Whether a SELECT block is an aggregation: GROUP BY or HAVING present,
/// or any aggregate function in the projection. HAVING without GROUP BY
/// makes the block one group, as in standard SQL.
pub(crate) fn is_aggregated(s: &Select) -> bool {
    !s.group_by.is_empty()
        || s.having.is_some()
        || s.projection.iter().any(|item| match item {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        })
}

/// What backs one output column of a SELECT list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Projected<'a> {
    /// A scope column a wildcard expanded to.
    Wildcard(usize),
    /// A SELECT item's expression, still to be compiled by the caller.
    Expr(&'a Expr),
}

/// Expand a SELECT list over a scope into its output columns, in output
/// order: `*` is every scope column and `q.*` the columns qualified `q`
/// (each keeping its qualifier), an expression is one column named by
/// [`Expr::output_name`]. The only error is a `q.*` that matches nothing,
/// and it sits at that item's position, so a caller compiling the items
/// as it goes reports the first defect of the list, left to right.
pub(crate) fn project_scope<'a>(
    cols: &[ColMeta],
    projection: &'a [SelectItem],
) -> Vec<Result<(ColMeta, Projected<'a>)>> {
    let mut out = Vec::with_capacity(projection.len());
    for item in projection {
        // `None`: every column; `Some(q)`: the columns qualified `q`.
        let wildcard = match item {
            SelectItem::Wildcard => None,
            SelectItem::QualifiedWildcard(q) => Some(q),
            SelectItem::Expr { expr, alias } => {
                let meta = ColMeta::new(None, expr.output_name(alias.as_deref()));
                out.push(Ok((meta, Projected::Expr(expr))));
                continue;
            }
        };
        let before = out.len();
        for (i, c) in cols.iter().enumerate() {
            if wildcard.is_none_or(|q| c.qualifier.as_deref() == Some(q)) {
                out.push(Ok((c.clone(), Projected::Wildcard(i))));
            }
        }
        if let Some(q) = wildcard.filter(|_| out.len() == before) {
            out.push(Err(DbError::UnknownTable(q.clone())));
        }
    }
    out
}

/// Try to resolve an order-by expression as an output column: positional
/// integers (`ORDER BY 2`) or names matching an output column.
pub(crate) fn sort_key_by_output(e: &Expr, out_cols: &[ColMeta]) -> Result<Option<usize>> {
    match e {
        Expr::Literal(Literal::Integer(i)) => {
            let idx = *i;
            if idx < 1 || idx as usize > out_cols.len() {
                return Err(DbError::Unsupported(format!(
                    "ORDER BY position {idx} out of range"
                )));
            }
            Ok(Some(idx as usize - 1))
        }
        Expr::Column(c) if c.qualifier.is_none() => {
            Ok(out_cols.iter().position(|m| m.name == c.name))
        }
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope() -> Vec<ColMeta> {
        vec![
            ColMeta::new(Some("t".into()), "id"),
            ColMeta::new(Some("t".into()), "city"),
            ColMeta::new(Some("u".into()), "id"),
        ]
    }

    fn projection(sql: &str) -> Vec<SelectItem> {
        let q = flex_sql::parse_query(sql).unwrap();
        q.as_select().unwrap().projection.clone()
    }

    #[test]
    fn names_resolve_by_qualifier_or_by_a_unique_bare_name() {
        let cols = scope();
        assert_eq!(
            resolve_column(&cols, &ColumnRef::qualified("u", "id")),
            Ok(2)
        );
        assert_eq!(
            resolve_column(&cols, &ColumnRef::qualified("t", "city")),
            Ok(1)
        );
        assert_eq!(resolve_column(&cols, &ColumnRef::bare("city")), Ok(1));
        assert_eq!(
            resolve_column(&cols, &ColumnRef::bare("id")),
            Err(DbError::AmbiguousColumn("id".into()))
        );
        assert_eq!(
            resolve_column(&cols, &ColumnRef::qualified("u", "city")),
            Err(DbError::UnknownColumn("u.city".into()))
        );
    }

    #[test]
    fn select_list_expands_in_order_and_names_its_outputs() {
        let cols = scope();
        let items = projection("SELECT u.*, city AS c, t.id + 1, * FROM x");
        let out: Vec<_> = project_scope(&cols, &items)
            .into_iter()
            .map(|o| match o.unwrap() {
                (meta, Projected::Wildcard(i)) => (meta.qualifier, meta.name, Some(i)),
                (meta, Projected::Expr(_)) => (meta.qualifier, meta.name, None),
            })
            .collect();
        let q = |s: &str| Some(s.to_string());
        assert_eq!(
            out,
            vec![
                (q("u"), "id".to_string(), Some(2)),
                (None, "c".to_string(), None),
                (None, "expr".to_string(), None),
                (q("t"), "id".to_string(), Some(0)),
                (q("t"), "city".to_string(), Some(1)),
                (q("u"), "id".to_string(), Some(2)),
            ]
        );
    }

    #[test]
    fn unknown_wildcard_qualifier_errs_at_its_position() {
        let cols = scope();
        let items = projection("SELECT city, x.*, nope FROM x");
        let out = project_scope(&cols, &items);
        assert_eq!(out.len(), 3);
        assert!(out[0].is_ok());
        assert_eq!(out[1], Err(DbError::UnknownTable("x".into())));
        // An unresolvable column is the caller's to report, as the kind
        // of block it is compiling reports it.
        let Ok((_, Projected::Expr(Expr::Column(nope)))) = &out[2] else {
            panic!("a column item: {:?}", out[2]);
        };
        assert_eq!(
            resolve_column(&cols, nope),
            Err(DbError::UnknownColumn("nope".into()))
        );
    }

    #[test]
    fn join_keys_resolve_per_side() {
        let cols = scope();
        let (l, r) = cols.split_at(2);
        let on = flex_sql::parse_query(
            "SELECT 1 FROM a JOIN b ON u.id = t.id AND id = id AND city = 'x'",
        )
        .unwrap();
        let Some(flex_sql::TableRef::Join { constraint, .. }) = &on.as_select().unwrap().from
        else {
            panic!("expected a join");
        };
        // `id = id` is ambiguous in the merged scope and a key per side.
        let (keys, residual) = split_join_constraint(l, r, constraint).unwrap();
        assert_eq!(keys, vec![(0, 0), (0, 0)]);
        assert_eq!(residual.len(), 1);
        let using = JoinConstraint::Using(vec!["city".into()]);
        assert_eq!(
            split_join_constraint(l, r, &using),
            Err(DbError::UnknownColumn("city".into()))
        );
    }
}
