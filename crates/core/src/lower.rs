//! Lowering SQL queries to the core relational algebra of Figure 1(a).
//!
//! The pass first expands `WITH` ([`flex_sql::inline_ctes`] — the same
//! rewrite the engines run, so analysis and execution bind every relation
//! name in the same CTE-free tree), then resolves aliases, assigns a
//! unique occurrence id to every base-table appearance (so self joins —
//! two references to one CTE included — are detectable), traces each
//! join key back to the base-table column it is drawn from (so `mf`
//! metrics can be looked up), finds the root counting aggregation —
//! descending through bare projections per §3.3 ("treating the inner
//! relation as the query root") — and classifies each output column as a
//! histogram label or an aggregate.
//!
//! Queries outside the supported fragment are rejected with the §3.7.1 /
//! §5.1 error taxonomy ([`FlexError`]).

use crate::error::{FlexError, Result};
use crate::relalg::{Attr, QueryKind, Rel};
use flex_db::Database;
use flex_sql::{
    ColumnRef, Expr, FunctionArg, JoinConstraint, JoinType, Query, Select, SelectItem, SetExpr,
    TableRef,
};

/// A root aggregate output of a counting/statistical query.
#[derive(Debug, Clone, PartialEq)]
pub enum RootAgg {
    /// `COUNT(*)` or `COUNT(col)`.
    Count,
    /// `COUNT(DISTINCT col)` — bounded by the same stability as `COUNT`.
    CountDistinct,
    /// `SUM(col)` — sensitivity `vr(col) · Ŝ_R` (§3.7.2).
    Sum(Attr),
    /// `AVG(col)` — bounded by `vr(col) · Ŝ_R` (§3.7.2).
    Avg(Attr),
    /// `MIN(col)` — global sensitivity `vr(col)` (§3.7.2).
    Min(Attr),
    /// `MAX(col)` — global sensitivity `vr(col)` (§3.7.2).
    Max(Attr),
}

impl RootAgg {
    pub fn name(&self) -> &'static str {
        match self {
            RootAgg::Count => "count",
            RootAgg::CountDistinct => "count distinct",
            RootAgg::Sum(_) => "sum",
            RootAgg::Avg(_) => "avg",
            RootAgg::Min(_) => "min",
            RootAgg::Max(_) => "max",
        }
    }
}

/// One GROUP BY key of the root query.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupKey {
    /// The original SQL expression (for display).
    pub expr: Expr,
    /// The base-table column it resolves to, when it is a plain column.
    pub base: Option<Attr>,
    /// Whether that base column belongs to a public table — then the bin
    /// labels are non-protected and can be enumerated automatically (§4).
    pub public: bool,
}

/// Classification of each output column of the root select.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputColumn {
    /// A histogram bin label (a group-by expression). Payload: index into
    /// [`Lowered::group_by`].
    Label(usize),
    /// An aggregate. Payload: index into [`Lowered::aggregates`].
    Aggregate(usize),
}

/// The result of lowering: the relation under the root count, plus the
/// root-level structure the mechanism needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Lowered {
    pub rel: Rel,
    pub kind: QueryKind,
    pub group_by: Vec<GroupKey>,
    pub aggregates: Vec<RootAgg>,
    /// One entry per projected output column of the root select.
    pub outputs: Vec<OutputColumn>,
}

/// Lower a parsed query against a database catalog.
pub fn lower(q: &Query, db: &Database) -> Result<Lowered> {
    let q = flex_sql::inline_ctes(q)?;
    let mut lw = Lowerer {
        db,
        next_occurrence: 0,
    };
    lw.lower_root(&q)
}

/// Column provenance within a lowering scope.
#[derive(Debug, Clone, PartialEq)]
enum Origin {
    /// Drawn directly from a base table (metrics available).
    Base(Attr),
    /// Computed (aggregation output, arithmetic, literal, ...) — no `mf`.
    Computed,
}

/// One named relation in scope (a table alias or derived table), with
/// its visible columns.
#[derive(Debug, Clone)]
struct ScopeEntry {
    qualifier: String,
    columns: Vec<(String, Origin)>,
}

#[derive(Debug, Clone, Default)]
struct Scope {
    entries: Vec<ScopeEntry>,
}

impl Scope {
    fn merge(mut self, other: Scope) -> Scope {
        self.entries.extend(other.entries);
        self
    }

    /// Resolve a column reference. Bare names must be unambiguous.
    fn resolve(&self, c: &ColumnRef) -> Result<&Origin> {
        let mut found: Option<&Origin> = None;
        for e in &self.entries {
            if let Some(q) = &c.qualifier {
                if &e.qualifier != q {
                    continue;
                }
            }
            for (name, origin) in &e.columns {
                if name == &c.name {
                    if found.is_some() {
                        return Err(FlexError::UnknownColumn(format!("{c} is ambiguous")));
                    }
                    found = Some(origin);
                }
            }
        }
        found.ok_or_else(|| FlexError::UnknownColumn(c.to_string()))
    }
}

struct Lowerer<'a> {
    db: &'a Database,
    next_occurrence: usize,
}

impl<'a> Lowerer<'a> {
    fn lower_root(&mut self, q: &Query) -> Result<Lowered> {
        let select = match &q.body {
            SetExpr::Select(s) => s.as_ref(),
            SetExpr::SetOp { .. } => return Err(FlexError::UnsupportedSetOperation),
        };

        if select_is_aggregated(select) {
            return self.lower_root_select(select);
        }

        // §3.3: a bare projection over an aggregating subquery — treat the
        // inner relation as the query root (`π_count Count(trips)`).
        if let Some(TableRef::Derived { query, .. }) = &select.from {
            if select.selection.is_none() && projection_is_passthrough(&select.projection) {
                return self.lower_root(query);
            }
        }
        Err(FlexError::RawDataQuery)
    }

    /// Lower the aggregated root select.
    fn lower_root_select(&mut self, s: &Select) -> Result<Lowered> {
        let from = s.from.as_ref().ok_or(FlexError::RawDataQuery)?;
        let where_conjuncts: Vec<&Expr> = s
            .selection
            .as_ref()
            .map(|w| w.conjuncts())
            .unwrap_or_default();
        check_predicates_supported(&where_conjuncts)?;

        let (mut rel, scope) = self.lower_table_ref(from, &where_conjuncts)?;
        if s.selection.is_some() {
            rel = Rel::Select(Box::new(rel));
        }

        // GROUP BY keys.
        let mut group_by = Vec::with_capacity(s.group_by.len());
        for g in &s.group_by {
            let (base, public) = match g {
                Expr::Column(c) => match scope.resolve(c)? {
                    Origin::Base(a) => {
                        let public = self.db.is_public(&a.table);
                        (Some(a.clone()), public)
                    }
                    Origin::Computed => (None, false),
                },
                _ => (None, false),
            };
            group_by.push(GroupKey {
                expr: g.clone(),
                base,
                public,
            });
        }
        let kind = if group_by.is_empty() {
            QueryKind::Count
        } else {
            QueryKind::Histogram
        };

        // Classify each projected output.
        let mut aggregates = Vec::new();
        let mut outputs = Vec::with_capacity(s.projection.len());
        for item in &s.projection {
            let expr = match item {
                SelectItem::Expr { expr, .. } => expr,
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                    return Err(FlexError::RawDataQuery)
                }
            };
            if let Some(agg) = self.classify_aggregate(expr, &scope)? {
                aggregates.push(agg);
                outputs.push(OutputColumn::Aggregate(aggregates.len() - 1));
                continue;
            }
            // Must be a group-by expression (a bin label).
            match group_by.iter().position(|g| &g.expr == expr) {
                Some(i) => outputs.push(OutputColumn::Label(i)),
                None => {
                    // A bare column matching a single-column group key by
                    // name (qualification differences).
                    if let (Expr::Column(c), true) = (expr, !group_by.is_empty()) {
                        if let Some(i) = group_by
                            .iter()
                            .position(|g| matches!(&g.expr, Expr::Column(gc) if gc.name == c.name))
                        {
                            outputs.push(OutputColumn::Label(i));
                            continue;
                        }
                    }
                    if expr.contains_aggregate() {
                        return Err(FlexError::UnsupportedAggregate(
                            "arithmetic over aggregation results".to_string(),
                        ));
                    }
                    return Err(FlexError::RawDataQuery);
                }
            }
        }
        if aggregates.is_empty() {
            return Err(FlexError::RawDataQuery);
        }

        Ok(Lowered {
            rel,
            kind,
            group_by,
            aggregates,
            outputs,
        })
    }

    /// If `expr` is a supported root aggregate call, classify it.
    fn classify_aggregate(&mut self, expr: &Expr, scope: &Scope) -> Result<Option<RootAgg>> {
        let Expr::Function {
            name,
            distinct,
            args,
        } = expr
        else {
            return Ok(None);
        };
        let resolve_col_arg = |scope: &Scope| -> Result<Attr> {
            match args.first() {
                Some(FunctionArg::Expr(Expr::Column(c))) => match scope.resolve(c)? {
                    Origin::Base(a) => Ok(a.clone()),
                    Origin::Computed => Err(FlexError::UnsupportedAggregate(format!(
                        "{name} over a computed column (no value-range metric)"
                    ))),
                },
                _ => Err(FlexError::UnsupportedAggregate(format!(
                    "{name} requires a plain column argument"
                ))),
            }
        };
        match name.as_str() {
            "count" if *distinct => Ok(Some(RootAgg::CountDistinct)),
            "count" => Ok(Some(RootAgg::Count)),
            "sum" => Ok(Some(RootAgg::Sum(resolve_col_arg(scope)?))),
            "avg" | "mean" => Ok(Some(RootAgg::Avg(resolve_col_arg(scope)?))),
            "min" => Ok(Some(RootAgg::Min(resolve_col_arg(scope)?))),
            "max" => Ok(Some(RootAgg::Max(resolve_col_arg(scope)?))),
            "median" | "stddev" | "stddev_samp" => {
                Err(FlexError::UnsupportedAggregate(name.clone()))
            }
            _ => Ok(None),
        }
    }

    // ---- relations -------------------------------------------------------

    /// Lower a FROM-clause relation. `where_conjuncts` lets implicit
    /// (comma/cross) joins recover their equijoin condition from the WHERE
    /// clause.
    fn lower_table_ref(&mut self, t: &TableRef, where_conjuncts: &[&Expr]) -> Result<(Rel, Scope)> {
        match t {
            TableRef::Table { name, alias } => {
                let qualifier = alias.clone().unwrap_or_else(|| name.clone());
                let table = self
                    .db
                    .table(name)
                    .ok_or_else(|| FlexError::UnknownTable(name.clone()))?;
                let occurrence = self.next_occurrence;
                self.next_occurrence += 1;
                let public = self.db.is_public(name);
                let columns = table
                    .schema
                    .columns
                    .iter()
                    .map(|c| {
                        (
                            c.name.clone(),
                            Origin::Base(Attr {
                                occurrence,
                                table: name.clone(),
                                column: c.name.clone(),
                            }),
                        )
                    })
                    .collect();
                Ok((
                    Rel::Table {
                        name: name.clone(),
                        occurrence,
                        public,
                    },
                    Scope {
                        entries: vec![ScopeEntry { qualifier, columns }],
                    },
                ))
            }
            TableRef::Derived { query, alias } => self.lower_derived(query, alias),
            TableRef::Join {
                left,
                right,
                join_type,
                constraint,
            } => {
                let (lrel, lscope) = self.lower_table_ref(left, where_conjuncts)?;
                let (rrel, rscope) = self.lower_table_ref(right, where_conjuncts)?;
                let scope = lscope.merge(rscope.clone());
                let lres = Scope {
                    entries: scope.entries[..scope.entries.len() - rscope.entries.len()].to_vec(),
                };

                let lo = lrel.occurrences();
                let ro = rrel.occurrences();
                let _ = &lres;

                // Gather candidate equality conjuncts: from ON, from USING,
                // and — for cross joins — from the WHERE clause.
                let mut candidates: Vec<(ColumnRef, ColumnRef)> = Vec::new();
                match constraint {
                    JoinConstraint::On(on) => {
                        for conjunct in on.conjuncts() {
                            if let Some((a, b)) = conjunct.as_column_equality() {
                                candidates.push((a.clone(), b.clone()));
                            }
                        }
                    }
                    JoinConstraint::Using(cols) => {
                        for name in cols {
                            candidates.push((
                                ColumnRef::bare(name.clone()),
                                ColumnRef::bare(name.clone()),
                            ));
                        }
                    }
                    JoinConstraint::None => {}
                }
                if matches!(join_type, JoinType::Cross) || candidates.is_empty() {
                    for conjunct in where_conjuncts {
                        if let Some((a, b)) = conjunct.as_column_equality() {
                            candidates.push((a.clone(), b.clone()));
                        }
                    }
                }

                // Pick the first candidate whose two sides resolve to base
                // attributes on opposite sides of this join.
                let mut saw_computed = false;
                let mut key: Option<(Attr, Attr)> = None;
                for (a, b) in &candidates {
                    let (oa, ob) = match (scope.resolve(a), scope.resolve(b)) {
                        (Ok(x), Ok(y)) => (x.clone(), y.clone()),
                        _ => continue,
                    };
                    match (oa, ob) {
                        (Origin::Base(attr_a), Origin::Base(attr_b)) => {
                            if lo.contains(&attr_a.occurrence) && ro.contains(&attr_b.occurrence) {
                                key = Some((attr_a, attr_b));
                                break;
                            }
                            if lo.contains(&attr_b.occurrence) && ro.contains(&attr_a.occurrence) {
                                key = Some((attr_b, attr_a));
                                break;
                            }
                        }
                        _ => saw_computed = true,
                    }
                }

                let (left_key, right_key) = match key {
                    Some(k) => k,
                    None if saw_computed => {
                        return Err(FlexError::JoinKeyNotFromBaseTable(
                            "join key is an aggregation or computed output".to_string(),
                        ))
                    }
                    None => {
                        return Err(FlexError::NonEquijoin(format!(
                            "{join_type:?} join has no usable equijoin conjunct"
                        )))
                    }
                };

                Ok((
                    Rel::Join {
                        left: Box::new(lrel),
                        right: Box::new(rrel),
                        left_key,
                        right_key,
                    },
                    scope,
                ))
            }
        }
    }

    /// Lower a derived table used as a relation.
    fn lower_derived(&mut self, q: &Query, alias: &str) -> Result<(Rel, Scope)> {
        let select = match &q.body {
            SetExpr::Select(s) => s.as_ref(),
            SetExpr::SetOp { .. } => return Err(FlexError::UnsupportedSetOperation),
        };
        let from = match &select.from {
            Some(f) => f,
            // A table-less derived select (`SELECT 1 AS x`) contributes no
            // protected rows; model it as a public constant relation.
            None => {
                let columns = select
                    .projection
                    .iter()
                    .map(|item| match item {
                        SelectItem::Expr { expr, alias } => {
                            (expr.output_name(alias.as_deref()), Origin::Computed)
                        }
                        _ => ("*".to_string(), Origin::Computed),
                    })
                    .collect();
                let occurrence = self.next_occurrence;
                self.next_occurrence += 1;
                return Ok((
                    Rel::Table {
                        name: "<constant>".to_string(),
                        occurrence,
                        public: true,
                    },
                    Scope {
                        entries: vec![ScopeEntry {
                            qualifier: alias.to_string(),
                            columns,
                        }],
                    },
                ));
            }
        };

        let where_conjuncts: Vec<&Expr> = select
            .selection
            .as_ref()
            .map(|w| w.conjuncts())
            .unwrap_or_default();
        check_predicates_supported(&where_conjuncts)?;
        let (mut rel, inner_scope) = self.lower_table_ref(from, &where_conjuncts)?;
        if select.selection.is_some() {
            rel = Rel::Select(Box::new(rel));
        }

        if select_is_aggregated(select) {
            // An aggregation below the root: stability 1, outputs carry no
            // metrics (Figure 1b/1c, the Count(r) cases).
            let columns = select
                .projection
                .iter()
                .map(|item| match item {
                    SelectItem::Expr { expr, alias } => {
                        (expr.output_name(alias.as_deref()), Origin::Computed)
                    }
                    _ => ("*".to_string(), Origin::Computed),
                })
                .collect();
            return Ok((
                Rel::Count(Box::new(rel)),
                Scope {
                    entries: vec![ScopeEntry {
                        qualifier: alias.to_string(),
                        columns,
                    }],
                },
            ));
        }

        // Plain projection: outputs keep the provenance of the columns
        // they pass through.
        let mut columns = Vec::new();
        for item in &select.projection {
            match item {
                SelectItem::Wildcard => {
                    for e in &inner_scope.entries {
                        columns.extend(e.columns.iter().cloned());
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let entry = inner_scope
                        .entries
                        .iter()
                        .find(|e| &e.qualifier == q)
                        .ok_or_else(|| FlexError::UnknownTable(q.clone()))?;
                    columns.extend(entry.columns.iter().cloned());
                }
                SelectItem::Expr { expr, alias } => {
                    let origin = match expr {
                        Expr::Column(c) => inner_scope.resolve(c)?.clone(),
                        _ => Origin::Computed,
                    };
                    columns.push((expr.output_name(alias.as_deref()), origin));
                }
            }
        }
        Ok((
            Rel::Project(Box::new(rel)),
            Scope {
                entries: vec![ScopeEntry {
                    qualifier: alias.to_string(),
                    columns,
                }],
            },
        ))
    }
}

/// Reject WHERE predicates containing subqueries (conservative, §3.7.1).
fn check_predicates_supported(conjuncts: &[&Expr]) -> Result<()> {
    for c in conjuncts {
        let mut bad = false;
        flex_sql::visitor::walk_expr(c, &mut |e| {
            if matches!(e, Expr::Exists(_) | Expr::InSubquery { .. }) {
                bad = true;
            }
        });
        if bad {
            return Err(FlexError::UnsupportedSubqueryPredicate);
        }
    }
    Ok(())
}

/// Does this select aggregate (GROUP BY or aggregate calls in projection)?
fn select_is_aggregated(s: &Select) -> bool {
    !s.group_by.is_empty()
        || s.projection.iter().any(|item| match item {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        })
}

/// Is the projection a plain pass-through (columns and wildcards only)?
fn projection_is_passthrough(items: &[SelectItem]) -> bool {
    items.iter().all(|item| {
        matches!(
            item,
            SelectItem::Wildcard
                | SelectItem::QualifiedWildcard(_)
                | SelectItem::Expr {
                    expr: Expr::Column(_),
                    ..
                }
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_db::{DataType, Schema};
    use flex_sql::parse_query;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "trips",
            Schema::of(&[
                ("id", DataType::Int),
                ("driver_id", DataType::Int),
                ("city_id", DataType::Int),
                ("fare", DataType::Float),
            ]),
        )
        .unwrap();
        db.create_table(
            "drivers",
            Schema::of(&[("id", DataType::Int), ("city_id", DataType::Int)]),
        )
        .unwrap();
        db.create_table(
            "cities",
            Schema::of(&[("id", DataType::Int), ("name", DataType::Str)]),
        )
        .unwrap();
        db.create_table(
            "edges",
            Schema::of(&[("source", DataType::Int), ("dest", DataType::Int)]),
        )
        .unwrap();
        db.mark_public("cities");
        db
    }

    fn lower_sql(sql: &str) -> Result<Lowered> {
        let db = db();
        lower(&parse_query(sql).unwrap(), &db)
    }

    #[test]
    fn lowers_simple_count() {
        let l = lower_sql("SELECT COUNT(*) FROM trips").unwrap();
        assert_eq!(l.kind, QueryKind::Count);
        assert!(matches!(l.rel, Rel::Table { .. }));
        assert_eq!(l.aggregates, vec![RootAgg::Count]);
    }

    #[test]
    fn where_becomes_selection() {
        let l = lower_sql("SELECT COUNT(*) FROM trips WHERE fare > 10").unwrap();
        assert!(matches!(l.rel, Rel::Select(_)));
    }

    #[test]
    fn histogram_kind_with_labels() {
        let l = lower_sql("SELECT city_id, COUNT(*) FROM trips GROUP BY city_id").unwrap();
        assert_eq!(l.kind, QueryKind::Histogram);
        assert_eq!(l.outputs.len(), 2);
        assert!(matches!(l.outputs[0], OutputColumn::Label(0)));
        assert!(matches!(l.outputs[1], OutputColumn::Aggregate(0)));
        // trips is private, so the label is not enumerable.
        assert!(!l.group_by[0].public);
        assert!(l.group_by[0].base.is_some());
    }

    #[test]
    fn public_group_key_detected() {
        let l = lower_sql(
            "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id \
             GROUP BY c.name",
        )
        .unwrap();
        assert!(l.group_by[0].public);
    }

    #[test]
    fn join_keys_resolved_to_base_attrs() {
        let l =
            lower_sql("SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id").unwrap();
        let Rel::Join {
            left_key,
            right_key,
            ..
        } = &l.rel
        else {
            panic!("expected join, got {:?}", l.rel);
        };
        assert_eq!(left_key.table, "trips");
        assert_eq!(left_key.column, "driver_id");
        assert_eq!(right_key.table, "drivers");
        assert_eq!(right_key.column, "id");
    }

    #[test]
    fn reversed_equality_still_resolves() {
        let l =
            lower_sql("SELECT COUNT(*) FROM trips t JOIN drivers d ON d.id = t.driver_id").unwrap();
        let Rel::Join { left_key, .. } = &l.rel else {
            panic!("expected join");
        };
        assert_eq!(left_key.table, "trips");
    }

    #[test]
    fn self_join_gets_distinct_occurrences() {
        let l = lower_sql("SELECT COUNT(*) FROM edges e1 JOIN edges e2 ON e1.dest = e2.source")
            .unwrap();
        let Rel::Join { left, right, .. } = &l.rel else {
            panic!("expected join");
        };
        assert_ne!(left.occurrences(), right.occurrences());
        assert_eq!(left.ancestors().intersection(&right.ancestors()).count(), 1);
    }

    #[test]
    fn comma_join_recovers_key_from_where() {
        let l =
            lower_sql("SELECT COUNT(*) FROM trips t, drivers d WHERE t.driver_id = d.id").unwrap();
        assert!(matches!(l.rel, Rel::Select(_)));
    }

    #[test]
    fn non_equijoin_rejected() {
        let err =
            lower_sql("SELECT COUNT(*) FROM trips a JOIN trips b ON a.fare > b.fare").unwrap_err();
        assert!(matches!(err, FlexError::NonEquijoin(_)));
    }

    #[test]
    fn compound_condition_uses_equijoin_term() {
        let l = lower_sql(
            "SELECT COUNT(*) FROM trips a JOIN trips b \
             ON a.driver_id = b.driver_id AND a.fare > b.fare",
        )
        .unwrap();
        assert!(matches!(l.rel, Rel::Join { .. }));
    }

    #[test]
    fn aggregated_subquery_join_key_rejected() {
        // The paper's §3.7.1 example: counts used as join keys.
        let err = lower_sql(
            "WITH a AS (SELECT count(*) AS count FROM trips), \
                  b AS (SELECT count(*) AS count FROM drivers) \
             SELECT count(*) FROM a JOIN b ON a.count = b.count",
        )
        .unwrap_err();
        assert!(matches!(err, FlexError::JoinKeyNotFromBaseTable(_)));
    }

    #[test]
    fn raw_data_query_rejected() {
        assert!(matches!(
            lower_sql("SELECT id, fare FROM trips"),
            Err(FlexError::RawDataQuery)
        ));
    }

    #[test]
    fn set_operation_rejected() {
        assert!(matches!(
            lower_sql("SELECT count(*) FROM trips UNION SELECT count(*) FROM drivers"),
            Err(FlexError::UnsupportedSetOperation)
        ));
    }

    #[test]
    fn projection_over_count_descends_to_inner_root() {
        // π_count Count(trips) — supported per §3.3.
        let l = lower_sql("SELECT n FROM (SELECT count(*) AS n FROM trips) x").unwrap();
        assert_eq!(l.kind, QueryKind::Count);
        assert!(matches!(l.rel, Rel::Table { .. }));
    }

    #[test]
    fn cte_reference_descends_to_inner_root() {
        let l = lower_sql("WITH c AS (SELECT count(*) AS n FROM trips) SELECT n FROM c").unwrap();
        assert_eq!(l.kind, QueryKind::Count);
    }

    #[test]
    fn derived_table_projection_is_transparent() {
        let l = lower_sql(
            "SELECT count(*) FROM \
             (SELECT driver_id FROM trips WHERE fare > 5) t \
             JOIN drivers d ON t.driver_id = d.id",
        )
        .unwrap();
        let Rel::Join { left_key, .. } = &l.rel else {
            panic!("expected join, got {:?}", l.rel);
        };
        assert_eq!(left_key.table, "trips");
        assert_eq!(left_key.column, "driver_id");
    }

    #[test]
    fn sum_resolves_value_range_column() {
        let l = lower_sql("SELECT SUM(fare) FROM trips").unwrap();
        match &l.aggregates[0] {
            RootAgg::Sum(attr) => {
                assert_eq!(attr.table, "trips");
                assert_eq!(attr.column, "fare");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn median_rejected() {
        assert!(matches!(
            lower_sql("SELECT MEDIAN(fare) FROM trips"),
            Err(FlexError::UnsupportedAggregate(_))
        ));
    }

    #[test]
    fn subquery_predicate_rejected() {
        assert!(matches!(
            lower_sql("SELECT count(*) FROM trips WHERE driver_id IN (SELECT id FROM drivers)"),
            Err(FlexError::UnsupportedSubqueryPredicate)
        ));
    }

    #[test]
    fn unknown_table_rejected() {
        assert!(matches!(
            lower_sql("SELECT count(*) FROM nonexistent"),
            Err(FlexError::UnknownTable(_))
        ));
    }

    #[test]
    fn count_distinct_supported() {
        let l = lower_sql("SELECT COUNT(DISTINCT driver_id) FROM trips").unwrap();
        assert_eq!(l.aggregates, vec![RootAgg::CountDistinct]);
    }
}
