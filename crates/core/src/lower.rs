//! Lowering SQL queries to the core relational algebra of Figure 1(a).
//!
//! The pass first expands `WITH` ([`flex_sql::inline_ctes`] — the same
//! rewrite the engines run), then walks the FROM tree the way the
//! executor's planner does: it builds the executor's scope for every
//! subtree and resolves every name through [`flex_db::bind`] — there is
//! no resolver here. What the analysis adds rides beside the scope, index
//! for index: the base-table column each position is drawn from
//! ([`Attr`], with a unique occurrence id per base-table appearance so
//! self joins — two references to one CTE included — are detectable), or
//! `None` for a computed column, which has no `mf`. Join keys are the
//! executor's equi-keys traced through that vector.
//!
//! It then finds the root counting aggregation — descending through bare
//! projections per §3.3 ("treating the inner relation as the query root"),
//! which may only permute and rename the root's columns — classifies each
//! output column as a histogram label or an aggregate, and records the
//! header the executor will produce ([`Lowered::columns`]).
//!
//! Queries outside the supported fragment are rejected with the §3.7.1 /
//! §5.1 error taxonomy ([`FlexError`]).

use crate::error::{FlexError, Result};
use crate::relalg::{Attr, QueryKind, Rel};
use flex_db::bind::{self, ColMeta, Projected};
use flex_db::{AggFunc, Database, DbError};
use flex_sql::{ColumnRef, Expr, FunctionArg, JoinType, Query, Select, SetExpr, TableRef};

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
    /// One entry per output column of the query.
    pub outputs: Vec<OutputColumn>,
    /// The header the executor gives the result, index for index with
    /// `outputs` (the mechanism refuses to release under any other).
    pub columns: Vec<String>,
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

/// A lowered FROM subtree: its relation, the executor's scope over it,
/// and — index for index — the base-table column each scope column is
/// drawn from (`None`: an aggregate, arithmetic, a literal … — no `mf`).
struct Bound {
    rel: Rel,
    cols: Vec<ColMeta>,
    origin: Vec<Option<Attr>>,
}

impl Bound {
    /// Scope position of a column reference.
    fn position(&self, c: &ColumnRef) -> Result<usize> {
        bind::resolve_column(&self.cols, c).map_err(bind_err)
    }
}

/// A binding error in the analysis's taxonomy.
fn bind_err(e: DbError) -> FlexError {
    match e {
        DbError::UnknownColumn(c) => FlexError::UnknownColumn(c),
        DbError::AmbiguousColumn(c) => FlexError::UnknownColumn(format!("{c} is ambiguous")),
        DbError::UnknownTable(t) => FlexError::UnknownTable(t),
        other => other.into(),
    }
}

struct Lowerer<'a> {
    db: &'a Database,
    next_occurrence: usize,
}

impl<'a> Lowerer<'a> {
    fn occurrence(&mut self) -> usize {
        self.next_occurrence += 1;
        self.next_occurrence - 1
    }

    fn lower_root(&mut self, q: &Query) -> Result<Lowered> {
        let select = match &q.body {
            SetExpr::Select(s) => s.as_ref(),
            SetExpr::SetOp { .. } => return Err(FlexError::UnsupportedSetOperation),
        };

        if bind::is_aggregated(select) {
            return self.lower_root_select(select);
        }

        // §3.3: a bare projection over an aggregating subquery — treat the
        // inner relation as the query root (`π_count Count(trips)`).
        match &select.from {
            Some(TableRef::Derived { query, alias }) if select.selection.is_none() => {
                let inner = self.lower_root(query)?;
                permute_outputs(inner, alias, select)
            }
            _ => Err(FlexError::RawDataQuery),
        }
    }

    /// Lower a block's FROM and WHERE, `σ(from)`; `None` without a FROM.
    fn lower_source(&mut self, s: &Select) -> Result<Option<Bound>> {
        let where_conjuncts: Vec<&Expr> = s
            .selection
            .as_ref()
            .map(|w| w.conjuncts())
            .unwrap_or_default();
        check_predicates_supported(&where_conjuncts)?;
        let Some(from) = &s.from else {
            return Ok(None);
        };
        let mut from = self.lower_table_ref(from, &where_conjuncts)?;
        if s.selection.is_some() {
            from.rel = Rel::Select(Box::new(from.rel));
        }
        Ok(Some(from))
    }

    /// Lower the aggregated root select.
    fn lower_root_select(&mut self, s: &Select) -> Result<Lowered> {
        let from = self.lower_source(s)?.ok_or(FlexError::RawDataQuery)?;

        // GROUP BY keys, and the scope position of each plain-column one.
        let mut group_by = Vec::with_capacity(s.group_by.len());
        let mut key_cols = Vec::with_capacity(s.group_by.len());
        for g in &s.group_by {
            let col = match g {
                Expr::Column(c) => Some(from.position(c)?),
                _ => None,
            };
            let base = col.and_then(|i| from.origin[i].clone());
            // A public table's labels are non-protected and enumerable.
            let public = base.as_ref().is_some_and(|a| self.db.is_public(&a.table));
            group_by.push(GroupKey {
                expr: g.clone(),
                base,
                public,
            });
            key_cols.push(col);
        }
        let kind = if group_by.is_empty() {
            QueryKind::Count
        } else {
            QueryKind::Histogram
        };

        // Classify each projected output.
        let mut aggregates = Vec::new();
        let mut outputs = Vec::with_capacity(s.projection.len());
        let mut columns = Vec::with_capacity(s.projection.len());
        for out in bind::project_scope(&from.cols, &s.projection) {
            // A wildcard, resolvable or not, releases raw columns.
            let Ok((meta, Projected::Expr(expr))) = out else {
                return Err(FlexError::RawDataQuery);
            };
            columns.push(meta.name);
            if let Some(agg) = classify_aggregate(expr, &from)? {
                aggregates.push(agg);
                outputs.push(OutputColumn::Aggregate(aggregates.len() - 1));
                continue;
            }
            // Must be a group-by expression (a bin label); a column is the
            // same key under any spelling (`t.city_id` for `city_id`).
            let label = match expr {
                Expr::Column(c) => {
                    let col = Some(from.position(c)?);
                    key_cols.iter().position(|k| *k == col)
                }
                _ => group_by.iter().position(|g| &g.expr == expr),
            };
            match label {
                Some(i) => outputs.push(OutputColumn::Label(i)),
                None if expr.contains_aggregate() => {
                    return Err(FlexError::UnsupportedAggregate(
                        "arithmetic over aggregation results".to_string(),
                    ))
                }
                None => return Err(FlexError::RawDataQuery),
            }
        }
        if aggregates.is_empty() {
            return Err(FlexError::RawDataQuery);
        }

        Ok(Lowered {
            rel: from.rel,
            kind,
            group_by,
            aggregates,
            outputs,
            columns,
        })
    }

    // ---- relations -------------------------------------------------------

    /// Lower a FROM-clause relation. `where_conjuncts` lets implicit
    /// (comma/cross) joins recover their equijoin condition from the WHERE
    /// clause.
    fn lower_table_ref(&mut self, t: &TableRef, where_conjuncts: &[&Expr]) -> Result<Bound> {
        match t {
            TableRef::Table { name, alias } => {
                let table = self
                    .db
                    .table(name)
                    .ok_or_else(|| FlexError::UnknownTable(name.clone()))?;
                let occurrence = self.occurrence();
                let origin = table
                    .schema
                    .columns
                    .iter()
                    .map(|c| {
                        Some(Attr {
                            occurrence,
                            table: name.clone(),
                            column: c.name.clone(),
                        })
                    })
                    .collect();
                Ok(Bound {
                    rel: Rel::Table {
                        name: name.clone(),
                        occurrence,
                        public: self.db.is_public(name),
                    },
                    cols: table.col_metas(alias.as_deref().unwrap_or(name)),
                    origin,
                })
            }
            TableRef::Derived { query, alias } => self.lower_derived(query, alias),
            TableRef::Join {
                left,
                right,
                join_type,
                constraint,
            } => {
                let mut l = self.lower_table_ref(left, where_conjuncts)?;
                let r = self.lower_table_ref(right, where_conjuncts)?;

                // The executor's equi-keys, resolved per side; a comma or
                // CROSS join — or a constraint that yields none — recovers
                // them from the WHERE equalities the same way.
                let (mut keys, _) =
                    bind::split_join_constraint(&l.cols, &r.cols, constraint).map_err(bind_err)?;
                if matches!(join_type, JoinType::Cross) || keys.is_empty() {
                    keys.extend(
                        where_conjuncts
                            .iter()
                            .filter_map(|c| bind::equi_key(&l.cols, &r.cols, c)),
                    );
                }

                // The first key drawn from a base table on both sides.
                let key = keys
                    .iter()
                    .find_map(|&(lk, rk)| l.origin[lk].clone().zip(r.origin[rk].clone()));
                let (left_key, right_key) = match key {
                    Some(k) => k,
                    None if !keys.is_empty() => {
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

                l.cols.extend(r.cols);
                l.origin.extend(r.origin);
                Ok(Bound {
                    rel: Rel::Join {
                        left: Box::new(l.rel),
                        right: Box::new(r.rel),
                        left_key,
                        right_key,
                    },
                    cols: l.cols,
                    origin: l.origin,
                })
            }
        }
    }

    /// Lower a derived table used as a relation.
    fn lower_derived(&mut self, q: &Query, alias: &str) -> Result<Bound> {
        let select = match &q.body {
            SetExpr::Select(s) => s.as_ref(),
            SetExpr::SetOp { .. } => return Err(FlexError::UnsupportedSetOperation),
        };
        let inner = match self.lower_source(select)? {
            Some(from) => from,
            // A table-less derived select (`SELECT 1 AS x`) contributes no
            // protected rows; model it as a public constant relation.
            None => Bound {
                rel: Rel::Table {
                    name: "<constant>".to_string(),
                    occurrence: self.occurrence(),
                    public: true,
                },
                cols: Vec::new(),
                origin: Vec::new(),
            },
        };

        // An aggregation below the root has stability 1 and its outputs
        // carry no metrics (Figure 1b/1c, the Count(r) cases); a plain
        // projection's keep the provenance of the columns they pass through.
        let aggregated = bind::is_aggregated(select);
        let mut header = Vec::new();
        let mut origin = Vec::new();
        for out in bind::project_scope(&inner.cols, &select.projection) {
            let (meta, source) = out.map_err(bind_err)?;
            origin.push(if aggregated {
                None
            } else {
                let passed = source.input(&inner.cols).map_err(bind_err)?;
                passed.and_then(|i| inner.origin[i].clone())
            });
            header.push(meta.name);
        }
        let rel = Box::new(inner.rel);
        Ok(Bound {
            rel: if aggregated {
                Rel::Count(rel)
            } else {
                Rel::Project(rel)
            },
            cols: bind::derived_scope(alias, header),
            origin,
        })
    }
}

/// A bare projection over the root (§3.3) as a relabelling of the root's
/// outputs: it must pass every inner column through exactly once — so
/// each statistic is noised once for its one charge, no histogram loses
/// the labels its bins are keyed by, and the classification follows the
/// column it was computed for.
fn permute_outputs(inner: Lowered, alias: &str, outer: &Select) -> Result<Lowered> {
    if outer.distinct {
        return Err(FlexError::UnsupportedProjection(
            "DISTINCT is applied to its rows".to_string(),
        ));
    }
    let scope = bind::derived_scope(alias, inner.columns.iter().cloned());
    let mut passed = vec![false; scope.len()];
    let mut outputs = Vec::with_capacity(scope.len());
    let mut columns = Vec::with_capacity(scope.len());
    for out in bind::project_scope(&scope, &outer.projection) {
        let (meta, source) = out.map_err(bind_err)?;
        let i = source
            .input(&scope)
            .map_err(bind_err)?
            .ok_or(FlexError::RawDataQuery)?;
        if std::mem::replace(&mut passed[i], true) {
            return Err(FlexError::UnsupportedProjection(format!(
                "column `{}` is selected twice",
                scope[i].name
            )));
        }
        outputs.push(inner.outputs[i].clone());
        columns.push(meta.name);
    }
    if let Some(i) = passed.iter().position(|p| !p) {
        return Err(FlexError::UnsupportedProjection(format!(
            "column `{}` is dropped",
            scope[i].name
        )));
    }
    Ok(Lowered {
        outputs,
        columns,
        ..inner
    })
}

/// If `expr` is a supported root aggregate call, classify it — as the
/// function the engine will fold ([`AggFunc::parse`], which reads the one
/// table of aggregate names), never by its spelling.
fn classify_aggregate(expr: &Expr, from: &Bound) -> Result<Option<RootAgg>> {
    let Expr::Function {
        name,
        distinct,
        args,
    } = expr
    else {
        return Ok(None);
    };
    let col_arg = || -> Result<Attr> {
        match args.first() {
            Some(FunctionArg::Expr(Expr::Column(c))) => {
                from.origin[from.position(c)?].clone().ok_or_else(|| {
                    FlexError::UnsupportedAggregate(format!(
                        "{name} over a computed column (no value-range metric)"
                    ))
                })
            }
            _ => Err(FlexError::UnsupportedAggregate(format!(
                "{name} requires a plain column argument"
            ))),
        }
    };
    let wildcard = matches!(args.first(), Some(FunctionArg::Wildcard));
    let Some(func) = AggFunc::parse(name, *distinct, wildcard) else {
        return Ok(None);
    };
    Ok(Some(match func {
        AggFunc::CountStar | AggFunc::Count => RootAgg::Count,
        AggFunc::CountDistinct => RootAgg::CountDistinct,
        AggFunc::Sum => RootAgg::Sum(col_arg()?),
        AggFunc::Avg => RootAgg::Avg(col_arg()?),
        AggFunc::Min => RootAgg::Min(col_arg()?),
        AggFunc::Max => RootAgg::Max(col_arg()?),
        AggFunc::Median | AggFunc::Stddev => {
            return Err(FlexError::UnsupportedAggregate(name.clone()))
        }
    }))
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

    /// The analysis classifies the function the engine folds, so an alias
    /// is its function: no name of the shared table is "not an
    /// aggregate" (which would read as a raw-data query — or, in HAVING,
    /// as no aggregation at all).
    #[test]
    fn aggregate_aliases_classify_as_their_function() {
        let l = lower_sql("SELECT mean(fare) FROM trips").unwrap();
        assert!(matches!(&l.aggregates[0], RootAgg::Avg(a) if a.column == "fare"));
        assert_eq!(l.columns, ["mean"]);
        assert_eq!(
            lower_sql("SELECT stddev_samp(fare) FROM trips"),
            Err(FlexError::UnsupportedAggregate("stddev_samp".into()))
        );
        let q = parse_query("SELECT 1 FROM trips").unwrap();
        let from = Lowerer {
            db: &db(),
            next_occurrence: 0,
        }
        .lower_source(q.as_select().unwrap())
        .unwrap()
        .unwrap();
        for (name, _) in flex_sql::AGGREGATE_FUNCTIONS {
            let call = parse_query(&format!("SELECT {name}(fare) FROM trips")).unwrap();
            let flex_sql::SelectItem::Expr { expr, .. } = &call.as_select().unwrap().projection[0]
            else {
                panic!("an expression item");
            };
            assert!(expr.contains_aggregate(), "{name}");
            assert_ne!(classify_aggregate(expr, &from), Ok(None), "{name}");
        }
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

    #[test]
    fn using_join_lowers_like_its_on_spelling() {
        let db = db();
        let analyze = |sql: &str| crate::analysis::analyze(&parse_query(sql).unwrap(), &db);
        let using = analyze("SELECT COUNT(*) FROM trips t JOIN drivers d USING (city_id)").unwrap();
        let on = analyze("SELECT COUNT(*) FROM trips t JOIN drivers d ON t.city_id = d.city_id")
            .unwrap();
        let Rel::Join {
            left_key,
            right_key,
            ..
        } = &using.lowered.rel
        else {
            panic!("expected join, got {:?}", using.lowered.rel);
        };
        assert_eq!(
            (left_key.table.as_str(), left_key.column.as_str()),
            ("trips", "city_id")
        );
        assert_eq!(
            (right_key.table.as_str(), right_key.column.as_str()),
            ("drivers", "city_id")
        );
        assert_eq!(using.lowered, on.lowered);
        assert_eq!(using.outputs, on.outputs);
        // A USING column one side lacks is the executor's error.
        assert_eq!(
            lower_sql("SELECT COUNT(*) FROM trips t JOIN cities c USING (city_id)"),
            Err(FlexError::UnknownColumn("city_id".into()))
        );
    }

    const HISTOGRAM: &str = "SELECT city_id AS k, COUNT(*) AS n FROM trips GROUP BY city_id";

    #[test]
    fn pass_through_layers_follow_the_column_not_the_position() {
        use OutputColumn::{Aggregate, Label};
        for (sql, columns, outputs) in [
            (
                format!("WITH a AS ({HISTOGRAM}) SELECT n, k FROM a"),
                ["n", "k"],
                [Aggregate(0), Label(0)],
            ),
            (
                format!("SELECT k, n FROM (SELECT n, k FROM ({HISTOGRAM}) a) b"),
                ["k", "n"],
                [Label(0), Aggregate(0)],
            ),
            (
                format!("SELECT x.n AS k, x.k AS n FROM ({HISTOGRAM}) x"),
                ["k", "n"],
                [Aggregate(0), Label(0)],
            ),
            (
                format!("SELECT x.* FROM ({HISTOGRAM}) x"),
                ["k", "n"],
                [Label(0), Aggregate(0)],
            ),
        ] {
            let l = lower_sql(&sql).unwrap();
            assert_eq!(l.columns, columns, "{sql}");
            assert_eq!(l.outputs, outputs, "{sql}");
            assert_eq!(l.kind, QueryKind::Histogram);
        }
    }

    fn rejected_projection(projection: &str) -> String {
        match lower_sql(&format!("SELECT {projection} FROM ({HISTOGRAM}) a")) {
            Err(e @ FlexError::UnsupportedProjection(_)) => e.to_string(),
            other => panic!("{projection}: {other:?}"),
        }
    }

    #[test]
    fn pass_through_repeating_an_aggregate_is_rejected() {
        // Two independent draws on one statistic for one charge.
        assert!(rejected_projection("k, n, n").contains("`n` is selected twice"));
    }

    #[test]
    fn pass_through_dropping_a_group_key_is_rejected() {
        assert!(rejected_projection("n").contains("`k` is dropped"));
    }

    #[test]
    fn pass_through_adding_distinct_is_rejected() {
        assert!(rejected_projection("DISTINCT k, n").contains("DISTINCT"));
    }
}
