//! Lowering SQL queries to the core relational algebra of Figure 1(a).
//!
//! Lowering reads the plan that executes ([`Database::plan`], once per
//! query) through its read-only view ([`flex_db::planned`]); it binds no
//! name and walks no SQL. Each column's origin — a base-table column at
//! one occurrence, so self joins are detectable — is the planner's, and
//! so are each join's keys (for a comma or CROSS join, the WHERE's
//! equalities between its sides). Lowering finds the root counting
//! aggregation — descending through bare projections per §3.3 ("treating
//! the inner relation as the query root"), which may only permute and
//! rename the root's columns — and classifies each output column as a
//! histogram label or an aggregate, in the plan's header order.
//!
//! Queries outside the supported fragment are rejected with the §3.7.1 /
//! §5.1 error taxonomy ([`FlexError`]): a root set operation before it is
//! planned, anything else after its compile errors.

use crate::error::{FlexError, Result};
use crate::relalg::{Attr, QueryKind, Rel};
use flex_db::planned::{BlockView, Output, Source};
use flex_db::{AggFunc, Database, Planned};
use flex_sql::{Query, SetExpr};

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

/// One GROUP BY key of the root query.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupKey {
    /// The base-table column it resolves to, when it is a plain column
    /// (spelled out or by position).
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
    /// One entry per column of the executed header.
    pub outputs: Vec<OutputColumn>,
}

/// Lower a parsed query against a database catalog: plan it, then read
/// the plan (`lower_plan`).
pub fn lower(q: &Query, db: &Database) -> Result<Lowered> {
    lower_plan(&plan(q, db)?, db)
}

/// Plan a query for the analysis. A set operation is outside Figure 1(a)
/// whatever its arms hold, so one at the root is refused unplanned.
pub(crate) fn plan<'a>(q: &Query, db: &'a Database) -> Result<Planned<'a>> {
    if let SetExpr::SetOp { .. } = q.body {
        return Err(FlexError::UnsupportedSetOperation);
    }
    Ok(db.plan(q)?)
}

/// Lower a planned query — the plan that will run.
pub(crate) fn lower_plan(planned: &Planned<'_>, db: &Database) -> Result<Lowered> {
    let root = planned.block().ok_or(FlexError::UnsupportedSetOperation)?;
    // Conservative (§3.7.1): a subquery anywhere — WHERE, ON, GROUP BY,
    // HAVING, a derived table — can leak through what it filters.
    if planned.has_subquery() {
        return Err(FlexError::UnsupportedSubqueryPredicate);
    }
    lower_root(root, db)
}

fn lower_root(block: BlockView<'_>, db: &Database) -> Result<Lowered> {
    if block.aggregates() {
        return lower_root_block(block, db);
    }
    // §3.3: a bare projection over an aggregating subquery — treat the
    // inner relation as the query root (`π_count Count(trips)`).
    match block.from() {
        Source::Derived(inner) if !block.filters() => {
            let inner = inner.ok_or(FlexError::UnsupportedSetOperation)?;
            permute_outputs(lower_root(inner, db)?, inner, block)
        }
        _ => Err(FlexError::RawDataQuery),
    }
}

/// Lower the aggregated root block.
fn lower_root_block(block: BlockView<'_>, db: &Database) -> Result<Lowered> {
    let from = block.from();
    if let Source::NoTable(_) = from {
        return Err(FlexError::RawDataQuery);
    }
    let rel = filtered(block, lower_source(from, db)?);
    // A public table's labels are non-protected and enumerable.
    let group_by: Vec<GroupKey> = (block.group_keys())
        .map(|base| GroupKey {
            public: base.as_ref().is_some_and(|a| db.is_public(&a.table)),
            base,
        })
        .collect();
    let kind = if group_by.is_empty() {
        QueryKind::Count
    } else {
        QueryKind::Histogram
    };

    // A group key passed through is a bin label.
    let mut aggregates = Vec::new();
    let mut outputs = Vec::new();
    for out in block.outputs() {
        outputs.push(match out {
            Output::Key(k) => OutputColumn::Label(k),
            Output::Aggregate(func, arg) => {
                aggregates.push(classify_aggregate(func, arg)?);
                OutputColumn::Aggregate(aggregates.len() - 1)
            }
            Output::OverAggregates => {
                return Err(FlexError::UnsupportedAggregate(
                    "arithmetic over aggregation results".to_string(),
                ))
            }
            Output::Computed | Output::Column(_) => return Err(FlexError::RawDataQuery),
        });
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

/// A block's WHERE over the relation its FROM lowered to: `σ(rel)`.
fn filtered(block: BlockView<'_>, rel: Rel) -> Rel {
    if block.filters() {
        Rel::Select(Box::new(rel))
    } else {
        rel
    }
}

/// Lower one node of a FROM tree.
fn lower_source(source: Source<'_>, db: &Database) -> Result<Rel> {
    Ok(match source {
        Source::Table(name, occurrence) => Rel::Table {
            name: name.to_string(),
            occurrence,
            public: db.is_public(name),
        },
        // An aggregation below the root has stability 1 and its outputs
        // carry no metrics (Figure 1b/1c, the Count(r) cases); a plain
        // projection's keep the origin of the columns they pass through.
        Source::Derived(block) => {
            let block = block.ok_or(FlexError::UnsupportedSetOperation)?;
            let rel = Box::new(filtered(block, lower_source(block.from(), db)?));
            if block.aggregates() {
                Rel::Count(rel)
            } else {
                Rel::Project(rel)
            }
        }
        // A table-less block contributes no protected rows.
        Source::NoTable(occurrence) => Rel::Table {
            name: "<constant>".to_string(),
            occurrence,
            public: true,
        },
        Source::Join(left, right, join_type, keys) => {
            let (left, right) = (lower_source(*left, db)?, lower_source(*right, db)?);
            // The first key drawn from a base table on both sides.
            let keyed = !keys.is_empty();
            let key = keys.into_iter().find_map(|(l, r)| l.zip(r));
            let (left_key, right_key) = key.ok_or_else(|| {
                if keyed {
                    let why = "join key is an aggregation or computed output";
                    FlexError::JoinKeyNotFromBaseTable(why.to_string())
                } else {
                    let why = format!("{join_type:?} join has no usable equijoin conjunct");
                    FlexError::NonEquijoin(why)
                }
            })?;
            Rel::Join {
                left: Box::new(left),
                right: Box::new(right),
                left_key,
                right_key,
            }
        }
    })
}

/// A bare projection over the root (§3.3) as a relabelling of the root's
/// outputs: it must pass every inner column through exactly once — so
/// each statistic is noised once for its one charge, no histogram loses
/// the labels its bins are keyed by, and the classification follows the
/// column it was computed for.
fn permute_outputs(
    inner: Lowered,
    inner_block: BlockView<'_>,
    outer: BlockView<'_>,
) -> Result<Lowered> {
    if outer.distinct() {
        return Err(FlexError::UnsupportedProjection(
            "DISTINCT is applied to its rows".to_string(),
        ));
    }
    let name = |i| inner_block.header().nth(i).unwrap_or_default();
    let mut passed = vec![false; inner.outputs.len()];
    let mut outputs = Vec::with_capacity(passed.len());
    for out in outer.outputs() {
        let Output::Column(i) = out else {
            return Err(FlexError::RawDataQuery);
        };
        if std::mem::replace(&mut passed[i], true) {
            let twice = format!("column `{}` is selected twice", name(i));
            return Err(FlexError::UnsupportedProjection(twice));
        }
        outputs.push(inner.outputs[i].clone());
    }
    if let Some(i) = passed.iter().position(|p| !p) {
        let dropped = format!("column `{}` is dropped", name(i));
        return Err(FlexError::UnsupportedProjection(dropped));
    }
    Ok(Lowered { outputs, ..inner })
}

/// Classify a root aggregate by the function the engine folds — never by
/// its spelling — and its argument's origin.
fn classify_aggregate(func: AggFunc, arg: Option<Attr>) -> Result<RootAgg> {
    let name = || format!("{func:?}").to_lowercase();
    let column = || {
        arg.clone().ok_or_else(|| {
            let why = "over anything but a base-table column (no value-range metric)";
            FlexError::UnsupportedAggregate(format!("{} {why}", name()))
        })
    };
    Ok(match func {
        AggFunc::CountStar | AggFunc::Count => RootAgg::Count,
        AggFunc::CountDistinct => RootAgg::CountDistinct,
        AggFunc::Sum => RootAgg::Sum(column()?),
        AggFunc::Avg => RootAgg::Avg(column()?),
        AggFunc::Min => RootAgg::Min(column()?),
        AggFunc::Max => RootAgg::Max(column()?),
        AggFunc::Median | AggFunc::Stddev => return Err(FlexError::UnsupportedAggregate(name())),
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

    /// HAVING makes a block one group, but a block releasing no aggregate
    /// is still raw data — unless it does not compile, which comes first.
    #[test]
    fn having_without_an_aggregate_is_raw_data() {
        assert_eq!(
            lower_sql("SELECT 1 FROM trips HAVING 1 > 0"),
            Err(FlexError::RawDataQuery)
        );
        assert!(matches!(
            lower_sql("SELECT fare FROM trips HAVING fare > 0"),
            Err(FlexError::Db(e)) if e.contains("`fare` must appear in GROUP BY")
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
        assert_eq!(
            lower_sql("SELECT stddev_samp(fare) FROM trips"),
            Err(FlexError::UnsupportedAggregate("stddev".into()))
        );
        for (name, _) in flex_sql::AGGREGATE_FUNCTIONS {
            match lower_sql(&format!("SELECT {name}(fare) FROM trips")) {
                Ok(_) | Err(FlexError::UnsupportedAggregate(_)) => {}
                other => panic!("{name}: {other:?}"),
            }
        }
    }

    /// `GROUP BY 1` groups by the SELECT item it names, and is analysed
    /// like that key spelled out.
    #[test]
    fn group_by_position_lowers_like_its_spelled_key() {
        let db = db();
        let analyze = |sql: &str| crate::analysis::analyze(&parse_query(sql).unwrap(), &db);
        let spelled = analyze("SELECT city_id, COUNT(*) FROM trips GROUP BY city_id").unwrap();
        let position = analyze("SELECT city_id, COUNT(*) FROM trips GROUP BY 1").unwrap();
        assert_eq!(position.lowered, spelled.lowered);
        assert_eq!(position.outputs, spelled.outputs);
        assert_eq!(position.stability, spelled.stability);
        assert!(matches!(&position.lowered.group_by[0].base, Some(a) if a.column == "city_id"));
    }

    /// A subquery is refused wherever it stands, not only in WHERE.
    #[test]
    fn subquery_predicate_rejected() {
        let exists = "EXISTS (SELECT 1 FROM drivers WHERE city_id > 3)";
        let inside = "IN (SELECT id FROM drivers)";
        for sql in [
            format!("SELECT count(*) FROM trips WHERE driver_id {inside}"),
            format!("SELECT count(*) FROM trips HAVING {exists}"),
            format!("SELECT driver_id {inside}, count(*) FROM trips GROUP BY driver_id {inside}"),
            format!(
                "SELECT count(*) FROM trips t JOIN drivers d ON t.driver_id = d.id AND {exists}"
            ),
            format!("SELECT count(*) FROM (SELECT driver_id {inside} AS x FROM trips) s"),
            format!("SELECT n FROM (SELECT count(*) AS n FROM trips) s ORDER BY {exists}"),
        ] {
            assert_eq!(
                lower_sql(&sql),
                Err(FlexError::UnsupportedSubqueryPredicate),
                "{sql}"
            );
        }
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
            let header = db().execute_sql(&sql).unwrap().columns;
            assert_eq!(header, columns, "{sql}");
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
