//! Empirical query-study analyzer (paper §2).
//!
//! Answers the paper's Questions 2–8 over a corpus of parsed queries:
//! operator frequencies, joins per query, join types/conditions/self-joins,
//! join relationships (via `mf` metrics when a database is supplied),
//! aggregation usage, statistical-vs-raw split, and query sizes.

use flex_db::Database;
use flex_sql::visitor::{clause_count, walk_exprs, walk_joins, walk_selects};
use flex_sql::{
    Aggregate, Expr, FunctionArg, JoinConstraint, JoinType, Query, SelectItem, SetExpr,
    SetOperator, TableRef,
};

/// Queries using each relational operator (Question 2).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OperatorUsage {
    pub select: usize,
    pub join: usize,
    pub union: usize,
    pub minus_except: usize,
    pub intersect: usize,
}

/// Join type breakdown (Question 4, "Join type").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JoinTypes {
    pub inner: usize,
    pub left: usize,
    pub right: usize,
    pub full: usize,
    pub cross: usize,
}

/// Join condition classification (Question 4, "Join condition").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JoinConditions {
    /// A single `col = col` equality.
    pub equijoin: usize,
    /// Conjunctions/disjunctions/function applications.
    pub compound: usize,
    /// `col θ col` with a non-equality comparison.
    pub column_comparison: usize,
    /// `col θ literal`.
    pub literal_comparison: usize,
    /// Anything else (including missing conditions).
    pub other: usize,
}

/// Join relationship classification (Question 4, "Join relationship"),
/// derived from `mf` metrics: a side whose key has `mf = 1` is a "one"
/// side.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JoinRelationships {
    pub one_to_one: usize,
    pub one_to_many: usize,
    pub many_to_many: usize,
    /// Joins whose keys could not be resolved to metrics.
    pub unknown: usize,
}

/// Aggregation function usage (Question 6) — occurrences, not queries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggregationUsage {
    pub count: usize,
    pub sum: usize,
    pub avg: usize,
    pub min: usize,
    pub max: usize,
    pub median: usize,
    pub stddev: usize,
}

impl AggregationUsage {
    pub fn total(&self) -> usize {
        self.count + self.sum + self.avg + self.min + self.max + self.median + self.stddev
    }
}

/// The full study report (paper §2.1, Questions 2–8).
#[derive(Debug, Clone, Default)]
pub struct StudyReport {
    pub total_queries: usize,
    pub operators: OperatorUsage,
    /// Number of joins in each query (Question 3).
    pub joins_per_query: Vec<usize>,
    pub join_types: JoinTypes,
    pub join_conditions: JoinConditions,
    pub join_relationships: JoinRelationships,
    /// Queries containing at least one self join (Question 4).
    pub self_join_queries: usize,
    /// Queries whose joins are all equijoins, among join queries.
    pub exclusively_equijoin_queries: usize,
    /// Queries returning only aggregations (Question 5, "statistical").
    pub statistical_queries: usize,
    pub aggregations: AggregationUsage,
    /// Clause count of each query (Question 7).
    pub query_sizes: Vec<usize>,
}

impl StudyReport {
    /// Fraction of queries using joins.
    pub fn join_fraction(&self) -> f64 {
        if self.total_queries == 0 {
            return 0.0;
        }
        self.operators.join as f64 / self.total_queries as f64
    }

    /// Fraction of queries that are statistical.
    pub fn statistical_fraction(&self) -> f64 {
        if self.total_queries == 0 {
            return 0.0;
        }
        self.statistical_queries as f64 / self.total_queries as f64
    }

    /// Fraction of join conditions that are equijoins.
    pub fn equijoin_fraction(&self) -> f64 {
        let t = self.join_conditions.equijoin
            + self.join_conditions.compound
            + self.join_conditions.column_comparison
            + self.join_conditions.literal_comparison
            + self.join_conditions.other;
        if t == 0 {
            return 0.0;
        }
        self.join_conditions.equijoin as f64 / t as f64
    }
}

/// Analyze a corpus of queries. When `db` is given, join relationships are
/// classified from its max-frequency metrics.
pub fn analyze_corpus(queries: &[Query], db: Option<&Database>) -> StudyReport {
    let mut report = StudyReport {
        total_queries: queries.len(),
        ..StudyReport::default()
    };
    for q in queries {
        analyze_query(q, db, &mut report);
    }
    report
}

fn analyze_query(q: &Query, db: Option<&Database>, report: &mut StudyReport) {
    report.operators.select += 1;
    count_set_ops(&q.body, &mut report.operators);

    // Joins.
    let mut joins = 0usize;
    let mut self_join = false;
    let mut all_equi = true;
    let mut any_join = false;
    walk_joins(q, &mut |j| {
        let TableRef::Join {
            left,
            right,
            join_type,
            constraint,
        } = j
        else {
            return;
        };
        any_join = true;
        joins += 1;
        match join_type {
            JoinType::Inner => report.join_types.inner += 1,
            JoinType::Left => report.join_types.left += 1,
            JoinType::Right => report.join_types.right += 1,
            JoinType::Full => report.join_types.full += 1,
            JoinType::Cross => report.join_types.cross += 1,
        }
        let class = classify_condition(constraint);
        match class {
            ConditionClass::Equijoin => report.join_conditions.equijoin += 1,
            ConditionClass::Compound => report.join_conditions.compound += 1,
            ConditionClass::ColumnComparison => report.join_conditions.column_comparison += 1,
            ConditionClass::LiteralComparison => report.join_conditions.literal_comparison += 1,
            ConditionClass::Other => report.join_conditions.other += 1,
        }
        if !matches!(class, ConditionClass::Equijoin | ConditionClass::Compound) {
            all_equi = false;
        }

        // Self join: same base table on both sides.
        let lt = left.base_tables();
        let rt = right.base_tables();
        if lt.iter().any(|t| rt.contains(t)) {
            self_join = true;
        }

        // Relationship, using mf metrics of the equijoin keys.
        if let Some(db) = db {
            classify_relationship(j, db, &mut report.join_relationships);
        }
    });
    report.joins_per_query.push(joins);
    if self_join {
        report.self_join_queries += 1;
    }
    if any_join {
        report.operators.join += 1;
        if all_equi {
            report.exclusively_equijoin_queries += 1;
        }
    }

    // Aggregations (Question 6) — every call site in the query.
    walk_exprs(q, &mut |e| {
        if let Expr::Function { name, .. } = e {
            let usage = &mut report.aggregations;
            match Aggregate::parse(name) {
                Some(Aggregate::Count) => usage.count += 1,
                Some(Aggregate::Sum) => usage.sum += 1,
                Some(Aggregate::Avg) => usage.avg += 1,
                Some(Aggregate::Min) => usage.min += 1,
                Some(Aggregate::Max) => usage.max += 1,
                Some(Aggregate::Median) => usage.median += 1,
                Some(Aggregate::Stddev) => usage.stddev += 1,
                None => {}
            }
        }
    });

    if query_is_statistical(q) {
        report.statistical_queries += 1;
    }
    report.query_sizes.push(clause_count(q));
}

fn count_set_ops(body: &SetExpr, ops: &mut OperatorUsage) {
    if let SetExpr::SetOp {
        op, left, right, ..
    } = body
    {
        match op {
            SetOperator::Union => ops.union += 1,
            SetOperator::Intersect => ops.intersect += 1,
            SetOperator::Except => ops.minus_except += 1,
        }
        count_set_ops(left, ops);
        count_set_ops(right, ops);
    }
}

enum ConditionClass {
    Equijoin,
    Compound,
    ColumnComparison,
    LiteralComparison,
    Other,
}

fn classify_condition(c: &JoinConstraint) -> ConditionClass {
    match c {
        JoinConstraint::Using(_) => ConditionClass::Equijoin,
        JoinConstraint::None => ConditionClass::Other,
        JoinConstraint::On(e) => match e {
            Expr::BinaryOp { left, op, right } if op.is_comparison() => {
                match (left.as_ref(), right.as_ref()) {
                    (Expr::Column(_), Expr::Column(_)) => {
                        if *op == flex_sql::BinaryOperator::Eq {
                            ConditionClass::Equijoin
                        } else {
                            ConditionClass::ColumnComparison
                        }
                    }
                    (Expr::Column(_), Expr::Literal(_)) | (Expr::Literal(_), Expr::Column(_)) => {
                        ConditionClass::LiteralComparison
                    }
                    _ => ConditionClass::Compound,
                }
            }
            _ => ConditionClass::Compound,
        },
    }
}

/// Classify the join relationship using `mf` of the equijoin keys; a side
/// with `mf = 1` is unique ("one").
fn classify_relationship(join: &TableRef, db: &Database, out: &mut JoinRelationships) {
    let TableRef::Join {
        left,
        right,
        constraint,
        ..
    } = join
    else {
        return;
    };
    // Only direct table-to-table equijoins are classified; nested trees
    // would need full lowering, which the study intentionally avoids.
    let key = match constraint {
        JoinConstraint::On(e) => e
            .conjuncts()
            .iter()
            .find_map(|c| c.as_column_equality().map(|(a, b)| (a.clone(), b.clone()))),
        JoinConstraint::Using(cols) => cols.first().map(|c| {
            (
                flex_sql::ColumnRef::bare(c.clone()),
                flex_sql::ColumnRef::bare(c.clone()),
            )
        }),
        JoinConstraint::None => None,
    };
    let (Some((a, b)), Some(lt), Some(rt)) = (key, single_table(left), single_table(right)) else {
        out.unknown += 1;
        return;
    };
    // Try to match each column to a side by qualifier/table lookup.
    let mf_for = |col: &flex_sql::ColumnRef| -> Option<u64> {
        for (tname, talias) in [lt, rt] {
            if let Some(q) = &col.qualifier {
                if q != talias && q != tname {
                    continue;
                }
            }
            if let Some(mf) = db.metrics().max_freq(tname, &col.name) {
                return Some(mf);
            }
        }
        None
    };
    match (mf_for(&a), mf_for(&b)) {
        (Some(ma), Some(mb)) => {
            let one_a = ma <= 1;
            let one_b = mb <= 1;
            if one_a && one_b {
                out.one_to_one += 1;
            } else if one_a || one_b {
                out.one_to_many += 1;
            } else {
                out.many_to_many += 1;
            }
        }
        _ => out.unknown += 1,
    }
}

/// `(table name, alias-or-name)` when the relation is a single base table.
fn single_table(t: &TableRef) -> Option<(&str, &str)> {
    match t {
        TableRef::Table { name, alias } => {
            Some((name.as_str(), alias.as_deref().unwrap_or(name.as_str())))
        }
        _ => None,
    }
}

/// Question 5: a query is *statistical* if every output column of its root
/// select is an aggregate (group-by labels count as aggregate output).
pub fn query_is_statistical(q: &Query) -> bool {
    let mut root_seen = false;
    let mut statistical = true;
    // Only the outermost select decides; walk_selects visits root first.
    walk_selects(q, &mut |s| {
        if root_seen {
            return;
        }
        root_seen = true;
        for item in &s.projection {
            match item {
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                    statistical = false;
                }
                SelectItem::Expr { expr, .. } => {
                    let is_group_label = s.group_by.contains(expr)
                        || matches!((expr, s.group_by.len()), (Expr::Column(_), 1..));
                    if !expr.contains_aggregate() && !is_group_label {
                        statistical = false;
                    }
                }
            }
        }
        // No aggregate output at all → raw data.
        let has_agg = s
            .projection
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()));
        if !has_agg {
            statistical = false;
        }
    });
    root_seen && statistical
}

/// Count aggregate function argument kinds (used by tests and reports).
pub fn count_star_usages(q: &Query) -> usize {
    let mut n = 0;
    walk_exprs(q, &mut |e| {
        if let Expr::Function { name, args, .. } = e {
            if name == "count" && matches!(args.first(), Some(FunctionArg::Wildcard)) {
                n += 1;
            }
        }
    });
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_sql::parse_query;

    fn qs(sqls: &[&str]) -> Vec<Query> {
        sqls.iter().map(|s| parse_query(s).unwrap()).collect()
    }

    #[test]
    fn operator_usage_counts_queries() {
        let corpus = qs(&[
            "SELECT count(*) FROM t",
            "SELECT count(*) FROM t JOIN u ON t.a = u.a",
            "SELECT a FROM t UNION SELECT a FROM u",
        ]);
        let r = analyze_corpus(&corpus, None);
        assert_eq!(r.total_queries, 3);
        assert_eq!(r.operators.select, 3);
        assert_eq!(r.operators.join, 1);
        assert_eq!(r.operators.union, 1);
    }

    #[test]
    fn join_condition_classification() {
        let corpus = qs(&[
            "SELECT count(*) FROM a JOIN b ON a.x = b.x",
            "SELECT count(*) FROM a JOIN b ON a.x = b.x AND a.y > b.y",
            "SELECT count(*) FROM a JOIN b ON a.x > b.x",
            "SELECT count(*) FROM a JOIN b ON a.x = 3",
            "SELECT count(*) FROM a CROSS JOIN b",
        ]);
        let r = analyze_corpus(&corpus, None);
        assert_eq!(r.join_conditions.equijoin, 1);
        assert_eq!(r.join_conditions.compound, 1);
        assert_eq!(r.join_conditions.column_comparison, 1);
        assert_eq!(r.join_conditions.literal_comparison, 1);
        assert_eq!(r.join_conditions.other, 1);
    }

    #[test]
    fn self_join_detected() {
        let corpus = qs(&[
            "SELECT count(*) FROM edges e1 JOIN edges e2 ON e1.dest = e2.source",
            "SELECT count(*) FROM a JOIN b ON a.x = b.x",
        ]);
        let r = analyze_corpus(&corpus, None);
        assert_eq!(r.self_join_queries, 1);
    }

    #[test]
    fn joins_per_query_histogram() {
        let corpus = qs(&[
            "SELECT count(*) FROM t",
            "SELECT count(*) FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y",
        ]);
        let r = analyze_corpus(&corpus, None);
        assert_eq!(r.joins_per_query, vec![0, 2]);
    }

    #[test]
    fn statistical_classification() {
        assert!(query_is_statistical(
            &parse_query("SELECT count(*) FROM t").unwrap()
        ));
        assert!(query_is_statistical(
            &parse_query("SELECT city, count(*) FROM t GROUP BY city").unwrap()
        ));
        assert!(!query_is_statistical(
            &parse_query("SELECT id, name FROM t").unwrap()
        ));
        assert!(!query_is_statistical(
            &parse_query("SELECT * FROM t").unwrap()
        ));
        assert!(!query_is_statistical(
            &parse_query("SELECT id, count(*) FROM t").unwrap()
        ));
    }

    #[test]
    fn aggregation_usage_counts_call_sites() {
        let corpus = qs(&[
            "SELECT count(*), sum(x), avg(y) FROM t",
            "SELECT count(*) FROM t WHERE x IN (SELECT max(v) FROM u)",
        ]);
        let r = analyze_corpus(&corpus, None);
        assert_eq!(r.aggregations.count, 2);
        assert_eq!(r.aggregations.sum, 1);
        assert_eq!(r.aggregations.avg, 1);
        // max inside the IN-subquery is still counted.
        assert_eq!(r.aggregations.max, 1);
    }

    #[test]
    fn relationship_classification_with_metrics() {
        use flex_db::{DataType, Schema};
        let mut db = Database::new();
        db.create_table(
            "orders",
            Schema::of(&[("id", DataType::Int), ("cust", DataType::Int)]),
        )
        .unwrap();
        db.create_table("custs", Schema::of(&[("id", DataType::Int)]))
            .unwrap();
        db.metrics_mut().set_max_freq("orders", "id", 1);
        db.metrics_mut().set_max_freq("orders", "cust", 9);
        db.metrics_mut().set_max_freq("custs", "id", 1);

        let corpus = qs(&[
            "SELECT count(*) FROM orders o JOIN custs c ON o.cust = c.id",
            "SELECT count(*) FROM orders a JOIN orders b ON a.cust = b.cust",
            "SELECT count(*) FROM orders a JOIN custs b ON a.id = b.id",
        ]);
        let r = analyze_corpus(&corpus, Some(&db));
        assert_eq!(r.join_relationships.one_to_many, 1);
        assert_eq!(r.join_relationships.many_to_many, 1);
        assert_eq!(r.join_relationships.one_to_one, 1);
    }

    #[test]
    fn fractions() {
        let corpus = qs(&[
            "SELECT count(*) FROM t JOIN u ON t.a = u.a",
            "SELECT id FROM t",
        ]);
        let r = analyze_corpus(&corpus, None);
        assert_eq!(r.join_fraction(), 0.5);
        assert_eq!(r.statistical_fraction(), 0.5);
        assert_eq!(r.equijoin_fraction(), 1.0);
    }

    #[test]
    fn count_star_detector() {
        let q = parse_query("SELECT count(*), count(x) FROM t").unwrap();
        assert_eq!(count_star_usages(&q), 1);
    }
}
