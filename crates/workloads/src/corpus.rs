//! Synthetic SQL-query corpus generator calibrated to the paper's §2
//! empirical study of 8.1M real queries.
//!
//! The real corpus is proprietary; this generator samples query structure
//! from the marginal distributions the paper reports (join counts, join
//! types/conditions, self-join rate, aggregation mix, set-operation rates,
//! statistical-vs-raw split), so the §2 study analyzer exercises the same
//! code paths and reproduces the same headline percentages.

use flex_sql::{
    BinaryOperator, ColumnRef, Cte, Expr, FunctionArg, JoinConstraint, JoinType, Literal,
    OrderByItem, Query, Select, SelectItem, SetExpr, SetOperator, TableRef,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Marginal probabilities, defaulted to the paper's §2.1 findings.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    pub n_queries: usize,
    pub seed: u64,
    /// P(query uses at least one join) — paper: 62.1%.
    pub p_join: f64,
    /// P(query is statistical, i.e. aggregations only) — paper: 34%.
    pub p_statistical: f64,
    /// P(a join query contains a self join) — paper: 28%.
    pub p_self_join: f64,
    /// Join-type weights (inner, left, right+full, cross) — paper: 69/29/<1/1.
    pub join_type_weights: [f64; 4],
    /// Join-condition weights (equijoin, compound, column-cmp, literal-cmp)
    /// — paper: 76/19/3/2.
    pub join_condition_weights: [f64; 4],
    /// Aggregation weights (count, sum, avg, max, min, median, stddev)
    /// — paper: 51/29/8.4/5.9/4.9/0.3/0.1.
    pub aggregation_weights: [f64; 7],
    /// Set-operation rates (union, minus/except, intersect)
    /// — paper: 0.57% / 0.06% / 0.03%.
    pub p_set_ops: [f64; 3],
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            n_queries: 10_000,
            seed: 0xC0395,
            p_join: 0.621,
            p_statistical: 0.34,
            p_self_join: 0.28,
            join_type_weights: [69.0, 29.0, 1.0, 1.0],
            join_condition_weights: [76.0, 19.0, 3.0, 2.0],
            aggregation_weights: [51.0, 29.0, 8.4, 5.9, 4.9, 0.3, 0.1],
            p_set_ops: [0.0057, 0.0006, 0.0003],
        }
    }
}

const TABLES: [(&str, [&str; 4]); 8] = [
    ("trips", ["id", "driver_id", "city_id", "fare"]),
    ("drivers", ["id", "city_id", "status", "rating"]),
    ("riders", ["id", "city_id", "signup_date", "spend"]),
    ("cities", ["id", "name", "region", "population"]),
    ("payments", ["id", "trip_id", "amount", "method"]),
    ("sessions", ["id", "user_id", "duration", "device"]),
    (
        "support_tickets",
        ["id", "user_id", "category", "opened_at"],
    ),
    ("promotions", ["id", "city_id", "budget", "code"]),
];

const AGG_NAMES: [&str; 7] = ["count", "sum", "avg", "max", "min", "median", "stddev"];

/// Generate the corpus.
pub fn generate(cfg: &CorpusConfig) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    (0..cfg.n_queries)
        .map(|_| gen_query(cfg, &mut rng))
        .collect()
}

/// A small database instance matching the corpus's synthetic schema, so
/// corpus queries can be run through the full elastic-sensitivity analysis
/// (used by the §5.1 success-rate experiment).
pub fn catalog_database(rows_per_table: usize, seed: u64) -> flex_db::Database {
    use flex_db::{DataType, Schema, Value};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = flex_db::Database::new();
    for (name, cols) in TABLES {
        // Every corpus column is generated as a skewed integer; the study
        // and analysis only consult metrics, not semantics.
        let schema = Schema::of(&cols.iter().map(|c| (*c, DataType::Int)).collect::<Vec<_>>());
        db.create_table(name, schema).unwrap();
        let rows = (0..rows_per_table)
            .map(|i| {
                (0..cols.len())
                    .map(|c| {
                        if c == 0 {
                            Value::Int(i as i64) // primary key, unique
                        } else {
                            Value::Int(rng.gen_range(0..50))
                        }
                    })
                    .collect()
            })
            .collect();
        db.insert(name, rows).unwrap();
    }
    db.mark_public("cities");
    db
}

fn pick_weighted<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

/// Sample a join count for a join query: geometric-ish body with a long
/// tail reaching the paper's maximum of 95 joins.
fn sample_join_count<R: Rng + ?Sized>(rng: &mut R) -> usize {
    let u: f64 = rng.gen();
    if u < 0.55 {
        1
    } else if u < 0.80 {
        2
    } else if u < 0.92 {
        rng.gen_range(3..6)
    } else if u < 0.99 {
        rng.gen_range(6..20)
    } else {
        rng.gen_range(20..=95)
    }
}

fn gen_query(cfg: &CorpusConfig, rng: &mut StdRng) -> Query {
    let select = gen_select(cfg, rng);
    let mut body = SetExpr::Select(Box::new(select));
    // Rare set operations.
    let u: f64 = rng.gen();
    if u < cfg.p_set_ops.iter().sum() {
        let op = if u < cfg.p_set_ops[0] {
            SetOperator::Union
        } else if u < cfg.p_set_ops[0] + cfg.p_set_ops[1] {
            SetOperator::Except
        } else {
            SetOperator::Intersect
        };
        let right = gen_select(cfg, rng);
        body = SetExpr::SetOp {
            op,
            all: rng.gen_bool(0.5),
            left: Box::new(body),
            right: Box::new(SetExpr::Select(Box::new(right))),
        };
    }

    let mut order_by = Vec::new();
    if rng.gen_bool(0.25) {
        order_by.push(OrderByItem {
            expr: Expr::Literal(Literal::Integer(1)),
            descending: rng.gen_bool(0.5),
        });
    }
    let ctes = if rng.gen_bool(0.05) {
        vec![Cte {
            name: "prefiltered".to_string(),
            query: Query::from_select(gen_simple_select(rng)),
        }]
    } else {
        Vec::new()
    };
    Query {
        ctes,
        body,
        order_by,
        limit: if rng.gen_bool(0.3) {
            Some(rng.gen_range(1..10_000))
        } else {
            None
        },
        offset: None,
    }
}

fn table_ref(idx: usize, alias: Option<String>) -> TableRef {
    TableRef::Table {
        name: TABLES[idx].0.to_string(),
        alias,
    }
}

fn col(alias: &str, idx: usize, c: usize) -> ColumnRef {
    ColumnRef::qualified(alias.to_string(), TABLES[idx].1[c])
}

fn gen_select(cfg: &CorpusConfig, rng: &mut StdRng) -> Select {
    let statistical = rng.gen_bool(cfg.p_statistical);
    let with_join = rng.gen_bool(cfg.p_join);

    let t0 = rng.gen_range(0..TABLES.len());
    let mut from = table_ref(t0, Some("t0".to_string()));
    let mut aliases = vec![("t0".to_string(), t0)];

    if with_join {
        let n_joins = sample_join_count(rng);
        let self_join = rng.gen_bool(cfg.p_self_join);
        let mut used: Vec<usize> = vec![t0];
        for j in 0..n_joins {
            let alias = format!("t{}", j + 1);
            // Realize the self join on the first joined relation; otherwise
            // prefer tables not yet used, so the self-join marginal is not
            // inflated by accidental collisions.
            let tj = if self_join && j == 0 {
                t0
            } else {
                let unused: Vec<usize> = (0..TABLES.len()).filter(|t| !used.contains(t)).collect();
                if unused.is_empty() {
                    rng.gen_range(0..TABLES.len())
                } else {
                    unused[rng.gen_range(0..unused.len())]
                }
            };
            used.push(tj);
            let (prev_alias, prev_t) = aliases[rng.gen_range(0..aliases.len())].clone();
            let join_type = match pick_weighted(rng, &cfg.join_type_weights) {
                0 => JoinType::Inner,
                1 => JoinType::Left,
                2 => {
                    if rng.gen_bool(0.5) {
                        JoinType::Right
                    } else {
                        JoinType::Full
                    }
                }
                _ => JoinType::Cross,
            };
            let constraint = if join_type == JoinType::Cross {
                JoinConstraint::None
            } else {
                // Join columns are biased toward each table's key (column
                // 0), reproducing the paper's join-relationship mix
                // (26% 1:1, 64% 1:n, 10% n:m) once keys are unique.
                let pick = |rng: &mut StdRng, p_key: f64| {
                    if rng.gen_bool(p_key) {
                        0
                    } else {
                        rng.gen_range(1..4)
                    }
                };
                let lc = col(&prev_alias, prev_t, pick(rng, 0.35));
                let rc = col(&alias, tj, pick(rng, 0.75));
                match pick_weighted(rng, &cfg.join_condition_weights) {
                    // Equijoin.
                    0 => JoinConstraint::On(Expr::col_eq(lc, rc)),
                    // Compound: equijoin plus another predicate.
                    1 => JoinConstraint::On(Expr::binary(
                        Expr::col_eq(lc.clone(), rc.clone()),
                        BinaryOperator::And,
                        Expr::binary(Expr::Column(lc), BinaryOperator::Gt, Expr::Column(rc)),
                    )),
                    // Column comparison.
                    2 => JoinConstraint::On(Expr::binary(
                        Expr::Column(lc),
                        BinaryOperator::Lt,
                        Expr::Column(rc),
                    )),
                    // Literal comparison.
                    _ => JoinConstraint::On(Expr::binary(
                        Expr::Column(rc),
                        BinaryOperator::Eq,
                        Expr::Literal(Literal::Integer(rng.gen_range(0..100))),
                    )),
                }
            };
            from = TableRef::Join {
                left: Box::new(from),
                right: Box::new(table_ref(tj, Some(alias.clone()))),
                join_type,
                constraint,
            };
            aliases.push((alias, tj));
        }
    }

    // Projection.
    let mut projection = Vec::new();
    let mut group_by = Vec::new();
    if statistical {
        let histogram = rng.gen_bool(0.4);
        if histogram {
            let (a, t) = aliases[0].clone();
            let g = Expr::Column(col(&a, t, rng.gen_range(0..4)));
            group_by.push(g.clone());
            projection.push(SelectItem::Expr {
                expr: g,
                alias: None,
            });
        }
        let n_aggs = rng.gen_range(1..4);
        for _ in 0..n_aggs {
            let agg = AGG_NAMES[pick_weighted(rng, &cfg.aggregation_weights)];
            let (a, t) = aliases[rng.gen_range(0..aliases.len())].clone();
            let args = if agg == "count" && rng.gen_bool(0.7) {
                vec![FunctionArg::Wildcard]
            } else {
                vec![FunctionArg::Expr(Expr::Column(col(
                    &a,
                    t,
                    rng.gen_range(0..4),
                )))]
            };
            projection.push(SelectItem::Expr {
                expr: Expr::Function {
                    name: agg.to_string(),
                    distinct: agg == "count" && rng.gen_bool(0.1),
                    args,
                },
                alias: None,
            });
        }
    } else {
        // Raw-data query.
        if rng.gen_bool(0.3) {
            projection.push(SelectItem::Wildcard);
        } else {
            let n_cols = rng.gen_range(1..8);
            for _ in 0..n_cols {
                let (a, t) = aliases[rng.gen_range(0..aliases.len())].clone();
                projection.push(SelectItem::Expr {
                    expr: Expr::Column(col(&a, t, rng.gen_range(0..4))),
                    alias: None,
                });
            }
        }
    }

    // WHERE: 0–4 conjuncts.
    let mut selection: Option<Expr> = None;
    for _ in 0..rng.gen_range(0..4usize) {
        let (a, t) = aliases[rng.gen_range(0..aliases.len())].clone();
        let pred = Expr::binary(
            Expr::Column(col(&a, t, rng.gen_range(0..4))),
            if rng.gen_bool(0.6) {
                BinaryOperator::Eq
            } else {
                BinaryOperator::Gt
            },
            Expr::Literal(Literal::Integer(rng.gen_range(0..1000))),
        );
        selection = Some(match selection {
            None => pred,
            Some(prev) => Expr::binary(prev, BinaryOperator::And, pred),
        });
    }

    Select {
        distinct: rng.gen_bool(0.05),
        projection,
        from: Some(from),
        selection,
        group_by,
        having: None,
    }
}

fn gen_simple_select(rng: &mut StdRng) -> Select {
    let t = rng.gen_range(0..TABLES.len());
    Select {
        distinct: false,
        projection: vec![SelectItem::Wildcard],
        from: Some(table_ref(t, None)),
        selection: None,
        group_by: Vec::new(),
        having: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_core::study::analyze_corpus;

    fn corpus(n: usize) -> Vec<Query> {
        generate(&CorpusConfig {
            n_queries: n,
            ..CorpusConfig::default()
        })
    }

    #[test]
    fn corpus_roundtrips_through_printer() {
        for q in corpus(300) {
            let text = flex_sql::print_query(&q);
            let reparsed = flex_sql::parse_query(&text)
                .unwrap_or_else(|e| panic!("generated SQL failed to parse: {e}\n{text}"));
            assert_eq!(flex_sql::print_query(&reparsed), text);
        }
    }

    #[test]
    fn join_fraction_matches_marginal() {
        let r = analyze_corpus(&corpus(20_000), None);
        let f = r.join_fraction();
        assert!((f - 0.621).abs() < 0.02, "join fraction {f}");
    }

    #[test]
    fn statistical_fraction_matches_marginal() {
        let r = analyze_corpus(&corpus(20_000), None);
        let f = r.statistical_fraction();
        assert!((f - 0.34).abs() < 0.03, "statistical fraction {f}");
    }

    #[test]
    fn equijoin_dominates_conditions() {
        let r = analyze_corpus(&corpus(20_000), None);
        let f = r.equijoin_fraction();
        // Equijoin + cross-join "other" dilute slightly below 0.76.
        assert!(f > 0.6, "equijoin fraction {f}");
    }

    #[test]
    fn join_count_tail_reaches_deep() {
        let r = analyze_corpus(&corpus(20_000), None);
        let max = r.joins_per_query.iter().max().copied().unwrap();
        assert!(max >= 40, "max joins {max}");
    }

    #[test]
    fn count_is_most_common_aggregation() {
        let r = analyze_corpus(&corpus(20_000), None);
        let a = &r.aggregations;
        assert!(a.count > a.sum);
        assert!(a.sum > a.avg);
        assert!(a.median < a.min);
    }

    #[test]
    fn deterministic_for_seed() {
        assert_eq!(corpus(50), corpus(50));
    }
}
