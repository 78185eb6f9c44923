//! Elastic sensitivity (paper §3.3, Figure 1b/1c).
//!
//! Implements `Ŝ⁽ᵏ⁾_R` (elastic stability of a relation at distance `k`),
//! `mf_k` (max frequency at distance `k`) and `Ŝ⁽ᵏ⁾` (elastic sensitivity
//! of a counting query), as symbolic [`SensExpr`]s over `k`, using only the
//! precomputed [`MetricsCatalog`] — no interaction with the data itself.
//!
//! Public tables (§3.6) participate with stability 0 and a constant `mf`
//! (their contents are not protected and never differ between neighboring
//! databases).

use crate::error::{FlexError, Result};
use crate::lower::{self, Lowered, RootAgg};
use crate::relalg::{Attr, QueryKind, Rel};
use crate::senspoly::SensExpr;
use flex_db::{Database, MetricsCatalog, Planned};
use flex_sql::Query;

/// The complete static analysis of one SQL query.
#[derive(Debug, Clone)]
pub struct AnalyzedQuery {
    /// Root structure (relation, labels, aggregates) from lowering.
    pub lowered: Lowered,
    /// Elastic stability `Ŝ⁽ᵏ⁾_R(r, x)` of the relation under the root.
    pub stability: SensExpr,
    /// Per-output-column sensitivity (None for label columns).
    pub outputs: Vec<Option<SensExpr>>,
    /// Number of joins `j(q)` — degree bound input for Theorem 3.
    pub join_count: usize,
}

impl AnalyzedQuery {
    /// Elastic sensitivity of the whole query: the maximum over aggregate
    /// output columns (used when a single noise scale is reported).
    pub fn sensitivity(&self) -> SensExpr {
        let mut it = self.outputs.iter().flatten().cloned();
        let first = it.next().unwrap_or_else(SensExpr::zero);
        it.fold(first, |acc, s| acc.max(s))
    }

    /// Whether the query is a histogram (GROUP BY) query.
    pub fn is_histogram(&self) -> bool {
        self.lowered.kind == QueryKind::Histogram
    }
}

/// Analysis-time options.
#[derive(Debug, Clone, Default)]
pub struct AnalysisOptions {
    /// Disable the §3.6 public-table optimization (treat every table as
    /// private). Used by the Figure 7 experiment.
    pub ignore_public_tables: bool,
}

/// Analyze a query against a database's schema and metrics.
pub fn analyze(q: &Query, db: &Database) -> Result<AnalyzedQuery> {
    analyze_with(q, db, &AnalysisOptions::default())
}

/// [`analyze`] with explicit options: plan the query, then read the plan
/// (`analyze_plan`).
pub fn analyze_with(q: &Query, db: &Database, opts: &AnalysisOptions) -> Result<AnalyzedQuery> {
    analyze_plan(&lower::plan(q, db)?, db, opts)
}

/// Analyze a planned query — the plan that will run.
pub(crate) fn analyze_plan(
    planned: &Planned<'_>,
    db: &Database,
    opts: &AnalysisOptions,
) -> Result<AnalyzedQuery> {
    let mut lowered = lower::lower_plan(planned, db)?;
    if opts.ignore_public_tables {
        strip_public(&mut lowered.rel);
        for g in &mut lowered.group_by {
            g.public = false;
        }
    }
    let metrics = db.metrics();
    let stability = rel_stability(&lowered.rel, metrics)?;
    let histogram_factor = match lowered.kind {
        QueryKind::Count => 1.0,
        // One changed input row can move two histogram bins (Fig. 1b).
        QueryKind::Histogram => 2.0,
    };

    let mut agg_sens = Vec::with_capacity(lowered.aggregates.len());
    for agg in &lowered.aggregates {
        let s = match agg {
            RootAgg::Count | RootAgg::CountDistinct => stability.clone(),
            RootAgg::Sum(attr) | RootAgg::Avg(attr) => {
                let vr = lookup_vr(metrics, attr)?;
                stability.clone().scale(vr)
            }
            // §3.7.2: stability does not affect min/max; vr is the global
            // sensitivity.
            RootAgg::Min(attr) | RootAgg::Max(attr) => {
                SensExpr::constant(lookup_vr(metrics, attr)?)
            }
        };
        agg_sens.push(s.scale(histogram_factor));
    }

    let outputs = lowered
        .outputs
        .iter()
        .map(|o| match o {
            lower::OutputColumn::Label(_) => None,
            lower::OutputColumn::Aggregate(i) => Some(agg_sens[*i].clone()),
        })
        .collect();

    let join_count = lowered.rel.join_count();
    Ok(AnalyzedQuery {
        lowered,
        stability,
        outputs,
        join_count,
    })
}

fn lookup_vr(metrics: &MetricsCatalog, attr: &Attr) -> Result<f64> {
    metrics
        .value_range(&attr.table, &attr.column)
        .ok_or_else(|| FlexError::MissingMetric {
            table: attr.table.clone(),
            column: attr.column.clone(),
            metric: "value-range".to_string(),
        })
}

fn strip_public(rel: &mut Rel) {
    match rel {
        Rel::Table { public, .. } => *public = false,
        Rel::Join { left, right, .. } => {
            strip_public(left);
            strip_public(right);
        }
        Rel::Project(r) | Rel::Select(r) | Rel::Count(r) => strip_public(r),
    }
}

/// Elastic stability `Ŝ⁽ᵏ⁾_R(r, x)` (Figure 1b).
pub fn rel_stability(rel: &Rel, metrics: &MetricsCatalog) -> Result<SensExpr> {
    match rel {
        // Ŝ_R(t) = 1 — but a public table never changes, so 0 (§3.6).
        Rel::Table { public, .. } => Ok(if *public {
            SensExpr::zero()
        } else {
            SensExpr::constant(1.0)
        }),
        Rel::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let sl = rel_stability(left, metrics)?;
            let sr = rel_stability(right, metrics)?;
            let mf_l = mfk(left_key, left, metrics)?;
            let mf_r = mfk(right_key, right, metrics)?;
            if left.shares_ancestor(right) {
                // Self join: mf_k(a,r1)·Ŝ(r2) + mf_k(b,r2)·Ŝ(r1) + Ŝ(r1)·Ŝ(r2)
                Ok(mf_l
                    .mul(sr.clone())
                    .add(mf_r.mul(sl.clone()))
                    .add(sl.mul(sr)))
            } else {
                // Non-overlapping: max(mf_k(a,r1)·Ŝ(r2), mf_k(b,r2)·Ŝ(r1))
                Ok(mf_l.mul(sr).max(mf_r.mul(sl)))
            }
        }
        Rel::Project(r) | Rel::Select(r) => rel_stability(r, metrics),
        // Count produces one row (or one per group); stability 1 — or 0
        // when it aggregates only public data.
        Rel::Count(r) => Ok(if r.is_all_public() {
            SensExpr::zero()
        } else {
            SensExpr::constant(1.0)
        }),
    }
}

/// Max frequency at distance `k`, `mf_k(a, r, x)` (Figure 1c).
pub fn mfk(attr: &Attr, rel: &Rel, metrics: &MetricsCatalog) -> Result<SensExpr> {
    match rel {
        Rel::Table {
            name,
            occurrence,
            public,
        } => {
            if *occurrence != attr.occurrence {
                return Err(FlexError::UnknownColumn(format!(
                    "attribute {attr} does not originate from table occurrence {occurrence}"
                )));
            }
            let mf =
                metrics
                    .max_freq(name, &attr.column)
                    .ok_or_else(|| FlexError::MissingMetric {
                        table: name.clone(),
                        column: attr.column.clone(),
                        metric: "max-frequency".to_string(),
                    })?;
            // Clamp to ≥ 1: a key participating in a join matches at least
            // itself once present; this also keeps outer joins sound.
            let mf = (mf.max(1)) as f64;
            if *public {
                // Public tables never change: mf_k = mf at every distance.
                Ok(SensExpr::constant(mf))
            } else {
                // mf_k(a, t, x) = mf(a, t, x) + k.
                Ok(SensExpr::affine(mf))
            }
        }
        Rel::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            // mf_k(a1, r1 ⋈ r2) = mf_k(a1, rᵢ) · mf_k(key, r_other).
            if left.occurrences().contains(&attr.occurrence) {
                Ok(mfk(attr, left, metrics)?.mul(mfk(right_key, right, metrics)?))
            } else {
                Ok(mfk(attr, right, metrics)?.mul(mfk(left_key, left, metrics)?))
            }
        }
        Rel::Project(r) | Rel::Select(r) => mfk(attr, r, metrics),
        // mf_k(a, Count(r)) = ⊥ (Figure 1c): no metric exists.
        Rel::Count(_) => Err(FlexError::JoinKeyNotFromBaseTable(format!(
            "attribute {attr} is produced by an aggregation"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_db::{DataType, Schema, Value};
    use flex_sql::parse_query;

    /// Build the graph database of the §3.4 worked example with
    /// max-frequency metric 65 on both edge endpoints.
    fn triangle_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "edges",
            Schema::of(&[("source", DataType::Int), ("dest", DataType::Int)]),
        )
        .unwrap();
        db.insert("edges", vec![vec![Value::Int(1), Value::Int(2)]])
            .unwrap();
        db.metrics_mut().set_max_freq("edges", "source", 65);
        db.metrics_mut().set_max_freq("edges", "dest", 65);
        db
    }

    fn uber_db() -> Database {
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
        db.mark_public("cities");
        // Metrics without loading data.
        let m = db.metrics_mut();
        m.set_max_freq("trips", "id", 1);
        m.set_max_freq("trips", "driver_id", 100);
        m.set_max_freq("trips", "city_id", 5000);
        m.set_max_freq("trips", "fare", 3);
        m.set_value_range("trips", "fare", 500.0);
        m.set_max_freq("drivers", "id", 1);
        m.set_max_freq("drivers", "city_id", 800);
        m.set_max_freq("cities", "id", 1);
        m.set_max_freq("cities", "name", 1);
        db
    }

    fn analyze_sql(db: &Database, sql: &str) -> AnalyzedQuery {
        analyze(&parse_query(sql).unwrap(), db).unwrap()
    }

    #[test]
    fn simple_count_has_sensitivity_one() {
        let db = uber_db();
        let a = analyze_sql(&db, "SELECT COUNT(*) FROM trips");
        assert_eq!(a.sensitivity().eval(0), 1.0);
        assert_eq!(a.sensitivity().eval(100), 1.0);
        assert_eq!(a.join_count, 0);
    }

    #[test]
    fn histogram_doubles_sensitivity() {
        let db = uber_db();
        let a = analyze_sql(&db, "SELECT city_id, COUNT(*) FROM trips GROUP BY city_id");
        assert_eq!(a.sensitivity().eval(0), 2.0);
        assert!(a.is_histogram());
    }

    #[test]
    fn triangle_query_matches_worked_example() {
        // Paper §3.4, the triangle-counting query with mf = 65.
        //
        // Figure 1(c) prescribes mf_k(e2.dest, e1⋈e2) = (65+k)², giving
        //   (65+k)² + (65+k)(131+2k) + (131+2k) = 3k² + 393k + 12871.
        // The paper's walkthrough instead substitutes mf_k(dest, edges) =
        // 65+k for the joined relation, giving 2k² + 264k + 8711 (printed
        // as 199k — an arithmetic slip). We implement Figure 1 faithfully;
        // both are upper bounds, ours being the (slightly looser) one the
        // definition yields.
        let db = triangle_db();
        let a = analyze_sql(
            &db,
            "SELECT COUNT(*) FROM edges e1 \
             JOIN edges e2 ON e1.dest = e2.source AND e1.source < e2.source \
             JOIN edges e3 ON e2.dest = e3.source AND e3.dest = e1.source \
             AND e2.source < e3.source",
        );
        let p = a
            .sensitivity()
            .as_poly()
            .expect("self joins give a plain polynomial");
        assert_eq!(p.coeffs(), &[12871.0, 393.0, 3.0]);
        assert_eq!(a.join_count, 2);
        // First join alone: (65+k) + (65+k) + 1 = 131 + 2k, matching the
        // paper exactly.
        let a1 = analyze_sql(
            &db,
            "SELECT COUNT(*) FROM edges e1 JOIN edges e2 ON e1.dest = e2.source",
        );
        assert_eq!(a1.sensitivity().as_poly().unwrap().coeffs(), &[131.0, 2.0]);
    }

    #[test]
    fn non_self_join_takes_max() {
        let db = uber_db();
        let a = analyze_sql(
            &db,
            "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id",
        );
        // max(mf_k(driver_id, trips)·1, mf_k(id, drivers)·1)
        //   = max(100 + k, 1 + k) = 100 + k.
        assert_eq!(a.sensitivity().eval(0), 100.0);
        assert_eq!(a.sensitivity().eval(10), 110.0);
    }

    #[test]
    fn self_join_adds_terms() {
        let db = uber_db();
        let a = analyze_sql(
            &db,
            "SELECT COUNT(*) FROM trips a JOIN trips b ON a.driver_id = b.driver_id",
        );
        // (100+k)·1 + (100+k)·1 + 1·1 = 201 + 2k.
        assert_eq!(a.sensitivity().eval(0), 201.0);
        assert_eq!(a.sensitivity().eval(5), 211.0);
    }

    #[test]
    fn public_table_join_multiplies_by_constant_mf() {
        let db = uber_db();
        let a = analyze_sql(
            &db,
            "SELECT COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id",
        );
        // Public side: stability 0, mf constant 1 → sensitivity = 1·S(trips) = 1,
        // and it does not grow with k.
        assert_eq!(a.sensitivity().eval(0), 1.0);
        assert_eq!(a.sensitivity().eval(50), 1.0);
    }

    #[test]
    fn ignoring_public_tables_restores_private_treatment() {
        let db = uber_db();
        let q =
            parse_query("SELECT COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id").unwrap();
        let a = analyze_with(
            &q,
            &db,
            &AnalysisOptions {
                ignore_public_tables: true,
            },
        )
        .unwrap();
        // max(mf_k(city_id, trips)·1, mf_k(id, cities)·1) = 5000 + k.
        assert_eq!(a.sensitivity().eval(0), 5000.0);
        assert_eq!(a.sensitivity().eval(3), 5003.0);
    }

    #[test]
    fn sum_scales_by_value_range() {
        let db = uber_db();
        let a = analyze_sql(&db, "SELECT SUM(fare) FROM trips");
        assert_eq!(a.sensitivity().eval(0), 500.0);
        assert_eq!(a.sensitivity().eval(9), 500.0);
    }

    #[test]
    fn max_uses_global_vr_independent_of_joins() {
        let db = uber_db();
        let a = analyze_sql(
            &db,
            "SELECT MAX(fare) FROM trips t JOIN drivers d ON t.driver_id = d.id",
        );
        assert_eq!(a.sensitivity().eval(0), 500.0);
        assert_eq!(a.sensitivity().eval(100), 500.0);
    }

    #[test]
    fn sum_without_vr_metric_errors() {
        let mut db = uber_db();
        // driver_id has no vr; remove by fresh metrics on a str column.
        db.create_table("u", Schema::of(&[("s", DataType::Str)]))
            .unwrap();
        db.metrics_mut().set_max_freq("u", "s", 1);
        let q = parse_query("SELECT SUM(s) FROM u").unwrap();
        assert!(matches!(
            analyze(&q, &db),
            Err(FlexError::MissingMetric { .. })
        ));
    }

    #[test]
    fn multi_output_query_sensitivities_per_column() {
        let db = uber_db();
        let a = analyze_sql(
            &db,
            "SELECT city_id, COUNT(*), SUM(fare) FROM trips GROUP BY city_id",
        );
        assert_eq!(a.outputs.len(), 3);
        assert!(a.outputs[0].is_none()); // label
        assert_eq!(a.outputs[1].as_ref().unwrap().eval(0), 2.0); // 2·1
        assert_eq!(a.outputs[2].as_ref().unwrap().eval(0), 1000.0); // 2·500·1
    }

    #[test]
    fn mfk_of_join_multiplies() {
        let db = uber_db();
        // Relation: trips ⋈_{driver_id=id} drivers. mf_k of trips.city_id in
        // the joined relation = (5000+k)·(1+k) [drivers.id side].
        let a = analyze_sql(
            &db,
            "SELECT COUNT(*) FROM (SELECT * FROM trips) t \
             JOIN drivers d ON t.driver_id = d.id",
        );
        // Just ensure analysis runs with a derived table wrapper.
        assert_eq!(a.join_count, 1);
    }

    #[test]
    fn stability_monotone_in_k() {
        let db = uber_db();
        let a = analyze_sql(
            &db,
            "SELECT COUNT(*) FROM trips a JOIN trips b ON a.driver_id = b.driver_id \
             JOIN drivers d ON b.driver_id = d.id",
        );
        let s = a.sensitivity();
        let mut prev = s.eval(0);
        for k in 1..100 {
            let cur = s.eval(k);
            assert!(cur >= prev);
            prev = cur;
        }
    }
}
