//! End-to-end integration tests spanning every crate: SQL text → parser →
//! analysis → execution → smoothing → noise → private results.

use flex::core::budget::PrivacyBudget;
use flex::prelude::*;
use flex::workloads::{graph, tpch, uber};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_uber() -> (Database, UberConfig) {
    let cfg = UberConfig {
        cities: 12,
        drivers: 300,
        riders: 600,
        trips: 8_000,
        user_tags: 400,
        seed: 99,
    };
    (uber::generate(&cfg), cfg)
}

fn params_for(db: &Database, eps: f64) -> PrivacyParams {
    PrivacyParams::new(eps, PrivacyParams::delta_for_db_size(db.total_rows())).unwrap()
}

#[test]
fn private_count_concentrates_around_truth() {
    let (db, _) = small_uber();
    let sql = "SELECT COUNT(*) FROM trips WHERE status = 'completed'";
    let truth = db
        .execute_sql(sql)
        .unwrap()
        .scalar()
        .and_then(|v| v.as_f64())
        .unwrap();
    let params = params_for(&db, 1.0);
    let mut rng = StdRng::seed_from_u64(0);
    let mut errs = Vec::new();
    for _ in 0..200 {
        let r = run_sql(&db, sql, params, &mut rng).unwrap();
        errs.push((r.scalar().unwrap() - truth).abs());
    }
    errs.sort_by(f64::total_cmp);
    // Sensitivity 1, ε = 1 → scale 2; median |noise| = 2 ln 2 ≈ 1.39.
    let median = errs[errs.len() / 2];
    assert!(median < 10.0, "median |noise| = {median}");
    // And it is actually noisy.
    assert!(errs.iter().any(|e| *e > 0.01));
}

#[test]
fn epsilon_controls_noise_scale_monotonically() {
    let (db, _) = small_uber();
    let sql = "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id";
    let spread = |eps: f64| {
        let params = params_for(&db, eps);
        let mut rng = StdRng::seed_from_u64(1);
        let r = run_sql(&db, sql, params, &mut rng).unwrap();
        r.column_sensitivity[0].unwrap().noise_scale
    };
    let s01 = spread(0.1);
    let s1 = spread(1.0);
    let s10 = spread(10.0);
    assert!(s01 > s1 && s1 > s10, "scales {s01} {s1} {s10}");
}

#[test]
fn join_query_noise_exceeds_plain_count_noise() {
    let (db, _) = small_uber();
    let params = params_for(&db, 0.1);
    let mut rng = StdRng::seed_from_u64(2);
    let plain = run_sql(&db, "SELECT COUNT(*) FROM trips", params, &mut rng).unwrap();
    let joined = run_sql(
        &db,
        "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id",
        params,
        &mut rng,
    )
    .unwrap();
    assert!(
        joined.column_sensitivity[0].unwrap().noise_scale
            > plain.column_sensitivity[0].unwrap().noise_scale
    );
}

#[test]
fn public_table_optimization_reduces_noise() {
    let (db, _) = small_uber();
    let params = params_for(&db, 0.1);
    let sql = "SELECT COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id";
    let mut rng = StdRng::seed_from_u64(3);
    let with_opt = run_sql(&db, sql, params, &mut rng).unwrap();
    let mut opts = FlexOptions::new();
    opts.analysis.ignore_public_tables = true;
    let without = run_sql_with(&db, sql, params, &mut rng, &opts).unwrap();
    assert!(
        with_opt.column_sensitivity[0].unwrap().noise_scale
            < without.column_sensitivity[0].unwrap().noise_scale / 10.0,
        "optimization should shrink noise dramatically"
    );
}

#[test]
fn histogram_releases_all_public_bins() {
    let (db, cfg) = small_uber();
    let params = params_for(&db, 1.0);
    let mut rng = StdRng::seed_from_u64(4);
    let r = run_sql(
        &db,
        "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id \
         WHERE t.trip_date = '2016-10-24' GROUP BY c.name",
        params,
        &mut rng,
    )
    .unwrap();
    assert!(r.bins_enumerated);
    assert_eq!(r.rows.len(), cfg.cities, "one bin per public city");
    // Private labels in contrast fall back to observed bins only.
    let r2 = run_sql(
        &db,
        "SELECT driver_id, COUNT(*) FROM trips GROUP BY driver_id",
        params,
        &mut rng,
    )
    .unwrap();
    assert!(!r2.bins_enumerated);
}

#[test]
fn every_table5_query_is_supported() {
    let (db, _) = small_uber();
    let params = params_for(&db, 0.1);
    let mut rng = StdRng::seed_from_u64(5);
    for (no, _, sql) in uber::table5_queries() {
        let r = run_sql(&db, &sql, params, &mut rng);
        assert!(r.is_ok(), "table 5 program {no} rejected: {:?}", r.err());
    }
}

#[test]
fn tpch_queries_run_privately() {
    let db = tpch::generate(&TpchConfig {
        scale: 0.002,
        ..TpchConfig::default()
    });
    let params = params_for(&db, 0.1);
    let mut rng = StdRng::seed_from_u64(6);
    for (name, sql, joins) in tpch::queries() {
        let r =
            run_sql(&db, sql, params, &mut rng).unwrap_or_else(|e| panic!("{name} rejected: {e}"));
        assert_eq!(r.join_count, joins, "{name} join count");
        assert!(!r.rows.is_empty(), "{name} returned nothing");
    }
}

#[test]
fn triangle_pipeline_matches_analysis() {
    let db = graph::graph_database(&GraphConfig {
        nodes: 150,
        edges: 800,
        max_degree: 20,
        skew: 0.8,
        seed: 3,
    });
    let params = PrivacyParams::new(0.7, 1e-8).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let r = run_sql(&db, flex::workloads::TRIANGLE_SQL, params, &mut rng).unwrap();
    assert_eq!(r.join_count, 2);
    // Ŝ(0) for mf = 20: join1 = 41 + 2k; full (per Figure 1c) =
    // (20+k)² + (20+k)(41+2k) + (41+2k) → at k = 0: 400 + 820 + 41 = 1261.
    let q = parse_query(flex::workloads::TRIANGLE_SQL).unwrap();
    let a = flex::core::analyze(&q, &db).unwrap();
    assert_eq!(a.sensitivity().eval(0), 1261.0);
}

#[test]
fn budgeted_session_enforces_cap_across_crates() {
    let (db, _) = small_uber();
    let mut session = BudgetedFlex::new(&db, PrivacyBudget::new(0.25, 1e-4));
    let params = params_for(&db, 0.1);
    let mut rng = StdRng::seed_from_u64(8);
    assert!(session
        .run("SELECT COUNT(*) FROM trips", params, &mut rng)
        .is_ok());
    assert!(session
        .run("SELECT COUNT(*) FROM drivers", params, &mut rng)
        .is_ok());
    let third = session.run("SELECT COUNT(*) FROM riders", params, &mut rng);
    assert!(matches!(third, Err(FlexError::BudgetExhausted { .. })));
}

#[test]
fn rejected_queries_cover_the_error_taxonomy() {
    let (db, _) = small_uber();
    let params = params_for(&db, 0.1);
    let mut rng = StdRng::seed_from_u64(9);
    type ErrCheck = fn(&FlexError) -> bool;
    let cases: Vec<(&str, ErrCheck)> = vec![
        ("SELECT id FROM trips", |e| {
            matches!(e, FlexError::RawDataQuery)
        }),
        (
            "SELECT COUNT(*) FROM trips a JOIN trips b ON a.fare > b.fare",
            |e| matches!(e, FlexError::NonEquijoin(_)),
        ),
        (
            "WITH x AS (SELECT count(*) AS c FROM trips), \
             y AS (SELECT count(*) AS c FROM drivers) \
             SELECT count(*) FROM x JOIN y ON x.c = y.c",
            |e| matches!(e, FlexError::JoinKeyNotFromBaseTable(_)),
        ),
        ("SELECT MEDIAN(fare) FROM trips", |e| {
            matches!(e, FlexError::UnsupportedAggregate(_))
        }),
        (
            "SELECT count(*) FROM trips UNION SELECT count(*) FROM drivers",
            |e| matches!(e, FlexError::UnsupportedSetOperation),
        ),
        ("SELECT COUNT(*) FROM no_such_table", |e| {
            matches!(e, FlexError::UnknownTable(_))
        }),
    ];
    for (sql, check) in cases {
        match run_sql(&db, sql, params, &mut rng) {
            Err(e) => assert!(check(&e), "unexpected error for {sql}: {e}"),
            Ok(_) => panic!("{sql} should have been rejected"),
        }
    }
}

#[test]
fn sum_and_avg_extension_results_are_released() {
    let (db, _) = small_uber();
    let params = params_for(&db, 1.0);
    let mut rng = StdRng::seed_from_u64(10);
    let r = run_sql(&db, "SELECT SUM(fare) FROM trips", params, &mut rng).unwrap();
    let truth = db
        .execute_sql("SELECT SUM(fare) FROM trips")
        .unwrap()
        .scalar()
        .and_then(|v| v.as_f64())
        .unwrap();
    // vr(fare) = 100 → scale 2·100/1 smoothed; the answer lands within a
    // few thousand of a ~hundred-thousand truth w.h.p. for the fixed seed.
    assert!((r.scalar().unwrap() - truth).abs() / truth < 0.5);
    let r = run_sql(&db, "SELECT MAX(fare) FROM trips", params, &mut rng).unwrap();
    assert!(r.scalar().is_some());
}

#[test]
fn deterministic_given_seed_and_data() {
    let (db, _) = small_uber();
    let params = params_for(&db, 0.1);
    let sql = "SELECT COUNT(*) FROM trips WHERE fare > 10";
    let a = run_sql(&db, sql, params, &mut StdRng::seed_from_u64(77)).unwrap();
    let b = run_sql(&db, sql, params, &mut StdRng::seed_from_u64(77)).unwrap();
    assert_eq!(a.rows, b.rows);
}

/// `USING (c)` is the equijoin `l.c = r.c` to the analysis as it is to
/// the executor: same sensitivity, same draws, same release.
#[test]
fn using_join_is_released_like_its_on_spelling() {
    let (db, _) = small_uber();
    let params = params_for(&db, 0.1);
    let run = |sql: &str| run_sql(&db, sql, params, &mut StdRng::seed_from_u64(5)).unwrap();
    let using = run("SELECT COUNT(*) FROM trips t JOIN drivers d USING (city_id)");
    let on = run("SELECT COUNT(*) FROM trips t JOIN drivers d ON t.city_id = d.city_id");
    assert_eq!(using.join_count, 1);
    assert_eq!(using.true_rows, on.true_rows);
    assert_eq!(using.column_sensitivity, on.column_sensitivity);
    assert_eq!(using.rows, on.rows);
    assert_ne!(using.scalar(), using.true_rows[0][0].as_f64());
}

/// One release per canonical query, one schedule per canonical query:
/// the benchmark's four textual variants (lower-case keywords, extra
/// whitespace, swapped `=` operands, reversed conjuncts) of each of its
/// four shapes are charged once, release byte-equal rows, and — each
/// computed on a cold service of its own — run the same conjunct order.
#[test]
fn textual_variants_share_one_release_and_one_schedule() {
    use std::sync::Arc;

    // `(lhs, rhs)` is `lhs = rhs`; an empty `rhs` prints `lhs` as is.
    type Shape = (
        &'static str,
        &'static [(&'static str, &'static str)],
        &'static str,
    );
    let shapes: [Shape; 4] = [
        (
            "SELECT COUNT(*) FROM trips",
            &[
                ("city_id", "3"),
                ("trip_date BETWEEN '2016-02-01' AND '2016-09-30'", ""),
                ("status", "'completed'"),
                ("fare > 7.25", ""),
            ],
            "",
        ),
        (
            "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id",
            &[
                ("t.trip_date BETWEEN '2016-02-01' AND '2016-09-30'", ""),
                ("t.fare > 7.25", ""),
            ],
            " GROUP BY c.name",
        ),
        (
            "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id",
            &[
                ("d.city_id", "3"),
                ("d.vehicle", "'car'"),
                ("t.status", "'completed'"),
                ("t.fare > 7.25", ""),
            ],
            "",
        ),
        (
            "SELECT COUNT(DISTINCT d.id) FROM trips t JOIN drivers d ON t.driver_id = d.id \
             JOIN cities c ON t.city_id = c.id",
            &[
                ("c.name", "'sydney'"),
                ("t.status", "'completed'"),
                ("d.city_id <> t.city_id", ""),
                ("t.fare > 7.25", ""),
            ],
            "",
        ),
    ];
    let render = |(head, conjuncts, tail): Shape, swap: bool, reverse: bool| {
        let mut spelled: Vec<String> = conjuncts
            .iter()
            .map(|&(l, r)| match (r, swap) {
                ("", _) => l.to_string(),
                (r, false) => format!("{l} = {r}"),
                (r, true) => format!("{r} = {l}"),
            })
            .collect();
        if reverse {
            spelled.reverse();
        }
        format!("{head} WHERE {}{tail}", spelled.join(" AND "))
    };

    let (db, _) = small_uber();
    let params = params_for(&db, 0.1);
    let db = Arc::new(db);
    let service = || {
        QueryService::new(
            db.clone(),
            ServiceConfig {
                seed: Some(22),
                ..ServiceConfig::default()
            },
        )
    };
    let shared = service();
    for (i, shape) in shapes.into_iter().enumerate() {
        let variants = [
            render(shape, false, false).to_lowercase(),
            render(shape, false, false).replace(' ', "\n   "),
            render(shape, true, false),
            render(shape, false, true),
        ];
        let analyst = format!("analyst-{i}");
        let mut first: Option<ServiceResponse> = None;
        for sql in &variants {
            let cold = service().query(&analyst, sql, params).unwrap();
            let warm = shared.query(&analyst, sql, params).unwrap();
            let schedule = cold.trace.expect("computed").exec.filter_order;
            assert_eq!(usize::from(schedule.conjuncts), shape.1.len(), "{sql}");
            assert_eq!(warm.rows, cold.rows, "{sql}");
            let first = first.get_or_insert(cold.clone());
            assert_eq!(cold.canonical_sql, first.canonical_sql, "{sql}");
            assert_eq!(cold.rows, first.rows, "{sql}");
            assert_eq!(
                schedule,
                first.trace.expect("computed").exec.filter_order,
                "{sql}"
            );
        }
        assert_eq!(
            shared.ledger().spent(&analyst).0,
            params.epsilon,
            "shape {i}"
        );
    }
}
