//! Empirical check of the paper's Theorem 1: elastic sensitivity at
//! distance 0 upper-bounds the *local sensitivity* of every supported
//! counting query — the change in the query's result over every
//! neighboring database (one tuple modified, bounded DP).
//!
//! For small random databases we enumerate all neighbors exhaustively and
//! compare against `Ŝ⁽⁰⁾` computed from the true database's metrics.

use flex::core::analyze;
use flex::prelude::*;
use proptest::prelude::*;

/// Keys and values range over a small domain so neighbor enumeration is
/// exhaustive.
const DOMAIN: std::ops::Range<i64> = 0..4;

fn build_db(a_rows: &[(i64, i64)], b_rows: &[i64]) -> Database {
    let mut db = Database::new();
    db.create_table(
        "a",
        Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]),
    )
    .unwrap();
    db.create_table("b", Schema::of(&[("k", DataType::Int)]))
        .unwrap();
    db.insert(
        "a",
        a_rows
            .iter()
            .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
            .collect(),
    )
    .unwrap();
    db.insert("b", b_rows.iter().map(|k| vec![Value::Int(*k)]).collect())
        .unwrap();
    db
}

/// L1 distance between two query results, aligning histogram bins by
/// label columns (all non-count columns).
fn result_l1(x: &ResultSet, y: &ResultSet, label_cols: &[usize], count_col: usize) -> f64 {
    use std::collections::HashMap;
    let mut bins: HashMap<Vec<String>, (f64, f64)> = HashMap::new();
    for row in &x.rows {
        let key: Vec<String> = label_cols.iter().map(|&c| row[c].to_string()).collect();
        bins.entry(key).or_default().0 += row[count_col].as_f64().unwrap_or(0.0);
    }
    for row in &y.rows {
        let key: Vec<String> = label_cols.iter().map(|&c| row[c].to_string()).collect();
        bins.entry(key).or_default().1 += row[count_col].as_f64().unwrap_or(0.0);
    }
    bins.values().map(|(a, b)| (a - b).abs()).sum()
}

/// Exhaustive local sensitivity: max L1 change over every 1-tuple
/// modification of either table.
fn local_sensitivity(
    a_rows: &[(i64, i64)],
    b_rows: &[i64],
    sql: &str,
    label_cols: &[usize],
    count_col: usize,
) -> f64 {
    let base = build_db(a_rows, b_rows).execute_sql(sql).unwrap();
    let mut worst: f64 = 0.0;
    // Modify a row of `a`.
    for i in 0..a_rows.len() {
        for nk in DOMAIN {
            for nv in DOMAIN {
                let mut rows = a_rows.to_vec();
                rows[i] = (nk, nv);
                let alt = build_db(&rows, b_rows).execute_sql(sql).unwrap();
                worst = worst.max(result_l1(&base, &alt, label_cols, count_col));
            }
        }
    }
    // Modify a row of `b`.
    for i in 0..b_rows.len() {
        for nk in DOMAIN {
            let mut rows = b_rows.to_vec();
            rows[i] = nk;
            let alt = build_db(a_rows, &rows).execute_sql(sql).unwrap();
            worst = worst.max(result_l1(&base, &alt, label_cols, count_col));
        }
    }
    worst
}

/// The supported query shapes exercised, with (label columns, count column).
fn queries() -> Vec<(&'static str, Vec<usize>, usize)> {
    vec![
        ("SELECT COUNT(*) FROM a", vec![], 0),
        ("SELECT COUNT(*) FROM a WHERE v > 1", vec![], 0),
        ("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k", vec![], 0),
        (
            "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k WHERE a.v = 2",
            vec![],
            0,
        ),
        ("SELECT COUNT(*) FROM a x JOIN a y ON x.k = y.k", vec![], 0),
        (
            "SELECT COUNT(*) FROM a x JOIN a y ON x.v = y.v JOIN b ON y.k = b.k",
            vec![],
            0,
        ),
        ("SELECT v, COUNT(*) FROM a GROUP BY v", vec![0], 1),
        (
            "SELECT a.v, COUNT(*) FROM a JOIN b ON a.k = b.k GROUP BY a.v",
            vec![0],
            1,
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 1, empirically: Ŝ⁽⁰⁾ ≥ LS(x) for every supported query on
    /// random small databases.
    #[test]
    fn elastic_sensitivity_bounds_local_sensitivity(
        a_rows in proptest::collection::vec((DOMAIN, DOMAIN), 1..6),
        b_rows in proptest::collection::vec(DOMAIN, 1..6),
    ) {
        let db = build_db(&a_rows, &b_rows);
        for (sql, label_cols, count_col) in queries() {
            let analysis = analyze(&parse_query(sql).unwrap(), &db).unwrap();
            let elastic = analysis.sensitivity().eval(0);
            let local = local_sensitivity(&a_rows, &b_rows, sql, &label_cols, count_col);
            prop_assert!(
                elastic + 1e-9 >= local,
                "query {sql}: elastic {elastic} < local {local} \
                 (a = {a_rows:?}, b = {b_rows:?})"
            );
        }
    }

    /// mf_k dominance (Lemma 1, empirically at k = 1): the metric at
    /// distance 1 bounds the max frequency of every neighbor.
    #[test]
    fn mfk_bounds_neighbor_max_frequency(
        a_rows in proptest::collection::vec((DOMAIN, DOMAIN), 1..6),
    ) {
        let db = build_db(&a_rows, &[0]);
        let mf0 = db.metrics().max_freq("a", "k").unwrap();
        // mf_k(k=1) = mf + 1 for a private table.
        let bound = mf0 + 1;
        for i in 0..a_rows.len() {
            for nk in DOMAIN {
                for nv in DOMAIN {
                    let mut rows = a_rows.to_vec();
                    rows[i] = (nk, nv);
                    let ndb = build_db(&rows, &[0]);
                    let nmf = ndb.metrics().max_freq("a", "k").unwrap();
                    prop_assert!(nmf <= bound, "neighbor mf {nmf} > bound {bound}");
                }
            }
        }
    }

    /// Elastic sensitivity is monotone in k (required for Definition 6).
    #[test]
    fn sensitivity_monotone_in_distance(
        a_rows in proptest::collection::vec((DOMAIN, DOMAIN), 1..8),
    ) {
        let db = build_db(&a_rows, &[0, 1, 2]);
        for (sql, _, _) in queries() {
            let analysis = analyze(&parse_query(sql).unwrap(), &db).unwrap();
            let s = analysis.sensitivity();
            let mut prev = s.eval(0);
            for k in 1..30 {
                let cur = s.eval(k);
                prop_assert!(cur + 1e-9 >= prev, "{sql} not monotone at k={k}");
                prev = cur;
            }
        }
    }
}

/// A deterministic worst-case instance: maximum key skew, where the join
/// multiplication actually bites.
#[test]
fn skewed_self_join_still_bounded() {
    let a_rows: Vec<(i64, i64)> = (0..5).map(|_| (1, 0)).collect(); // all same key
    let b_rows = vec![1, 1, 1];
    let db = build_db(&a_rows, &b_rows);
    let sql = "SELECT COUNT(*) FROM a x JOIN a y ON x.k = y.k";
    let analysis = analyze(&parse_query(sql).unwrap(), &db).unwrap();
    let elastic = analysis.sensitivity().eval(0);
    let local = local_sensitivity(&a_rows, &b_rows, sql, &[], 0);
    assert!(elastic >= local, "elastic {elastic} < local {local}");
    // With mf = 5 the bound is 5 + 5 + 1 = 11. Rekeying one of the 5 rows
    // moves the join count from 25 to 4² + 1 = 17, so the true local
    // sensitivity is 8 — the bound is tight up to the cross term.
    assert_eq!(elastic, 11.0);
    assert_eq!(local, 8.0);
}

// ---- CTE scoping: analysis and execution bind the same tables ----------
//
// `WITH` used to be bound separately by the analysis and by execution,
// under two rules, so a query could be analysed over one table and
// executed over another. It is now expanded once
// (`flex_sql::inline_ctes`) before either.

/// 1000 private `trips`, 3 public `cities`.
fn trips_and_cities() -> Database {
    let mut db = Database::new();
    db.create_table(
        "trips",
        Schema::of(&[("id", DataType::Int), ("city_id", DataType::Int)]),
    )
    .unwrap();
    db.create_table(
        "cities",
        Schema::of(&[("id", DataType::Int), ("name", DataType::Str)]),
    )
    .unwrap();
    db.mark_public("cities");
    db.insert(
        "trips",
        (0..1000)
            .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
            .collect(),
    )
    .unwrap();
    db.insert(
        "cities",
        (0..3)
            .map(|i| vec![Value::Int(i), Value::str(format!("city{i}"))])
            .collect(),
    )
    .unwrap();
    db
}

/// Run `f` on a thread with the service workers' 2 MiB stack: an
/// overflow there aborts the process, which is what these tests guard.
fn on_worker_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

/// The leak: `a` reads private `trips`, but a *later* CTE named `trips`
/// (over public `cities`) used to capture that reference in the analysis
/// only — sensitivity 0, so the true count went out with no noise.
#[test]
fn cte_named_like_a_private_table_does_not_capture_earlier_references() {
    use rand::SeedableRng;
    let db = trips_and_cities();
    let leaking = "WITH a AS (SELECT * FROM trips), trips AS (SELECT * FROM cities) \
                   SELECT COUNT(*) FROM a";
    let by_hand = "SELECT COUNT(*) FROM (SELECT * FROM trips) AS a";

    let analysis = analyze(&parse_query(leaking).unwrap(), &db).unwrap();
    let expected = analyze(&parse_query(by_hand).unwrap(), &db).unwrap();
    assert_eq!(analysis.lowered, expected.lowered);
    assert_eq!(analysis.outputs, expected.outputs);
    assert_eq!(analysis.sensitivity().eval(0), 1.0);

    let params = PrivacyParams::new(0.1, 1e-8).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let released = run_sql(&db, leaking, params, &mut rng).unwrap();
    assert_eq!(released.true_rows, vec![vec![Value::Int(1000)]]);
    assert!(released.column_sensitivity[0].is_some());
    assert_ne!(released.scalar(), Some(1000.0), "released the true count");
}

/// A CTE never sees itself: `trips` inside the body is the base table.
/// The analysis used to chase the name into its own definition until the
/// stack ran out.
#[test]
fn cte_named_after_its_own_source_is_not_recursive() {
    let rows = on_worker_stack(|| {
        let db = trips_and_cities();
        let q =
            parse_query("WITH trips AS (SELECT * FROM trips) SELECT COUNT(*) FROM trips").unwrap();
        let analysis = analyze(&q, &db).unwrap();
        assert_eq!(analysis.sensitivity().eval(0), 1.0);
        (
            db.execute(&q).unwrap().rows,
            flex_oracle::execute(&db, &q).unwrap().rows,
        )
    });
    assert_eq!(rows.0, vec![vec![Value::Int(1000)]]);
    assert_eq!(rows.1, rows.0);
}

/// Nor a later one: with no base table `b`, a forward reference is an
/// unknown table to the analysis, the executor and the oracle alike.
#[test]
fn cte_forward_reference_is_an_unknown_table_everywhere() {
    let db = trips_and_cities();
    let q = parse_query(
        "WITH a AS (SELECT * FROM b), b AS (SELECT * FROM trips) SELECT COUNT(*) FROM a",
    )
    .unwrap();
    assert_eq!(
        flex::core::lower(&q, &db).unwrap_err(),
        FlexError::UnknownTable("b".into())
    );
    let unknown = flex::db::DbError::UnknownTable("b".into());
    assert_eq!(db.execute(&q).unwrap_err(), unknown);
    assert_eq!(flex_oracle::execute(&db, &q).unwrap_err(), unknown);
}

// ---- Output binding: noise lands on the column it was computed for -----
//
// The analysis used to classify a pass-through root's columns in the
// *inner* block's order and the mechanism zipped that onto the executed
// result by position: `SELECT n, k FROM (SELECT … AS k, COUNT(*) AS n …)`
// released the true counts and noised the labels. Both sides now bind the
// SELECT list through `flex_db::bind`, layer by layer.

const HISTOGRAM: &str = "SELECT city_id AS k, COUNT(*) AS n FROM trips GROUP BY city_id";

/// Pass-through spellings over [`HISTOGRAM`], each with the result
/// column its count ends up in (the other column is the label).
fn reordered_histograms() -> Vec<(String, usize)> {
    vec![
        (format!("WITH a AS ({HISTOGRAM}) SELECT n, k FROM a"), 0),
        (format!("SELECT n, k FROM ({HISTOGRAM}) a"), 0),
        (
            format!("SELECT k, n FROM (SELECT n, k FROM ({HISTOGRAM}) a) b"),
            1,
        ),
        // Aliases that swap the names: `page` is now the count.
        (
            "SELECT x.c AS page, x.page AS c FROM \
             (SELECT city_id AS page, COUNT(*) AS c FROM trips GROUP BY city_id) x"
                .to_string(),
            0,
        ),
        (
            "SELECT x.* FROM \
             (SELECT COUNT(*) AS n, city_id AS k FROM trips GROUP BY city_id) x"
                .to_string(),
            0,
        ),
    ]
}

/// `released` noises exactly column `count_col` of `truth` and passes the
/// label through: 1000 trips over three cities are bins of 334/333/333.
fn assert_noise_on_count_column(
    sql: &str,
    count_col: usize,
    truth: &[Vec<Value>],
    released: &[Vec<Value>],
) {
    let label_col = 1 - count_col;
    assert_eq!(truth.len(), 3, "{sql}");
    assert_eq!(released.len(), 3, "{sql}");
    for (noised, truth) in released.iter().zip(truth) {
        let count = truth[count_col].as_i64().unwrap();
        assert!(count == 333 || count == 334, "{sql}: {truth:?}");
        assert!(
            (0..3).contains(&truth[label_col].as_i64().unwrap()),
            "{sql}: {truth:?}"
        );
        assert_eq!(
            noised[label_col], truth[label_col],
            "{sql}: label was noised"
        );
        assert_ne!(
            noised[count_col].as_f64(),
            Some(count as f64),
            "{sql}: released the true count"
        );
    }
}

#[test]
fn reordered_pass_through_columns_keep_their_noise() {
    use rand::SeedableRng;
    let db = trips_and_cities();
    let params = PrivacyParams::new(0.1, 1e-8).unwrap();
    for (sql, count_col) in reordered_histograms() {
        for seed in 0..20 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let r = run_sql(&db, &sql, params, &mut rng).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let noised: Vec<bool> = r.column_sensitivity.iter().map(Option::is_some).collect();
            assert_eq!(noised, [count_col == 0, count_col == 1], "{sql}");
            assert_noise_on_count_column(&sql, count_col, &r.true_rows, &r.rows);
        }
    }
}

/// The same through the front door: the service releases what
/// `run_sql` would, so the true bins never reach an analyst.
#[test]
fn service_noises_the_count_of_a_reordered_pass_through() {
    let db = std::sync::Arc::new(trips_and_cities());
    let truth = db.execute_sql(HISTOGRAM).unwrap();
    let svc = QueryService::new(db, ServiceConfig::default());
    let params = PrivacyParams::new(0.1, 1e-8).unwrap();
    let sql = format!("WITH a AS ({HISTOGRAM}) SELECT n, k FROM a");
    let answer = svc.submit("alice", &sql, params).wait().unwrap();
    assert_eq!(answer.columns, ["n", "k"]);
    let swapped: Vec<Vec<Value>> = truth
        .rows
        .iter()
        .map(|r| vec![r[1].clone(), r[0].clone()])
        .collect();
    assert_noise_on_count_column(&sql, 0, &swapped, &answer.rows);
}

/// Reordering the columns of a release reorders its cells and nothing
/// else: the same seed draws the same noise for the same statistic.
#[test]
fn a_reordered_release_is_the_column_permutation_of_the_in_order_one() {
    use rand::SeedableRng;
    let db = trips_and_cities();
    let params = PrivacyParams::new(0.1, 1e-8).unwrap();
    let bits = |rows: &[Vec<Value>], cols: [usize; 2]| -> Vec<Vec<String>> {
        rows.iter()
            .map(|r| {
                cols.iter()
                    .map(|&c| match &r[c] {
                        Value::Float(f) => format!("f{:016x}", f.to_bits()),
                        v => v.to_string(),
                    })
                    .collect()
            })
            .collect()
    };
    for seed in 0..20 {
        let run = |projection: &str| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let sql = format!("WITH a AS ({HISTOGRAM}) SELECT {projection} FROM a");
            run_sql(&db, &sql, params, &mut rng).unwrap()
        };
        let (in_order, reordered) = (run("k, n"), run("n, k"));
        assert_eq!(reordered.columns, ["n", "k"]);
        assert_eq!(
            bits(&reordered.rows, [0, 1]),
            bits(&in_order.rows, [1, 0]),
            "seed {seed}"
        );
    }
}

// ---- Subqueries: refused wherever they stand ---------------------------
//
// The analysis used to look for `EXISTS` / `IN (SELECT …)` in WHERE only,
// so one in HAVING or in a GROUP BY key passed — with a sensitivity that
// bounds nothing it decides. It now reads the plan, which records every
// expression subquery of every block.

/// Ten trips, fares 0–9; `outlier` moves one of them to 2 000.
fn trips_with_fares(outlier: bool) -> Database {
    let mut db = Database::new();
    let schema = Schema::of(&[("id", DataType::Int), ("fare", DataType::Float)]);
    db.create_table("trips", schema).unwrap();
    let fare = |i: i64| if outlier && i == 0 { 2_000.0 } else { i as f64 };
    let rows = (0..10)
        .map(|i| vec![Value::Int(i), Value::Float(fare(i))])
        .collect();
    db.insert("trips", rows).unwrap();
    db
}

/// `HAVING EXISTS` over private rows decides whether the count's one row
/// is released at all: two neighbours (one fare changed) release zero
/// rows and one. Both are refused now, before anything runs.
#[test]
fn a_subquery_in_having_is_refused_on_both_neighbours() {
    use rand::SeedableRng;
    let sql = "SELECT COUNT(*) FROM trips HAVING EXISTS (SELECT 1 FROM trips WHERE fare > 1000)";
    let params = PrivacyParams::new(1.0, 1e-6).unwrap();
    let rows = |db: &Database| db.execute_sql(sql).unwrap().rows.len();
    let (plain, outlier) = (trips_with_fares(false), trips_with_fares(true));
    assert_eq!(
        (rows(&plain), rows(&outlier)),
        (0, 1),
        "a distinguishing pair"
    );
    for db in [&plain, &outlier] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let released = run_sql(db, sql, params, &mut rng).map(|r| r.rows.len());
        assert_eq!(released, Err(FlexError::UnsupportedSubqueryPredicate));
    }
}

/// A GROUP BY key that holds an `IN (SELECT …)` is a subquery too.
#[test]
fn a_subquery_in_a_group_key_is_refused() {
    let db = trips_and_cities();
    let key = "city_id IN (SELECT id FROM cities WHERE name = 'city1')";
    let sql = format!("SELECT {key}, COUNT(*) FROM trips GROUP BY {key}");
    assert_eq!(db.execute_sql(&sql).unwrap().rows.len(), 2);
    let analysis = analyze(&parse_query(&sql).unwrap(), &db);
    assert_eq!(
        analysis.map(|a| a.outputs),
        Err(FlexError::UnsupportedSubqueryPredicate)
    );
}
