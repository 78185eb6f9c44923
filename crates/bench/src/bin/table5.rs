//! Reproduces paper Table 5: utility comparison of wPINQ and FLEX
//! (elastic sensitivity) on six representative counting queries using
//! join, at ε = 0.1, 100 runs each, public `cities` handled via wPINQ
//! `Select` (lookup) rather than `Join` — mirroring the paper's setup.
//!
//! Error is measured against the *true* (unweighted) SQL results for both
//! mechanisms, so wPINQ's error includes the bias its join weight
//! rescaling introduces — the effect the paper's comparison captures.

use flex_bench::{uber_db, write_json, Table};
use flex_core::{run_sql, PrivacyParams};
use flex_db::{Database, Value};
use flex_mechanisms::WeightedDataset;
use flex_workloads::uber::table5_queries;
use rand::rngs::StdRng;
use rand::SeedableRng;

const RUNS: usize = 100;

/// The paper runs this comparison at ε = 0.1 against multi-billion-row
/// production tables, where counts dwarf the smooth-sensitivity noise
/// floor (≈ 0.74·ln(2/δ)/ε² for low-mf joins). Our synthetic tables are
/// five orders of magnitude smaller, so we scale ε to keep the
/// floor-to-count ratio in the paper's regime; wPINQ uses the same ε, and
/// its join *bias* — the effect the comparison isolates — is
/// ε-independent. See EXPERIMENTS.md.
const EPS: f64 = 2.0;

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Relative-error (%) of estimates vs truths, skipping zero truths;
/// returns the median across cells.
fn rel_err(estimates: &[f64], truths: &[f64]) -> f64 {
    let errs: Vec<f64> = estimates
        .iter()
        .zip(truths)
        .filter(|(_, t)| **t != 0.0)
        .map(|(e, t)| ((e - t) / t).abs() * 100.0)
        .collect();
    median(errs)
}

/// One wPINQ execution of program `no`, returning (estimates, truths).
fn run_wpinq(no: u32, db: &Database, rng: &mut StdRng) -> (Vec<f64>, Vec<f64>) {
    let trips = WeightedDataset::from_table(db.table("trips").unwrap());
    let drivers = WeightedDataset::from_table(db.table("drivers").unwrap());
    let tags = WeightedDataset::from_table(db.table("user_tags").unwrap());
    let analytics = WeightedDataset::from_table(db.table("analytics").unwrap());
    let cities = db.table("cities").unwrap();

    // trips columns: id, driver_id, rider_id, city_id, status, fare, trip_date
    // drivers columns: id, city_id, vehicle, status, signup_date
    let drivers_renamed = drivers.clone().with_columns(vec![
        "d_id".into(),
        "d_city_id".into(),
        "d_vehicle".into(),
        "d_status".into(),
        "d_signup".into(),
    ]);

    match no {
        1 => {
            // Distinct drivers with a completed SF trip who enrolled elsewhere.
            let sf = trips
                .where_(|r| r[4] == Value::str("completed"))
                .lookup_join("city_id", cities, "id")
                .where_(|r| r[8] == Value::str("san francisco"));
            let joined = sf.join("driver_id", &drivers_renamed, "d_id");
            // trips(7) + cities(2) = 9 cols, then drivers: d_city_id at 10.
            let moved = joined.where_(|r| r[3].sql_eq(&r[10]) == Some(false));
            let est = moved.distinct(&["driver_id"]).noisy_count(EPS, rng);
            let truth = scalar(
                db,
                "SELECT COUNT(DISTINCT d.id) FROM trips t \
                 JOIN drivers d ON t.driver_id = d.id \
                 JOIN cities c ON t.city_id = c.id \
                 WHERE c.name = 'san francisco' AND t.status = 'completed' \
                 AND d.city_id <> t.city_id",
            );
            (vec![est], vec![truth])
        }
        2 => {
            // Active drivers tagged duplicate after June 6.
            let filtered_tags = tags.where_(|r| {
                r[1] == Value::str("duplicate_account")
                    && r[2].sql_cmp(&Value::str("2016-06-06")) == Some(std::cmp::Ordering::Greater)
            });
            let active = drivers_renamed.where_(|r| r[3] == Value::str("active"));
            let est = active
                .join("d_id", &filtered_tags, "user_id")
                .noisy_count(EPS, rng);
            let truth = scalar(
                db,
                "SELECT COUNT(*) FROM drivers d JOIN user_tags u ON d.id = u.user_id \
                 WHERE d.status = 'active' AND u.tag = 'duplicate_account' \
                 AND u.tagged_at > '2016-06-06'",
            );
            (vec![est], vec![truth])
        }
        3 => {
            // Motorbike drivers in Hanoi, active, ≥ 10 completed trips.
            let hanoi = drivers_renamed.where_(|r| {
                r[1] == Value::Int(3)
                    && r[2] == Value::str("motorbike")
                    && r[3] == Value::str("active")
            });
            let heavy = analytics
                .where_(|r| r[1].sql_cmp(&Value::Int(10)) != Some(std::cmp::Ordering::Less));
            let est = hanoi
                .join("d_id", &heavy, "driver_id")
                .noisy_count(EPS, rng);
            let truth = scalar(
                db,
                "SELECT COUNT(*) FROM drivers d JOIN analytics a ON d.id = a.driver_id \
                 WHERE d.vehicle = 'motorbike' AND d.city_id = 3 \
                 AND d.status = 'active' AND a.completed_trips >= 10",
            );
            (vec![est], vec![truth])
        }
        4 => {
            // Histogram: daily trips by city on Oct 24, 2016.
            let day = trips
                .where_(|r| r[6] == Value::str("2016-10-24"))
                .lookup_join("city_id", cities, "id");
            let bins: Vec<Value> = cities.rows().iter().map(|r| r[1].clone()).collect();
            let out = day.noisy_count_by_key("cities_name", &bins, EPS, rng);
            let truth = histogram(
                db,
                "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id \
                 WHERE t.trip_date = '2016-10-24' GROUP BY c.name",
                &bins,
            );
            (out.into_iter().map(|(_, v)| v).collect(), truth)
        }
        5 => {
            // Histogram: trips per driver in Hong Kong, Sept 9 – Oct 3.
            let window = trips.where_(|r| {
                r[6].sql_cmp(&Value::str("2016-09-09")) != Some(std::cmp::Ordering::Less)
                    && r[6].sql_cmp(&Value::str("2016-10-03")) != Some(std::cmp::Ordering::Greater)
            });
            let hk_drivers = drivers_renamed.where_(|r| r[1] == Value::Int(4));
            let joined = window.join("driver_id", &hk_drivers, "d_id");
            // Analyst-specified bins: every driver id.
            let bins: Vec<Value> = db
                .table("drivers")
                .unwrap()
                .rows()
                .iter()
                .map(|r| r[0].clone())
                .collect();
            let out = joined.noisy_count_by_key("driver_id", &bins, EPS, rng);
            let truth = histogram(
                db,
                "SELECT t.driver_id, COUNT(*) FROM trips t \
                 JOIN drivers d ON t.driver_id = d.id \
                 WHERE d.city_id = 4 AND t.trip_date BETWEEN '2016-09-09' AND '2016-10-03' \
                 GROUP BY t.driver_id",
                &bins,
            );
            (out.into_iter().map(|(_, v)| v).collect(), truth)
        }
        6 => {
            // Histogram: Sydney drivers by completed-trip bucket.
            let sydney = drivers_renamed.where_(|r| r[1] == Value::Int(2));
            let recent = analytics.where_(|r| {
                r[2].sql_cmp(&Value::str("2016-12-03")) != Some(std::cmp::Ordering::Less)
            });
            let joined = sydney.join("d_id", &recent, "driver_id");
            // Map to bucket labels: analytics completed_trips is column 6.
            let bucketed = joined.select(vec!["bucket".into()], |r| {
                let trips = r[6].as_i64().unwrap_or(0);
                let label = if trips >= 250 {
                    "heavy"
                } else if trips >= 100 {
                    "regular"
                } else {
                    "light"
                };
                vec![Value::str(label)]
            });
            let bins = vec![
                Value::str("heavy"),
                Value::str("regular"),
                Value::str("light"),
            ];
            let out = bucketed.noisy_count_by_key("bucket", &bins, EPS, rng);
            let truth = histogram(
                db,
                "SELECT CASE WHEN a.completed_trips >= 250 THEN 'heavy' \
                             WHEN a.completed_trips >= 100 THEN 'regular' \
                             ELSE 'light' END AS bucket, COUNT(*) \
                 FROM drivers d JOIN analytics a ON d.id = a.driver_id \
                 WHERE d.city_id = 2 AND a.last_trip_date >= '2016-12-03' \
                 GROUP BY CASE WHEN a.completed_trips >= 250 THEN 'heavy' \
                               WHEN a.completed_trips >= 100 THEN 'regular' \
                               ELSE 'light' END",
                &bins,
            );
            (out.into_iter().map(|(_, v)| v).collect(), truth)
        }
        other => panic!("unknown program {other}"),
    }
}

fn scalar(db: &Database, sql: &str) -> f64 {
    db.execute_sql(sql)
        .unwrap()
        .scalar()
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0)
}

/// True histogram values aligned with `bins` (0 for missing bins).
fn histogram(db: &Database, sql: &str, bins: &[Value]) -> Vec<f64> {
    let rs = db.execute_sql(sql).unwrap();
    bins.iter()
        .map(|bin| {
            rs.rows
                .iter()
                .find(|r| r[0].sql_eq(bin) == Some(true))
                .and_then(|r| r[1].as_f64())
                .unwrap_or(0.0)
        })
        .collect()
}

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    println!("=== Table 5: wPINQ vs FLEX on representative join queries ===");
    println!("(ε = {EPS}, {RUNS} runs per mechanism per query)\n");
    let (db, _) = uber_db(scale);
    let params = PrivacyParams::new(EPS, 1e-8).unwrap();

    let paper: [(f64, f64, f64); 6] = [
        // (population, wPINQ err %, elastic err %)
        (663.0, 45.9, 22.6),
        (734.0, 71.5, 2.8),
        (212.0, 51.4, 4.72),
        (87.0, 11.5, 23.0),
        (1.0, 974.0, 6437.0),
        (72.0, 51.5, 27.8),
    ];

    let mut t = Table::new([
        "Program",
        "population",
        "wPINQ err %",
        "FLEX err %",
        "paper wPINQ",
        "paper FLEX",
    ]);
    let mut rows = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x7AB1E5);
    for (no, _desc, sql) in table5_queries() {
        // FLEX: run the SQL through the full mechanism.
        let mut flex_errs = Vec::with_capacity(RUNS);
        for _ in 0..RUNS {
            match run_sql(&db, &sql, params, &mut rng) {
                Ok(r) => {
                    if let Some(e) = r.median_relative_error_pct() {
                        flex_errs.push(e);
                    }
                }
                Err(e) => {
                    eprintln!("FLEX rejected program {no}: {e}");
                    break;
                }
            }
        }
        // wPINQ: run the equivalent weighted program.
        let mut wpinq_errs = Vec::with_capacity(RUNS);
        for _ in 0..RUNS {
            let (est, truth) = run_wpinq(no, &db, &mut rng);
            let e = rel_err(&est, &truth);
            if e.is_finite() {
                wpinq_errs.push(e);
            }
        }
        // Population: distinct primary rows after filters (approximated by
        // the true count of the program's base relation).
        let (_, truth) = {
            let mut probe_rng = StdRng::seed_from_u64(1);
            run_wpinq(no, &db, &mut probe_rng)
        };
        let population: f64 = truth.iter().filter(|t| **t > 0.0).sum();
        let fe = median(flex_errs);
        let we = median(wpinq_errs);
        let p = paper[(no - 1) as usize];
        t.row([
            format!("{no}"),
            format!("{population:.0}"),
            format!("{we:.1}"),
            format!("{fe:.1}"),
            format!("{:.1}", p.1),
            format!("{:.1}", p.2),
        ]);
        rows.push(serde_json::json!({
            "program": no, "population": population,
            "wpinq_error_pct": we, "flex_error_pct": fe,
            "paper_wpinq": p.1, "paper_flex": p.2,
        }));
    }
    t.print();
    println!(
        "\n(paper shape: FLEX beats wPINQ on programs 1, 2, 3 and 6 — the\n\
         \x20 weight-rescaling bias dominates; wPINQ wins on 4 and 5, where\n\
         \x20 joins multiply FLEX's sensitivity but wPINQ's weights survive)"
    );

    write_json(
        "table5",
        &serde_json::json!({"epsilon": EPS, "runs": RUNS, "programs": rows}),
    );
}
