//! Synthetic ride-sharing dataset and query workload.
//!
//! Stands in for the paper's proprietary Uber tables and the 9862-query
//! experiment set of §5. The schema mirrors the tables the paper's
//! representative queries touch (trips, drivers, riders, cities,
//! user_tags, analytics); join keys are Zipf-skewed so max-frequency
//! metrics and per-query population sizes span the same ranges the paper
//! reports (Figure 3: a wide spread from single-digit to near-full-table
//! populations).

use crate::zipf::Zipf;
use flex_db::{DataType, Database, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Size knobs for the synthetic dataset.
#[derive(Debug, Clone, Copy)]
pub struct UberConfig {
    pub cities: usize,
    pub drivers: usize,
    pub riders: usize,
    pub trips: usize,
    pub user_tags: usize,
    pub seed: u64,
}

impl Default for UberConfig {
    fn default() -> Self {
        UberConfig {
            cities: 30,
            drivers: 2_000,
            riders: 5_000,
            trips: 50_000,
            user_tags: 2_000,
            seed: 0x0BE2,
        }
    }
}

/// Cumulative day counts (2016, a leap year).
const MONTH_DAYS: [u32; 12] = [31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// Convert a day index `0..366` to an ISO date string in 2016.
pub fn date_2016(day_index: u32) -> String {
    let mut d = day_index % 366;
    for (m, len) in MONTH_DAYS.iter().enumerate() {
        if d < *len {
            return format!("2016-{:02}-{:02}", m + 1, d + 1);
        }
        d -= len;
    }
    unreachable!("day index within a year")
}

// Ordered so the cities named by the Table 5 programs (san francisco,
// hanoi, hong kong, sydney) sit near the head of the Zipf distribution and
// carry realistic populations.
const CITY_NAMES: [&str; 30] = [
    "san francisco",
    "sydney",
    "hanoi",
    "hong kong",
    "new york",
    "los angeles",
    "chicago",
    "seattle",
    "boston",
    "austin",
    "denver",
    "miami",
    "atlanta",
    "portland",
    "dallas",
    "houston",
    "phoenix",
    "philadelphia",
    "london",
    "paris",
    "berlin",
    "amsterdam",
    "madrid",
    "melbourne",
    "singapore",
    "tokyo",
    "seoul",
    "jakarta",
    "mexico city",
    "sao paulo",
];

const VEHICLES: [&str; 4] = ["car", "motorbike", "suv", "bike"];
const TAGS: [&str; 8] = [
    "duplicate_account",
    "fraud_review",
    "vip",
    "promo_abuse",
    "support_escalation",
    "document_expired",
    "payment_failed",
    "background_check",
];

/// Generate the full database, metrics included.
pub fn generate(cfg: &UberConfig) -> Database {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut db = Database::new();

    // cities — public.
    db.create_table(
        "cities",
        Schema::of(&[("id", DataType::Int), ("name", DataType::Str)]),
    )
    .unwrap();
    db.mark_public("cities");
    let n_cities = cfg.cities.min(CITY_NAMES.len());
    db.insert(
        "cities",
        (0..n_cities)
            .map(|i| vec![Value::Int(i as i64 + 1), Value::str(CITY_NAMES[i])])
            .collect(),
    )
    .unwrap();

    // drivers.
    db.create_table(
        "drivers",
        Schema::of(&[
            ("id", DataType::Int),
            ("city_id", DataType::Int),
            ("vehicle", DataType::Str),
            ("status", DataType::Str),
            ("signup_date", DataType::Str),
        ]),
    )
    .unwrap();
    let city_zipf = Zipf::new(n_cities, 0.8);
    let driver_rows: Vec<Vec<Value>> = (0..cfg.drivers)
        .map(|i| {
            vec![
                Value::Int(i as i64 + 1),
                Value::Int(city_zipf.sample(&mut rng) as i64 + 1),
                Value::str(VEHICLES[rng.gen_range(0..VEHICLES.len())]),
                Value::str(if rng.gen_bool(0.85) {
                    "active"
                } else {
                    "inactive"
                }),
                Value::str(date_2016(rng.gen_range(0..366))),
            ]
        })
        .collect();
    db.insert("drivers", driver_rows).unwrap();

    // riders.
    db.create_table(
        "riders",
        Schema::of(&[
            ("id", DataType::Int),
            ("city_id", DataType::Int),
            ("signup_date", DataType::Str),
        ]),
    )
    .unwrap();
    let rider_rows: Vec<Vec<Value>> = (0..cfg.riders)
        .map(|i| {
            vec![
                Value::Int(i as i64 + 1),
                Value::Int(city_zipf.sample(&mut rng) as i64 + 1),
                Value::str(date_2016(rng.gen_range(0..366))),
            ]
        })
        .collect();
    db.insert("riders", rider_rows).unwrap();

    // trips — the main fact table.
    db.create_table(
        "trips",
        Schema::of(&[
            ("id", DataType::Int),
            ("driver_id", DataType::Int),
            ("rider_id", DataType::Int),
            ("city_id", DataType::Int),
            ("status", DataType::Str),
            ("fare", DataType::Float),
            ("trip_date", DataType::Str),
        ]),
    )
    .unwrap();
    // Moderate skew: the busiest driver ends up with a few hundred trips,
    // so mf(trips.driver_id) sits well below the large populations — the
    // regime in which the paper's Figure 4(b) shows joins reaching < 10%
    // error.
    let driver_zipf = Zipf::new(cfg.drivers, 0.4);
    let rider_zipf = Zipf::new(cfg.riders, 0.9);
    let trip_rows: Vec<Vec<Value>> = (0..cfg.trips)
        .map(|i| {
            let base: f64 = rng.gen_range(0.0f64..1.0);
            let fare = 3.0 + 40.0 * base * base; // right-skewed fares
            vec![
                Value::Int(i as i64 + 1),
                Value::Int(driver_zipf.sample(&mut rng) as i64 + 1),
                Value::Int(rider_zipf.sample(&mut rng) as i64 + 1),
                Value::Int(city_zipf.sample(&mut rng) as i64 + 1),
                Value::str(if rng.gen_bool(0.9) {
                    "completed"
                } else {
                    "canceled"
                }),
                Value::Float((fare * 100.0).round() / 100.0),
                Value::str(date_2016(rng.gen_range(0..366))),
            ]
        })
        .collect();
    db.insert("trips", trip_rows).unwrap();

    // user_tags — many-to-many on `tag`.
    db.create_table(
        "user_tags",
        Schema::of(&[
            ("user_id", DataType::Int),
            ("tag", DataType::Str),
            ("tagged_at", DataType::Str),
        ]),
    )
    .unwrap();
    let tag_zipf = Zipf::new(TAGS.len(), 0.7);
    let tag_rows: Vec<Vec<Value>> = (0..cfg.user_tags)
        .map(|_| {
            vec![
                Value::Int(rng.gen_range(1..=cfg.drivers as i64)),
                Value::str(TAGS[tag_zipf.sample(&mut rng)]),
                Value::str(date_2016(rng.gen_range(0..366))),
            ]
        })
        .collect();
    db.insert("user_tags", tag_rows).unwrap();

    // analytics — one row per driver (one-to-one with drivers).
    db.create_table(
        "analytics",
        Schema::of(&[
            ("driver_id", DataType::Int),
            ("completed_trips", DataType::Int),
            ("last_trip_date", DataType::Str),
        ]),
    )
    .unwrap();
    let analytics_rows: Vec<Vec<Value>> = (0..cfg.drivers)
        .map(|i| {
            let trips: i64 = rng.gen_range(0..400);
            // Most drivers are recently active: 70% took a trip within the
            // last 28 days of the year.
            let last_trip = if rng.gen_bool(0.7) {
                date_2016(rng.gen_range(338..366))
            } else {
                date_2016(rng.gen_range(0..338))
            };
            vec![
                Value::Int(i as i64 + 1),
                Value::Int(trips),
                Value::str(last_trip),
            ]
        })
        .collect();
    db.insert("analytics", analytics_rows).unwrap();

    // The fare column's data model (paper §3.7.2): a check constraint
    // bounding fares, used by SUM/AVG sensitivities.
    db.metrics_mut().set_value_range("trips", "fare", 100.0);
    db
}

/// Labels describing a workload query, used to slice the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTraits {
    pub has_join: bool,
    /// Joins a public table (benefits from the §3.6 optimization).
    pub uses_public_table: bool,
    /// Contains a many-to-many join on private tables.
    pub many_to_many: bool,
    /// Filters on a specific individual's identifier (Table 4 category 1).
    pub targets_individual: bool,
    /// Histogram (GROUP BY) query.
    pub histogram: bool,
}

/// One workload query: the statistical SQL plus a companion population
/// query (`COUNT(DISTINCT <primary key>)` over the same FROM/WHERE) that
/// measures the paper's *population size* metric.
#[derive(Debug, Clone)]
pub struct WorkloadQuery {
    pub name: String,
    pub sql: String,
    pub population_sql: String,
    pub traits: QueryTraits,
}

/// Generate the evaluation workload over the synthetic database: counting
/// and histogram queries whose filters sweep population sizes from a
/// handful of rows to the whole table, with and without joins, on private
/// and public join keys.
pub fn workload(cfg: &UberConfig) -> Vec<WorkloadQuery> {
    let mut out = Vec::new();
    let n_cities = cfg.cities.min(CITY_NAMES.len());
    let windows: [(u32, u32, &str); 4] = [
        (297, 297, "1d"), // Oct 24
        (250, 256, "1w"),
        (182, 212, "1m"),
        (0, 365, "1y"),
    ];

    // --- No-join counting queries: city × window sweeps. -----------------
    for city in 1..=n_cities.min(12) {
        for (lo, hi, wname) in windows {
            let pred = format!(
                "city_id = {city} AND trip_date BETWEEN '{}' AND '{}' AND status = 'completed'",
                date_2016(lo),
                date_2016(hi)
            );
            out.push(WorkloadQuery {
                name: format!("count_city{city}_{wname}"),
                sql: format!("SELECT COUNT(*) FROM trips WHERE {pred}"),
                population_sql: format!("SELECT COUNT(DISTINCT id) FROM trips WHERE {pred}"),
                traits: QueryTraits {
                    has_join: false,
                    uses_public_table: false,
                    many_to_many: false,
                    targets_individual: false,
                    histogram: false,
                },
            });
        }
    }

    // Fare-threshold sweeps (varying selectivity without joins).
    for (i, fare) in [5.0, 15.0, 30.0, 40.0, 42.5].iter().enumerate() {
        out.push(WorkloadQuery {
            name: format!("count_fare_gt_{i}"),
            sql: format!("SELECT COUNT(*) FROM trips WHERE fare > {fare}"),
            population_sql: format!("SELECT COUNT(DISTINCT id) FROM trips WHERE fare > {fare}"),
            traits: QueryTraits {
                has_join: false,
                uses_public_table: false,
                many_to_many: false,
                targets_individual: false,
                histogram: false,
            },
        });
    }

    // --- Individual-targeting queries (Table 4, category 1). -------------
    // Two look at a driver's whole year, two at a single month of one
    // driver's activity — the latter are the archetypal "question about a
    // specific individual" the paper's §5.2.2 discusses.
    for (driver, window) in [
        (1i64, None),
        (42, None),
        (1850, Some(("2016-03-01", "2016-03-31"))),
        (1999, Some(("2016-07-01", "2016-07-31"))),
    ] {
        let pred = match window {
            None => format!("driver_id = {driver}"),
            Some((lo, hi)) => {
                format!("driver_id = {driver} AND trip_date BETWEEN '{lo}' AND '{hi}'")
            }
        };
        out.push(WorkloadQuery {
            name: format!("count_driver_{driver}"),
            sql: format!("SELECT COUNT(*) FROM trips WHERE {pred}"),
            population_sql: format!("SELECT COUNT(DISTINCT id) FROM trips WHERE {pred}"),
            traits: QueryTraits {
                has_join: false,
                uses_public_table: false,
                many_to_many: false,
                targets_individual: true,
                histogram: false,
            },
        });
    }

    // --- Public-table joins (§3.6 optimization applies). -----------------
    for city in 1..=n_cities.min(10) {
        let name = CITY_NAMES[city - 1];
        let pred = format!("c.name = '{name}' AND t.status = 'completed'");
        out.push(WorkloadQuery {
            name: format!("count_publicjoin_{city}"),
            sql: format!(
                "SELECT COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id WHERE {pred}"
            ),
            population_sql: format!(
                "SELECT COUNT(DISTINCT t.id) FROM trips t JOIN cities c ON t.city_id = c.id WHERE {pred}"
            ),
            traits: QueryTraits {
                has_join: true,
                uses_public_table: true,
                many_to_many: false,
                targets_individual: false,
                histogram: false,
            },
        });
    }

    // Histogram over public city names.
    for (lo, hi, wname) in windows {
        let pred = format!(
            "t.trip_date BETWEEN '{}' AND '{}'",
            date_2016(lo),
            date_2016(hi)
        );
        out.push(WorkloadQuery {
            name: format!("hist_city_{wname}"),
            sql: format!(
                "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id \
                 WHERE {pred} GROUP BY c.name"
            ),
            population_sql: format!(
                "SELECT COUNT(DISTINCT t.id) FROM trips t JOIN cities c ON t.city_id = c.id WHERE {pred}"
            ),
            traits: QueryTraits {
                has_join: true,
                uses_public_table: true,
                many_to_many: false,
                targets_individual: false,
                histogram: true,
            },
        });
    }

    // --- Private one-to-many joins (trips ⋈ drivers). --------------------
    for city in 1..=n_cities.min(8) {
        for vehicle in ["car", "motorbike"] {
            let pred = format!(
                "d.city_id = {city} AND d.vehicle = '{vehicle}' AND t.status = 'completed'"
            );
            out.push(WorkloadQuery {
                name: format!("count_join_city{city}_{vehicle}"),
                sql: format!(
                    "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id \
                     WHERE {pred}"
                ),
                population_sql: format!(
                    "SELECT COUNT(DISTINCT t.id) FROM trips t JOIN drivers d ON t.driver_id = d.id WHERE {pred}"
                ),
                traits: QueryTraits {
                    has_join: true,
                    uses_public_table: false,
                    many_to_many: false,
                    targets_individual: false,
                    histogram: false,
                },
            });
        }
    }

    // Broad private joins: no city filter, so the population can grow past
    // the smooth-sensitivity noise floor (the paper's Figure 4(b) regime
    // where join queries reach < 10% error).
    for (i, pred) in [
        "t.status = 'completed'",
        "d.status = 'active'",
        "t.status = 'completed' AND d.status = 'active'",
        "t.fare > 5",
        "t.trip_date >= '2016-07-01'",
        "d.vehicle = 'car'",
    ]
    .iter()
    .enumerate()
    {
        out.push(WorkloadQuery {
            name: format!("count_join_broad_{i}"),
            sql: format!(
                "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id \
                 WHERE {pred}"
            ),
            population_sql: format!(
                "SELECT COUNT(DISTINCT t.id) FROM trips t JOIN drivers d ON t.driver_id = d.id WHERE {pred}"
            ),
            traits: QueryTraits {
                has_join: true,
                uses_public_table: false,
                many_to_many: false,
                targets_individual: false,
                histogram: false,
            },
        });
    }

    // One-to-one join (drivers ⋈ analytics) with threshold sweeps.
    for threshold in [10, 50, 150, 300] {
        let pred = format!("a.completed_trips >= {threshold} AND d.status = 'active'");
        out.push(WorkloadQuery {
            name: format!("count_analytics_ge_{threshold}"),
            sql: format!(
                "SELECT COUNT(*) FROM drivers d JOIN analytics a ON d.id = a.driver_id \
                 WHERE {pred}"
            ),
            population_sql: format!(
                "SELECT COUNT(DISTINCT d.id) FROM drivers d JOIN analytics a ON d.id = a.driver_id WHERE {pred}"
            ),
            traits: QueryTraits {
                has_join: true,
                uses_public_table: false,
                many_to_many: false,
                targets_individual: false,
                histogram: false,
            },
        });
    }

    // --- Many-to-many joins on private tables (Table 4, category 3). -----
    // The second side is filtered to a narrow window, so the true count is
    // population-sized while the elastic sensitivity carries the full
    // (mf)²-scale join blow-up — the paper's upward-shifted cluster.
    for tag in ["duplicate_account", "fraud_review", "vip"] {
        let pred = format!(
            "a.tag = '{tag}' AND a.tagged_at > '2016-06-06' \
             AND b.tagged_at BETWEEN '2016-07-01' AND '2016-07-08'"
        );
        out.push(WorkloadQuery {
            name: format!("count_m2m_{tag}"),
            sql: format!(
                "SELECT COUNT(*) FROM user_tags a JOIN user_tags b ON a.tag = b.tag \
                 WHERE {pred}"
            ),
            population_sql: format!(
                "SELECT COUNT(DISTINCT a.user_id) FROM user_tags a JOIN user_tags b ON a.tag = b.tag WHERE {pred}"
            ),
            traits: QueryTraits {
                has_join: true,
                uses_public_table: false,
                many_to_many: true,
                targets_individual: false,
                histogram: false,
            },
        });
    }

    // Histogram by private driver id (bins not enumerable).
    out.push(WorkloadQuery {
        name: "hist_driver_hk".to_string(),
        sql: "SELECT t.driver_id, COUNT(*) FROM trips t \
              JOIN cities c ON t.city_id = c.id \
              WHERE c.name = 'hong kong' AND t.trip_date BETWEEN '2016-09-09' AND '2016-10-03' \
              GROUP BY t.driver_id"
            .to_string(),
        population_sql: "SELECT COUNT(DISTINCT t.id) FROM trips t \
              JOIN cities c ON t.city_id = c.id \
              WHERE c.name = 'hong kong' AND t.trip_date BETWEEN '2016-09-09' AND '2016-10-03'"
            .to_string(),
        traits: QueryTraits {
            has_join: true,
            uses_public_table: true,
            many_to_many: false,
            targets_individual: false,
            histogram: true,
        },
    });

    out
}

/// The six representative §5.5 (Table 5) queries in SQL form, numbered as
/// in the paper.
pub fn table5_queries() -> Vec<(u32, &'static str, String)> {
    vec![
        (
            1,
            "Count distinct drivers who completed a trip in San Francisco yet \
             enrolled as a driver in a different city",
            "SELECT COUNT(DISTINCT d.id) FROM trips t \
             JOIN drivers d ON t.driver_id = d.id \
             JOIN cities c ON t.city_id = c.id \
             WHERE c.name = 'san francisco' AND t.status = 'completed' \
             AND d.city_id <> t.city_id"
                .to_string(),
        ),
        (
            2,
            "Count driver accounts that are active and were tagged after June 6 \
             as duplicate accounts",
            "SELECT COUNT(*) FROM drivers d JOIN user_tags u ON d.id = u.user_id \
             WHERE d.status = 'active' AND u.tag = 'duplicate_account' \
             AND u.tagged_at > '2016-06-06'"
                .to_string(),
        ),
        (
            3,
            "Count motorbike drivers in Hanoi who are currently active and have \
             completed 10 or more trips",
            "SELECT COUNT(*) FROM drivers d JOIN analytics a ON d.id = a.driver_id \
             WHERE d.vehicle = 'motorbike' AND d.city_id = 3 \
             AND d.status = 'active' AND a.completed_trips >= 10"
                .to_string(),
        ),
        (
            4,
            "Histogram: daily trips by city (for all cities) on Oct 24, 2016",
            "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id \
             WHERE t.trip_date = '2016-10-24' GROUP BY c.name"
                .to_string(),
        ),
        (
            5,
            "Histogram: total trips per driver in Hong Kong between Sept 9 and \
             Oct 3, 2016",
            "SELECT t.driver_id, COUNT(*) FROM trips t \
             JOIN drivers d ON t.driver_id = d.id \
             WHERE d.city_id = 4 AND t.trip_date BETWEEN '2016-09-09' AND '2016-10-03' \
             GROUP BY t.driver_id"
                .to_string(),
        ),
        (
            6,
            "Histogram: drivers by thresholds of total completed trips for \
             drivers registered in Sydney who completed a trip in the past 28 days",
            "SELECT CASE WHEN a.completed_trips >= 250 THEN 'heavy' \
                         WHEN a.completed_trips >= 100 THEN 'regular' \
                         ELSE 'light' END AS bucket, COUNT(*) \
             FROM drivers d JOIN analytics a ON d.id = a.driver_id \
             WHERE d.city_id = 2 AND a.last_trip_date >= '2016-12-03' \
             GROUP BY CASE WHEN a.completed_trips >= 250 THEN 'heavy' \
                           WHEN a.completed_trips >= 100 THEN 'regular' \
                           ELSE 'light' END"
                .to_string(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> UberConfig {
        UberConfig {
            cities: 10,
            drivers: 100,
            riders: 200,
            trips: 2_000,
            user_tags: 150,
            seed: 1,
        }
    }

    #[test]
    fn generates_all_tables_with_metrics() {
        let db = generate(&small());
        for t in [
            "cities",
            "drivers",
            "riders",
            "trips",
            "user_tags",
            "analytics",
        ] {
            assert!(db.table(t).is_some(), "missing {t}");
        }
        assert_eq!(db.table("trips").unwrap().len(), 2000);
        assert!(db.is_public("cities"));
        assert!(db.metrics().max_freq("trips", "driver_id").unwrap() > 1);
        assert_eq!(db.metrics().value_range("trips", "fare"), Some(100.0));
    }

    #[test]
    fn dates_are_valid_iso() {
        assert_eq!(date_2016(0), "2016-01-01");
        assert_eq!(date_2016(31), "2016-02-01");
        assert_eq!(date_2016(365), "2016-12-31");
        assert_eq!(date_2016(297), "2016-10-24");
    }

    #[test]
    fn workload_queries_execute() {
        let cfg = small();
        let db = generate(&cfg);
        let wl = workload(&cfg);
        assert!(wl.len() > 50, "workload has {} queries", wl.len());
        // Spot-check a sample of each trait combination.
        for q in wl.iter().step_by(7) {
            let rs = db.execute_sql(&q.sql);
            assert!(
                rs.is_ok(),
                "query {} failed: {:?}\n{}",
                q.name,
                rs.err(),
                q.sql
            );
            let pop = db.execute_sql(&q.population_sql).unwrap();
            assert!(
                pop.scalar().is_some(),
                "population query {} not scalar",
                q.name
            );
        }
    }

    #[test]
    fn workload_covers_all_classes() {
        let wl = workload(&small());
        assert!(wl.iter().any(|q| !q.traits.has_join));
        assert!(wl
            .iter()
            .any(|q| q.traits.has_join && !q.traits.uses_public_table));
        assert!(wl.iter().any(|q| q.traits.uses_public_table));
        assert!(wl.iter().any(|q| q.traits.many_to_many));
        assert!(wl.iter().any(|q| q.traits.targets_individual));
        assert!(wl.iter().any(|q| q.traits.histogram));
    }

    #[test]
    fn population_sizes_span_orders_of_magnitude() {
        let cfg = small();
        let db = generate(&cfg);
        let wl = workload(&cfg);
        let mut pops = Vec::new();
        for q in &wl {
            if let Ok(rs) = db.execute_sql(&q.population_sql) {
                if let Some(v) = rs.scalar().and_then(|v| v.as_i64()) {
                    pops.push(v);
                }
            }
        }
        let max = pops.iter().max().copied().unwrap_or(0);
        let nonzero_min = pops.iter().filter(|&&p| p > 0).min().copied().unwrap_or(0);
        assert!(max > 500, "max population {max}");
        assert!(nonzero_min < 100, "min population {nonzero_min}");
    }

    #[test]
    fn table5_queries_execute() {
        let db = generate(&small());
        for (no, _, sql) in table5_queries() {
            let rs = db.execute_sql(&sql);
            assert!(rs.is_ok(), "Q{no} failed: {:?}", rs.err());
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = generate(&small());
        let b = generate(&small());
        assert_eq!(
            a.table("trips").unwrap().rows(),
            b.table("trips").unwrap().rows()
        );
    }
}
