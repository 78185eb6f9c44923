//! Released bytes are a pure function of (data, canonical query, ε, δ,
//! seed) — never of the worker count, of how many threads are asking, or
//! of the commit: `fixtures/releases.json` was captured at PR 15 and any
//! later service, however it moves a miss from `submit` to the pipeline
//! and back, must keep releasing exactly those bytes.
//!
//! Cells are pinned as tagged strings (`f:` is the hex of an `f64`'s
//! bits), so equality is bit equality. A query the pipeline refuses is
//! pinned by its error text.

use flex_core::PrivacyParams;
use flex_db::{Database, Value};
use flex_service::{
    LedgerPolicy, QueryService, ServiceConfig, ServiceError, ServiceResponse, ServiceResult,
};
use flex_workloads::uber::{self, UberConfig};
use serde_json::json;
use std::sync::{Arc, Barrier};

const QUERIES: &[(&str, &str)] = &[
    ("scalar-count", "SELECT COUNT(*) FROM trips"),
    (
        "filtered-sum",
        "SELECT SUM(fare) FROM trips WHERE city_id = 3 AND status = 'completed'",
    ),
    (
        "date-range-count",
        "SELECT COUNT(*) FROM trips WHERE trip_date BETWEEN '2016-03-01' AND '2016-06-30'",
    ),
    (
        "public-bin-histogram",
        "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id GROUP BY c.name",
    ),
    (
        "private-bin-histogram",
        "SELECT city_id, COUNT(*) FROM trips GROUP BY city_id",
    ),
    (
        "three-way-join",
        "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id \
         JOIN riders r ON t.rider_id = r.id WHERE d.status = 'active'",
    ),
    (
        "cte-join",
        "WITH busy AS (SELECT driver_id FROM analytics WHERE completed_trips > 5) \
         SELECT COUNT(*) FROM trips t JOIN busy b ON t.driver_id = b.driver_id",
    ),
    (
        "set-op",
        "SELECT COUNT(*) FROM trips UNION SELECT COUNT(*) FROM drivers",
    ),
];

fn db() -> Arc<Database> {
    Arc::new(uber::generate(&UberConfig {
        cities: 8,
        drivers: 60,
        riders: 150,
        trips: 1_500,
        user_tags: 50,
        seed: 7,
    }))
}

fn service(db: &Arc<Database>, workers: usize) -> QueryService {
    QueryService::new(
        Arc::clone(db),
        ServiceConfig {
            seed: Some(0x601D),
            workers,
            // Every request that is not coalesced really recomputes.
            cache_capacity: 0,
            policy: LedgerPolicy::sequential(1e9, 1.0),
            ..ServiceConfig::default()
        },
    )
}

fn cell(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => format!("b:{b}"),
        Value::Int(i) => format!("i:{i}"),
        Value::Float(f) => format!("f:{:016x}", f.to_bits()),
        Value::Str(s) => format!("s:{s}"),
    }
}

fn render(name: &str, outcome: &ServiceResult<ServiceResponse>) -> serde_json::Value {
    match outcome {
        Ok(r) => {
            let rows: Vec<Vec<String>> = r
                .rows
                .iter()
                .map(|row| row.iter().map(cell).collect())
                .collect();
            json!({
                "query": name,
                "canonical_sql": r.canonical_sql,
                "columns": r.columns,
                "rows": rows
            })
        }
        Err(e) => json!({ "query": name, "error": e.to_string() }),
    }
}

/// Ask until the service takes the request: `Overloaded` is the one
/// outcome that depends on who else is asking, and it is retryable.
fn ask(svc: &QueryService, sql: &str, params: PrivacyParams) -> ServiceResult<ServiceResponse> {
    loop {
        match svc.query("golden", sql, params) {
            Err(ServiceError::Overloaded) => std::thread::yield_now(),
            outcome => return outcome,
        }
    }
}

/// Every query's release, in `QUERIES` order, asked by `threads` threads
/// at once (each starts at a different query); all threads must agree.
fn releases(db: &Arc<Database>, workers: usize, threads: usize) -> String {
    let svc = service(db, workers);
    let params = PrivacyParams::new(0.5, 1e-8).unwrap();
    let barrier = Barrier::new(threads);
    let per_thread: Vec<Vec<serde_json::Value>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (svc, barrier) = (&svc, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let mut out = vec![serde_json::Value::Null; QUERIES.len()];
                    for i in 0..QUERIES.len() {
                        let at = (i + t) % QUERIES.len();
                        let (name, sql) = QUERIES[at];
                        out[at] = render(name, &ask(svc, sql, params));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for other in &per_thread[1..] {
        assert_eq!(
            other, &per_thread[0],
            "threads disagree at workers {workers}"
        );
    }
    let mut text = serde_json::to_string_pretty(&serde_json::Value::Array(
        per_thread.into_iter().next().unwrap(),
    ))
    .unwrap();
    text.push('\n');
    text
}

#[test]
fn released_bytes_do_not_depend_on_workers_or_callers() {
    let db = db();
    let golden = include_str!("fixtures/releases.json");
    for workers in [1, 8] {
        for threads in [1, 8] {
            let actual = releases(&db, workers, threads);
            if actual != golden {
                let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/releases.actual.json");
                std::fs::write(path, &actual).unwrap();
                panic!(
                    "releases at workers {workers} from {threads} thread(s) differ from \
                     fixtures/releases.json; actual written to {path}"
                );
            }
        }
    }
}
