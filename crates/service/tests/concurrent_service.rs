//! Integration tests driving the service from many analyst threads at
//! once: budget enforcement must hold under contention and the cache must
//! stay consistent.

use flex_core::PrivacyParams;
use flex_db::{DataType, Schema, Value};
use flex_service::{LedgerPolicy, QueryService, ServiceConfig, ServiceError};
use std::sync::Arc;

fn test_db() -> Arc<flex_db::Database> {
    let mut db = flex_db::Database::new();
    db.create_table(
        "trips",
        Schema::of(&[("id", DataType::Int), ("city_id", DataType::Int)]),
    )
    .unwrap();
    db.insert(
        "trips",
        (0..2_000)
            .map(|i| vec![Value::Int(i), Value::Int(i % 11)])
            .collect(),
    )
    .unwrap();
    Arc::new(db)
}

#[test]
fn concurrent_analysts_never_exceed_their_caps() {
    let cap = 1.0;
    let per_query = 0.05; // 20 queries fit exactly
    let mut cfg = ServiceConfig {
        workers: 4,
        cache_capacity: 0, // force every request through the ledger
        ..ServiceConfig::default()
    };
    cfg.policy = LedgerPolicy::sequential(cap, 1e-4);
    let svc = Arc::new(QueryService::new(test_db(), cfg));
    let p = PrivacyParams::new(per_query, 1e-9).unwrap();

    let handles: Vec<_> = (0..6)
        .map(|t| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let analyst = format!("analyst-{}", t % 3); // 2 threads share each account
                let mut ok = 0u32;
                let mut rejected = 0u32;
                for i in 0..25 {
                    // Distinct predicates so the ledger sees distinct queries.
                    let sql = format!(
                        "SELECT COUNT(*) FROM trips WHERE city_id = {} AND id > {}",
                        i % 11,
                        t * 1000 + i
                    );
                    match svc.query(&analyst, &sql, p) {
                        Ok(r) => {
                            assert_eq!(r.charged, (per_query, 1e-9));
                            ok += 1;
                        }
                        Err(ServiceError::BudgetRejected { .. }) => rejected += 1,
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                (analyst, ok, rejected)
            })
        })
        .collect();

    let mut per_analyst_ok = std::collections::HashMap::<String, u32>::new();
    for h in handles {
        let (analyst, ok, rejected) = h.join().unwrap();
        *per_analyst_ok.entry(analyst).or_default() += ok;
        assert!(
            rejected > 0,
            "50 attempts at 0.05ε against a 1.0 cap must reject"
        );
    }

    // Deterministic final accounting: each analyst account admitted
    // exactly cap/per_query queries, and the ledger agrees.
    for (analyst, ok) in per_analyst_ok {
        assert_eq!(ok, 20, "{analyst} admitted {ok} queries");
        let (eps, _) = svc.ledger().spent(&analyst);
        assert!((eps - cap).abs() < 1e-9, "{analyst} spent {eps}");
        assert!(eps <= cap + 1e-9, "{analyst} overspent: {eps}");
    }

    let t = svc.telemetry();
    assert_eq!(t.submitted, 150);
    assert_eq!(t.completed as u32 + t.rejected_budget as u32, 150);
    assert_eq!(t.queue_depth, 0);
}

#[test]
fn concurrent_repeats_share_one_release() {
    let svc = Arc::new(QueryService::new(test_db(), ServiceConfig::default()));
    let p = PrivacyParams::new(0.2, 1e-9).unwrap();
    let sql = "SELECT COUNT(*) FROM trips WHERE city_id = 5";

    // Prime the cache once, then hammer it from many threads.
    let released = svc.query("warm", sql, p).unwrap().rows;
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let expected = released.clone();
            std::thread::spawn(move || {
                let analyst = format!("reader-{t}");
                for _ in 0..50 {
                    let r = svc.query(&analyst, sql, p).unwrap();
                    assert!(r.from_cache);
                    assert_eq!(r.rows, expected, "cache must be bit-stable");
                    assert_eq!(r.charged, (0.0, 0.0));
                }
                assert_eq!(svc.ledger().spent(&analyst), (0.0, 0.0));
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let t = svc.telemetry();
    assert_eq!(t.cache_hits, 400);
    assert_eq!(t.completed, 1, "the release was computed exactly once");
    assert!((svc.ledger().spent("warm").0 - 0.2).abs() < 1e-12);
}

#[test]
fn mixed_workload_under_concurrency_keeps_books_consistent() {
    let mut cfg = ServiceConfig {
        workers: 3,
        ..ServiceConfig::default()
    };
    cfg.policy = LedgerPolicy::sequential(50.0, 1e-2);
    let svc = Arc::new(QueryService::new(test_db(), cfg));
    let p = PrivacyParams::new(0.1, 1e-9).unwrap();

    let handles: Vec<_> = (0..6)
        .map(|t| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                for i in 0..40 {
                    // A small pool of 5 distinct queries shared by all
                    // threads: heavy repetition, interleaved first-misses.
                    let sql = format!("SELECT COUNT(*) FROM trips WHERE city_id = {}", (t + i) % 5);
                    svc.query(&format!("a{t}"), &sql, p).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let t = svc.telemetry();
    assert_eq!(t.submitted, 240);
    assert_eq!(t.cache_hits + t.cache_misses + t.coalesced, 240);
    assert_eq!(t.failed, 0);
    assert_eq!(t.rejected_budget, 0);
    // Single-flight: even with concurrent first-misses of the same query,
    // each of the 5 distinct canonical queries is computed (and charged)
    // exactly once — everyone else hits the cache or coalesces onto the
    // in-flight computation.
    assert_eq!(t.completed, 5, "exactly one computation per distinct query");
    assert_eq!(
        t.completed, t.cache_misses,
        "misses are exactly the requests that reached admission (none \
         failed or were rejected here), each leading one computation"
    );
    assert_eq!(svc.cached_answers(), 5);
    let total_spent: f64 = (0..6).map(|t| svc.ledger().spent(&format!("a{t}")).0).sum();
    assert!(
        (total_spent - 0.5).abs() < 1e-9,
        "total ε {total_spent} must equal 0.1 × 5 releases"
    );
}

/// The counters every hit bumps are striped per thread and summed when
/// read: with more threads than stripes, all hitting through the text
/// memo at once, no count is lost or doubled — in the snapshot, in the
/// Prometheus text and in the JSON report.
#[test]
fn concurrent_memo_hits_are_counted_exactly() {
    const THREADS: u64 = 20;
    const HITS: u64 = 500;
    let svc = Arc::new(QueryService::new(test_db(), ServiceConfig::default()));
    let p = PrivacyParams::new(0.2, 1e-9).unwrap();
    let sql = "SELECT COUNT(*) FROM trips WHERE city_id = 7";
    svc.query("warm", sql, p).unwrap(); // a miss releases the answer
                                        // Each thread's first hit memoizes the text in its memo stripe (or
                                        // is a memo hit, where another thread shares the stripe); the counts
                                        // are read once all have, and every later hit is a memo hit.
    let (warmed, start) = (
        Arc::new(std::sync::Barrier::new(THREADS as usize + 1)),
        Arc::new(std::sync::Barrier::new(THREADS as usize + 1)),
    );
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (svc, warmed, start) = (Arc::clone(&svc), Arc::clone(&warmed), Arc::clone(&start));
            std::thread::spawn(move || {
                let analyst = format!("reader-{t}");
                assert!(svc.query(&analyst, sql, p).unwrap().from_cache);
                warmed.wait();
                start.wait();
                for _ in 0..HITS {
                    assert!(svc.query(&analyst, sql, p).unwrap().from_cache);
                }
            })
        })
        .collect();
    warmed.wait();
    let before = svc.telemetry();
    assert_eq!(
        (before.submitted, before.cache_hits),
        (THREADS + 1, THREADS),
        "{before}"
    );
    start.wait();
    for h in handles {
        h.join().unwrap();
    }

    let n = THREADS * HITS;
    let t = svc.telemetry();
    assert_eq!(
        (t.submitted, t.cache_hits, t.memo_hits),
        (
            before.submitted + n,
            before.cache_hits + n,
            before.memo_hits + n
        ),
        "{t}"
    );
    let (submitted, cache_hits, memo_hits) = (t.submitted, t.cache_hits, t.memo_hits);
    let report = svc.metrics();
    let text = report.prometheus();
    for (name, value) in [
        ("flex_queries_submitted_total", submitted),
        ("flex_cache_hits_total", cache_hits),
        ("flex_memo_hits_total", memo_hits),
    ] {
        assert!(
            text.contains(&format!("\n{name} {value}\n")),
            "{name}:\n{text}"
        );
    }
    let json = report.to_json();
    for (key, value) in [
        ("submitted", submitted),
        ("cache_hits", cache_hits),
        ("memo_hits", memo_hits),
    ] {
        let read = json.get("telemetry").and_then(|t| t.get(key));
        assert_eq!(read.and_then(|v| v.as_i64()), Some(value as i64), "{key}");
    }
}
