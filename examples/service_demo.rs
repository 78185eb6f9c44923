//! Eight analysts hammering the FLEX query service with the Uber
//! evaluation workload.
//!
//! Demonstrates the full serving stack: concurrent submission onto the
//! worker pool, per-analyst budget enforcement (one deliberately
//! under-provisioned analyst runs out of ε partway through), the
//! noisy-answer cache absorbing repeated traffic for free, and the final
//! telemetry snapshot an operator would scrape.
//!
//! Run with: `cargo run --release --example service_demo`
//!
//! Pass `--metrics` to additionally dump the full metrics report — the
//! Prometheus text exposition and the JSON document an ops scrape would
//! collect (trace quantiles, per-analyst budget burn, slow-query log).
//!
//! Pass `--recover` to instead demonstrate the durable budget ledger:
//! the service runs with a write-ahead log, is killed, and is restarted
//! over the same log — recovering every analyst's spend exactly.

use flex::prelude::*;
use flex::workloads::uber;
use std::sync::Arc;

const ANALYSTS: usize = 8;
const QUERIES_PER_ANALYST: usize = 100;
const PER_QUERY_EPSILON: f64 = 0.1;

/// Restart-and-recover demonstration: serve with a WAL, "crash" (drop
/// the service), restart over the same log, and verify the recovered
/// ledger matches what was acknowledged before the crash.
fn recover_demo() {
    let db = Arc::new(uber::generate(&UberConfig {
        trips: 5_000,
        drivers: 500,
        riders: 800,
        user_tags: 400,
        ..UberConfig::default()
    }));
    let wal_path =
        std::env::temp_dir().join(format!("flex-service-demo-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal_path);
    let config = || ServiceConfig {
        workers: 2,
        seed: Some(0xD0_2EC0), // deterministic noise across the restart
        wal_path: Some(wal_path.clone()),
        wal_fsync: FsyncPolicy::Always,
        ..ServiceConfig::default()
    };
    let params = PrivacyParams::new(PER_QUERY_EPSILON, 1e-9).unwrap();

    println!("serving with a write-ahead log at {}", wal_path.display());
    let service = QueryService::new(Arc::clone(&db), config());
    let mut spends = Vec::new();
    let mut first_answer = None;
    for a in 0..4 {
        let analyst = format!("analyst-{a}");
        for i in 0..5 {
            let sql = format!(
                "SELECT COUNT(*) FROM trips WHERE city_id = {}",
                1 + (a * 5 + i) % 8
            );
            if let Ok(r) = service.query(&analyst, &sql, params) {
                if first_answer.is_none() && !r.from_cache {
                    first_answer = Some((sql.clone(), r.rows));
                }
            }
        }
        spends.push((analyst.clone(), service.ledger().spent(&analyst)));
    }
    let wal_stats = service.telemetry();
    println!(
        "  {} WAL appends, {} fsyncs before the crash",
        wal_stats.wal_appends, wal_stats.wal_fsyncs
    );
    drop(service); // "crash"

    println!("restarting over the same log…");
    let revived = QueryService::new(db, config());
    let report = revived.recovery_report();
    println!(
        "  recovery replayed {} records (snapshot restored: {}, torn bytes discarded: {})",
        report.replayed_records, report.snapshot_restored, report.torn_bytes_discarded
    );
    for (analyst, spent) in &spends {
        let recovered = revived.ledger().spent(analyst);
        assert_eq!(
            recovered, *spent,
            "{analyst}: recovered spend {recovered:?} != pre-crash {spent:?}"
        );
        println!(
            "  {analyst}: spend recovered exactly: ε = {:.2}",
            recovered.0
        );
    }
    // Same secret seed + same data: the revived service re-releases the
    // same bytes for the same query (cold cache, identical noise).
    if let Some((sql, rows)) = first_answer {
        let again = revived.query("analyst-0", &sql, params).unwrap();
        assert_eq!(again.rows, rows, "restarted release must be bit-identical");
        println!("  re-released {sql:?} bit-identically after restart");
    }
    let _ = std::fs::remove_file(&wal_path);
    println!("durable ledger demo complete ✓");
}

fn main() {
    if std::env::args().any(|a| a == "--recover") {
        recover_demo();
        return;
    }
    let dump_metrics = std::env::args().any(|a| a == "--metrics");
    println!("generating synthetic Uber dataset…");
    let db = Arc::new(uber::generate(&UberConfig {
        trips: 20_000,
        drivers: 1_000,
        riders: 2_000,
        user_tags: 1_000,
        ..UberConfig::default()
    }));
    println!(
        "  {} tables, {} rows total",
        db.table_names().count(),
        db.total_rows()
    );

    // A pool of real workload queries; analysts overlap heavily, which is
    // exactly what the noisy-answer cache is for.
    let pool: Vec<String> = uber::workload(&UberConfig::default())
        .into_iter()
        .map(|wq| wq.sql)
        .collect();
    println!("  {} distinct workload queries in the pool\n", pool.len());

    let mut config = ServiceConfig {
        workers: 4,
        cache_capacity: 4096,
        ..ServiceConfig::default()
    };
    // Default policy: plenty of budget under sequential composition.
    config.policy = LedgerPolicy::sequential(12.0, 1e-3);
    let service = Arc::new(QueryService::new(Arc::clone(&db), config));

    // One analyst is deliberately under-provisioned to show admission
    // control rejecting mid-run (a DP4SQL-style per-analyst policy).
    service
        .ledger()
        .set_policy("analyst-7", LedgerPolicy::sequential(1.0, 1e-4))
        .expect("fresh account");

    let params = PrivacyParams::new(PER_QUERY_EPSILON, 1e-9).unwrap();
    let handles: Vec<_> = (0..ANALYSTS)
        .map(|a| {
            let service = Arc::clone(&service);
            let pool = pool.clone();
            std::thread::spawn(move || {
                let analyst = format!("analyst-{a}");
                let (mut answered, mut cached, mut rejected, mut unsupported) = (0, 0, 0, 0);
                for i in 0..QUERIES_PER_ANALYST {
                    // Mostly shared dashboard queries (strided differently
                    // per analyst so first-misses interleave with repeats),
                    // plus an ad-hoc personal query every third request —
                    // those are unique, so they always charge *this*
                    // analyst and budget enforcement bites deterministically.
                    let sql = if i % 3 == 0 {
                        format!(
                            "SELECT COUNT(*) FROM trips WHERE driver_id = {} AND city_id = {}",
                            a * 1000 + i,
                            1 + i % 8
                        )
                    } else {
                        pool[(a * 13 + i * 7) % pool.len()].clone()
                    };
                    match service.query(&analyst, &sql, params) {
                        // Free answers: cache hits plus requests coalesced
                        // onto an identical in-flight computation.
                        Ok(r) if r.charged == (0.0, 0.0) => cached += 1,
                        Ok(_) => answered += 1,
                        Err(ServiceError::BudgetRejected { .. }) => rejected += 1,
                        Err(_) => unsupported += 1,
                    }
                }
                (analyst, answered, cached, rejected, unsupported)
            })
        })
        .collect();

    println!(
        "{:<12} {:>9} {:>7} {:>9} {:>12} {:>10} {:>8}",
        "analyst", "answered", "cached", "rejected", "unsupported", "ε spent", "ε cap"
    );
    for h in handles {
        let (analyst, answered, cached, rejected, unsupported) = h.join().unwrap();
        let (eps, _) = service.ledger().spent(&analyst);
        let cap = eps + service.ledger().remaining_epsilon(&analyst);
        println!(
            "{analyst:<12} {answered:>9} {cached:>7} {rejected:>9} {unsupported:>12} {eps:>10.2} {cap:>8.1}"
        );
        assert!(eps <= cap + 1e-9, "{analyst} overspent its cap");
    }

    // A cache hit re-releases bit-identical rows for free.
    let sql = &pool[0];
    let again = service.query("analyst-0", sql, params).unwrap();
    assert!(again.from_cache && again.charged == (0.0, 0.0));
    println!(
        "\nre-asking {:?}\n  → served from cache, charged (0, 0), answer {:?}",
        sql,
        again.scalar()
    );

    println!("\n{}", service.telemetry());
    let snapshot = service.telemetry();
    assert_eq!(
        snapshot.submitted as usize,
        ANALYSTS * QUERIES_PER_ANALYST + 1,
        "every request accounted for"
    );
    println!(
        "\n{} distinct releases served {} requests — {:.1}× traffic amplification at zero extra ε",
        snapshot.completed,
        snapshot.submitted,
        snapshot.submitted as f64 / snapshot.completed.max(1) as f64
    );

    if dump_metrics {
        let report = service.metrics();
        println!(
            "\n===== Prometheus exposition =====\n{}",
            report.prometheus()
        );
        println!(
            "===== JSON metrics report =====\n{}",
            report.to_json_string()
        );
        if let Some(slowest) = snapshot.slow_queries.first() {
            println!(
                "\nslowest release: {:?} by {} — {:.3} ms total, {:.3} ms of it \
                 waiting for the WAL ({:?})",
                slowest.canonical_sql,
                slowest.analyst,
                slowest.total().as_secs_f64() * 1e3,
                slowest.trace.durability.as_secs_f64() * 1e3,
                slowest.trace.exec.route,
            );
        }
    }
}
