//! Exposition is pinned byte for byte: `fixtures/metrics.prom` and
//! `fixtures/metrics.json` are what the hand-written renderers of the
//! commit before the metric table printed for [`populated_report`], less
//! the `flex_queue_steals_total` / `flex_queue_shard_max_depth` series
//! (`queue_steals` / `queue_shard_max_depth` keys) that went with the
//! work-stealing queue, the `unknown` / `unsupported_join_type` reason
//! labels that went with those variants, and the `cte` reason label
//! (deleted from both files, nothing else touched) that went when `WITH`
//! started being expanded before routing, and — deleted the same way —
//! everything that arbitrated between two engines once there was one:
//! the `flex_vectorized_total` and `flex_row_fallbacks_total{reason=…}`
//! series, the `vectorized_hits` / `row_fallbacks` / `fallback_reasons`
//! keys and each slow query's `route` key. One Prometheus block sits
//! elsewhere than it did: `flex_wal_recovery_replayed_records` was the
//! last scalar gauge and is now the first, because both renderers walk
//! one table and its JSON key precedes the other gauges'. Added since,
//! by hand and with nothing else touched: the
//! `flex_durability_latency_seconds` summary (`durability_latency` key),
//! each slow query's `durability` span (which its `total_ns` now
//! counts), and the derived `flex_wal_records_per_fsync` gauge
//! (`wal_records_per_fsync` key); later, the
//! `flex_jobs_run_by_submitter_total` counter (`jobs_run_by_submitter`
//! key); later, the `flex_memo_hits_total` counter (`memo_hits` key);
//! later, the `flex_parse_latency_seconds`,
//! `flex_canonicalize_latency_seconds`, `flex_admission_latency_seconds`
//! and `flex_queue_latency_seconds` summaries (`parse_latency`,
//! `canonicalize_latency`, `admission_latency` and `queue_latency` keys),
//! each right after the end-to-end summary.

use flex_db::ExecTrace;
use flex_service::{
    AnalystBudget, LatencySnapshot, MetricsReport, QueryTrace, SlowQuery, TelemetrySnapshot,
};
use std::time::Duration;

fn latency(seed: u64) -> LatencySnapshot {
    let mut counts = [0u64; 64];
    counts[10] = seed;
    counts[14 + seed as usize] = 2 * seed;
    counts[21] = 1;
    LatencySnapshot {
        counts,
        sum_ns: 1_000_003 * seed + 17,
    }
}

/// Every scalar distinct and non-zero, distinct histograms, one slow query, two analysts, one name needing every
/// Prometheus label escape.
fn populated_report() -> MetricsReport {
    let telemetry = TelemetrySnapshot {
        submitted: 101,
        completed: 102,
        cache_hits: 103,
        memo_hits: 117,
        cache_misses: 104,
        coalesced: 105,
        rejected_budget: 106,
        failed: 107,
        shed: 108,
        timeouts: 109,
        worker_panics: 110,
        lock_poison_recoveries: 111,
        wal_appends: 112,
        wal_fsyncs: 113,
        wal_errors: 114,
        wal_recovery_replayed: 115,
        topk_hits: 118,
        exec_parallelism: 119,
        jobs_run_by_submitter: 116,
        queue_depth: 120,
        max_queue_depth: 121,
        cache_bytes: 122,
        cache_evictions: 123,
        latency: latency(1),
        parse_latency: latency(6),
        canonicalize_latency: latency(7),
        admission_latency: latency(8),
        queue_latency: latency(9),
        analysis_latency: latency(2),
        execution_latency: latency(3),
        perturbation_latency: latency(4),
        durability_latency: latency(5),
        slow_queries: vec![SlowQuery {
            analyst: "alice".to_string(),
            canonical_sql: "SELECT COUNT(*) FROM trips WHERE note = 'a \"b\"\\c'".to_string(),
            epsilon: 0.5,
            delta: 1e-9,
            trace: QueryTrace {
                parse: Duration::from_nanos(301),
                canonicalize: Duration::from_nanos(302),
                admission: Duration::from_nanos(303),
                queue: Duration::from_nanos(304),
                analysis: Duration::from_nanos(305),
                execution: Duration::from_nanos(306),
                perturbation: Duration::from_nanos(307),
                durability: Duration::from_nanos(312),
                exec: ExecTrace {
                    topk: true,
                    morsels: 308,
                    workers: 309,
                    rows_scanned: 310,
                    rows_emitted: 311,
                    ..ExecTrace::default()
                },
            },
        }],
    };
    let analysts = vec![
        AnalystBudget {
            analyst: "alice".to_string(),
            epsilon_spent: 0.5,
            delta_spent: 1e-9,
            epsilon_remaining: 9.5,
            queries: 3,
        },
        AnalystBudget {
            analyst: "bob \"the\\analyst\"\njr".to_string(),
            epsilon_spent: 1.25,
            delta_spent: 2e-9,
            epsilon_remaining: 8.75,
            queries: 7,
        },
    ];
    MetricsReport {
        telemetry,
        analysts,
    }
}

#[test]
fn prometheus_matches_the_pre_table_renderer() {
    assert_eq!(
        populated_report().prometheus(),
        include_str!("fixtures/metrics.prom")
    );
}

#[test]
fn json_matches_the_pre_table_renderer() {
    assert_eq!(
        populated_report().to_json_string(),
        include_str!("fixtures/metrics.json")
    );
}
