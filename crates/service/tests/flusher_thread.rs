//! No service thread outlives its service. The check counts threads by
//! name across the whole process, so it is a test binary of its own: no
//! other test's service is alive while it looks.

use flex_core::PrivacyParams;
use flex_db::{DataType, Schema, Value};
use flex_service::{FaultStorage, QueryService, ServiceConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Threads of this process whose name starts with `prefix`, read from
/// `/proc/self/task/*/comm`.
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

/// Wait for `prefix`'s threads to number `n`: a joined thread leaves
/// `/proc` a moment after `join` returns.
fn await_threads(prefix: &str, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads_named(prefix) != n {
        assert!(
            Instant::now() < deadline,
            "{} threads named {prefix}*, expected {n}",
            threads_named(prefix)
        );
        std::thread::yield_now();
    }
}

fn test_db() -> Arc<flex_db::Database> {
    let mut db = flex_db::Database::new();
    db.create_table("trips", Schema::of(&[("id", DataType::Int)]))
        .unwrap();
    db.insert("trips", (0..100).map(|i| vec![Value::Int(i)]).collect())
        .unwrap();
    Arc::new(db)
}

/// A service with a WAL runs one log flusher, one without runs none, and
/// neither a shutdown nor a drop leaves a flusher or a worker behind.
#[cfg(target_os = "linux")]
#[test]
fn no_flusher_or_worker_outlives_its_service() {
    const FLUSHER: &str = "flex-wal-flush";
    const WORKER: &str = "flex-worker-";
    let config = ServiceConfig {
        workers: 2,
        seed: Some(7),
        ..ServiceConfig::default()
    };
    let params = PrivacyParams::new(0.1, 1e-9).unwrap();
    let stops: [fn(QueryService); 2] = [|svc| drop(svc.shutdown()), drop];
    for stop in stops {
        let svc =
            QueryService::with_storage(test_db(), config.clone(), Box::new(FaultStorage::new()))
                .unwrap();
        svc.query("alice", "SELECT COUNT(*) FROM trips", params)
            .unwrap();
        // A thread names itself once it runs: wait for that.
        await_threads(FLUSHER, 1);
        await_threads(WORKER, 2);
        stop(svc);
        await_threads(FLUSHER, 0);
        await_threads(WORKER, 0);
    }
    let plain = QueryService::new(test_db(), config);
    plain
        .query("alice", "SELECT COUNT(*) FROM trips", params)
        .unwrap();
    assert_eq!(threads_named(FLUSHER), 0, "no WAL, no flusher");
    drop(plain);
    await_threads(WORKER, 0);
}
