//! Queries built to exhaust the stack or the heap must come back as
//! errors. `cargo test` reports a stack overflow only as a signal, with
//! no test name, so these run on threads whose stack is the size of a
//! service worker's: a regression here aborts this binary and nothing
//! else. (The parser's own unit tests cover each recursive production;
//! `flex_sql::inline`'s cover the expansion caps.)

use flex::prelude::*;
use std::sync::Arc;

/// Run `f` on a 2 MiB stack, like a service worker.
fn on_worker_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

fn service() -> QueryService {
    let mut db = Database::new();
    db.create_table("t", Schema::of(&[("x", DataType::Int)]))
        .unwrap();
    db.insert("t", (0..100).map(|i| vec![Value::Int(i)]).collect())
        .unwrap();
    QueryService::new(Arc::new(db), ServiceConfig::default())
}

const PARENS: usize = 100_000;

#[test]
fn deep_parentheses_are_a_parse_error() {
    for sql in [
        format!(
            "SELECT COUNT(*) FROM t WHERE x = {}1{}",
            "(".repeat(PARENS),
            ")".repeat(PARENS)
        ),
        // Unclosed: what a client that dies mid-send leaves behind.
        "SELECT COUNT(*) FROM t WHERE x = ".to_string() + &"(".repeat(PARENS),
        "SELECT COUNT(*) FROM ".to_string() + &"(SELECT * FROM ".repeat(PARENS),
    ] {
        let err = on_worker_stack(move || parse_query(&sql).unwrap_err());
        assert!(err.message.contains("nests deeper"), "{err}");
    }
}

/// The cap leaves room for everything downstream of the parser: a query
/// nested as deep as it allows still canonicalizes, analyses and runs on
/// both engines inside a worker's stack.
#[test]
fn nesting_at_the_cap_runs_end_to_end() {
    let depth = flex::sql::parser::MAX_NESTING_DEPTH - 2;
    let derived = format!(
        "SELECT COUNT(*) FROM {}t{}",
        "(SELECT * FROM ".repeat(depth),
        ") q".repeat(depth)
    );
    let arithmetic = format!(
        "SELECT COUNT(*) FROM t WHERE x < {}1{}",
        "(1 + ".repeat(depth - 1),
        ")".repeat(depth - 1)
    );
    for sql in [derived, arithmetic] {
        on_worker_stack(move || {
            let svc = service();
            let params = PrivacyParams::new(1.0, 1e-8).unwrap();
            let answer = svc.query("alice", &sql, params).unwrap();
            assert!(answer.scalar().is_some());
        });
    }
}

/// The analysis never reads HAVING, so whatever the executor does with
/// one is an analyst's to ask for: `n` `EXISTS` there cost `n` scans.
/// (Group mode used to compile level by level, re-running every subquery
/// below a level that holds an aggregate: `2n` scans for the canonical
/// form of this query — its aggregate prints after every `EXISTS` —
/// and `n(n+3)/2` for the nesting as written.)
#[test]
fn subqueries_in_having_run_once_each() {
    on_worker_stack(|| {
        let n = 32;
        let exists = |i| format!("EXISTS (SELECT 1 FROM t WHERE x >= {i}) AND (");
        let nested: String = (0..n).map(exists).collect();
        let sql = format!(
            "SELECT COUNT(*) FROM t HAVING {nested}COALESCE(MAX(x) >= 0, FALSE){}",
            ")".repeat(n)
        );
        let params = PrivacyParams::new(1.0, 1e-8).unwrap();
        let response = service().query("mallory", &sql, params).unwrap();
        let scanned = response.trace.unwrap().exec.rows_scanned;
        assert_eq!(scanned, 100 + 100 * n as u64);
    });
}

#[test]
fn service_fails_a_hostile_query_and_keeps_serving() {
    on_worker_stack(|| {
        let svc = service();
        let params = PrivacyParams::new(1.0, 1e-8).unwrap();
        let failed_before = svc.telemetry().failed;

        let parens = "SELECT COUNT(*) FROM t WHERE x = ".to_string() + &"(".repeat(PARENS);
        assert!(svc.query("mallory", &parens, params).is_err());
        assert_eq!(svc.telemetry().failed, failed_before + 1);

        // A `WITH` whose expansion doubles twelve times parses fine and is
        // admitted; the analysis refuses it and the charge comes back.
        let mut doubling = "WITH c0 AS (SELECT * FROM t)".to_string();
        for i in 1..=12 {
            let prev = i - 1;
            doubling.push_str(&format!(
                ", c{i} AS (SELECT a.x FROM c{prev} a JOIN c{prev} b ON a.x = b.x)"
            ));
        }
        doubling.push_str(" SELECT COUNT(*) FROM c12");
        let started = std::time::Instant::now();
        let err = svc.query("mallory", &doubling, params).unwrap_err();
        assert!(err.to_string().contains("expanding WITH"), "{err}");
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
        assert_eq!(svc.telemetry().failed, failed_before + 2);
        assert_eq!(svc.ledger().spent("mallory"), (0.0, 0.0));

        // Still alive, still answering.
        let answer = svc.query("alice", "SELECT COUNT(*) FROM t", params);
        assert!(answer.unwrap().scalar().is_some());
    });
}
