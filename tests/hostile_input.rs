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

fn database() -> Database {
    let mut db = Database::new();
    db.create_table("t", Schema::of(&[("x", DataType::Int)]))
        .unwrap();
    db.insert("t", (0..100).map(|i| vec![Value::Int(i)]).collect())
        .unwrap();
    db
}

fn service() -> QueryService {
    QueryService::new(Arc::new(database()), ServiceConfig::default())
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

/// A chain of one operator is parsed by a loop, but a walk of the tree
/// it builds recurses once per operand: past the chain cap it is a parse
/// error, sent through the service like any other query.
#[test]
fn long_operator_chains_are_a_parse_error() {
    const TERMS: usize = 100_000;
    for sql in [
        format!(
            "SELECT COUNT(*) FROM t WHERE x = 1{}",
            " AND x = 1".repeat(TERMS - 1)
        ),
        format!(
            "SELECT COUNT(*) FROM t WHERE x < 1{}",
            " + 1".repeat(TERMS - 1)
        ),
        format!(
            "SELECT x FROM t{}",
            " UNION ALL SELECT x FROM t".repeat(TERMS - 1)
        ),
    ] {
        let err = on_worker_stack(move || {
            let params = PrivacyParams::new(1.0, 1e-8).unwrap();
            service().query("mallory", &sql, params).unwrap_err()
        });
        assert!(err.to_string().contains("operator chain"), "{err}");
    }
}

/// A join chain of `factors` tables, each joined on `x` to the one
/// before it.
fn join_chain(factors: usize) -> String {
    let joins: String = (1..factors)
        .map(|i| format!(" JOIN t t{i} ON t{}.x = t{i}.x", i - 1))
        .collect();
    format!("SELECT COUNT(*) FROM t t0{joins}")
}

/// A join chain is capped like an operator chain: at the cap (and at the
/// corpus generator's widest, 95 joins) it runs end to end through the
/// service on a worker's stack; one factor more is a parse error.
#[test]
fn join_chains_are_capped() {
    use flex::sql::parser::MAX_CHAIN_OPERANDS;
    for factors in [96, MAX_CHAIN_OPERANDS] {
        let answer = on_worker_stack(move || {
            let params = PrivacyParams::new(1.0, 1e-8).unwrap();
            service().query("alice", &join_chain(factors), params)
        });
        let answer = answer.unwrap_or_else(|e| panic!("{factors} factors: {e}"));
        assert!(answer.scalar().is_some(), "{factors} factors");
    }
    let err = on_worker_stack(|| parse_query(&join_chain(MAX_CHAIN_OPERANDS + 1)).unwrap_err());
    assert!(err.message.contains("operator chain"), "{err}");
    let err = on_worker_stack(|| {
        let params = PrivacyParams::new(1.0, 1e-8).unwrap();
        service()
            .query("mallory", &join_chain(100_000), params)
            .unwrap_err()
    });
    assert!(err.to_string().contains("operator chain"), "{err}");
}

/// The caps leave room for everything downstream of the parser: a query
/// nested as deep as they allow, and one that also holds a chain as long
/// as they allow at its deepest level, still canonicalize, analyse and
/// run inside a worker's stack.
#[test]
fn nesting_at_the_cap_runs_end_to_end() {
    use flex::sql::parser::{MAX_CHAIN_OPERANDS, MAX_NESTING_DEPTH};
    let depth = MAX_NESTING_DEPTH - 2;
    let derived = |innermost: &str| {
        format!(
            "SELECT COUNT(*) FROM {}{innermost}{}",
            "(SELECT * FROM ".repeat(depth),
            ") q".repeat(depth)
        )
    };
    let arithmetic = |innermost: &str| {
        format!(
            "SELECT COUNT(*) FROM t WHERE x < {}{innermost}{}",
            "(1 + ".repeat(depth - 1),
            ")".repeat(depth - 1)
        )
    };
    let conjuncts = format!(
        "t WHERE x = 1{}",
        " AND x = 1".repeat(MAX_CHAIN_OPERANDS - 1)
    );
    // `(1 + ` at the deepest level is the chain's first operand.
    let sum = format!("1{}", " + 1".repeat(MAX_CHAIN_OPERANDS - 2));
    for sql in [
        derived("t"),
        arithmetic("1"),
        derived(&conjuncts),
        arithmetic(&sum),
    ] {
        on_worker_stack(move || {
            let svc = service();
            let params = PrivacyParams::new(1.0, 1e-8).unwrap();
            let answer = svc.query("alice", &sql, params).unwrap();
            assert!(answer.scalar().is_some());
        });
    }
}

/// The thread that waits for a query may run it, but never needs more
/// stack for that than parsing a query at the cap already takes there
/// (≈ 1 MiB unoptimized): a query nested deeper than
/// `CALLER_NESTING_DEPTH` runs on a worker, and one at that bound needs
/// about a quarter of the parse. One at that bound that also holds a
/// chain at the chain cap fits too.
#[test]
fn a_caller_with_room_to_parse_can_wait_at_any_depth() {
    let svc = Arc::new(service());
    let chain = |link: &str| {
        format!(
            "t WHERE x < 1{}",
            link.repeat(flex::sql::parser::MAX_CHAIN_OPERANDS - 1)
        )
    };
    let (conjuncts, sum) = (chain(" AND x < 1"), chain(" + 1"));
    for (depth, innermost) in [
        (flex::sql::parser::MAX_NESTING_DEPTH - 2, "t"),
        (flex::service::CALLER_NESTING_DEPTH - 1, "t"),
        (flex::service::CALLER_NESTING_DEPTH - 1, conjuncts.as_str()),
        (flex::service::CALLER_NESTING_DEPTH - 1, sum.as_str()),
    ] {
        let derived = format!(
            "SELECT COUNT(*) FROM {}{innermost}{}",
            "(SELECT * FROM ".repeat(depth),
            ") q".repeat(depth)
        );
        let svc = Arc::clone(&svc);
        let answer = std::thread::Builder::new()
            .stack_size(1280 << 10)
            .spawn(move || {
                let params = PrivacyParams::new(1.0, 1e-8).unwrap();
                svc.query("alice", &derived, params).unwrap()
            })
            .unwrap()
            .join()
            .unwrap();
        assert!(answer.scalar().is_some());
    }
}

/// `n` `EXISTS` in HAVING cost the executor `n` scans. (Group mode used
/// to compile level by level, re-running every subquery below a level
/// that holds an aggregate: `2n` scans for the canonical form of this
/// query — its aggregate prints after every `EXISTS` — and `n(n+3)/2`
/// for the nesting as written.) An analyst can no longer ask for it: the
/// analysis refuses a subquery wherever it stands, before anything runs.
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
        let (trace, result) = database().execute_traced(&parse_query(&sql).unwrap());
        assert_eq!(result.unwrap().rows.len(), 1);
        assert_eq!(trace.rows_scanned, 100 + 100 * n as u64);

        let params = PrivacyParams::new(1.0, 1e-8).unwrap();
        let err = service().query("mallory", &sql, params).unwrap_err();
        assert!(err.to_string().contains("subquery predicates"), "{err}");
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

/// A name or a literal of a mebibyte is one token: it lexes, parses,
/// canonicalizes and prints in time linear in its length, and the
/// service turns the unknown name into an error, not a stall.
#[test]
fn a_mebibyte_identifier_or_literal_is_bounded() {
    use flex::sql::{Expr, Literal};
    const MIB: usize = 1 << 20;
    let name = "n".repeat(MIB);
    // Runs of a doubled quote and of multi-byte text, throughout.
    let literal = "ab''日本".repeat(MIB / 10);
    let value = literal.replace("''", "'");
    on_worker_stack(move || {
        let started = std::time::Instant::now();
        let sql = format!("SELECT COUNT(*) FROM {name} WHERE \"{name}\".x = '{literal}'");
        let q = parse_query(&sql).unwrap();
        let key = canonical_sql(&q);
        assert!(key.len() > 3 * MIB, "{}", key.len());
        assert_eq!(parse_query(&key).unwrap(), canonicalize(&q));
        let Some(Expr::BinaryOp { right, .. }) = &q.as_select().unwrap().selection else {
            panic!("a comparison");
        };
        assert_eq!(**right, Expr::Literal(Literal::String(value)));

        let params = PrivacyParams::new(1.0, 1e-8).unwrap();
        let err = service().query("mallory", &sql, params).unwrap_err();
        assert!(err.to_string().contains("unknown table"), "{err}");
        assert!(started.elapsed() < std::time::Duration::from_secs(10));
    });
}
