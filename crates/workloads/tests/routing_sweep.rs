//! Corpus-wide routing sweep: across the Uber evaluation workload, the
//! TPC-H queries and the synthetic §2 corpus the trace must agree with
//! the planner's route decision, and both engines must agree on every
//! answer.

use flex_db::{Database, RouteDecision};
use flex_sql::Query;
use flex_workloads::{corpus, tpch, uber, CorpusConfig, TpchConfig, UberConfig};

/// Route, execute on both engines, and assert (a) the trace records the
/// planner's decision and (b) the engines are observationally identical —
/// byte-identical results or identical errors. Returns the decision for
/// aggregate accounting.
fn check(db: &Database, q: &Query, label: &str) -> RouteDecision {
    let decision = db.route_decision(q);
    let (trace, vec_result) = db.execute_traced(q);
    assert_eq!(trace.route, decision, "{label}: trace disagrees with plan");
    let row_result = db.execute_row(q);
    match (vec_result, row_result) {
        (Ok(v), Ok(r)) => assert_eq!(v, r, "{label}: engines differ"),
        (Err(v), Err(r)) => assert_eq!(
            format!("{v:?}"),
            format!("{r:?}"),
            "{label}: engines report different errors"
        ),
        (v, r) => panic!(
            "{label}: one engine errored and the other answered \
             (vectorized ok: {}, row ok: {})",
            v.is_ok(),
            r.is_ok()
        ),
    }
    decision
}

/// Tally decisions and enforce the sweep-wide invariant: the sweep must
/// exercise both paths (otherwise it tests nothing).
fn summarize(label: &str, decisions: &[RouteDecision]) {
    let vectorized = decisions.iter().filter(|d| d.is_vectorized()).count();
    let fallbacks = decisions.len() - vectorized;
    assert!(
        !decisions.is_empty(),
        "{label}: sweep ran no queries at all"
    );
    eprintln!(
        "{label}: {} queries, {vectorized} vectorized, {fallbacks} fallbacks",
        decisions.len()
    );
}

#[test]
fn uber_workload_routes_with_named_reasons() {
    let cfg = UberConfig {
        trips: 2_000,
        drivers: 200,
        riders: 400,
        user_tags: 200,
        ..UberConfig::default()
    };
    let db = uber::generate(&cfg);
    let decisions: Vec<RouteDecision> = uber::workload(&UberConfig::default())
        .into_iter()
        .map(|wq| {
            let q = flex_sql::parse_query(&wq.sql)
                .unwrap_or_else(|e| panic!("workload SQL parses ({}): {e:?}", wq.sql));
            check(&db, &q, &wq.sql)
        })
        .collect();
    summarize("uber workload", &decisions);
    // The dashboard workload is exactly what the vectorized engine was
    // built for: the fast path must dominate.
    let vectorized = decisions.iter().filter(|d| d.is_vectorized()).count();
    assert!(
        vectorized * 2 > decisions.len(),
        "vectorized coverage collapsed: {vectorized}/{}",
        decisions.len()
    );
}

#[test]
fn tpch_queries_route_with_named_reasons() {
    let db = tpch::generate(&TpchConfig::default());
    let decisions: Vec<RouteDecision> = tpch::queries()
        .into_iter()
        .map(|(name, sql, _joins)| {
            let q =
                flex_sql::parse_query(sql).unwrap_or_else(|e| panic!("TPC-H {name} parses: {e:?}"));
            check(&db, &q, name)
        })
        .collect();
    summarize("tpch", &decisions);
}

#[test]
fn synthetic_corpus_routes_with_named_reasons() {
    // 400 structurally-random queries from the §2 corpus generator: the
    // marginals include joins of every type, self joins, set operations
    // and raw SELECTs, so this sweep reaches decline paths the curated
    // workloads never hit.
    let db = corpus::catalog_database(60, 0xD15C0);
    let queries = corpus::generate(&CorpusConfig {
        n_queries: 400,
        seed: 0x5EE9,
        ..CorpusConfig::default()
    });
    let decisions: Vec<RouteDecision> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| check(&db, q, &format!("corpus[{i}]")))
        .collect();
    summarize("synthetic corpus", &decisions);
    // The corpus's join mix guarantees both engines see traffic.
    assert!(decisions.iter().any(|d| d.is_vectorized()));
    assert!(decisions.iter().any(|d| !d.is_vectorized()));
    // A `WITH` costs nothing in routing: it is expanded before the
    // planner runs, so no query falls back for having one (these used to
    // be 26 of the sweep's 49 fallbacks, under a `cte` reason). The
    // corpus's CTEs are never referenced, so each such query must route
    // exactly like itself minus the prologue.
    let mut with_ctes = 0;
    for (q, decision) in queries.iter().zip(&decisions) {
        assert_ne!(decision.as_str(), "cte");
        if !q.ctes.is_empty() {
            with_ctes += 1;
            let bare = Query {
                ctes: Vec::new(),
                ..q.clone()
            };
            assert_eq!(*decision, db.route_decision(&bare));
        }
    }
    assert!(with_ctes > 0, "the corpus sweep never saw a WITH");
}
