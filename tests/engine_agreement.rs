//! Agreement sweep over the paper's workload corpora.
//!
//! Every query in the Uber-like workload, the TPC-H subset and the §2
//! synthetic corpus must produce on the plan executor (`Database::execute`,
//! what production runs) the `ResultSet` the test oracle produces
//! (`flex_oracle::execute`, an interpreter with its own evaluator, folds
//! and ORDER BY rule) — same rows, same order after ORDER BY — or the
//! same error text. This is what pins the released bytes: the
//! service's release fingerprint and noise calibration consume the true
//! results, so a single differing cell would shift every noisy answer
//! downstream.
//!
//! (The header the mechanism zips sensitivities onto needs no sweep: the
//! analysis reads the plan the executor runs, so it is the plan's.)

use flex_db::Database;
use flex_sql::{parse_query, Query};
use flex_workloads::corpus::{self, CorpusConfig};
use flex_workloads::tpch::{self, TpchConfig};
use flex_workloads::uber::{self, UberConfig};

fn assert_agree(db: &Database, q: &Query, context: &str) {
    let show = |r: flex_db::Result<flex_db::ResultSet>| r.map_err(|e| e.to_string());
    let executed = db.execute_traced(q).1;
    assert_eq!(
        show(executed),
        show(flex_oracle::execute(db, q)),
        "executor (left) vs oracle (right) on {context}"
    );
}

fn assert_sql_agrees(db: &Database, sql: &str, context: &str) {
    let q = parse_query(sql).unwrap_or_else(|e| panic!("{context} parses ({sql}): {e:?}"));
    assert_agree(db, &q, &format!("{context}: {sql}"))
}

#[test]
fn uber_workload_queries_agree() {
    let cfg = UberConfig {
        trips: 4_000,
        drivers: 300,
        riders: 500,
        user_tags: 300,
        ..UberConfig::default()
    };
    let db = uber::generate(&cfg);
    let workload = uber::workload(&cfg);
    assert!(!workload.is_empty());
    for wq in &workload {
        assert_sql_agrees(&db, &wq.sql, &format!("uber query `{}`", wq.name));
        assert_sql_agrees(
            &db,
            &wq.population_sql,
            &format!("uber population query `{}`", wq.name),
        );
    }
}

#[test]
fn tpch_queries_agree() {
    let db = tpch::generate(&TpchConfig {
        scale: 0.01,
        ..TpchConfig::default()
    });
    let queries = tpch::queries();
    assert!(!queries.is_empty());
    for (name, sql, _) in &queries {
        assert_sql_agrees(&db, sql, &format!("tpch query `{name}`"));
    }
}

/// 400 structurally-random queries from the §2 corpus generator: the
/// marginals include joins of every type, self joins, set operations,
/// unreferenced `WITH` prologues, raw SELECTs and a 20–95-join tail, so
/// this sweep reaches shapes the curated workloads never hit. All 400
/// run on the executor, at 1 worker and at 4.
#[test]
fn synthetic_corpus_queries_agree() {
    let db = corpus::catalog_database(60, 0xD15C0);
    let queries = corpus::generate(&CorpusConfig {
        n_queries: 400,
        seed: 0x5EE9,
        ..CorpusConfig::default()
    });
    assert_eq!(queries.len(), 400);
    let widest = queries.iter().map(corpus_joins).max().unwrap_or(0);
    assert!(widest >= 20, "the sweep lost its long-join tail ({widest})");
    for workers in [1, 4] {
        db.set_parallelism(workers);
        for (i, q) in queries.iter().enumerate() {
            assert_agree(&db, q, &format!("corpus[{i}] at {workers} workers"));
        }
    }
}

/// Joins in the FROM clause of a corpus query's root SELECT.
fn corpus_joins(q: &Query) -> usize {
    fn joins(t: &flex_sql::TableRef) -> usize {
        match t {
            flex_sql::TableRef::Join { left, right, .. } => 1 + joins(left) + joins(right),
            _ => 0,
        }
    }
    q.as_select().and_then(|s| s.from.as_ref()).map_or(0, joins)
}
