//! Agreement sweep over the paper's workload corpora.
//!
//! Every query in the Uber-like workload, the TPC-H subset and the §2
//! synthetic corpus must produce on the plan executor (`Database::execute`,
//! what production runs) the `ResultSet` the test oracle produces
//! (`Database::execute_row`) — same rows, same order after ORDER BY — or
//! the same error text. This is what pins the released bytes: the
//! service's release fingerprint and noise calibration consume the true
//! results, so a single differing cell would shift every noisy answer
//! downstream.
//!
//! The same sweep checks the other half of that hand-off: for every
//! query the sensitivity analysis accepts, the output header it bound
//! (`Lowered::columns`, one `Label`/`Aggregate` per column) is the header
//! the executor produced — both went through `flex_db::bind`, and the
//! mechanism zips sensitivities onto the result by position.

use flex_db::Database;
use flex_sql::{parse_query, Query};
use flex_workloads::corpus::{self, CorpusConfig};
use flex_workloads::tpch::{self, TpchConfig};
use flex_workloads::uber::{self, UberConfig};

/// Returns whether the analysis accepted the query (and so its header
/// was compared with the executed one).
fn assert_agree(db: &Database, q: &Query, context: &str) -> bool {
    let show = |r: flex_db::Result<flex_db::ResultSet>| r.map_err(|e| e.to_string());
    let executed = db.execute_traced(q).1;
    let lowered = flex_core::lower(q, db);
    if let (Ok(lowered), Ok(rs)) = (&lowered, &executed) {
        assert_eq!(lowered.columns, rs.columns, "bound header on {context}");
        assert_eq!(lowered.outputs.len(), rs.columns.len(), "{context}");
    }
    assert_eq!(
        show(executed),
        show(db.execute_row(q)),
        "executor (left) vs oracle (right) on {context}"
    );
    lowered.is_ok()
}

fn assert_sql_agrees(db: &Database, sql: &str, context: &str) -> bool {
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
    let mut analysed = 0;
    for wq in &workload {
        analysed += assert_sql_agrees(&db, &wq.sql, &format!("uber query `{}`", wq.name)) as usize;
        assert_sql_agrees(
            &db,
            &wq.population_sql,
            &format!("uber population query `{}`", wq.name),
        );
    }
    assert_eq!(analysed, workload.len(), "the analysis supports all of it");
}

#[test]
fn tpch_queries_agree() {
    let db = tpch::generate(&TpchConfig {
        scale: 0.01,
        ..TpchConfig::default()
    });
    let queries = tpch::queries();
    assert!(!queries.is_empty());
    let mut analysed = 0;
    for (name, sql, _) in &queries {
        analysed += assert_sql_agrees(&db, sql, &format!("tpch query `{name}`")) as usize;
    }
    assert!(analysed > 0, "the header sweep compared nothing");
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
        let mut analysed = 0;
        for (i, q) in queries.iter().enumerate() {
            analysed += assert_agree(&db, q, &format!("corpus[{i}] at {workers} workers")) as usize;
        }
        assert!(analysed >= 100, "the header sweep compared {analysed}");
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
