//! The sensitivity analysis, pinned over every query text the repository
//! ships: the Uber workload (and its population queries and Table 5),
//! TPC-H, 2 000 corpus queries and the benchmark's 16 shape variants.
//! Each query contributes either its analysis — kind, stability,
//! per-output sensitivity, join count, and each group key's base column
//! and `public` flag — or the variant of the error that refused it. A
//! change to how the analysis reads a query that moves any of that moves
//! the digest.

use flex::core::{analyze, AnalyzedQuery, FlexError};
use flex::db::Database;
use flex::sql::{parse_query, print_query, Query};
use flex::workloads::corpus::{catalog_database, generate, CorpusConfig};
use flex::workloads::{tpch, uber};

mod common;
use common::{bench_shape_variants, fnv1a};

/// One line per query: what the analysis made of it.
fn outcome(analysis: &Result<AnalyzedQuery, FlexError>) -> String {
    let a = match analysis {
        Ok(a) => a,
        Err(e) => {
            let debug = format!("{e:?}");
            let variant = debug.split(['(', ' ', '{']).next().unwrap_or_default();
            return format!("refused {variant}");
        }
    };
    let outputs: Vec<String> = (a.outputs.iter())
        .map(|s| s.as_ref().map_or("label".into(), ToString::to_string))
        .collect();
    let keys: Vec<String> = (a.lowered.group_by.iter())
        .map(|g| match &g.base {
            Some(attr) => format!("{attr} public={}", g.public),
            None => format!("computed public={}", g.public),
        })
        .collect();
    format!(
        "{:?} stability={} outputs=[{}] joins={} keys=[{}]",
        a.lowered.kind,
        a.stability,
        outputs.join(", "),
        a.join_count,
        keys.join(", ")
    )
}

#[test]
fn analysis_is_pinned() {
    let uber_cfg = uber::UberConfig {
        trips: 4_000,
        drivers: 300,
        riders: 500,
        user_tags: 300,
        ..uber::UberConfig::default()
    };
    let uber_db = uber::generate(&uber_cfg);
    let tpch_db = tpch::generate(&tpch::TpchConfig {
        scale: 0.01,
        ..tpch::TpchConfig::default()
    });
    let corpus_db = catalog_database(60, 0xD15C0);

    let mut queries: Vec<(&Database, String)> = Vec::new();
    for wq in uber::workload(&uber_cfg) {
        queries.push((&uber_db, wq.sql));
        queries.push((&uber_db, wq.population_sql));
    }
    for (_, _, sql) in uber::table5_queries() {
        queries.push((&uber_db, sql));
    }
    for (_, sql, _) in tpch::queries() {
        queries.push((&tpch_db, sql.to_string()));
    }
    let corpus = generate(&CorpusConfig {
        n_queries: 2_000,
        ..CorpusConfig::default()
    });
    queries.extend(corpus.iter().map(|q| (&corpus_db, print_query(q))));
    queries.extend(
        bench_shape_variants()
            .into_iter()
            .map(|sql| (&uber_db, sql)),
    );

    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut lines = String::new();
    let mut accepted = 0;
    for (db, sql) in &queries {
        let q: Query = parse_query(sql).unwrap_or_else(|e| panic!("parse {sql:?}: {e}"));
        let analysis = analyze(&q, db);
        accepted += usize::from(analysis.is_ok());
        let line = outcome(&analysis);
        fnv1a(&mut hash, line.as_bytes());
        fnv1a(&mut hash, &[0]);
        lines += &format!("{line}\t{}\n", sql.replace('\n', " "));
    }
    assert_eq!(queries.len(), 2_000 + 16 + 2 * 101 + 6 + 5);
    assert!(accepted > 500, "the pin covers {accepted} accepted queries");
    if hash != 0x35b8_4af5_d08d_1930 {
        let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/analysis.actual.txt");
        std::fs::write(path, &lines).unwrap();
        panic!("the analysis moved (digest {hash:#018x}); each query's outcome is in {path}");
    }
}
