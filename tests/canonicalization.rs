//! Satellite test: SQL canonicalization over the whole Uber evaluation
//! workload — parse → canonicalize → print → reparse is a fixpoint, and
//! semantically identical query spellings produce equal cache keys.

use flex::sql::{canonical_sql, canonicalize, parse_query, print_query};
use flex::workloads::uber::{workload, UberConfig};

mod common;
use common::{bench_shape_variants, fnv1a};

#[test]
fn workload_canonicalization_is_a_fixpoint() {
    let queries = workload(&UberConfig::default());
    assert!(queries.len() > 50, "workload should be sizeable");
    for wq in &queries {
        for sql in [&wq.sql, &wq.population_sql] {
            let q = parse_query(sql).unwrap_or_else(|e| panic!("parse {sql:?}: {e}"));
            let once = canonicalize(&q);
            // Idempotent on the AST.
            assert_eq!(once, canonicalize(&once), "not idempotent: {sql}");
            // Printing and reparsing the canonical form lands on the same
            // canonical AST (the cache key is stable across round-trips).
            let printed = print_query(&once);
            let reparsed =
                parse_query(&printed).unwrap_or_else(|e| panic!("reparse {printed:?}: {e}"));
            assert_eq!(once, canonicalize(&reparsed), "round-trip drift: {sql}");
            assert_eq!(printed, canonical_sql(&reparsed), "key drift: {sql}");
        }
    }
}

#[test]
fn equivalent_spellings_share_cache_keys() {
    let key = |sql: &str| canonical_sql(&parse_query(sql).unwrap());
    let groups: &[&[&str]] = &[
        // Whitespace + keyword/identifier case.
        &[
            "SELECT COUNT(*) FROM trips WHERE status = 'completed'",
            "select   COUNT(*)  from TRIPS\n where STATUS='completed'",
        ],
        // Conjunct commutation and association.
        &[
            "SELECT COUNT(*) FROM trips WHERE city_id = 3 AND fare > 10 AND status = 'completed'",
            "SELECT COUNT(*) FROM trips WHERE status = 'completed' AND (city_id = 3 AND fare > 10)",
            "SELECT COUNT(*) FROM trips WHERE fare > 10 AND status = 'completed' AND city_id = 3",
        ],
        // Equality operand order, including in join constraints.
        &[
            "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id",
            "SELECT COUNT(*) FROM trips t JOIN drivers d ON d.id = t.driver_id",
        ],
        // Comparison direction.
        &[
            "SELECT COUNT(*) FROM trips WHERE fare > 42.5",
            "SELECT COUNT(*) FROM trips WHERE 42.5 < fare",
        ],
        // IN-list order and duplicates.
        &[
            "SELECT COUNT(*) FROM trips WHERE city_id IN (3, 1, 2)",
            "SELECT COUNT(*) FROM trips WHERE city_id IN (1, 2, 3, 2)",
        ],
    ];
    for group in groups {
        let expect = key(group[0]);
        for sql in &group[1..] {
            assert_eq!(
                key(sql),
                expect,
                "{sql:?} should share a key with {:?}",
                group[0]
            );
        }
    }

    // And inequivalent spellings must not collide.
    let distinct = [
        "SELECT COUNT(*) FROM trips",
        "SELECT COUNT(*) FROM drivers",
        "SELECT COUNT(*) FROM trips WHERE city_id = 3",
        "SELECT COUNT(*) FROM trips WHERE city_id = 4",
        "SELECT COUNT(DISTINCT driver_id) FROM trips",
        "SELECT city_id, COUNT(*) FROM trips GROUP BY city_id",
    ];
    let keys: Vec<String> = distinct.iter().map(|s| key(s)).collect();
    for i in 0..keys.len() {
        for j in i + 1..keys.len() {
            assert_ne!(keys[i], keys[j], "{:?} vs {:?}", distinct[i], distinct[j]);
        }
    }
}

/// The canonical text is the cache key and the input of the noise-seed
/// PRF: a change to the lexer, parser, canonicalizer or printer that
/// moves one byte of it for any query moves released bytes. This pins it
/// over every query text the repository ships.
#[test]
fn canonical_text_is_pinned() {
    use flex::workloads::corpus::{generate, CorpusConfig};
    use flex::workloads::{tpch, uber};

    let mut texts: Vec<String> = Vec::new();
    for wq in workload(&UberConfig::default()) {
        texts.push(wq.sql);
        texts.push(wq.population_sql);
    }
    texts.extend(uber::table5_queries().into_iter().map(|(_, _, sql)| sql));
    texts.extend(
        tpch::queries()
            .into_iter()
            .map(|(_, sql, _)| sql.to_string()),
    );
    let corpus = generate(&CorpusConfig {
        n_queries: 2_000,
        ..CorpusConfig::default()
    });
    texts.extend(corpus.iter().map(print_query));
    let variants = bench_shape_variants();
    for group in variants.chunks(4) {
        let keys: Vec<String> = (group.iter())
            .map(|t| canonical_sql(&parse_query(t).unwrap()))
            .collect();
        assert!(keys.iter().all(|k| *k == keys[0]), "{group:?}");
    }
    texts.extend(variants);

    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for text in &texts {
        let q = parse_query(text).unwrap_or_else(|e| panic!("parse {text:?}: {e}"));
        fnv1a(&mut hash, print_query(&canonicalize(q)).as_bytes());
        fnv1a(&mut hash, &[0]);
    }
    assert_eq!(
        texts.len(),
        2_000 + 16 + 2 * workload(&UberConfig::default()).len() + 6 + 5
    );
    assert_eq!(
        hash, 0x02df_2929_ca80_6b8e,
        "canonical text moved (digest {hash:#018x})"
    );
}

/// A numeric literal too large for `f64` used to lex to infinity and
/// print as `inf` — which re-parses as a *column* named `inf`, so the two
/// queries shared one cache key and one noise seed.
#[test]
fn an_infinite_literal_is_refused_and_inf_keeps_its_own_key() {
    for sql in [
        "SELECT COUNT(*) FROM trips WHERE x < 1e999",
        "SELECT COUNT(*) FROM trips WHERE x < -1e999",
        &format!("SELECT COUNT(*) FROM trips WHERE x < {}", "9".repeat(400)),
    ] {
        let err = parse_query(sql).expect_err(sql);
        assert!(err.to_string().contains("finite"), "{sql}: {err}");
    }
    let key = canonical_sql(&parse_query("SELECT COUNT(*) FROM trips WHERE x < inf").unwrap());
    assert_eq!(key, "SELECT count(*) FROM trips WHERE (x < inf)");
    let huge = canonical_sql(&parse_query("SELECT COUNT(*) FROM trips WHERE x < 1e300").unwrap());
    assert_ne!(huge, key);
}
