//! Satellite test: SQL canonicalization over the whole Uber evaluation
//! workload — parse → canonicalize → print → reparse is a fixpoint, and
//! semantically identical query spellings produce equal cache keys.

use flex::sql::{canonical_sql, canonicalize, parse_query, print_query};
use flex::workloads::uber::{workload, UberConfig};

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

/// FNV-1a, 64-bit: written out so the pinned value below does not depend
/// on the toolchain's `DefaultHasher`.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The four textual variants `pipeline_bench` renders of each of its
/// shapes: lower-case keywords, extra whitespace, swapped `=` operands,
/// reversed `AND` conjuncts.
fn bench_shape_variants() -> Vec<String> {
    struct Shape {
        select: &'static str,
        from: &'static str,
        joins: &'static [(&'static str, &'static str, &'static str)],
        conjuncts: &'static [Result<(&'static str, &'static str), &'static str>],
        group_by: Option<&'static str>,
    }
    let shapes = [
        Shape {
            select: "COUNT(*)",
            from: "trips",
            joins: &[],
            conjuncts: &[
                Ok(("city_id", "5")),
                Err("trip_date {BETWEEN} '2016-03-01' {AND} '2016-03-30'"),
                Ok(("status", "'completed'")),
                Err("fare > 12.34567"),
            ],
            group_by: None,
        },
        Shape {
            select: "c.name, COUNT(*)",
            from: "trips t",
            joins: &[("cities c", "t.city_id", "c.id")],
            conjuncts: &[
                Err("t.trip_date {BETWEEN} '2016-06-01' {AND} '2016-06-07'"),
                Err("t.fare > 3.00100"),
            ],
            group_by: Some("c.name"),
        },
        Shape {
            select: "COUNT(*)",
            from: "trips t",
            joins: &[("drivers d", "t.driver_id", "d.id")],
            conjuncts: &[
                Ok(("d.city_id", "7")),
                Ok(("d.vehicle", "'suv'")),
                Ok(("t.status", "'completed'")),
                Err("t.fare > 27.91300"),
            ],
            group_by: None,
        },
        Shape {
            select: "COUNT(DISTINCT d.id)",
            from: "trips t",
            joins: &[
                ("drivers d", "t.driver_id", "d.id"),
                ("cities c", "t.city_id", "c.id"),
            ],
            conjuncts: &[
                Ok(("c.name", "'hong kong'")),
                Ok(("t.status", "'completed'")),
                Err("d.city_id <> t.city_id"),
                Err("t.fare > 42.99999"),
            ],
            group_by: None,
        },
    ];
    let mut out = Vec::new();
    for s in &shapes {
        for v in 0..4 {
            let (lower, wide, swap, reverse) = (v == 0, v == 1, v == 2, v == 3);
            let kw = |k: &str| {
                if lower {
                    k.to_lowercase()
                } else {
                    k.to_string()
                }
            };
            let gap = if wide { "\n   " } else { " " };
            let eq = |l: &str, r: &str| {
                let (l, r) = if swap { (r, l) } else { (l, r) };
                if wide {
                    format!("{l}  =  {r}")
                } else {
                    format!("{l} = {r}")
                }
            };
            let select = if lower {
                s.select.to_lowercase()
            } else {
                s.select.to_string()
            };
            let mut sql = format!(
                "{}{gap}{select}{gap}{} {}",
                kw("SELECT"),
                kw("FROM"),
                s.from
            );
            for (table, l, r) in s.joins {
                sql += &format!("{gap}{} {table} {} {}", kw("JOIN"), kw("ON"), eq(l, r));
            }
            let mut conjuncts: Vec<String> = (s.conjuncts.iter())
                .map(|c| match c {
                    Ok((l, r)) => eq(l, r),
                    Err(raw) => raw
                        .replace("{BETWEEN}", &kw("BETWEEN"))
                        .replace("{AND}", &kw("AND")),
                })
                .collect();
            if reverse {
                conjuncts.reverse();
            }
            let and = format!("{gap}{} ", kw("AND"));
            sql += &format!("{gap}{} {}", kw("WHERE"), conjuncts.join(&and));
            if let Some(g) = s.group_by {
                sql += &format!("{gap}{} {g}", kw("GROUP BY"));
            }
            out.push(sql);
        }
    }
    out
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
