//! `flex_sql::inline_ctes` is the one place a `WITH` name is bound. These
//! sweeps pin what that buys: the analysis, the executor and its oracle
//! see the same CTE-free tree, so inlining by hand, inlining explicitly and letting the
//! entry points inline are indistinguishable — in result bytes, in errors
//! and in the lowered relation.

use flex::core::lower;
use flex::prelude::*;
use flex::sql::inline_ctes;
use flex::workloads::{corpus, CorpusConfig};
use std::borrow::Cow;

/// Everything that must hold for one query, however it spells its CTEs.
fn check(db: &Database, q: &Query, label: &str) {
    let inlined = inline_ctes(q)
        .unwrap_or_else(|e| panic!("{label}: {e}"))
        .into_owned();

    // No `WITH` is left at any depth, so a second pass has nothing to do
    // and the tree survives a trip through its own SQL text.
    assert!(
        matches!(inline_ctes(&inlined).unwrap(), Cow::Borrowed(_)),
        "{label}: not a fixed point"
    );
    let text = print_query(&inlined);
    assert!(!text.contains("WITH "), "{label}: WITH survives in {text}");
    assert_eq!(parse_query(&text).unwrap(), inlined, "{label}: {text}");

    // Same bytes (or the same error) from the executor and the oracle,
    // inlined first or not.
    let answer = db.execute(q);
    assert_eq!(answer, db.execute(&inlined), "{label}: execute");
    assert_eq!(
        answer,
        flex_oracle::execute(db, q),
        "{label}: oracle differs"
    );
    assert_eq!(
        answer,
        flex_oracle::execute(db, &inlined),
        "{label}: oracle, inlined"
    );

    // Same relation under the root aggregate (or the same rejection).
    assert_eq!(lower(q, db), lower(&inlined, db), "{label}: lower");
}

#[test]
fn corpus_queries_are_unchanged_by_inlining() {
    let db = corpus::catalog_database(60, 0xD15C0);
    let queries = corpus::generate(&CorpusConfig {
        n_queries: 400,
        seed: 0x5EE9,
        ..CorpusConfig::default()
    });
    let mut with_ctes = 0;
    for (i, q) in queries.iter().enumerate() {
        with_ctes += usize::from(!q.ctes.is_empty());
        check(&db, q, &format!("corpus[{i}]"));
    }
    assert!(with_ctes > 0, "the sweep never saw a WITH");
}

/// Handwritten scoping cases over the corpus catalog, each next to the
/// query an analyst would have to write without `WITH`. The pair must be
/// the same tree, so everything `check` holds for one holds for both.
#[test]
fn handwritten_cases_equal_their_hand_inlined_form() {
    let db = corpus::catalog_database(60, 0xD15C0);
    for (with, by_hand) in [
        // Referenced once, twice (a self join the analysis must count),
        // and through an alias.
        (
            "WITH c AS (SELECT id, city_id FROM trips WHERE fare > 10) SELECT COUNT(*) FROM c",
            "SELECT COUNT(*) FROM (SELECT id, city_id FROM trips WHERE fare > 10) AS c",
        ),
        (
            "WITH c AS (SELECT driver_id FROM trips) \
             SELECT COUNT(*) FROM c x JOIN c y ON x.driver_id = y.driver_id",
            "SELECT COUNT(*) FROM (SELECT driver_id FROM trips) AS x \
             JOIN (SELECT driver_id FROM trips) AS y ON x.driver_id = y.driver_id",
        ),
        // A chain: each body sees the ones before it.
        (
            "WITH a AS (SELECT id, city_id FROM trips), \
                  b AS (SELECT a.id, cities.region FROM a JOIN cities ON a.city_id = cities.id) \
             SELECT region, COUNT(*) FROM b GROUP BY region ORDER BY region",
            "SELECT region, COUNT(*) FROM \
               (SELECT a.id, cities.region FROM (SELECT id, city_id FROM trips) AS a \
                JOIN cities ON a.city_id = cities.id) AS b \
             GROUP BY region ORDER BY region",
        ),
        // Shadowing a base table: the body's `trips` is the table, the
        // main query's is the CTE; `x` reads the CTE `drivers`.
        (
            "WITH trips AS (SELECT * FROM trips WHERE fare > 25) SELECT COUNT(*) FROM trips",
            "SELECT COUNT(*) FROM (SELECT * FROM trips WHERE fare > 25) AS trips",
        ),
        (
            "WITH drivers AS (SELECT id FROM riders), x AS (SELECT id FROM drivers) \
             SELECT COUNT(*) FROM x",
            "SELECT COUNT(*) FROM (SELECT id FROM (SELECT id FROM riders) AS drivers) AS x",
        ),
        // A later CTE named like a table an earlier one reads.
        (
            "WITH a AS (SELECT * FROM trips), trips AS (SELECT * FROM cities) \
             SELECT COUNT(*) FROM a",
            "SELECT COUNT(*) FROM (SELECT * FROM trips) AS a",
        ),
        // Nested lists: the inner `c` wins inside the derived table and
        // ends with it.
        (
            "WITH c AS (SELECT id FROM trips) \
             SELECT COUNT(*) FROM (WITH c AS (SELECT id FROM drivers) SELECT id FROM c) d \
             JOIN c ON d.id = c.id",
            "SELECT COUNT(*) FROM (SELECT id FROM (SELECT id FROM drivers) AS c) AS d \
             JOIN (SELECT id FROM trips) AS c ON d.id = c.id",
        ),
        // Expression subqueries, ON included.
        (
            "WITH busy AS (SELECT driver_id FROM trips WHERE fare > 40) \
             SELECT COUNT(*) FROM drivers WHERE id IN (SELECT driver_id FROM busy) \
             AND EXISTS (SELECT 1 FROM busy)",
            "SELECT COUNT(*) FROM drivers \
             WHERE id IN (SELECT driver_id FROM (SELECT driver_id FROM trips WHERE fare > 40) AS busy) \
             AND EXISTS (SELECT 1 FROM (SELECT driver_id FROM trips WHERE fare > 40) AS busy)",
        ),
        // Set-operation arms, a root the analysis descends through, and a
        // CTE nobody reads (never evaluated: its division by zero is moot).
        (
            "WITH c AS (SELECT city_id FROM trips) \
             SELECT city_id FROM c UNION SELECT id FROM cities ORDER BY 1",
            "SELECT city_id FROM (SELECT city_id FROM trips) AS c \
             UNION SELECT id FROM cities ORDER BY 1",
        ),
        (
            "WITH c AS (SELECT COUNT(*) AS n FROM trips) SELECT n FROM c",
            "SELECT n FROM (SELECT COUNT(*) AS n FROM trips) AS c",
        ),
        (
            "WITH unused AS (SELECT 1 / 0 AS boom FROM trips) SELECT COUNT(*) FROM trips",
            "SELECT COUNT(*) FROM trips",
        ),
        // A forward reference is whatever base table has the name: none.
        (
            "WITH a AS (SELECT * FROM b), b AS (SELECT * FROM trips) SELECT COUNT(*) FROM a",
            "SELECT COUNT(*) FROM (SELECT * FROM b) AS a",
        ),
    ] {
        let with = parse_query(with).unwrap();
        let by_hand = parse_query(by_hand).unwrap();
        assert_eq!(
            inline_ctes(&with).unwrap().into_owned(),
            by_hand,
            "{}",
            print_query(&with)
        );
        check(&db, &with, &print_query(&with));
        check(&db, &by_hand, &print_query(&by_hand));
    }
}
