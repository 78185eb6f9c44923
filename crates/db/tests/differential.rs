//! Differential tests of the plan executor against its oracle.
//!
//! The executor (what `Database::execute` runs) must be observationally
//! identical to the row-at-a-time reference implementation
//! (`flex_oracle::execute`, the `flex-oracle` crate) on every query — same
//! rows, same order, same NULLs, same float bits, same error text —
//! because DP noise calibration hashes the true results. The oracle has an
//! expression evaluator, aggregate names, fold statement and ORDER BY rule
//! of its own, so these tests cover those parts of the executor too
//! (`scripts/oracle_mutants.sh` checks that they do). They generate random
//! queries over random small tables (nulls, duplicates, mixed group sizes,
//! floats whose sums depend on association) and assert `ResultSet`
//! equality: single-table blocks, two-table INNER/LEFT equi-joins (ON and
//! USING, residual predicates, NULL join keys) that exercise the join
//! pipeline's predicate pushdown, and the tree shapes (wide join trees,
//! every join type, derived tables, set operations, expression
//! subqueries) — plus explicit cases for the aggregates (value lists with
//! hand-written answers, NULL handling, NaN and −0.0), LEFT JOIN
//! pushdown/padding regressions, and LIMIT/OFFSET/ORDER BY regressions.
//! In the comments below "the engines" are these two.

use flex_db::{DataType, Database, ResultSet, Schema, Value};
use flex_sql::parse_query;
use proptest::prelude::*;

/// Schema shared by every generated case: an Int, a Float, a Str and a
/// small Int "category" column, all nullable.
///
/// The fold grid (`set_morsel_rows`) is pinned to 3 rows **at build
/// time**, before any baseline executes: the reduction-grid chunk size
/// is determinism-bearing — part of the numeric function, bound into
/// the release fingerprint — so every run a test compares (row engine,
/// sequential columnar, every worker count) must share it. Pinning it
/// this small also makes the handful-of-row generated tables span many
/// fold chunks, so the fixed-shape tree really exercises multi-leaf
/// combines.
fn build_db(rows: Vec<(Value, Value, Value, Value)>) -> Database {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("c", DataType::Str),
            ("d", DataType::Int),
        ]),
    )
    .unwrap();
    db.insert(
        "t",
        rows.into_iter()
            .map(|(a, b, c, d)| vec![a, b, c, d])
            .collect(),
    )
    .unwrap();
    db.set_morsel_rows(3);
    db
}

fn arb_int() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        (-4i64..5).prop_map(Value::Int),
        (-4i64..5).prop_map(Value::Int),
        (-4i64..5).prop_map(Value::Int),
    ]
    .boxed()
}

fn arb_float() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        (-4i64..5).prop_map(|i| Value::Float(i as f64 * 0.5)),
        (-4i64..5).prop_map(|i| Value::Float(i as f64 * 0.5)),
        (-4i64..5).prop_map(|i| Value::Float(i as f64 * 0.5)),
        // A Float-typed column may physically hold Ints too: makes the
        // column Mixed, exercising the engines' cross-type comparison,
        // grouping and MIN/MAX paths.
        (-4i64..5).prop_map(Value::Int),
        // Halves add exactly in any order; these do not (`1e16` absorbs
        // `0.1` and `3e-8`, `0.1 + 3e-8` rounds), so a sum folded in
        // another lane or tree order than the fold grid's changes bits.
        prop_oneof![Just(0.1), Just(1e16), Just(-1e16), Just(3e-8)].prop_map(Value::Float),
    ]
    .boxed()
}

fn arb_str() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        "[ab]{1,2}".prop_map(Value::Str),
        "[ab]{1,2}".prop_map(Value::Str),
        "[ab]{1,2}".prop_map(Value::Str),
    ]
    .boxed()
}

fn arb_cat() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..3).prop_map(Value::Int),
        (0i64..3).prop_map(Value::Int),
        (0i64..3).prop_map(Value::Int),
        (0i64..3).prop_map(Value::Int),
    ]
    .boxed()
}

fn arb_rows() -> BoxedStrategy<Vec<(Value, Value, Value, Value)>> {
    proptest::collection::vec((arb_int(), arb_float(), arb_str(), arb_cat()), 0..30).boxed()
}

/// A random WHERE predicate mixing kernel-covered comparisons (column op
/// literal, IS NULL, LIKE) with shapes that exercise the scalar fallback
/// (arithmetic, OR, BETWEEN, IN lists, cross-type comparisons).
fn arb_pred() -> BoxedStrategy<String> {
    prop_oneof![
        (-4i64..5).prop_map(|c| format!("a > {c}")),
        (-4i64..5).prop_map(|c| format!("a <= {c}")),
        (-4i64..5).prop_map(|c| format!("a <> {c}")),
        (-4i64..5).prop_map(|c| format!("b >= {}", c as f64 * 0.5)),
        (-4i64..5).prop_map(|c| format!("b < {c}")),
        "[ab]{1,2}".prop_map(|s| format!("c = '{s}'")),
        "[ab]{1,2}".prop_map(|s| format!("c >= '{s}'")),
        Just("a IS NULL".to_string()),
        Just("c IS NOT NULL".to_string()),
        "[ab]".prop_map(|s| format!("c LIKE '%{s}'")),
        "[ab]".prop_map(|s| format!("c NOT LIKE '{s}_'")),
        (-4i64..5).prop_map(|c| format!("a + d > {c}")),
        ((-4i64..1), (0i64..5)).prop_map(|(l, h)| format!("a BETWEEN {l} AND {h}")),
        (-4i64..5).prop_map(|c| format!("a > {c} AND d < 2")),
        (-4i64..5).prop_map(|c| format!("a > {c} OR b < 0")),
        Just("d IN (0, 2)".to_string()),
        // Cross-type comparison: NULL for every row under sql_cmp.
        Just("a > 'zzz'".to_string()),
    ]
    .boxed()
}

fn arb_where() -> BoxedStrategy<String> {
    prop_oneof![
        Just(String::new()),
        arb_pred().prop_map(|p| format!(" WHERE {p}")),
        arb_pred().prop_map(|p| format!(" WHERE {p}")),
    ]
    .boxed()
}

/// Random queries covering every vectorized shape: plain projection,
/// columnar hash-aggregates on int/str/expression keys, grand
/// aggregates, plus DISTINCT / HAVING / ORDER BY / LIMIT tails.
fn arb_query() -> BoxedStrategy<String> {
    let plain = (arb_where(), 0u32..7, 0u32..6, 0u32..2).prop_map(|(w, ob, lim, dis)| {
        let distinct = if dis == 1 { "DISTINCT " } else { "" };
        let order = match ob {
            0 => "",
            1 => " ORDER BY a, b, c, d",
            2 => " ORDER BY 1 DESC, 4",
            3 => " ORDER BY c DESC, a",
            // Multi-key with mixed directions, NULLs in every key.
            4 => " ORDER BY b DESC, d DESC, a",
            5 => " ORDER BY d, c DESC, b",
            // Single Float key: the typed pair-sort fast path.
            _ => " ORDER BY b DESC",
        };
        let limit = match lim {
            0 => "",
            1 => " LIMIT 5",
            2 => " LIMIT 3 OFFSET 2",
            3 => " LIMIT 2 OFFSET 40",
            4 => " LIMIT 1",
            _ => " LIMIT 0",
        };
        format!("SELECT {distinct}a, b, c, d FROM t{w}{order}{limit}")
    });
    // Aliased plain-column projection: ORDER BY resolves aliases and
    // ordinals against the output columns (the shared resolution rule),
    // and the vectorized tail must map them back to source columns.
    let aliased = (arb_where(), 0u32..3, 0u32..3, 0u32..2).prop_map(|(w, ob, lim, dis)| {
        let distinct = if dis == 1 { "DISTINCT " } else { "" };
        let order = match ob {
            0 => " ORDER BY x DESC, y",
            1 => " ORDER BY 2, x DESC",
            // `a` names the output column (aliased from d), not t.a.
            _ => " ORDER BY a DESC, x",
        };
        let limit = match lim {
            0 => "",
            1 => " LIMIT 4",
            _ => " LIMIT 3 OFFSET 1",
        };
        format!("SELECT {distinct}a AS x, b AS y, d AS a FROM t{w}{order}{limit}")
    });
    // Computed projection with ORDER BY on the alias: Project evaluates
    // `a + d` for every row and the tail sorts on the projected column.
    let computed = (arb_where(), 0u32..2).prop_map(|(w, lim)| {
        let limit = if lim == 0 { "" } else { " LIMIT 3 OFFSET 1" };
        format!("SELECT a + d AS k, c FROM t{w} ORDER BY k DESC, c{limit}")
    });
    let agg_int_key = (arb_where(), 0u32..3, 0u32..3, 0u32..3).prop_map(|(w, hv, ob, lim)| {
        let having = match hv {
            0 => "",
            1 => " HAVING COUNT(*) > 1",
            _ => " HAVING SUM(a) >= 0",
        };
        let order = match ob {
            0 => "",
            1 => " ORDER BY n DESC, d",
            _ => " ORDER BY 1",
        };
        // LIMIT under ORDER BY exercises the grouped top-K tail.
        let limit = match (ob, lim) {
            (_, 0) | (0, _) => "",
            (_, 1) => " LIMIT 2",
            _ => " LIMIT 1 OFFSET 1",
        };
        format!(
            "SELECT d, COUNT(*) AS n, SUM(a), AVG(b), MIN(c), MAX(a), \
             COUNT(DISTINCT a) FROM t{w} GROUP BY d{having}{order}{limit}"
        )
    });
    let agg_str_key = (arb_where(), 0u32..2).prop_map(|(w, ob)| {
        let order = if ob == 0 { "" } else { " ORDER BY 2 DESC, 1" };
        format!("SELECT c, COUNT(*), MIN(a), MEDIAN(b) FROM t{w} GROUP BY c{order}")
    });
    let agg_multi_key = (arb_where(),).prop_map(|(w,)| {
        format!("SELECT d, c, COUNT(*), SUM(b) FROM t{w} GROUP BY d, c ORDER BY 3 DESC, 1, 2")
    });
    // Expression group key: Project feeds the aggregate a dense table.
    let agg_expr_key = (arb_where(),).prop_map(|(w,)| {
        format!("SELECT a + d AS k, COUNT(*) FROM t{w} GROUP BY a + d ORDER BY 2 DESC, 1")
    });
    // Key over the Float column, Mixed when it also holds Ints: `1` and
    // `1.0` form one group, keyed by whichever came first.
    let agg_mixed_key = arb_where()
        .prop_map(|w| format!("SELECT b, COUNT(*), SUM(a), MAX(c) FROM t{w} GROUP BY b"));
    let grand = arb_where().prop_map(|w| {
        format!("SELECT COUNT(*), SUM(b), MEDIAN(a), STDDEV(b), MIN(b), MAX(c) FROM t{w}")
    });
    // Computed key (a CASE mixing Str, Int and Float) and computed
    // arguments under every tail: HAVING, ORDER BY alias / ordinal /
    // unprojected aggregate expression, DISTINCT, LIMIT/OFFSET.
    let agg_computed = (arb_where(), 0u32..4, 0u32..4, 0u32..3, 0u32..2).prop_map(
        |(w, hv, ob, lim, dis)| {
            let distinct = if dis == 1 { "DISTINCT " } else { "" };
            let key = "CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN d ELSE b END";
            let having = match hv {
                0 => "",
                1 => " HAVING COUNT(*) > 1",
                2 => " HAVING SUM(b * (1 - d)) >= 0",
                _ => " HAVING MIN(a + d) + 1 > 0",
            };
            let order = match ob {
                0 => "",
                1 => " ORDER BY n DESC, k",
                2 => " ORDER BY 3, 1",
                _ => " ORDER BY COUNT(*) + MAX(a) DESC, 1",
            };
            let limit = match lim {
                0 => "",
                1 => " LIMIT 2",
                _ => " LIMIT 3 OFFSET 1",
            };
            format!(
                "SELECT {distinct}{key} AS k, COUNT(*) AS n, SUM(b * (1 - d)), MIN(a + d), \
                 MEDIAN(b * 2), COUNT(DISTINCT a % 2) FROM t{w} GROUP BY {key}{having}{order}{limit}"
            )
        },
    );
    // Computed key outside the projection, sorted on.
    let agg_unprojected_key = (arb_where(), 0u32..2).prop_map(|(w, lim)| {
        let limit = if lim == 0 { "" } else { " LIMIT 2 OFFSET 1" };
        format!(
            "SELECT COUNT(*) AS n, AVG(a * 2) FROM t{w} GROUP BY d + 1 ORDER BY d + 1 DESC{limit}"
        )
    });
    prop_oneof![
        plain,
        aliased,
        computed,
        agg_int_key,
        agg_str_key,
        agg_multi_key,
        agg_mixed_key,
        agg_expr_key,
        agg_computed,
        agg_unprojected_key,
        grand,
    ]
    .boxed()
}

/// Add the join partner table `r(a Int, w Int, u Str)` — `a` is shared
/// with `t` so `USING (a)` works, all columns nullable.
fn add_r(db: &mut Database, rows: Vec<(Value, Value, Value)>) {
    db.create_table(
        "r",
        Schema::of(&[
            ("a", DataType::Int),
            ("w", DataType::Int),
            ("u", DataType::Str),
        ]),
    )
    .unwrap();
    db.insert(
        "r",
        rows.into_iter().map(|(a, w, u)| vec![a, w, u]).collect(),
    )
    .unwrap();
}

fn arb_r_rows() -> BoxedStrategy<Vec<(Value, Value, Value)>> {
    proptest::collection::vec((arb_int(), arb_int(), arb_str()), 0..25).boxed()
}

/// An infallible WHERE over `t x` joined with `r y` that mixes kernels
/// (pushed below the join, or run post-join over NULL pads) with
/// conjuncts no kernel runs — a cross-side comparison, a `BETWEEN` on a
/// joined column — which run post-join, after the kernels. Every
/// compared cell can be NULL.
fn arb_split_where() -> BoxedStrategy<String> {
    prop_oneof![
        (-4i64..5).prop_map(|c| format!(" WHERE x.d > {c} AND x.a <> y.w")),
        (-4i64..5).prop_map(|c| format!(" WHERE y.w <= {c} AND x.b < y.w AND x.c IS NOT NULL")),
        ((-4i64..1), (0i64..5))
            .prop_map(|(l, h)| format!(" WHERE y.w BETWEEN {l} AND {h} AND x.d <> 1")),
        ((-4i64..1), (0i64..5)).prop_map(|(l, h)| {
            format!(" WHERE x.a NOT BETWEEN {l} AND {h} AND y.u IS NULL AND x.d >= y.w")
        }),
        "[ab]".prop_map(|s| format!(" WHERE x.c LIKE '%{s}' AND y.u >= x.c AND y.w > -3")),
        "[ab]{1,2}".prop_map(|s| format!(" WHERE y.u = '{s}' AND x.c <> y.u")),
    ]
    .boxed()
}

/// Random two-table equi-join queries covering the columnar join
/// pipeline: INNER and LEFT, ON and USING, kernelizable and fallible
/// residuals, WHERE conjuncts pushed to either side or kept post-join,
/// NULL join keys, plain/grand/grouped projections and ORDER BY/LIMIT
/// tails.
fn arb_join_query() -> BoxedStrategy<String> {
    let jt = prop_oneof![Just("JOIN"), Just("LEFT JOIN")];
    let on = prop_oneof![
        Just("ON x.a = y.a".to_string()),
        Just("USING (a)".to_string()),
        // Kernelizable ON residuals (pushable per side).
        (-4i64..5).prop_map(|c| format!("ON x.a = y.a AND y.w >= {c}")),
        (-4i64..5).prop_map(|c| format!("ON x.a = y.a AND x.d <> {c}")),
        // Fallible residual: evaluated per candidate pair, no pushdown.
        Just("ON x.a = y.a AND x.b < y.w".to_string()),
        // The Float (or Mixed) column against Int: `1.0` joins `1`.
        Just("ON x.b = y.a".to_string()),
        // Str against Str.
        Just("ON x.c = y.u".to_string()),
        // Two key columns: a row with a NULL in either matches nothing.
        Just("ON x.a = y.a AND x.c = y.u".to_string()),
    ];
    let wh = prop_oneof![
        Just(String::new()),
        (-4i64..5).prop_map(|c| format!(" WHERE x.d > {c}")),
        (-4i64..5).prop_map(|c| format!(" WHERE y.w <= {c}")),
        Just(" WHERE y.u IS NULL".to_string()),
        Just(" WHERE y.u IS NOT NULL AND x.c IS NOT NULL".to_string()),
        "[ab]{1,2}".prop_map(|s| format!(" WHERE x.c = '{s}' AND y.w > -2")),
        // Fallible conjuncts: the whole WHERE runs post-join.
        (-4i64..5).prop_map(|c| format!(" WHERE x.b + y.w > {c}")),
        Just(" WHERE x.a > 0 OR y.w > 2".to_string()),
        arb_split_where(),
        arb_split_where(),
    ];
    let shape = prop_oneof![
        (0u32..3).prop_map(|ob| {
            let order = match ob {
                0 => "",
                1 => " ORDER BY x.a, x.b, x.c, x.d, y.w, y.u",
                _ => " ORDER BY y.w DESC, 1, 2",
            };
            format!("SELECT x.a, x.c, y.w, y.u FROM_JOIN{order}")
        }),
        Just("SELECT * FROM_JOIN LIMIT 7".to_string()),
        Just("SELECT y.* FROM_JOIN".to_string()),
        // Columnar tail over the joined table: top-K and DISTINCT on
        // late-materialized columns.
        Just("SELECT x.a, x.c, y.w, y.u FROM_JOIN ORDER BY y.w DESC, x.a, x.c, y.u LIMIT 5 OFFSET 1".to_string()),
        Just("SELECT DISTINCT x.d, y.u FROM_JOIN ORDER BY 1 DESC, 2 LIMIT 3".to_string()),
        Just(
            "SELECT COUNT(*), COUNT(y.w), SUM(y.w), MIN(x.c), MAX(y.w), \
             COUNT(DISTINCT y.u) FROM_JOIN"
                .to_string()
        ),
        Just("SELECT x.d, COUNT(*) AS n, SUM(y.w), MIN(y.u) FROM_JOIN GROUP BY x.d ORDER BY n DESC, 1".to_string()),
        Just("SELECT y.u, COUNT(*), SUM(x.b) FROM_JOIN GROUP BY y.u ORDER BY 2 DESC, 1 LIMIT 4".to_string()),
        // Expression group key: Project over the joined table.
        Just("SELECT x.d + y.w AS k, COUNT(*) FROM_JOIN GROUP BY x.d + y.w ORDER BY 2 DESC, 1".to_string()),
    ];
    (shape, jt, on, wh)
        .prop_map(|(shape, jt, on, wh)| {
            shape.replace("FROM_JOIN", &format!(" FROM t x {jt} r y {on}{wh}"))
        })
        .boxed()
}

/// Random queries over the tree shapes: three-table and 9–12-leaf join
/// trees, RIGHT/FULL/CROSS and non-equi joins, derived tables in FROM
/// (standalone and as join leaves, set-operation bodies included), set
/// operations of every kind mixed in one tree with table-less arms,
/// `IN` / `EXISTS` subqueries, and computed / constant projection or
/// sort items that engage the speculative mixed tail.
fn arb_tree_query() -> BoxedStrategy<String> {
    // RIGHT/FULL joins: matched-bit padding on the build side.
    let outer = (
        prop_oneof![Just("RIGHT JOIN"), Just("FULL JOIN")],
        prop_oneof![
            Just("ON x.a = y.a".to_string()),
            (-4i64..5).prop_map(|c| format!("ON x.a = y.a AND y.w >= {c}")),
            (-4i64..5).prop_map(|c| format!("ON x.a = y.a AND x.d <> {c}")),
            // Fallible residual: evaluated per candidate pair.
            Just("ON x.a = y.a AND x.b < y.w".to_string()),
        ],
        prop_oneof![
            Just(String::new()),
            (-4i64..5).prop_map(|c| format!(" WHERE y.w <= {c}")),
            Just(" WHERE x.a IS NULL".to_string()),
            Just(" WHERE x.c IS NOT NULL OR y.u IS NULL".to_string()),
            arb_split_where(),
        ],
        0u32..3,
    )
        .prop_map(|(jt, on, wh, shape)| match shape {
            0 => format!("SELECT x.a, x.c, y.w, y.u FROM t x {jt} r y {on}{wh}"),
            1 => format!(
                "SELECT x.a, y.w, y.u FROM t x {jt} r y {on}{wh} \
                 ORDER BY x.a, y.w, y.u LIMIT 9 OFFSET 1"
            ),
            _ => format!(
                "SELECT COUNT(*), COUNT(x.a), SUM(y.w), MIN(y.u) FROM t x {jt} r y {on}{wh}"
            ),
        });
    // CROSS and non-equi joins: nested-loop morsels.
    let nonequi = (
        prop_oneof![
            Just("CROSS JOIN r y".to_string()),
            Just("JOIN r y ON x.a < y.a".to_string()),
            Just("JOIN r y ON x.b >= y.w".to_string()),
            Just("LEFT JOIN r y ON x.a <> y.a".to_string()),
            // Keyless one-sided constraint: every probe row scans the
            // whole build side.
            Just("JOIN r y ON x.d = 2".to_string()),
        ],
        prop_oneof![
            Just(String::new()),
            (-4i64..5).prop_map(|c| format!(" WHERE x.d > {c}")),
            Just(" WHERE y.u IS NOT NULL".to_string()),
        ],
        0u32..2,
    )
        .prop_map(|(j, wh, shape)| match shape {
            0 => format!("SELECT x.a, x.d, y.w FROM t x {j}{wh} LIMIT 40"),
            _ => format!("SELECT COUNT(*), SUM(x.a + y.w) FROM t x {j}{wh}"),
        });
    // Comma joins: a cross product whose WHERE holds the join condition,
    // which no kernel runs, so only the WHERE's kernels narrow its sides.
    let comma = (
        prop_oneof![
            Just("x.a = y.a".to_string()),
            Just("x.b = y.a".to_string()),
            Just("x.a < y.w".to_string()),
        ],
        prop_oneof![
            Just(String::new()),
            (-4i64..5).prop_map(|c| format!(" AND y.w <= {c}")),
            arb_split_where().prop_map(|w| w.replacen(" WHERE", " AND", 1)),
        ],
        0u32..2,
    )
        .prop_map(|(on, wh, shape)| {
            let from = format!("FROM t x, r y WHERE {on}{wh}");
            match shape {
                0 => format!("SELECT x.a, x.c, y.w, y.u {from} ORDER BY 1, 2, 3, 4"),
                _ => format!("SELECT y.u, COUNT(*), SUM(x.d) {from} GROUP BY y.u"),
            }
        });
    // Left-deep three-table trees: the greedy build-side choice is pure
    // scheduling, so bytes cannot depend on which side gets built.
    let tree = (
        prop_oneof![Just("JOIN"), Just("LEFT JOIN")],
        prop_oneof![Just("JOIN"), Just("LEFT JOIN"), Just("RIGHT JOIN")],
        prop_oneof![
            Just(String::new()),
            (-4i64..5).prop_map(|c| format!(" WHERE y.w <= {c}")),
            (-4i64..5).prop_map(|c| format!(" WHERE x.d + z.d > {c}")),
            // Kernels on both sides of the root, a cross-side `<>` and a
            // `BETWEEN` on the joined `z` post-join.
            (-4i64..5).prop_map(|c| {
                format!(
                    " WHERE z.c IS NOT NULL AND x.d <> z.d AND y.w > {c} AND z.b BETWEEN -1 AND 1"
                )
            }),
        ],
        0u32..3,
    )
        .prop_map(|(j1, j2, wh, shape)| {
            let from = format!("FROM t x {j1} r y ON x.a = y.a {j2} t z ON y.a = z.a");
            match shape {
                0 => format!("SELECT x.a, y.w, z.d {from}{wh}"),
                1 => format!("SELECT x.c, y.u, z.b {from}{wh} ORDER BY x.c, y.u, z.b DESC LIMIT 8"),
                _ => format!(
                    "SELECT z.d, COUNT(*) AS n, SUM(y.w) {from}{wh} \
                     GROUP BY z.d ORDER BY n DESC, 1"
                ),
            }
        });
    // Derived tables: the subquery runs first and columnarizes into the
    // outer scan — standalone FROM and as a join-tree leaf.
    let derived = (arb_pred(), 0u32..3).prop_map(|(p, shape)| match shape {
        0 => format!("SELECT COUNT(*), SUM(s.k) FROM (SELECT a + d AS k FROM t WHERE {p}) s"),
        1 => format!(
            "SELECT s.a, s.b FROM (SELECT a, b FROM t WHERE {p} ORDER BY a, b LIMIT 9) s \
             ORDER BY s.a DESC, s.b"
        ),
        _ => format!(
            "SELECT x.c, s.w FROM t x JOIN (SELECT a, w FROM r WHERE {p2}) s ON x.a = s.a \
             ORDER BY x.c, s.w",
            p2 = "w IS NOT NULL"
        ),
    });
    // UNION trees: columnar concatenation + per-node first-occurrence
    // dedup, including a nested three-arm tree.
    let union = (arb_pred(), 0u32..2, 0u32..4).prop_map(|(p, all, tail)| {
        let op = if all == 0 { "UNION" } else { "UNION ALL" };
        let t = match tail {
            0 => "",
            1 => " ORDER BY 1 DESC, 2",
            2 => " ORDER BY a, d DESC LIMIT 6 OFFSET 1",
            _ => " LIMIT 5",
        };
        format!("SELECT a, d FROM t WHERE {p} {op} SELECT a, w FROM r{t}")
    });
    let union3 = (0u32..2).prop_map(|all| {
        let op = if all == 0 { "UNION" } else { "UNION ALL" };
        format!("SELECT a FROM t {op} SELECT a FROM r UNION SELECT d FROM t ORDER BY 1")
    });
    // Speculative mixed tail: computed / constant projection items and
    // computed sort keys, including fallible expressions (Str operands)
    // whose errors must match the row engine's.
    let mixed_tail = (arb_where(), 0u32..6).prop_map(|(w, shape)| match shape {
        0 => format!("SELECT a, b FROM t{w} ORDER BY a + d DESC, b, a"),
        1 => format!("SELECT a * 2 AS k, c FROM t{w} ORDER BY k DESC, c, a LIMIT 6"),
        2 => format!("SELECT DISTINCT 1 AS one, d FROM t{w} ORDER BY one, d DESC"),
        3 => format!("SELECT DISTINCT a + d AS k FROM t{w} ORDER BY k LIMIT 4"),
        4 => format!("SELECT a + b AS s2, c FROM t{w} ORDER BY 1, 2 OFFSET 2"),
        // Type error on non-NULL strings: both engines must fail.
        _ => format!("SELECT a, c FROM t{w} ORDER BY a + c, a"),
    });
    prop_oneof![
        outer,
        nonequi,
        comma,
        tree,
        derived,
        union,
        union3,
        mixed_tail,
        arb_set_op_tree(),
        arb_wide_tree(),
        arb_subquery_pred(),
    ]
    .boxed()
}

/// One of the six set operators the parser accepts (`ALL` is accepted
/// and ignored on INTERSECT / EXCEPT).
fn arb_set_op() -> BoxedStrategy<&'static str> {
    prop_oneof![
        Just("UNION"),
        Just("UNION ALL"),
        Just("INTERSECT"),
        Just("EXCEPT"),
        Just("INTERSECT ALL"),
        Just("EXCEPT ALL"),
    ]
    .boxed()
}

/// Three- and four-arm set-operation trees mixing all operators in one
/// tree, left-deep and right-nested, with table-less arms (NULLs
/// included, so both sides of every operator can hold NULL keys), plus
/// the same trees as a derived join leaf. Arms differ in storage, so one
/// output column can append Int, Float (or Mixed), string and all-NULL
/// columns, and `1` meets `1.0` as a key.
fn arb_set_op_tree() -> BoxedStrategy<String> {
    let arm = prop_oneof![
        arb_pred().prop_map(|p| format!("SELECT a, d FROM t WHERE {p}")),
        Just("SELECT a, w FROM r".to_string()),
        Just("SELECT d, a FROM t".to_string()),
        (-4i64..5).prop_map(|c| format!("SELECT w, a FROM r WHERE w <> {c}")),
        // Table-less arms.
        (-4i64..5, 0i64..3).prop_map(|(x, y)| format!("SELECT {x}, {y}")),
        Just("SELECT NULL, 1".to_string()),
        Just("SELECT 2, 1 WHERE 1 = 0".to_string()),
        // Float or Mixed, string and all-NULL columns.
        arb_pred().prop_map(|p| format!("SELECT b AS a, c FROM t WHERE {p}")),
        Just("SELECT u, b FROM r JOIN t USING (a)".to_string()),
        (-4i64..5).prop_map(|x| format!("SELECT {x}.5, 'a'")),
        Just("SELECT NULL, NULL FROM t".to_string()),
    ];
    // (The vendored proptest stops at 5-tuples, hence the nesting.)
    let tree = (
        (arm.clone(), arb_set_op(), arm.clone()),
        (arb_set_op(), arm.clone(), arb_set_op(), arm),
        0u32..3,
    )
        .prop_map(|((a1, o1, a2), (o2, a3, o3, a4), nest)| match nest {
            0 => format!("{a1} {o1} {a2} {o2} {a3}"),
            1 => format!("{a1} {o1} ({a2} {o2} {a3})"),
            _ => format!("({a1} {o1} {a2}) {o2} ({a3} {o3} {a4})"),
        });
    (tree, 0u32..5)
        .prop_map(|(tree, shape)| match shape {
            0 => tree,
            1 => format!("{tree} ORDER BY 1 DESC, 2"),
            2 => format!("{tree} ORDER BY a, 2 DESC LIMIT 6 OFFSET 1"),
            3 => format!("{tree} LIMIT 4"),
            // As a derived join leaf: its shape is only known once it
            // has executed (`s.a` fails to bind, identically on both
            // sides, when the first arm is table-less).
            _ => format!("SELECT x.c, s.* FROM t x JOIN ({tree}) s ON x.a = s.a ORDER BY 1, 2, 3"),
        })
        .boxed()
}

/// Left-deep join trees of 9–12 leaves. Every leaf past the second
/// either has a unique key (a DISTINCT derived leaf or a UNION whose arms
/// store Int, Float or Mixed, string and all-NULL columns) or a selective
/// ON kernel, so the result stays small while the tree gets wide.
fn arb_wide_tree() -> BoxedStrategy<String> {
    let union_arm = prop_oneof![
        Just("SELECT a FROM r"),
        Just("SELECT b AS a FROM t"),
        Just("SELECT c AS a FROM t"),
        Just("SELECT NULL AS a FROM r"),
        Just("SELECT 1.0 AS a"),
    ];
    let union = proptest::collection::vec(union_arm, 2..=3).prop_map(|arms| {
        (
            "LEFT JOIN",
            format!("({})", arms.join(" UNION ")),
            String::new(),
        )
    });
    let leaf = prop_oneof![
        Just((
            "JOIN",
            "(SELECT DISTINCT a FROM t)".to_string(),
            String::new()
        )),
        Just((
            "LEFT JOIN",
            "(SELECT DISTINCT a FROM r)".to_string(),
            String::new()
        )),
        union,
        (-4i64..5).prop_map(|c| ("JOIN", "r".to_string(), format!(" AND Z.w = {c}"))),
        (0i64..3).prop_map(|c| (
            "LEFT JOIN",
            "t".to_string(),
            format!(" AND Z.d = {c} AND Z.b > 0")
        )),
    ];
    (
        proptest::collection::vec(leaf, 7..=10),
        prop_oneof![Just("JOIN"), Just("LEFT JOIN"), Just("RIGHT JOIN")],
        0u32..3,
    )
        .prop_map(|(leaves, j1, shape)| {
            let n = leaves.len() + 2;
            let mut from = format!("FROM t z1 {j1} r z2 ON z1.a = z2.a");
            for (i, (jt, source, extra)) in leaves.into_iter().enumerate() {
                let z = format!("z{}", i + 3);
                let extra = extra.replace('Z', &z);
                from.push_str(&format!(" {jt} {source} {z} ON z2.a = {z}.a{extra}"));
            }
            match shape {
                0 => format!("SELECT COUNT(*), SUM(z1.d), COUNT(z{n}.a) {from}"),
                1 => format!(
                    "SELECT z1.c, z2.w, z{n}.a {from} WHERE z2.u IS NOT NULL \
                     ORDER BY z1.c, z2.w, z{n}.a, z1.b LIMIT 9"
                ),
                _ => format!(
                    "SELECT z1.d, COUNT(*) AS n, MIN(z{n}.a) {from} \
                     GROUP BY z1.d ORDER BY n DESC, 1"
                ),
            }
        })
        .boxed()
}

/// `IN` / `NOT IN` / `EXISTS` subquery predicates, with NULLs on both
/// sides of the membership test (`t.a`, `t.d`, `r.a` and `r.w` are all
/// nullable), in a single-table block, under a join, and with a set
/// operation as the subquery.
fn arb_subquery_pred() -> BoxedStrategy<String> {
    let sub = prop_oneof![
        Just("SELECT a FROM r".to_string()),
        (-4i64..5).prop_map(|c| format!("SELECT w FROM r WHERE w > {c}")),
        arb_pred().prop_map(|p| format!("SELECT d FROM t WHERE {p}")),
        Just("SELECT a FROM r INTERSECT SELECT d FROM t".to_string()),
        Just("SELECT NULL".to_string()),
    ];
    let pred = prop_oneof![
        sub.clone().prop_map(|q| format!("x.a IN ({q})")),
        sub.clone().prop_map(|q| format!("x.a NOT IN ({q})")),
        sub.clone()
            .prop_map(|q| format!("x.d NOT IN ({q}) AND x.c IS NOT NULL")),
        sub.clone().prop_map(|q| format!("EXISTS ({q})")),
        sub.prop_map(|q| format!("NOT EXISTS ({q}) OR x.a > 0")),
        (-4i64..5).prop_map(|c| format!("EXISTS (SELECT 1 FROM r WHERE w = {c})")),
    ];
    (pred, 0u32..4)
        .prop_map(|(p, shape)| match shape {
            0 => format!("SELECT x.a, x.c FROM t x WHERE {p} ORDER BY x.a, x.c"),
            1 => format!("SELECT COUNT(*), SUM(x.b) FROM t x WHERE {p}"),
            2 => format!(
                "SELECT x.a, y.w FROM t x JOIN r y ON x.a = y.a WHERE {p} ORDER BY x.a, y.w, y.u"
            ),
            _ => format!(
                "SELECT x.d, COUNT(*) FROM t x LEFT JOIN r y ON x.a = y.a AND {p} \
                 GROUP BY x.d ORDER BY 1"
            ),
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The vectorized engine and the row interpreter return identical
    /// `ResultSet`s (or both fail) on every generated query.
    #[test]
    fn engines_agree_on_random_queries(rows in arb_rows(), sql in arb_query()) {
        let db = build_db(rows);
        let vectorized = db.execute_sql(&sql);
        let row = flex_oracle::execute_sql(&db, &sql);
        match (vectorized, row) {
            (Ok(v), Ok(r)) => prop_assert_eq!(v, r, "engines disagree on: {}", sql),
            (Err(_), Err(_)) => {}
            (v, r) => prop_assert!(
                false,
                "one engine failed on {}: vectorized={:?} row={:?}",
                sql, v, r
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same contract for two-table equi-joins: the columnar hash-join
    /// pipeline (pushdown, match vectors, late materialization) must be
    /// indistinguishable from the row interpreter, so DP noise seeds are
    /// unaffected by routing.
    #[test]
    fn engines_agree_on_random_join_queries(
        trows in arb_rows(),
        rrows in arb_r_rows(),
        sql in arb_join_query(),
    ) {
        let mut db = build_db(trows);
        add_r(&mut db, rrows);
        let vectorized = db.execute_sql(&sql);
        let row = flex_oracle::execute_sql(&db, &sql);
        match (vectorized, row) {
            (Ok(v), Ok(r)) => prop_assert_eq!(v, r, "engines disagree on: {}", sql),
            (Err(_), Err(_)) => {}
            (v, r) => prop_assert!(
                false,
                "one engine failed on {}: vectorized={:?} row={:?}",
                sql, v, r
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same contract for the tree shapes: join trees of any width,
    /// outer/cross/non-equi joins, derived tables, set operations and
    /// expression subqueries must be byte-identical to the oracle,
    /// sequentially and at 4 workers — including *which* runtime error
    /// surfaces on fallible computed tails.
    #[test]
    fn engines_agree_on_random_tree_queries(
        trows in arb_rows(),
        rrows in arb_r_rows(),
        sql in arb_tree_query(),
        workers in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        // A generator typo must not hide as "both sides report the same
        // parse error".
        prop_assert!(parse_query(&sql).is_ok(), "generated SQL parses: {}", sql);
        let mut db = build_db(trows);
        add_r(&mut db, rrows);
        parallelize(&db, workers);
        let vectorized = db.execute_sql(&sql);
        let row = flex_oracle::execute_sql(&db, &sql);
        match (vectorized, row) {
            (Ok(v), Ok(r)) => prop_assert_eq!(v, r, "engines disagree on: {}", sql),
            (Err(v), Err(r)) => prop_assert_eq!(
                v.to_string(),
                r.to_string(),
                "engines report different errors on: {}",
                sql
            ),
            (v, r) => prop_assert!(
                false,
                "one engine failed on {}: vectorized={:?} row={:?}",
                sql, v, r
            ),
        }
    }
}

// ---- morsel-parallel execution: byte-identity across worker counts -------

/// Engage real multi-morsel parallel merging on the tiny generated
/// tables: [`build_db`] already pinned 3-row fold chunks, so raising the
/// worker count is all it takes to force per-morsel group tables,
/// partial aggregates and match vectors to actually merge. Only the
/// worker count moves — the fold grid stays where the baseline ran.
fn parallelize(db: &Database, workers: usize) {
    db.set_parallelism(workers);
}

/// Both executions must agree exactly: same `ResultSet` (rows, order,
/// NULLs, float bits) or the same error.
fn assert_modes_agree(
    seq: Result<ResultSet, flex_db::DbError>,
    par: Result<ResultSet, flex_db::DbError>,
    workers: usize,
    sql: &str,
) -> Result<(), proptest::TestCaseError> {
    match (seq, par) {
        (Ok(s), Ok(p)) => prop_assert_eq!(s, p, "parallel({}) diverges on: {}", workers, sql),
        (Err(s), Err(p)) => prop_assert_eq!(
            s.to_string(),
            p.to_string(),
            "parallel({}) reports a different error on: {}",
            workers,
            sql
        ),
        (s, p) => prop_assert!(
            false,
            "one mode failed on {} (workers {}): seq={:?} par={:?}",
            sql,
            workers,
            s,
            p
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Sequential (`parallelism = 1`) and morsel-parallel (2–8 workers)
    /// executions are byte-identical on every accepted single-table
    /// query: per-morsel partial states merge in morsel order, so rows,
    /// float bit patterns and error choices cannot depend on the worker
    /// count — and neither can DP noise seeds downstream.
    #[test]
    fn parallel_matches_sequential_on_random_queries(
        rows in arb_rows(),
        sql in arb_query(),
        workers in 2usize..=8,
    ) {
        let db = build_db(rows);
        let seq = db.execute_sql(&sql);
        parallelize(&db, workers);
        let par = db.execute_sql(&sql);
        assert_modes_agree(seq, par, workers, &sql)?;
    }

    /// Same contract for the columnar join pipeline: parallel per-side
    /// scans, morsel-parallel probes of the shared build side and
    /// parallel post-join filters must reproduce the sequential match
    /// vectors exactly.
    #[test]
    fn parallel_matches_sequential_on_random_join_queries(
        trows in arb_rows(),
        rrows in arb_r_rows(),
        sql in arb_join_query(),
        workers in 2usize..=8,
    ) {
        let mut db = build_db(trows);
        add_r(&mut db, rrows);
        let seq = db.execute_sql(&sql);
        parallelize(&db, workers);
        let par = db.execute_sql(&sql);
        assert_modes_agree(seq, par, workers, &sql)?;
    }

    /// Same contract for the plan-IR shapes: nested-loop morsels,
    /// matched-bit padding, derived-table intermediates, union
    /// concatenation and the speculative mixed tail must all merge in
    /// morsel order — rows, float bits and error choices cannot depend
    /// on the worker count.
    #[test]
    fn parallel_matches_sequential_on_random_tree_queries(
        trows in arb_rows(),
        rrows in arb_r_rows(),
        sql in arb_tree_query(),
        workers in 2usize..=8,
    ) {
        let mut db = build_db(trows);
        add_r(&mut db, rrows);
        let seq = db.execute_sql(&sql);
        parallelize(&db, workers);
        let par = db.execute_sql(&sql);
        assert_modes_agree(seq, par, workers, &sql)?;
    }
}

// ---- top-K pushdown: byte-identity against the full sort ------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `ORDER BY … LIMIT k OFFSET o` must return exactly rows
    /// `o..o + k` of the same query's full sort — the bounded top-K heap
    /// (and its morsel-parallel variant) is pinned against the full-sort
    /// path it replaces, at every worker count, and against the row
    /// engine.
    #[test]
    fn topk_limit_is_a_prefix_of_the_full_sort(
        rows in arb_rows(),
        w in arb_where(),
        ob in 0u32..5,
        limit in 0u64..8,
        offset in 0u64..6,
        workers in 1usize..=8,
    ) {
        let order = match ob {
            0 => "a DESC, b, c, d",
            1 => "b, a DESC, c DESC, d",
            2 => "c, 1 DESC",
            3 => "d DESC, a",
            // Single Float key: the typed pair-sort / pair-heap path.
            _ => "b DESC",
        };
        let full_sql = format!("SELECT a, b, c, d FROM t{w} ORDER BY {order}");
        let lim_sql = format!("{full_sql} LIMIT {limit} OFFSET {offset}");
        let db = build_db(rows);
        parallelize(&db, workers);
        let full = db.execute_sql(&full_sql).unwrap();
        let limited = db.execute_sql(&lim_sql).unwrap();
        let lo = (offset as usize).min(full.rows.len());
        let hi = (lo + limit as usize).min(full.rows.len());
        prop_assert_eq!(
            &limited.rows[..],
            &full.rows[lo..hi],
            "top-K is not a prefix of the full sort: {} (workers {})",
            lim_sql,
            workers
        );
        let row = flex_oracle::execute_sql(&db, &lim_sql).unwrap();
        prop_assert_eq!(limited, row, "engines disagree on: {}", lim_sql);
    }
}

/// LIMIT cutting *inside* a run of duplicate sort keys must keep exactly
/// the row engine's tie order (input order) at the boundary — the heap's
/// index tie-break, the loser tree's run tie-break, and the stable sort
/// must all agree.
#[test]
fn topk_tie_order_matches_full_sort_at_boundary() {
    let rows: Vec<_> = (0..24)
        .map(|i| {
            (
                Value::Int(i),
                Value::Float((i % 2) as f64), // heavy ties on b
                Value::str(if i % 2 == 0 { "x" } else { "y" }),
                Value::Int(i % 3), // heavy ties on d
            )
        })
        .collect();
    let db = build_db(rows);
    for sql_full in [
        "SELECT a, d FROM t ORDER BY d",
        "SELECT a, d FROM t ORDER BY d DESC",
        "SELECT a, b FROM t ORDER BY b DESC",
    ] {
        let full = both(&db, sql_full);
        for (limit, offset) in [(4, 0), (4, 1), (1, 7), (30, 2)] {
            let sql = format!("{sql_full} LIMIT {limit} OFFSET {offset}");
            let sliced = both(&db, &sql);
            let lo = offset.min(full.rows.len());
            let hi = (lo + limit).min(full.rows.len());
            assert_eq!(sliced.rows, &full.rows[lo..hi], "boundary slice: {sql}");
            // And identically under morsel-parallel top-K.
            parallelize(&db, 4);
            let par = db.execute_sql(&sql).unwrap();
            assert_eq!(par.rows, sliced.rows, "parallel boundary slice: {sql}");
            db.set_parallelism(1);
        }
    }
}

/// NaN and -0.0 sort keys: `total_cmp` orders -NaN < … < -0.0 < 0.0 < …
/// < NaN, and the engines (full sort, top-K, morsel-parallel, row) must
/// place the exact bit patterns in the same slots.
#[test]
fn order_by_nan_negative_zero_sort_keys_bit_identical() {
    let b_vals = [f64::NAN, -0.0, 0.0, -f64::NAN, 1.5, f64::NAN, -2.5, -0.0];
    let rows: Vec<_> = b_vals
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            (
                Value::Int(i as i64),
                Value::Float(b),
                Value::str("s"),
                Value::Int(0),
            )
        })
        .collect();
    let db = build_db(rows);
    for sql in [
        "SELECT a, b FROM t ORDER BY b",
        "SELECT a, b FROM t ORDER BY b DESC",
        "SELECT a, b FROM t ORDER BY b LIMIT 3",
        "SELECT a, b FROM t ORDER BY b DESC LIMIT 4 OFFSET 2",
        "SELECT a, b FROM t ORDER BY b DESC, a LIMIT 5",
        // NaNs (either sign) form one group and join key, and so do -0.0
        // and 0.0, named by the first occurrence's bits; MIN/MAX rank by
        // `total_cmp`.
        "SELECT MIN(b), MAX(b) FROM t",
        "SELECT b, COUNT(*) FROM t GROUP BY b",
        "SELECT x.a, y.a, x.b, y.b FROM t x JOIN t y ON x.b = y.b",
    ] {
        let v = db.execute_sql(sql).unwrap();
        let r = flex_oracle::execute_sql(&db, sql).unwrap();
        assert_rows_bit_identical(&v, &r, sql);
        parallelize(&db, 4);
        let p = db.execute_sql(sql).unwrap();
        assert_rows_bit_identical(&p, &r, sql);
        db.set_parallelism(1);
    }
}

/// Top-K over a mostly-NULL sort key: NULL indices are collected under
/// the same `offset + k` cap as the pairs (only the first k can survive
/// the splice), and the output must still equal the full sort's prefix
/// in both directions — NULLs first ascending, last descending — at
/// every worker count.
#[test]
fn topk_on_mostly_null_key_matches_full_sort() {
    let rows: Vec<_> = (0..40)
        .map(|i| {
            let b = if i % 5 == 0 {
                Value::Float(i as f64)
            } else {
                Value::Null // 80% NULL keys
            };
            (Value::Int(i), b, Value::str("s"), Value::Int(0))
        })
        .collect();
    let db = build_db(rows);
    for sql_full in [
        "SELECT a, b FROM t ORDER BY b",
        "SELECT a, b FROM t ORDER BY b DESC",
    ] {
        let full = both(&db, sql_full);
        for (limit, offset) in [(3, 0), (5, 2), (10, 35)] {
            let sql = format!("{sql_full} LIMIT {limit} OFFSET {offset}");
            let sliced = both(&db, &sql);
            let lo = offset.min(full.rows.len());
            let hi = (lo + limit).min(full.rows.len());
            assert_eq!(sliced.rows, &full.rows[lo..hi], "null-heavy slice: {sql}");
            parallelize(&db, 4);
            let par = db.execute_sql(&sql).unwrap();
            assert_eq!(par.rows, sliced.rows, "parallel null-heavy slice: {sql}");
            db.set_parallelism(1);
        }
    }
}

/// OFFSET past the end of an ordered (and DISTINCT) result: the tail
/// must clamp to empty on every path, not panic or wrap.
#[test]
fn order_by_offset_past_end_is_empty() {
    let db = null_db();
    for sql in [
        "SELECT a, b FROM t ORDER BY a DESC LIMIT 2 OFFSET 40",
        "SELECT DISTINCT d FROM t ORDER BY d LIMIT 5 OFFSET 9",
        "SELECT a FROM t ORDER BY b LIMIT 0 OFFSET 3",
        "SELECT d, COUNT(*) FROM t GROUP BY d ORDER BY 2 DESC LIMIT 3 OFFSET 8",
    ] {
        let rs = both(&db, sql);
        assert!(rs.rows.is_empty(), "expected empty result for: {sql}");
        parallelize(&db, 3);
        assert!(
            db.execute_sql(sql).unwrap().rows.is_empty(),
            "parallel: expected empty result for: {sql}"
        );
        db.set_parallelism(1);
    }
}

/// DISTINCT composed with ORDER BY and LIMIT: dedupe happens after the
/// sort and before the slice, first occurrence in sorted order wins —
/// including sort keys outside the projection.
#[test]
fn distinct_order_by_limit_combinations() {
    let db = join_db();
    for sql in [
        "SELECT DISTINCT d, c FROM t ORDER BY d DESC, c LIMIT 2 OFFSET 1",
        "SELECT DISTINCT d FROM t ORDER BY d DESC LIMIT 2",
        // Sort key not in the projection: dedupe keys and sort keys come
        // from different columns.
        "SELECT DISTINCT d FROM t ORDER BY a, b LIMIT 3",
        "SELECT DISTINCT c FROM t LIMIT 2",
    ] {
        let seq = both(&db, sql);
        parallelize(&db, 4);
        let par = db.execute_sql(sql).unwrap();
        assert_eq!(par, seq, "parallel diverges on: {sql}");
        db.set_parallelism(1);
    }
}

/// The pipeline's own trace must report the top-K pushdown exactly when
/// the bounded path engages — that is what the service's `topk_hits`
/// telemetry counts.
#[test]
fn exec_trace_reports_topk_pushdown() {
    let rows: Vec<_> = (0..20)
        .map(|i| {
            (
                Value::Int(i),
                Value::Float(i as f64),
                Value::str("s"),
                Value::Int(i % 7),
            )
        })
        .collect();
    let db = build_db(rows);
    let case = |sql: &str| {
        let q = parse_query(sql).unwrap();
        let (trace, result) = db.execute_traced(&q);
        result.unwrap();
        trace
    };
    // Eligible: ORDER BY + LIMIT smaller than the input, no DISTINCT.
    let t = case("SELECT a, b FROM t ORDER BY b DESC LIMIT 3");
    assert!(t.topk, "plain top-K should engage: {t:?}");
    // Grouped top-K over group indices.
    let t = case("SELECT d, COUNT(*) AS n FROM t GROUP BY d ORDER BY n DESC, d LIMIT 2");
    assert!(t.topk, "grouped top-K should engage: {t:?}");
    let t = case("SELECT d + 0, SUM(b * 2) AS s FROM t GROUP BY d + 0 ORDER BY s DESC LIMIT 2");
    assert!(t.topk, "computed-key grouped top-K should engage: {t:?}");
    // No LIMIT → full sort, no pushdown.
    let t = case("SELECT a, b FROM t ORDER BY b DESC");
    assert!(!t.topk, "full sort is not a top-K hit: {t:?}");
    // DISTINCT disables the bounded path (dedupe follows the sort).
    let t = case("SELECT DISTINCT d FROM t ORDER BY d LIMIT 3");
    assert!(!t.topk, "DISTINCT disables top-K: {t:?}");
    // LIMIT covering the whole input: nothing to bound.
    let t = case("SELECT a FROM t ORDER BY a LIMIT 500");
    assert!(!t.topk, "covering LIMIT is not a hit: {t:?}");
    // A set operation's own tail is a tail like any other…
    let t = case("SELECT a FROM t INTERSECT SELECT d FROM t ORDER BY 1 LIMIT 3");
    assert!(t.topk, "set-op tails push down too: {t:?}");
    // …and a nested execution's pushdown is part of the query's trace.
    let t = case("SELECT COUNT(*) FROM (SELECT a FROM t ORDER BY b DESC LIMIT 3) s");
    assert!(t.topk, "a derived table's top-K counts: {t:?}");
}

/// `Value::total_cmp` is not transitive across physical types: Int-vs-Int
/// compares exact i64, Int-vs-Float coerces through f64, so on a Mixed
/// column `Float(2^53)` f64-ties `Int(2^53 + 1)` while `Int(2^53)` beats
/// it exactly. A parallel MIN/MAX that merged per-morsel *winners* would
/// therefore diverge from the sequential left fold (the morsel holding
/// `[Float(2^53), Int(2^53)]` elects `Float(2^53)`, which then ties — and
/// loses first-wins — against `Int(2^53 + 1)` globally, discarding the
/// true minimum). The value-collecting `BestValues` partial replays the
/// sequential fold instead; this pins it.
#[test]
fn parallel_min_max_on_mixed_column_matches_sequential_above_2p53() {
    let two53 = 9_007_199_254_740_992i64;
    let mut db = Database::new();
    db.create_table("m", Schema::of(&[("v", DataType::Float)]))
        .unwrap();
    db.insert(
        "m",
        vec![
            vec![Value::Null],
            vec![Value::Int(two53 + 1)],
            vec![Value::Float(two53 as f64)],
            vec![Value::Int(two53)],
        ],
    )
    .unwrap();
    // Fold grid fixed before any baseline runs (MIN/MAX never folds on
    // the grid, but the contract is uniform: compared runs share it).
    db.set_morsel_rows(2);
    for sql in ["SELECT MIN(v) FROM m", "SELECT MAX(v) FROM m"] {
        let seq = db.execute_sql(sql).unwrap();
        let row = flex_oracle::execute_sql(&db, sql).unwrap();
        assert_eq!(seq, row, "engines disagree on: {sql}");
        db.set_parallelism(2);
        let par = db.execute_sql(sql).unwrap();
        assert_eq!(par, seq, "parallel diverges on: {sql}");
        db.set_parallelism(1);
    }
}

#[test]
fn parallel_error_choice_matches_sequential() {
    // Rows erroring in *later* morsels only: the parallel generic filter
    // must report the sequential first-in-row-order error even though
    // other morsels ran concurrently (and an all-Ok earlier morsel must
    // not mask it).
    let mut rows = vec![
        (
            Value::Int(1),
            Value::Float(0.0),
            Value::str("ok"),
            Value::Int(0),
        );
        10
    ];
    // Row 7: `a = 1` is NULL here, so AND keeps evaluating and `c + 1`
    // type-errors on the string.
    rows[7].0 = Value::Null;
    let db = build_db(rows);
    let sql = "SELECT COUNT(*) FROM t WHERE a = 2 AND c + 1 > 0";
    let seq = db.execute_sql(sql).unwrap_err();
    parallelize(&db, 4);
    let par = db.execute_sql(sql).unwrap_err();
    assert_eq!(seq.to_string(), par.to_string());
}

// ---- explicit NULL handling in vectorized aggregates ---------------------

/// Run on both engines, assert agreement, and return the shared result.
fn both(db: &Database, sql: &str) -> ResultSet {
    let v = db.execute_sql(sql).unwrap();
    let r = flex_oracle::execute_sql(db, sql).unwrap();
    assert_eq!(v, r, "engines disagree on: {sql}");
    v
}

fn null_db() -> Database {
    // d=0 has only NULL a/b values; d=1 mixes; d=NULL is its own group.
    build_db(vec![
        (Value::Null, Value::Null, Value::Null, Value::Int(0)),
        (Value::Null, Value::Null, Value::str("x"), Value::Int(0)),
        (
            Value::Int(3),
            Value::Float(1.5),
            Value::str("y"),
            Value::Int(1),
        ),
        (Value::Null, Value::Float(2.5), Value::Null, Value::Int(1)),
        (Value::Int(3), Value::Null, Value::str("y"), Value::Null),
    ])
}

#[test]
fn vectorized_aggregates_skip_nulls() {
    let db = null_db();
    let rs = both(
        &db,
        "SELECT COUNT(*), COUNT(a), COUNT(DISTINCT a), SUM(a), AVG(b), MIN(a), MAX(b) FROM t",
    );
    assert_eq!(
        rs.rows[0],
        vec![
            Value::Int(5),     // COUNT(*) counts NULL rows
            Value::Int(2),     // COUNT(a) skips NULLs
            Value::Int(1),     // both non-null a's are 3
            Value::Float(6.0), // SUM over non-null
            Value::Float(2.0), // AVG of {1.5, 2.5}
            Value::Int(3),     // MIN skips NULLs
            Value::Float(2.5), // MAX skips NULLs
        ]
    );
}

#[test]
fn vectorized_all_null_group_yields_null_aggregates() {
    let db = null_db();
    let rs = both(
        &db,
        "SELECT d, SUM(a), AVG(a), MIN(a), MAX(a), MEDIAN(a), STDDEV(a) FROM t \
         WHERE d = 0 GROUP BY d",
    );
    assert_eq!(rs.rows.len(), 1);
    // Group d=0 has only NULL a's: every aggregate is NULL.
    assert_eq!(rs.rows[0][0], Value::Int(0));
    for v in &rs.rows[0][1..] {
        assert!(v.is_null(), "expected NULL, got {v:?}");
    }
}

#[test]
fn vectorized_null_group_key_forms_one_group() {
    let db = null_db();
    let rs = both(
        &db,
        "SELECT d, COUNT(*) FROM t GROUP BY d ORDER BY 2 DESC, 1",
    );
    // Groups: d=0 (2 rows), d=1 (2 rows), d=NULL (1 row).
    assert_eq!(rs.rows.len(), 3);
    let null_group = rs.rows.iter().find(|r| r[0].is_null()).unwrap();
    assert_eq!(null_group[1], Value::Int(1));
}

#[test]
fn vectorized_grand_aggregate_over_empty_selection() {
    let db = null_db();
    let rs = both(&db, "SELECT COUNT(*), SUM(a), MIN(c) FROM t WHERE d = 99");
    assert_eq!(rs.rows, vec![vec![Value::Int(0), Value::Null, Value::Null]]);
}

#[test]
fn vectorized_count_distinct_unifies_int_and_float() {
    // A Float-typed column physically holding Int and Float values
    // (Mixed representation): 1 and 1.0 must count as one value.
    let mut db = Database::new();
    db.create_table("m", Schema::of(&[("x", DataType::Float)]))
        .unwrap();
    db.insert(
        "m",
        vec![
            vec![Value::Int(1)],
            vec![Value::Float(1.0)],
            vec![Value::Float(2.5)],
            vec![Value::Null],
        ],
    )
    .unwrap();
    let rs = both(&db, "SELECT COUNT(DISTINCT x), COUNT(x) FROM m");
    assert_eq!(rs.rows[0], vec![Value::Int(2), Value::Int(3)]);
}

// ---- each aggregate over a value list, by hand --------------------------

/// Every aggregate over small value lists, with the expected answer written
/// by hand (float bits included), on the executor and on the oracle, at
/// one worker and at eight (2-row fold chunks, so eight workers merge
/// several morsels): `COUNT(*)` against NULLs, `COUNT DISTINCT`, empty and
/// all-NULL inputs, NaN and −0.0 through `MIN`, `MAX`, `MEDIAN` and
/// `STDDEV`, a string where a number is due.
#[test]
fn aggregates_over_value_lists_match_hand_written_answers() {
    use Value::{Bool, Float, Int, Null};
    let s = Value::str;
    let nan = f64::NAN;
    let cases: Vec<(&str, Vec<Value>, Result<Value, &str>)> = vec![
        ("COUNT(*)", vec![Null, Int(1)], Ok(Int(2))),
        ("COUNT(*)", vec![], Ok(Int(0))),
        ("COUNT(x)", vec![Null, Int(1), Int(2)], Ok(Int(2))),
        ("COUNT(x)", vec![Null, Null], Ok(Int(0))),
        (
            "COUNT(DISTINCT x)",
            vec![Int(1), Int(1), Int(2), Null],
            Ok(Int(2)),
        ),
        (
            "COUNT(DISTINCT x)",
            vec![Int(1), Float(1.0), Float(2.5), Null],
            Ok(Int(2)),
        ),
        ("SUM(x)", vec![], Ok(Null)),
        ("AVG(x)", vec![Null], Ok(Null)),
        ("SUM(x)", vec![Int(1), Int(2), Float(3.0)], Ok(Float(6.0))),
        ("AVG(x)", vec![Int(1), Int(2), Float(3.0)], Ok(Float(2.0))),
        ("SUM(x)", vec![Bool(true), Bool(true), Null], Ok(Float(2.0))),
        // Every lane starts at +0.0.
        ("SUM(x)", vec![Float(-0.0)], Ok(Float(0.0))),
        ("SUM(x)", vec![Float(1.0), Float(nan)], Ok(Float(nan))),
        ("MIN(x)", vec![Int(3), Null, Int(1), Int(2)], Ok(Int(1))),
        ("MAX(x)", vec![Int(3), Null, Int(1), Int(2)], Ok(Int(3))),
        ("MIN(x)", vec![s("b"), s("a"), s("c")], Ok(s("a"))),
        ("MAX(x)", vec![s("b"), s("a"), s("c")], Ok(s("c"))),
        ("MIN(x)", vec![Null, Null], Ok(Null)),
        ("MAX(x)", vec![], Ok(Null)),
        // −0.0 sorts below +0.0; NaN above every number.
        ("MIN(x)", vec![Float(0.0), Float(-0.0)], Ok(Float(-0.0))),
        ("MAX(x)", vec![Float(-0.0), Float(0.0)], Ok(Float(0.0))),
        ("MAX(x)", vec![Float(nan), Float(1e300)], Ok(Float(nan))),
        ("MIN(x)", vec![Float(nan), Float(1e300)], Ok(Float(1e300))),
        // Of equal values the first wins.
        ("MIN(x)", vec![Float(1.0), Int(1)], Ok(Float(1.0))),
        ("MAX(x)", vec![Int(1), Float(1.0)], Ok(Int(1))),
        ("MEDIAN(x)", vec![Int(3), Int(1), Int(2)], Ok(Float(2.0))),
        (
            "MEDIAN(x)",
            vec![Int(1), Int(2), Int(3), Int(4)],
            Ok(Float(2.5)),
        ),
        ("MEDIAN(x)", vec![Float(-0.0), Float(0.0)], Ok(Float(0.0))),
        ("MEDIAN(x)", vec![Float(-0.0), Float(-0.0)], Ok(Float(-0.0))),
        (
            "MEDIAN(x)",
            vec![Float(nan), Int(5), Int(1)],
            Ok(Float(5.0)),
        ),
        ("MEDIAN(x)", vec![Null], Ok(Null)),
        (
            "STDDEV(x)",
            [2, 4, 4, 4, 5, 5, 7, 9].map(Int).to_vec(),
            Ok(Float((32.0f64 / 7.0).sqrt())),
        ),
        ("STDDEV(x)", vec![Int(1)], Ok(Null)),
        ("STDDEV(x)", vec![Null, Null], Ok(Null)),
        ("STDDEV(x)", vec![Float(nan), Int(1)], Ok(Float(nan))),
        ("SUM(x)", vec![s("x")], Err("Sum argument")),
        ("AVG(x)", vec![Null, s("x")], Err("Avg argument")),
        ("MEDIAN(x)", vec![s("x")], Err("Median argument")),
        ("STDDEV(x)", vec![s("x"), s("y")], Err("Stddev argument")),
    ];
    for (agg, values, expected) in cases {
        let ty = if values.iter().any(|v| matches!(v, Value::Str(_))) {
            DataType::Str
        } else if values.iter().any(|v| matches!(v, Value::Bool(_))) {
            DataType::Bool
        } else {
            DataType::Float
        };
        let mut db = Database::new();
        db.create_table("v", Schema::of(&[("x", ty)])).unwrap();
        db.insert("v", values.iter().map(|v| vec![v.clone()]).collect())
            .unwrap();
        db.set_morsel_rows(2);
        let sql = format!("SELECT {agg} FROM v");
        let ctx = format!("{sql} over {values:?}");
        for workers in [1, 8] {
            db.set_parallelism(workers);
            let answers = [
                ("executor", db.execute_sql(&sql)),
                ("oracle", flex_oracle::execute_sql(&db, &sql)),
            ];
            for (engine, answer) in answers {
                let ctx = format!("{engine}, {workers} workers: {ctx}");
                match (&expected, answer) {
                    (Ok(v), Ok(rs)) => assert_rows_bit_identical(
                        &rs,
                        &ResultSet {
                            columns: rs.columns.clone(),
                            rows: vec![vec![v.clone()]],
                        },
                        &ctx,
                    ),
                    (Err(needle), Err(e)) => assert!(e.to_string().contains(needle), "{ctx}: {e}"),
                    (_, answer) => panic!("{ctx}: expected {expected:?}, got {answer:?}"),
                }
            }
        }
    }
}

// ---- NaN / negative-zero aggregates (both engines, bit-identical) --------

/// `ResultSet` equality can't check NaN rows (`NaN != NaN`), so compare
/// float cells by bit pattern — which is also the real contract: noise
/// seeding hashes the bits, so the engines must agree *bit for bit*.
fn assert_rows_bit_identical(a: &ResultSet, b: &ResultSet, ctx: &str) {
    assert_eq!(a.columns, b.columns, "columns differ on: {ctx}");
    assert_eq!(a.rows.len(), b.rows.len(), "row counts differ on: {ctx}");
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.len(), rb.len());
        for (va, vb) in ra.iter().zip(rb) {
            match (va, vb) {
                (Value::Float(x), Value::Float(y)) => {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "float bits differ ({x:?} vs {y:?}) on: {ctx}"
                    );
                }
                _ => assert_eq!(va, vb, "cells differ on: {ctx}"),
            }
        }
    }
}

/// MEDIAN/STDDEV (and the other float aggregates) over columns holding
/// NaN and ±0.0: both engines — and the morsel-parallel path — must
/// collect argument values in selection-vector order, so `total_cmp`
/// sorting and accumulation produce the same bits everywhere.
#[test]
fn median_stddev_nan_negative_zero_bit_identical() {
    let mk = |b0: f64| {
        build_db(vec![
            (
                Value::Int(1),
                Value::Float(b0),
                Value::str("x"),
                Value::Int(0),
            ),
            (
                Value::Int(2),
                Value::Float(-0.0),
                Value::str("x"),
                Value::Int(0),
            ),
            (
                Value::Int(3),
                Value::Float(0.0),
                Value::str("y"),
                Value::Int(1),
            ),
            (Value::Int(4), Value::Null, Value::str("y"), Value::Int(1)),
            (
                Value::Int(5),
                Value::Float(2.5),
                Value::str("y"),
                Value::Int(1),
            ),
            (
                Value::Int(6),
                Value::Float(-1.5),
                Value::str("z"),
                Value::Int(0),
            ),
        ])
    };
    let queries = [
        "SELECT MEDIAN(b), STDDEV(b), SUM(b), AVG(b), MIN(b), MAX(b) FROM t",
        "SELECT d, MEDIAN(b), STDDEV(b), SUM(b), MIN(b) FROM t GROUP BY d ORDER BY d",
        "SELECT c, MEDIAN(b), MAX(b) FROM t GROUP BY c ORDER BY c",
        // The same values through Project: computed arguments and keys.
        "SELECT MEDIAN(b * 1.0), STDDEV(b * 1.0), SUM(b * 1.0), MIN(b * 1.0) FROM t",
        "SELECT d + 0, MEDIAN(b * 1.0), STDDEV(b * 1.0), SUM(b * 1.0), MAX(b * 1.0) FROM t \
         GROUP BY d + 0 ORDER BY 1",
        "SELECT b * 1.0, COUNT(*) FROM t GROUP BY b * 1.0 ORDER BY 1 DESC",
    ];
    for seed in [f64::NAN, -f64::NAN, -0.0] {
        let db = mk(seed);
        for sql in queries {
            let v = db.execute_sql(sql).unwrap();
            let r = flex_oracle::execute_sql(&db, sql).unwrap();
            assert_rows_bit_identical(&v, &r, sql);
            // Morsel-parallel grouped aggregation on the same fold grid
            // the baselines ran: per-morsel leaf sums concatenated in
            // morsel order must not move a NaN or flip a -0.0.
            db.set_parallelism(4);
            let p = db.execute_sql(sql).unwrap();
            assert_rows_bit_identical(&p, &r, sql);
            db.set_parallelism(1);
        }
    }
    // Pin the -0.0 semantics explicitly: MIN is -0.0 (total_cmp orders it
    // below +0.0) and the even-count median of {-0.0, 0.0} is +0.0.
    // Selection is rows a = 2 (b = -0.0) and a = 3 (b = 0.0); the kernel
    // `b = 0` keeps both (f64 coercion: -0.0 == 0).
    let db = mk(-0.0);
    let rs = db
        .execute_sql("SELECT MIN(b), MEDIAN(b) FROM t WHERE b = 0 AND a >= 2")
        .unwrap();
    let Value::Float(min) = &rs.rows[0][0] else {
        panic!("expected float MIN");
    };
    assert_eq!(min.to_bits(), (-0.0f64).to_bits(), "MIN must keep -0.0");
    let Value::Float(med) = &rs.rows[0][1] else {
        panic!("expected float MEDIAN");
    };
    assert_eq!(med.to_bits(), 0.0f64.to_bits(), "median of {{-0.0, 0.0}}");
}

/// The reduction-tree contract under the nastiest float inputs: with the
/// fold grid pinned at 3-row chunks (pathologically small, so a 33-row
/// table spans 11 leaves), every worker count in {1, 2, 4, 8} must
/// produce bit-identical aggregates — NaN payloads, −0.0 signs and
/// 2^53-boundary rounding included — and the row engine must agree,
/// because all of them fold through the same fixed-shape tree over the
/// same chunk grid. Worker count only changes *scheduling* morsels
/// (2 workers → 6-row morsels, 8 workers → 3-row), never the leaves.
#[test]
fn reduction_tree_bit_identical_across_worker_counts() {
    let two53 = 9_007_199_254_740_992.0f64; // 2^53: above this, f64 skips odd ints
    let b_vals = [
        f64::NAN,
        1.5,
        -0.0,
        two53,
        1.0, // absorbed by 2^53 unless the fold order protects it
        0.0,
        -f64::NAN,
        -two53,
        2.5,
        1e16,
        -1.0,
        1e-16, // vanishes against 1e16 in the wrong association
    ];
    let rows: Vec<_> = (0..33)
        .map(|i| {
            let b = if i % 11 == 7 {
                Value::Null
            } else {
                Value::Float(b_vals[i % b_vals.len()])
            };
            (
                Value::Int(i as i64),
                b,
                Value::str(if i % 2 == 0 { "x" } else { "y" }),
                Value::Int(i as i64 % 3),
            )
        })
        .collect();
    let db = build_db(rows); // fold grid pinned to 3-row chunks
    let queries = [
        "SELECT SUM(b), AVG(b), STDDEV(b), MEDIAN(b), MIN(b), MAX(b) FROM t",
        "SELECT d, SUM(b), AVG(b), STDDEV(b), MEDIAN(b) FROM t GROUP BY d ORDER BY d",
        // Non-dense selection: fold chunks index the post-WHERE
        // selection, not base-table rows.
        "SELECT SUM(b), STDDEV(b), MEDIAN(b) FROM t WHERE a >= 5 AND b > -1",
        "SELECT c, SUM(b), AVG(b) FROM t WHERE d < 2 GROUP BY c ORDER BY c",
        // Computed arguments and keys: Project's dense table keeps the
        // post-WHERE positions, so the fold grid is the same one.
        "SELECT SUM(b * 1.0), AVG(b + 0), STDDEV(b * 1.0), MEDIAN(b * 1.0) FROM t WHERE a >= 5",
        "SELECT d * 2, SUM(b * 1.0), AVG(b), STDDEV(b * 1.0) FROM t WHERE a <> 9 \
         GROUP BY d * 2 ORDER BY 1",
    ];
    for sql in queries {
        let baseline = db.execute_sql(sql).unwrap();
        let row_engine = flex_oracle::execute_sql(&db, sql).unwrap();
        assert_rows_bit_identical(&baseline, &row_engine, sql);
        for workers in [2, 4, 8] {
            db.set_parallelism(workers);
            let par = db.execute_sql(sql).unwrap();
            assert_rows_bit_identical(&par, &baseline, &format!("{sql} (workers {workers})"));
            db.set_parallelism(1);
        }
    }
}

// ---- one body per operator: every setting runs the same functions --------

/// The executor and the oracle must agree on `sql` — float cells bit for
/// bit, or the same error text.
fn assert_engines_agree(db: &Database, sql: &str, ctx: &str) {
    match (db.execute_sql(sql), flex_oracle::execute_sql(db, sql)) {
        (Ok(v), Ok(r)) => assert_rows_bit_identical(&v, &r, &format!("{sql} ({ctx})")),
        (Err(v), Err(r)) => assert_eq!(v.to_string(), r.to_string(), "{sql} ({ctx})"),
        (v, r) => panic!("one engine failed on {sql} ({ctx}): executor={v:?} oracle={r:?}"),
    }
}

/// `g(k, i Int, f Float, b Bool, s Str, m Float-holding-Ints = Mixed)`,
/// 30 rows in three `k` groups (plus, with NULLs, a NULL-key row). With
/// `nulls`, every column loses a scattering of values and group `k = 2`
/// loses all of them.
fn agg_matrix_db(nulls: bool) -> Database {
    let two53 = 9_007_199_254_740_992i64;
    let mut db = empty_g();
    let rows = (0..30i64)
        .map(|n| {
            let k = n % 3;
            let gone = |col: i64| nulls && (k == 2 || (n + col) % 4 == 0);
            let cell = |col: i64, v: Value| if gone(col) { Value::Null } else { v };
            vec![
                if nulls && n == 17 {
                    Value::Null
                } else {
                    Value::Int(k)
                },
                cell(
                    0,
                    Value::Int(if n == 8 { two53 + 1 } else { (n * 7) % 11 - 4 }),
                ),
                cell(
                    1,
                    Value::Float(match n % 8 {
                        0 => 1e16,
                        1 => -0.0,
                        2 => 1e-16,
                        3 => -1e16,
                        4 => 2.5,
                        5 => 0.1,
                        6 => 3e-8,
                        _ => n as f64 * 0.125,
                    }),
                ),
                cell(2, Value::Bool(n % 5 < 2)),
                cell(3, Value::str(["b", "a", "e", "c", "d"][n as usize % 5])),
                cell(
                    4,
                    match n % 4 {
                        0 => Value::Float(two53 as f64),
                        1 => Value::Int(two53 + 1),
                        2 => Value::Int(two53),
                        _ => Value::Float(n as f64 + 0.5),
                    },
                ),
            ]
        })
        .collect();
    db.insert("g", rows).unwrap();
    db
}

/// [`agg_matrix_db`]'s table `g`, with no rows.
fn empty_g() -> Database {
    let mut db = Database::new();
    db.create_table(
        "g",
        Schema::of(&[
            ("k", DataType::Int),
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("b", DataType::Bool),
            ("s", DataType::Str),
            ("m", DataType::Float),
        ]),
    )
    .unwrap();
    db
}

/// Every aggregate × every physical argument representation × NULL
/// pattern × selection × grand/grouped, at one worker and at several,
/// with the input both above the fold grid (multi-leaf; several morsels
/// once workers > 1) and inside one fold chunk (always one morsel): the
/// executor evaluates `partial_agg → merge → finalize` in all of them and
/// must equal the oracle in values and error text. At one worker this is
/// what only the deleted sequential forms used to cover — `MIN`/`MAX`
/// over a Mixed column through `BestValues`, two-pass `STDDEV`, `MEDIAN`
/// of a single run.
#[test]
fn aggregate_matrix_matches_oracle_at_every_setting() {
    let aggs = [
        "COUNT(*)",
        "COUNT({})",
        "COUNT(DISTINCT {})",
        "SUM({})",
        "AVG({})",
        "MIN({})",
        "MAX({})",
        "MEDIAN({})",
        "STDDEV({})",
    ];
    let selections = ["", " WHERE k = 99", " WHERE i > -2", " WHERE k = 2"];
    for nulls in [false, true] {
        let db = agg_matrix_db(nulls);
        for fold in [4, 64] {
            db.set_morsel_rows(fold);
            for workers in [1, 2, 8] {
                db.set_parallelism(workers);
                let ctx = format!("nulls={nulls} fold={fold} workers={workers}");
                for agg in aggs {
                    // Plain argument columns, read through the selection,
                    // and computed ones of the same five representations
                    // (the CASE yields Int, Float and Str: Mixed), which
                    // Project evaluates into a dense table first.
                    for col in [
                        "i",
                        "f",
                        "b",
                        "s",
                        "m",
                        "i + 0",
                        "f * 1.0",
                        "NOT b",
                        "LOWER(s)",
                        "CASE WHEN k = 0 THEN i WHEN k = 1 THEN f ELSE s END",
                    ] {
                        let agg = agg.replace("{}", col);
                        for w in selections {
                            assert_engines_agree(&db, &format!("SELECT {agg} FROM g{w}"), &ctx);
                            // Plain key, computed key, Mixed-producing key.
                            for key in ["k", "k + 0", "CASE WHEN k = 1 THEN 'one' ELSE k END"] {
                                assert_engines_agree(
                                    &db,
                                    &format!("SELECT {key}, {agg} FROM g{w} GROUP BY {key}"),
                                    &ctx,
                                );
                            }
                        }
                    }
                }
                // The matrix reaches what it claims to: a real STDDEV, an
                // all-NULL group, a type error.
                let rs = db
                    .execute_sql(
                        "SELECT k, STDDEV(f), MIN(m) FROM g WHERE k >= 0 GROUP BY k ORDER BY k",
                    )
                    .unwrap();
                assert!(matches!(rs.rows[0][1], Value::Float(_)), "{ctx}");
                assert_eq!(rs.rows[2][1].is_null(), nulls, "{ctx}");
                assert_eq!(rs.rows[2][2].is_null(), nulls, "{ctx}");
                assert!(db.execute_sql("SELECT SUM(s) FROM g").is_err(), "{ctx}");
            }
        }
    }
}

/// Two aggregates that both raise a type error: the one with the lowest
/// aggregate index is reported, at every worker count — even when the
/// other aggregate's offending row comes first (here `AVG(w)` trips on
/// row 5, in the first morsel, and `SUM(v)` only on row 20).
#[test]
fn lowest_failing_aggregate_wins_at_every_worker_count() {
    let rows = (0..30)
        .map(|n| {
            (
                Value::Int(n),
                Value::Float(0.5),
                Value::str("x"),
                Value::Int(n % 2),
            )
        })
        .collect();
    let db = build_db(rows); // 3-row fold chunks
    let from = "FROM (SELECT d, CASE WHEN a >= 20 THEN c ELSE a END AS v, \
                CASE WHEN a >= 5 THEN c ELSE a END AS w FROM t) x";
    for (select, first) in [
        ("SUM(v), AVG(w)", "Sum"),
        ("AVG(w), SUM(v)", "Avg"),
        ("COUNT(*), MEDIAN(w), STDDEV(v)", "Median"),
    ] {
        for tail in ["", " GROUP BY d"] {
            let sql = format!("SELECT {select} {from}{tail}");
            for workers in [1, 2, 8] {
                db.set_parallelism(workers);
                let err = db.execute_sql(&sql).unwrap_err().to_string();
                assert!(
                    err.contains(&format!("{first} argument")),
                    "workers={workers}: {sql} reported {err}"
                );
                assert_engines_agree(&db, &sql, &format!("workers={workers}"));
            }
        }
    }
}

/// Every tail over an aggregated block whose keys and arguments are
/// computed: HAVING, ORDER BY an alias / an ordinal / an aggregate
/// expression outside the SELECT list / a key outside it, DISTINCT and
/// LIMIT/OFFSET — Project → Aggregate → Project → Tail, with the input
/// above the fold grid and inside one chunk, at 1, 2 and 8 workers.
#[test]
fn computed_grouped_block_tails_match_oracle() {
    let block = "FROM g GROUP BY k + 0";
    let select = "SELECT k + 0 AS kk, SUM(f * 1.0) AS s, MIN(LOWER(s)), COUNT(DISTINCT i % 3)";
    let queries = [
        format!("{select} {block}"),
        format!("{select} {block} HAVING COUNT(*) > 9"),
        format!("{select} {block} HAVING MAX(i + 0) - MIN(i + 0) > 3 ORDER BY s DESC, kk"),
        format!("{select} {block} ORDER BY 2, 1"),
        format!("{select} {block} ORDER BY MAX(i) - MIN(i) DESC, 1 LIMIT 2"),
        format!("{select} {block} ORDER BY s LIMIT 2 OFFSET 1"),
        format!("SELECT COUNT(*), AVG(f + i) {block} ORDER BY k + 0 DESC"),
        format!("SELECT COUNT(*) {block} ORDER BY k + 0 LIMIT 1 OFFSET 2"),
        format!("SELECT DISTINCT COUNT(*) > 9, MIN(b) {block}"),
        format!("SELECT DISTINCT COUNT(*) > 9 AS big {block} ORDER BY big DESC LIMIT 1"),
        // A grand aggregate is the same block with no keys.
        "SELECT SUM(i * (1 - f)), COUNT(*) + 1 FROM g HAVING COUNT(*) > 0".to_string(),
        "SELECT SUM(i * (1 - f)) FROM g HAVING COUNT(*) > 99".to_string(),
    ];
    for nulls in [false, true] {
        let db = agg_matrix_db(nulls);
        for fold in [4, 64] {
            db.set_morsel_rows(fold);
            for workers in [1, 2, 8] {
                db.set_parallelism(workers);
                let ctx = format!("nulls={nulls} fold={fold} workers={workers}");
                for sql in &queries {
                    assert_engines_agree(&db, sql, &ctx);
                }
            }
        }
    }
    // None of that was two matching errors, and the tails do what they
    // say on the executor alone, too.
    let db = agg_matrix_db(false);
    for sql in &queries {
        db.execute_sql(sql).unwrap();
    }
    let rs = db
        .execute_sql(&format!(
            "SELECT COUNT(*) {block} ORDER BY k + 0 LIMIT 1 OFFSET 2"
        ))
        .unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(10)]]);
    let rs = db
        .execute_sql("SELECT SUM(i * (1 - f)) FROM g HAVING COUNT(*) > 99")
        .unwrap();
    assert!(rs.rows.is_empty());
}

/// Errors of an aggregated or computed block, by text. A single defect is
/// reported as the oracle reports it wherever it sits — a key, an
/// argument, HAVING, the SELECT list over the groups, a sort key, or the
/// block's plan. (Division by zero is NULL in this engine, so the runtime
/// defects are type errors; each operator's has its own text.) Of two
/// defects, the one this order reaches first: keys before arguments,
/// arguments in aggregate order, HAVING before the SELECT list within a
/// group.
#[test]
fn computed_block_errors_match_oracle_by_text() {
    let db = agg_matrix_db(false); // `s` is never NULL: every group trips
    let cases = [
        // One runtime defect.
        ("SELECT COUNT(*) FROM g GROUP BY s + 1", "arithmetic"),
        ("SELECT k, SUM(s + 1) FROM g GROUP BY k", "arithmetic"),
        ("SELECT k + 0, MIN(-s) FROM g GROUP BY k + 0", "unary -"),
        (
            "SELECT k, COUNT(*) FROM g GROUP BY k HAVING MIN(s) + 1 > 0",
            "arithmetic",
        ),
        ("SELECT k, MIN(s) + 1 FROM g GROUP BY k", "arithmetic"),
        (
            "SELECT k FROM g GROUP BY k ORDER BY MIN(s) + 1",
            "arithmetic",
        ),
        ("SELECT SUM(LOWER(s)) FROM g", "Sum argument"),
        ("SELECT i, s + 1 FROM g ORDER BY i LIMIT 1", "arithmetic"),
        ("SELECT i FROM g ORDER BY -s LIMIT 1", "unary -"),
        // Two defects. A key's before an argument's…
        ("SELECT COUNT(*), SUM(s + 1) FROM g GROUP BY -s", "unary -"),
        // …the lower aggregate index's argument first…
        ("SELECT SUM(s + 1), SUM(-s) FROM g", "arithmetic"),
        ("SELECT SUM(-s), SUM(s + 1) FROM g", "unary -"),
        (
            "SELECT k, AVG(-s), COUNT(*), MAX(s + 1) FROM g GROUP BY k",
            "unary -",
        ),
        // …HAVING before the SELECT list, and that before a sort key.
        (
            "SELECT k, MIN(s) + 1 FROM g GROUP BY k HAVING -MIN(s) > 0",
            "unary -",
        ),
        (
            "SELECT k, MIN(s) + 1 FROM g GROUP BY k ORDER BY -MIN(s)",
            "arithmetic",
        ),
        // A compile defect in the tail comes before any of its rows'.
        ("SELECT s + 1, nope FROM g", "unknown column `nope`"),
        (
            "SELECT MIN(s) + 1 FROM g GROUP BY s + 1 ORDER BY 9",
            "position 9 out of range",
        ),
    ];
    // Compile defects, raised by the block's plan before any row is read.
    let compile_defects = [
        ("SELECT *, COUNT(*) FROM g", "wildcard projection"),
        ("SELECT x.* FROM g", "unknown table `x`"),
        (
            "SELECT i, COUNT(*) FROM g GROUP BY k",
            "column `i` must appear",
        ),
        ("SELECT k FROM g ORDER BY 9", "position 9 out of range"),
        (
            "SELECT k, COUNT(*) FROM g GROUP BY k ORDER BY 9",
            "position 9 out of range",
        ),
        ("SELECT SUM(COUNT(*)) FROM g", "nested aggregate"),
        ("SELECT nope FROM g", "unknown column `nope`"),
        ("SELECT k FROM g ORDER BY nope", "unknown column `nope`"),
        (
            "SELECT COUNT(*) FROM g GROUP BY nope",
            "unknown column `nope`",
        ),
        // Of two, the SELECT list's before HAVING's, HAVING's before
        // ORDER BY's.
        (
            "SELECT s FROM g GROUP BY k HAVING nope > 0 ORDER BY 9",
            "column `s` must appear",
        ),
        (
            "SELECT k FROM g GROUP BY k HAVING nope > 0 ORDER BY 9",
            "column `nope` must appear",
        ),
        ("SELECT x.*, nope FROM g ORDER BY 9", "unknown table `x`"),
    ];
    for fold in [4, 64] {
        db.set_morsel_rows(fold);
        for workers in [1, 2, 8] {
            db.set_parallelism(workers);
            let ctx = format!("fold={fold} workers={workers}");
            for (sql, expected) in cases.iter().chain(&compile_defects) {
                let err = db.execute_sql(sql).expect_err(sql).to_string();
                assert!(err.contains(expected), "{sql} ({ctx}): {err}");
                assert_engines_agree(&db, sql, &ctx);
            }
        }
    }
    // Over an empty table the plan still raises them.
    let empty = empty_g();
    for (sql, expected) in compile_defects {
        let err = empty.execute_sql(sql).expect_err(sql).to_string();
        assert!(err.contains(expected), "{sql} (empty): {err}");
        assert_engines_agree(&empty, sql, "empty");
    }
}

/// Every name of the one aggregate table is an aggregate to the planner
/// and to the fold alike — expectations written by hand, because the
/// executor and the oracle share whatever the table says. With two name
/// lists, `stddev_samp` in HAVING did not make the block aggregated (all
/// 30 rows came back, HAVING dropped) and `SELECT mean(i)` was "not
/// allowed here" while `GROUP BY k` next to it ran.
#[test]
fn aggregate_aliases_aggregate_everywhere() {
    let db = agg_matrix_db(false);
    for workers in [1, 8] {
        db.set_parallelism(workers);
        let rs = both(&db, "SELECT 1 FROM g HAVING stddev_samp(k) > 0");
        assert_eq!(rs.rows, vec![vec![Value::Int(1)]]);
        assert!(both(&db, "SELECT 1 FROM g HAVING stddev_samp(k) < 0")
            .rows
            .is_empty());
        // k is 0, 1, 2 ten times each.
        let mean = both(&db, "SELECT mean(k) FROM g");
        assert_eq!(mean.rows, vec![vec![Value::Float(1.0)]]);
        assert_eq!(mean.rows, both(&db, "SELECT avg(k) FROM g").rows);
        assert_eq!(mean.columns, ["mean"]);
        for (alias, name) in [("mean", "avg"), ("stddev_samp", "stddev")] {
            let spelled = |f: &str| {
                format!(
                    "SELECT k, {f}(f) FROM g GROUP BY k HAVING {f}(i) IS NOT NULL ORDER BY {f}(m), k"
                )
            };
            assert_eq!(
                both(&db, &spelled(alias)).rows,
                both(&db, &spelled(name)).rows
            );
            let err = db
                .execute_sql(&format!("SELECT k FROM g WHERE {alias}(i) > 0"))
                .unwrap_err();
            assert!(err.to_string().contains("is not allowed here"), "{err}");
        }
    }
}

/// Which GROUP BY key an expression is does not depend on the data, and a
/// column no key covers is named as the query writes it — two executor
/// bugs the independent oracle found. The executor matched keys by
/// compiled value, so `EXISTS (…)` was the key `TRUE` exactly when the
/// subquery returned a row, and `k IN (SELECT 1)` the key
/// `k IN (SELECT 1.0)` because the answers were equal: whether the query
/// was valid was a fact about the data. And it named the first spelling
/// of the uncovered column anywhere in the item (`g.k`, inside the key)
/// rather than the one no key covers (`k`).
#[test]
fn group_keys_match_as_written_whatever_a_subquery_returns() {
    let mut db = agg_matrix_db(false);
    db.create_table("none", Schema::of(&[("x", DataType::Int)]))
        .unwrap();
    for (sql, expected) in [
        (
            "SELECT (g.k + 1) + k FROM g GROUP BY k + 1",
            Err("column `k` must appear"),
        ),
        (
            "SELECT k IN (SELECT 1) FROM g GROUP BY k IN (SELECT 1.0)",
            Err("column `k` must appear"),
        ),
        (
            "SELECT k = 0 AND EXISTS (SELECT 1) FROM g GROUP BY k = 0 AND TRUE",
            Err("column `k` must appear"),
        ),
        (
            "SELECT k = 0 AND EXISTS (SELECT x FROM none) FROM g GROUP BY k = 0 AND FALSE",
            Err("column `k` must appear"),
        ),
        // Written alike, a subquery is the key, and so is a column
        // spelled either way.
        (
            "SELECT k IN (SELECT 1) AS one, COUNT(*) FROM g GROUP BY k IN (SELECT 1) ORDER BY 1",
            Ok(vec![
                vec![Value::Bool(false), Value::Int(20)],
                vec![Value::Bool(true), Value::Int(10)],
            ]),
        ),
        (
            "SELECT (g.k + 1) * 2 FROM g GROUP BY k + 1 ORDER BY 1",
            Ok(vec![
                vec![Value::Int(2)],
                vec![Value::Int(4)],
                vec![Value::Int(6)],
            ]),
        ),
    ] {
        for workers in [1, 8] {
            db.set_parallelism(workers);
            match (expected.clone(), db.execute_sql(sql)) {
                (Ok(rows), Ok(rs)) => assert_eq!(rs.rows, rows, "{sql}"),
                (Err(needle), Err(e)) => assert!(e.to_string().contains(needle), "{sql}: {e}"),
                (_, got) => panic!("{sql}: expected {expected:?}, got {got:?}"),
            }
            assert_engines_agree(&db, sql, &format!("workers={workers}"));
        }
    }
}

/// `-i64::MIN` and `ABS(i64::MIN)` wrap, like `+`, `-` and `*` always
/// have — in the debug profile (where `-i` and `i.abs()` panic) as in
/// release, on a literal and on a column, on both engines.
#[test]
fn negating_the_smallest_integer_wraps() {
    let min = Value::Int(i64::MIN);
    let mut db = Database::new();
    db.create_table("o", Schema::of(&[("x", DataType::Int)]))
        .unwrap();
    db.insert("o", vec![vec![min.clone()], vec![Value::Int(-7)]])
        .unwrap();
    let rs = both(
        &db,
        "SELECT ABS(-9223372036854775807 - 1), -(-9223372036854775807 - 1)",
    );
    assert_eq!(rs.rows, vec![vec![min.clone(), min.clone()]]);
    let rs = both(&db, "SELECT ABS(x), -x FROM o WHERE -x < 0 OR x = -7");
    assert_eq!(
        rs.rows,
        vec![
            vec![min.clone(), min.clone()],
            vec![Value::Int(7), Value::Int(7)]
        ]
    );
    let rs = both(&db, "SELECT MAX(ABS(x)), MIN(-x) FROM o GROUP BY -x > 0");
    assert_eq!(rs.rows.len(), 2);
}

/// A block compiles in full before any operator runs: whatever is wrong
/// with its tail is the error, even when its WHERE filter fails on the
/// first row — the same error as under a WHERE that cannot fail, on both
/// engines.
#[test]
fn tail_compile_errors_precede_where_runtime_errors() {
    let db = agg_matrix_db(false);
    for tail in [
        "SELECT nope FROM g",
        "SELECT k FROM g ORDER BY nope",
        "SELECT x.* FROM g",
        "SELECT *, COUNT(*) FROM g",
        "SELECT i, COUNT(*) FROM g GROUP BY k",
        "SELECT SUM(COUNT(*)) FROM g",
        "SELECT k FROM g ORDER BY 9",
    ] {
        let (select, rest) = tail.split_once(" FROM g").unwrap();
        // A kernel conjunct cannot fail: the tail's defect is all there is.
        let kernel = format!("{select} FROM g WHERE k = 1{rest}");
        let expected = db.execute_sql(&kernel).expect_err(&kernel).to_string();
        assert!(!expected.contains("arithmetic"), "{kernel}: {expected}");
        assert_engines_agree(&db, &kernel, "kernel WHERE");
        let sql = format!("{select} FROM g WHERE s + 1 > 0{rest}");
        for workers in [1, 8] {
            db.set_parallelism(workers);
            let err = db.execute_sql(&sql).expect_err(&sql).to_string();
            assert_eq!(err, expected, "{sql}");
            assert_engines_agree(&db, &sql, &format!("workers={workers}"));
        }
    }
}

/// Which error a query reports is not a fact about the data. Each compile
/// defect below sits in a query that fails on any row it reads (`s + 1`
/// over a string); over no rows, one row and thirty, at one worker and at
/// eight, both engines report the compile defect, in the same words.
/// First the failing expression is the defect's own block's WHERE, over a
/// single scan and over a two-way join (where the WHERE runs on the
/// pairs). Then it lives in another block — a derived table (alone and
/// joined), an earlier set-operation arm, an `IN (SELECT …)` in HAVING —
/// and the compile defect elsewhere: an ORDER BY position, an unknown
/// column, a two-column `IN` subquery, a later arm's arity, a GROUP BY
/// position. Each query without its compile defect fails at run time.
#[test]
fn a_compile_defect_wins_whatever_the_data() {
    let rows = agg_matrix_db(false).table("g").unwrap().rows();
    let defects = [
        "ORDER BY position 9 out of range",
        "unknown column `nope`",
        "IN subquery must return exactly one column",
        "set operation arity mismatch",
        "GROUP BY position 9 out of range",
    ];
    let derived = "(SELECT k FROM g WHERE s + 1 > 0) d";
    let derived_join = "(SELECT k FROM g WHERE s + 1 > 0) d JOIN h ON d.k = h.k";
    let arm = "SELECT k FROM g WHERE s + 1 > 0 UNION ALL";
    let having = "HAVING COUNT(*) IN (SELECT s + 1 FROM g)";
    // (the query with the runtime defect alone, then with each of
    // `defects` beside it, in order)
    let placements: Vec<(String, [String; 5])> = [derived, derived_join]
        .into_iter()
        .map(|from| {
            (
                format!("SELECT COUNT(*) FROM {from}"),
                [
                    format!("SELECT COUNT(*) FROM {from} ORDER BY 9"),
                    format!("SELECT nope FROM {from}"),
                    format!("SELECT COUNT(*) FROM {from} WHERE d.k IN (SELECT k, k FROM h)"),
                    format!("SELECT d.k FROM {from} UNION SELECT k, k FROM h"),
                    format!("SELECT COUNT(*) FROM {from} GROUP BY 9"),
                ],
            )
        })
        .chain([
            (
                format!("{arm} SELECT k FROM h"),
                [
                    format!("{arm} SELECT k FROM h ORDER BY 9"),
                    format!("{arm} SELECT nope FROM h"),
                    format!("{arm} SELECT k FROM h WHERE k IN (SELECT k, k FROM h)"),
                    format!("{arm} SELECT k, k FROM h"),
                    format!("{arm} SELECT COUNT(*) FROM h GROUP BY 9"),
                ],
            ),
            (
                format!("SELECT k, COUNT(*) FROM g GROUP BY k {having}"),
                [
                    format!("SELECT k, COUNT(*) FROM g GROUP BY k {having} ORDER BY 9"),
                    format!("SELECT k, COUNT(*) FROM g WHERE nope > 0 GROUP BY k {having}"),
                    format!(
                        "SELECT k, COUNT(*) FROM g GROUP BY k {having} \
                         AND k IN (SELECT k, k FROM h)"
                    ),
                    format!("SELECT k, COUNT(*) FROM g GROUP BY k {having} UNION SELECT k FROM h"),
                    format!("SELECT k, COUNT(*) FROM g GROUP BY k, 9 {having}"),
                ],
            ),
        ])
        .collect();
    let cases = [
        ("SELECT nope FROM {from} WHERE {w}", "unknown column `nope`"),
        (
            "SELECT COUNT(*) FROM {from} WHERE {w} ORDER BY 9",
            "ORDER BY position 9 out of range",
        ),
        (
            "SELECT SUM(COUNT(*)) FROM {from} WHERE {w}",
            "nested aggregate functions",
        ),
        (
            "SELECT g.i, COUNT(*) FROM {from} WHERE {w} GROUP BY g.k",
            "column `g.i` must appear in GROUP BY",
        ),
    ];
    let froms = [("g", "s + 1 > 0"), ("g JOIN h ON g.k = h.k", "g.s + 1 > 0")];
    for n in [0, 1, rows.len()] {
        let mut db = empty_g();
        db.insert("g", rows[..n].to_vec()).unwrap();
        db.create_table("h", Schema::of(&[("k", DataType::Int)]))
            .unwrap();
        let h = (0..n as i64).map(|i| vec![Value::Int(i % 3)]).collect();
        db.insert("h", h).unwrap();
        let mut queries: Vec<(String, &str)> = Vec::new();
        for (template, needle) in cases {
            for (from, w) in froms {
                let sql = template.replace("{from}", from).replace("{w}", w);
                queries.push((sql, needle));
            }
        }
        for (runtime, with_defects) in &placements {
            if n > 0 {
                queries.push((runtime.clone(), "type mismatch in arithmetic"));
            }
            queries.extend(with_defects.iter().cloned().zip(defects));
        }
        for (sql, needle) in &queries {
            for workers in [1, 8] {
                db.set_parallelism(workers);
                let err = db.execute_sql(sql).expect_err(sql).to_string();
                assert!(err.contains(needle), "{sql} over {n} rows: {err}");
                assert_engines_agree(&db, sql, &format!("{n} rows, workers={workers}"));
            }
        }
    }
}

/// A derived table's rows exist only once its block runs, so its columns
/// claim no physical storage when the query is planned: `LIKE` over one
/// is interpreted, never the string kernel. Whatever the column turns out
/// to hold — strings, only NULLs, integers (on which `LIKE` raises), or
/// no rows — the engines agree, alone and beside other conjuncts, over a
/// scan and over a join, at one worker and at eight.
#[test]
fn like_over_a_derived_column_matches_the_oracle() {
    let db = agg_matrix_db(false);
    db.set_morsel_rows(3);
    for derived in [
        "SELECT k, s AS v FROM g",
        "SELECT k, NULL AS v FROM g",
        "SELECT k, i AS v FROM g",
        "SELECT k, s AS v FROM g WHERE k < 0",
    ] {
        for query in [
            "SELECT COUNT(*) FROM ({d}) d WHERE v LIKE 'a%'",
            "SELECT k, v FROM ({d}) d WHERE v NOT LIKE '%e' ORDER BY 1, 2",
            "SELECT COUNT(*) FROM ({d}) d WHERE k > 0 AND v LIKE '_' AND k < 2",
            "SELECT d.k, COUNT(*) FROM ({d}) d JOIN g ON d.k = g.k \
             WHERE d.v LIKE 'b%' AND g.i > 0 GROUP BY d.k ORDER BY 1",
        ] {
            let sql = query.replace("{d}", derived);
            for workers in [1, 8] {
                db.set_parallelism(workers);
                assert_engines_agree(&db, &sql, &format!("workers={workers}"));
            }
        }
    }
}

/// A derived table or a set operation's arms reach the block above as
/// the tables their tails gathered, each column in its source's storage:
/// a `Mixed` column keeps that variant when only floats survive, arms of
/// integers, floats and strings append into one column, and an arm of
/// NULLs contributes no type; no row may survive at all. Every
/// aggregate, grouping, DISTINCT, the bounded sort and `IN` over such a
/// column agree with the oracle, at one worker and at eight. (A derived
/// table of zero columns does not parse.)
#[test]
fn operators_over_derived_and_set_op_columns_match_the_oracle() {
    let db = agg_matrix_db(true);
    db.set_morsel_rows(3);
    for derived in [
        "SELECT k, m AS v FROM g WHERE m < 100",
        "SELECT k, m AS v FROM g ORDER BY 2 DESC LIMIT 7",
        "SELECT k, i AS v FROM g UNION ALL SELECT k, f FROM g UNION ALL SELECT k, s FROM g",
        "SELECT k, i AS v FROM g UNION ALL SELECT k, f FROM g",
        "SELECT k, m AS v FROM g WHERE m < 100 UNION ALL SELECT k, i FROM g WHERE k = 0",
        "SELECT k, NULL AS v FROM g UNION ALL SELECT k, i FROM g",
        "SELECT k, i AS v FROM g UNION SELECT k, NULL FROM g",
        "SELECT k, b AS v FROM g INTERSECT SELECT k, NULL FROM g",
        "SELECT k, NULL AS v FROM g",
        "SELECT k, s AS v FROM g WHERE k < 0",
    ] {
        for query in [
            "SELECT MIN(v), MAX(v) FROM ({d}) d",
            "SELECT SUM(v), AVG(v) FROM ({d}) d",
            "SELECT COUNT(DISTINCT v), COUNT(v), COUNT(*) FROM ({d}) d",
            "SELECT k, MIN(v), MAX(v), COUNT(DISTINCT v) FROM ({d}) d GROUP BY k ORDER BY 1",
            "SELECT v, COUNT(*) FROM ({d}) d GROUP BY v",
            "SELECT DISTINCT v FROM ({d}) d",
            "SELECT v, k FROM ({d}) d ORDER BY v DESC, k LIMIT 4",
            "SELECT COUNT(*) FROM g WHERE i IN (SELECT v FROM ({d}) d)",
            "SELECT COUNT(*) FROM g WHERE f NOT IN (SELECT v FROM ({d}) d)",
        ] {
            let sql = query.replace("{d}", derived);
            for workers in [1, 8] {
                db.set_parallelism(workers);
                assert_engines_agree(&db, &sql, &format!("workers={workers}"));
            }
        }
    }
}

/// HAVING makes a block one group, as in standard SQL: a column outside
/// an aggregate is then ungrouped, `HAVING 1 > 0` keeps the one group —
/// over an empty table too — and `HAVING 1 < 0` keeps none.
#[test]
fn having_without_group_by_makes_the_block_one_group() {
    for db in [agg_matrix_db(false), empty_g()] {
        for workers in [1, 8] {
            db.set_parallelism(workers);
            let sql = "SELECT k FROM g HAVING k > 0";
            let err = db.execute_sql(sql).expect_err(sql).to_string();
            assert!(err.contains("column `k` must appear in GROUP BY"), "{err}");
            assert_engines_agree(&db, sql, &format!("workers={workers}"));
            let one = both(&db, "SELECT 1 FROM g HAVING 1 > 0");
            assert_eq!(one.rows, vec![vec![Value::Int(1)]]);
            assert!(both(&db, "SELECT 1 FROM g HAVING 1 < 0").rows.is_empty());
        }
    }
}

/// The paper's Table 5, query 6 ("drivers by thresholds of total
/// completed trips") groups by a `CASE` — a computed key over a join.
#[test]
fn uber_table5_case_histogram_matches_oracle() {
    let mut db = Database::new();
    db.create_table(
        "drivers",
        Schema::of(&[("id", DataType::Int), ("city_id", DataType::Int)]),
    )
    .unwrap();
    db.create_table(
        "analytics",
        Schema::of(&[
            ("driver_id", DataType::Int),
            ("completed_trips", DataType::Int),
            ("last_trip_date", DataType::Str),
        ]),
    )
    .unwrap();
    let n = 60i64;
    db.insert(
        "drivers",
        (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(1 + i % 3)])
            .collect(),
    )
    .unwrap();
    db.insert(
        "analytics",
        (0..n)
            .map(|i| {
                let trips = if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int((i * 37) % 400)
                };
                let date = format!("2016-12-{:02}", 1 + i % 9);
                vec![Value::Int(i), trips, Value::Str(date)]
            })
            .collect(),
    )
    .unwrap();
    let bucket = "CASE WHEN a.completed_trips >= 250 THEN 'heavy' \
                  WHEN a.completed_trips >= 100 THEN 'regular' ELSE 'light' END";
    let sql = format!(
        "SELECT {bucket} AS bucket, COUNT(*) FROM drivers d JOIN analytics a \
         ON d.id = a.driver_id WHERE d.city_id = 2 AND a.last_trip_date >= '2016-12-03' \
         GROUP BY {bucket}"
    );
    db.set_morsel_rows(4);
    for workers in [1, 2, 8] {
        db.set_parallelism(workers);
        assert_engines_agree(&db, &sql, &format!("workers={workers}"));
        assert_engines_agree(
            &db,
            &format!("{sql} ORDER BY 2 DESC, bucket LIMIT 2"),
            &format!("workers={workers}"),
        );
    }
    let rs = db.execute_sql(&sql).unwrap();
    assert_eq!(rs.columns, vec!["bucket", "count"]);
    assert_eq!(rs.rows.len(), 3, "heavy, regular and light: {rs:?}");
}

/// TPC-H Q1's revenue shape: `SUM(a * (1 - b))` and friends, grouped and
/// grand, float bits identical to the oracle's at every worker count.
#[test]
fn tpch_style_sum_of_product_matches_oracle() {
    let mut db = Database::new();
    db.create_table(
        "lineitem",
        Schema::of(&[
            ("l_returnflag", DataType::Str),
            ("l_extendedprice", DataType::Float),
            ("l_discount", DataType::Float),
            ("l_tax", DataType::Float),
        ]),
    )
    .unwrap();
    db.insert(
        "lineitem",
        (0..50i64)
            .map(|i| {
                let price = match i % 7 {
                    0 => 1e16,
                    1 => -1e16,
                    2 => 9_007_199_254_740_992.0, // 2^53
                    _ => 900.25 + i as f64 * 13.5,
                };
                vec![
                    Value::str(["A", "N", "R"][i as usize % 3]),
                    Value::Float(price),
                    if i % 13 == 5 {
                        Value::Null
                    } else {
                        Value::Float((i % 10) as f64 * 0.01)
                    },
                    Value::Float((i % 8) as f64 * 0.01),
                ]
            })
            .collect(),
    )
    .unwrap();
    let revenue = "SUM(l_extendedprice * (1 - l_discount))";
    let charge = "AVG(l_extendedprice * (1 - l_discount) * (1 + l_tax))";
    for fold in [4, 64] {
        db.set_morsel_rows(fold);
        for workers in [1, 2, 8] {
            db.set_parallelism(workers);
            let ctx = format!("fold={fold} workers={workers}");
            for sql in [
                format!("SELECT {revenue}, {charge}, COUNT(*) FROM lineitem"),
                format!(
                    "SELECT l_returnflag, {revenue} AS revenue, {charge}, STDDEV(l_tax * 100) \
                     FROM lineitem GROUP BY l_returnflag ORDER BY revenue DESC, l_returnflag"
                ),
            ] {
                assert_engines_agree(&db, &sql, &ctx);
            }
        }
    }
}

/// A LEFT join with no equi-key (nested-loop candidates) and a fallible
/// residual runs through the same probe loop as the hash join: unmatched
/// left rows pad in place, and a residual that type-errors reports the
/// oracle's error — at every worker count.
#[test]
fn left_non_equi_join_with_fallible_residual_matches_oracle() {
    let db = join_db(); // 3-row fold chunks; t has 5 rows, r has 5
    for sql in [
        // Arithmetic residual (fallible, never failing here); t rows with
        // a NULL or no smaller partner stay, padded.
        "SELECT x.a, x.c, y.w FROM t x LEFT JOIN r y ON x.a < y.a AND x.a + y.w > 8",
        "SELECT x.c, COUNT(y.a) FROM t x LEFT JOIN r y ON x.a + 1 < y.w GROUP BY x.c",
        "SELECT x.a, y.u FROM t x LEFT JOIN r y ON x.b * 2 > y.a WHERE y.u IS NULL",
        // The same shape with an equi-key: the index feeds the loop.
        "SELECT x.a, x.c, y.w FROM t x LEFT JOIN r y ON x.a = y.a AND x.a + y.w > 6",
        // Residuals that fail: on the first pair, and only on a late one.
        "SELECT x.a FROM t x LEFT JOIN r y ON x.a < y.a AND y.u + 1 > 0",
        "SELECT x.a FROM t x LEFT JOIN r y ON y.w > 90 AND x.c + 1 > 0",
    ] {
        for workers in [1, 2, 8] {
            db.set_parallelism(workers);
            assert_engines_agree(&db, sql, &format!("workers={workers}"));
        }
    }
    db.set_parallelism(1);
    let rs = db
        .execute_sql("SELECT x.a, y.w FROM t x LEFT JOIN r y ON x.a < y.a AND x.a + y.w > 8")
        .unwrap();
    let pads = rs.rows.iter().filter(|r| r[1].is_null()).count();
    assert!(pads >= 2, "expected unmatched left rows, got {rs:?}");
    assert!(db
        .execute_sql("SELECT x.a FROM t x LEFT JOIN r y ON y.w > 90 AND x.c + 1 > 0")
        .is_err());
}

// ---- LIMIT/OFFSET and ORDER BY regressions (both engines) ----------------

#[test]
fn limit_with_offset_past_end_is_empty() {
    let db = null_db();
    for sql in [
        "SELECT a FROM t ORDER BY a LIMIT 2 OFFSET 40",
        "SELECT a FROM t ORDER BY a LIMIT 0",
        "SELECT d, COUNT(*) FROM t GROUP BY d LIMIT 5 OFFSET 10",
    ] {
        let rs = both(&db, sql);
        assert!(rs.rows.is_empty(), "expected empty result for: {sql}");
    }
}

#[test]
fn limit_offset_slices_after_order_by() {
    let db = build_db(
        (0..6)
            .map(|i| {
                (
                    Value::Int(i),
                    Value::Float(i as f64),
                    Value::str("s"),
                    Value::Int(0),
                )
            })
            .collect(),
    );
    let rs = both(&db, "SELECT a FROM t ORDER BY a DESC LIMIT 2 OFFSET 1");
    assert_eq!(rs.rows, vec![vec![Value::Int(4)], vec![Value::Int(3)]]);
    // OFFSET clamps to the row count rather than panicking.
    let rs = both(&db, "SELECT a FROM t ORDER BY a LIMIT 3 OFFSET 5");
    assert_eq!(rs.rows, vec![vec![Value::Int(5)]]);
}

#[test]
fn order_by_aliased_aggregate_with_limit() {
    let db = null_db();
    let rs = both(
        &db,
        "SELECT d, COUNT(*) AS n FROM t GROUP BY d ORDER BY n DESC, d LIMIT 2",
    );
    assert_eq!(rs.columns, vec!["d", "n"]);
    assert_eq!(rs.rows.len(), 2);
    // Both 2-row groups (d=0, d=1) outrank the NULL singleton.
    assert_eq!(rs.rows[0], vec![Value::Int(0), Value::Int(2)]);
    assert_eq!(rs.rows[1], vec![Value::Int(1), Value::Int(2)]);
}

#[test]
fn int_comparisons_coerce_through_f64_like_sql_cmp() {
    // sql_cmp compares Int-vs-Int through f64, so 2^53 and 2^53+1 are
    // "equal". The vectorized kernel must reproduce that, not exact i64
    // order.
    let two_53 = 9_007_199_254_740_992i64; // 2^53
    let mut db = Database::new();
    db.create_table("big", Schema::of(&[("v", DataType::Int)]))
        .unwrap();
    db.insert(
        "big",
        vec![
            vec![Value::Int(two_53 + 1)],
            vec![Value::Int(two_53)],
            vec![Value::Int(7)],
        ],
    )
    .unwrap();
    let rs = both(&db, &format!("SELECT COUNT(*) FROM big WHERE v = {two_53}"));
    assert_eq!(rs.rows[0][0], Value::Int(2));
    let rs = both(&db, &format!("SELECT COUNT(*) FROM big WHERE v > {two_53}"));
    assert_eq!(rs.rows[0][0], Value::Int(0));
}

/// Audit of the Int64 comparison kernels (`vexec::cmp_predicate`): every
/// `xs[i] as f64` cast is lossy above 2^53, but so is the row engine's
/// own `sql_cmp`, which coerces Int-vs-Int through `as_f64` too — the
/// kernels must reproduce that coercion bit-for-bit on *both* sides of
/// the 2^53 boundary, for negative magnitudes, for Float columns probed
/// with huge Int literals, and for the exact-integer paths (GROUP BY,
/// COUNT(DISTINCT), join keys) that must NOT coerce.
#[test]
fn int_kernels_match_sql_cmp_at_both_2p53_boundaries() {
    let two53 = 9_007_199_254_740_992i64; // 2^53
    let mut db = Database::new();
    db.create_table(
        "big",
        Schema::of(&[("v", DataType::Int), ("f", DataType::Float)]),
    )
    .unwrap();
    db.insert(
        "big",
        vec![
            vec![Value::Int(two53), Value::Float(two53 as f64)],
            vec![Value::Int(two53 + 1), Value::Float(-(two53 as f64))],
            vec![Value::Int(-two53), Value::Float(7.0)],
            vec![Value::Int(-two53 - 1), Value::Null],
            vec![Value::Int(7), Value::Float(0.5)],
        ],
    )
    .unwrap();

    // Positive boundary: 2^53 + 1 rounds to 2^53 as f64, so under f64
    // coercion it equals 2^53 and nothing exceeds it.
    let rs = both(&db, &format!("SELECT COUNT(*) FROM big WHERE v = {two53}"));
    assert_eq!(rs.rows[0][0], Value::Int(2));
    let rs = both(
        &db,
        &format!("SELECT COUNT(*) FROM big WHERE v = {}", two53 + 1),
    );
    assert_eq!(rs.rows[0][0], Value::Int(2));
    let rs = both(&db, &format!("SELECT COUNT(*) FROM big WHERE v > {two53}"));
    assert_eq!(rs.rows[0][0], Value::Int(0));
    // Negative boundary. (Negative literals compile as a unary minus, so
    // this exercises the non-kernel fallback; negative *column values*
    // against positive literals exercise the kernel.)
    let rs = both(
        &db,
        &format!("SELECT COUNT(*) FROM big WHERE v = -{}", two53 + 1),
    );
    assert_eq!(rs.rows[0][0], Value::Int(2));
    let rs = both(
        &db,
        &format!("SELECT COUNT(*) FROM big WHERE v < {}", -two53),
    );
    assert_eq!(rs.rows[0][0], Value::Int(0));
    let rs = both(&db, &format!("SELECT COUNT(*) FROM big WHERE v < {two53}"));
    assert_eq!(rs.rows[0][0], Value::Int(3));
    // Float column probed with a 2^53-adjacent Int literal: the
    // Float64-vs-Int kernel coerces the literal exactly like sql_cmp.
    let rs = both(
        &db,
        &format!("SELECT COUNT(*) FROM big WHERE f = {}", two53 + 1),
    );
    assert_eq!(rs.rows[0][0], Value::Int(1));
    // Exact-integer paths must NOT coerce: 2^53 and 2^53 + 1 stay
    // distinct group/distinct/join keys on both engines.
    let rs = both(&db, "SELECT v, COUNT(*) FROM big GROUP BY v ORDER BY 1");
    assert_eq!(rs.rows.len(), 5);
    let rs = both(&db, "SELECT COUNT(DISTINCT v) FROM big");
    assert_eq!(rs.rows[0][0], Value::Int(5));
    let rs = both(
        &db,
        "SELECT COUNT(*) FROM big x JOIN big y ON x.v = y.v WHERE x.v > 0",
    );
    assert_eq!(rs.rows[0][0], Value::Int(3));
    // And the whole audit holds under morsel-parallel execution too.
    db.set_parallelism(4);
    db.set_morsel_rows(2);
    let rs = both(&db, &format!("SELECT COUNT(*) FROM big WHERE v = {two53}"));
    assert_eq!(rs.rows[0][0], Value::Int(2));
    let rs = both(&db, "SELECT COUNT(DISTINCT v) FROM big");
    assert_eq!(rs.rows[0][0], Value::Int(5));
}

#[test]
fn fallible_conjunct_errors_on_both_engines() {
    // `a = 1` is NULL (not FALSE) on the (NULL, 'x') row, so AND keeps
    // evaluating and `c + 1` errors on the string. Conjunct narrowing
    // must not skip that row and turn the error into an empty result.
    let db = build_db(vec![(
        Value::Null,
        Value::Float(0.0),
        Value::str("x"),
        Value::Int(0),
    )]);
    let sql = "SELECT COUNT(*) FROM t WHERE a = 1 AND c + 1 > 0";
    let v = db.execute_sql(sql);
    let r = flex_oracle::execute_sql(&db, sql);
    assert!(v.is_err(), "vectorized engine must error too, got {v:?}");
    assert!(r.is_err());
}

// ---- LEFT JOIN pushdown correctness ---------------------------------------

/// Fixed two-table dataset with NULL join keys on both sides, duplicate
/// keys, and NULLs in the pushed-predicate columns.
fn join_db() -> Database {
    let mut db = build_db(vec![
        (
            Value::Int(1),
            Value::Float(1.0),
            Value::str("a"),
            Value::Int(0),
        ),
        (
            Value::Int(1),
            Value::Float(2.0),
            Value::str("b"),
            Value::Int(1),
        ),
        (Value::Int(2), Value::Null, Value::str("c"), Value::Int(1)),
        (
            Value::Null,
            Value::Float(0.5),
            Value::str("d"),
            Value::Int(0),
        ),
        (Value::Int(3), Value::Float(1.5), Value::Null, Value::Null),
    ]);
    add_r(
        &mut db,
        vec![
            (Value::Int(1), Value::Int(10), Value::str("a")),
            (Value::Int(1), Value::Null, Value::str("b")),
            (Value::Int(2), Value::Int(5), Value::Null),
            (Value::Null, Value::Int(99), Value::str("z")),
            (Value::Int(4), Value::Int(7), Value::str("q")),
        ],
    );
    db
}

#[test]
fn left_join_where_on_nullable_side_drops_pads() {
    // A WHERE predicate on the right (nullable) side must NOT be pushed
    // below a LEFT JOIN: it filters *after* padding, so NULL-padded rows
    // fail `w > 0` and disappear — making the result identical to the
    // inner join. Pushing it below the join would instead turn filtered
    // left rows into surviving pads.
    let db = join_db();
    let left = both(
        &db,
        "SELECT x.a, x.c, y.w FROM t x LEFT JOIN r y ON x.a = y.a WHERE y.w > 0",
    );
    let inner = both(
        &db,
        "SELECT x.a, x.c, y.w FROM t x JOIN r y ON x.a = y.a WHERE y.w > 0",
    );
    assert_eq!(left.rows, inner.rows);
    assert!(left.rows.iter().all(|r| !r[2].is_null()));
}

#[test]
fn left_join_where_is_null_keeps_pads() {
    // `IS NULL` on the nullable side keeps both genuine NULL matches and
    // NULL-padded unmatched rows — padding semantics must survive the
    // kernel path.
    let db = join_db();
    let rs = both(
        &db,
        "SELECT x.a, x.c, y.w FROM t x LEFT JOIN r y ON x.a = y.a WHERE y.w IS NULL",
    );
    // Matches with w NULL: (1,a)×(1,NULL), (1,b)×(1,NULL); pads: the
    // x.a=3 row and the x.a NULL row.
    assert_eq!(rs.rows.len(), 4);
    let pads = rs
        .rows
        .iter()
        .filter(|r| r[0] == Value::Int(3) || r[0].is_null())
        .count();
    assert_eq!(pads, 2);
}

#[test]
fn left_join_on_right_predicate_pushes_but_keeps_padding() {
    // A right-side predicate in the ON clause only shrinks the match
    // set: left rows whose matches all fail it are padded, never
    // dropped. (This one IS safely pushable to the right scan.)
    let db = join_db();
    let rs = both(
        &db,
        "SELECT x.a, x.b, y.w FROM t x LEFT JOIN r y ON x.a = y.a AND y.w > 5",
    );
    // Every t row survives; only (1,*)×(1,10) actually matches.
    assert_eq!(rs.rows.len(), 5);
    let matched: Vec<_> = rs.rows.iter().filter(|r| !r[2].is_null()).collect();
    assert_eq!(matched.len(), 2);
    assert!(matched.iter().all(|r| r[2] == Value::Int(10)));
}

#[test]
fn left_join_on_left_predicate_pads_instead_of_dropping() {
    // A left-side ON predicate makes failing left rows *unmatchable*,
    // not droppable — they must still appear NULL-padded.
    let db = join_db();
    let rs = both(
        &db,
        "SELECT x.a, x.d, y.w FROM t x LEFT JOIN r y ON x.a = y.a AND x.d = 1",
    );
    // d=1 left rows: a=1 matches twice, a=2 once; the other 3 rows pad.
    assert_eq!(rs.rows.len(), 6);
    // d=1 rows (a=1 and a=2) match; everything else is padded.
    for row in &rs.rows {
        if row[1] == Value::Int(1) {
            assert!(row[0] == Value::Int(1) || row[0] == Value::Int(2));
        } else {
            assert!(row[2].is_null(), "non-d=1 rows must be padded: {row:?}");
        }
    }
}

#[test]
fn inner_join_pushes_where_to_both_sides() {
    let db = join_db();
    let rs = both(
        &db,
        "SELECT COUNT(*) FROM t x JOIN r y ON x.a = y.a WHERE x.d >= 0 AND y.u = 'a'",
    );
    // Pairs on a=1 with u='a': rows (1,0) and (1,1) of t × r row (1,10,'a').
    assert_eq!(rs.rows[0][0], Value::Int(2));
}

/// An infallible WHERE over a join runs its kernels below the join (or
/// post-join, over a padded side) and only its other conjuncts on the
/// pairs; one fallible conjunct makes the whole WHERE run as written, so
/// the error the oracle raises still surfaces although `x.d > 5` keeps
/// no row. Every join type, at 1 and 8 workers; `b` is Mixed (it holds
/// Ints and Floats) and every compared column holds NULLs, keys too.
#[test]
fn an_infallible_where_splits_over_a_join_and_a_fallible_one_runs_whole() {
    let (int, float, s) = (Value::Int, Value::Float, Value::str);
    let mut db = build_db(vec![
        (int(1), int(2), s("a"), int(0)),
        (int(1), float(2.5), s("b"), int(1)),
        (int(2), Value::Null, s("c"), int(1)),
        (Value::Null, int(5), s("d"), int(0)),
        (int(3), float(1.5), Value::Null, Value::Null),
        (int(2), int(7), s("e"), int(2)),
    ]);
    add_r(
        &mut db,
        vec![
            (int(1), int(2), s("a")),
            (int(1), Value::Null, s("c")),
            (int(2), int(7), Value::Null),
            (Value::Null, int(5), s("z")),
            (int(4), int(0), s("q")),
            (int(2), int(1), s("f")),
        ],
    );
    let froms = [
        ("JOIN r y ON x.a = y.a", ""),
        ("LEFT JOIN r y ON x.a = y.a", ""),
        ("RIGHT JOIN r y ON x.a = y.a", ""),
        ("FULL JOIN r y ON x.a = y.a", ""),
        (", r y", "x.a = y.a AND "),
    ];
    let infallible = [
        "x.d >= 0 AND x.b <> y.w AND y.u IS NOT NULL",
        "y.w BETWEEN 0 AND 5 AND x.c < y.u AND x.a > 0",
        "x.b BETWEEN 1 AND 3 AND y.u IS NULL",
    ];
    let fallible = "y.w + x.c > 0 AND x.d > 5";
    for workers in [1, 8] {
        db.set_parallelism(workers);
        for (join, on) in froms {
            for pred in infallible.iter().chain([&fallible]) {
                let sql =
                    format!("SELECT x.a, x.b, x.c, y.w, y.u FROM t x {join} WHERE {on}{pred}");
                let ctx = format!("{sql} (workers {workers})");
                match (db.execute_sql(&sql), flex_oracle::execute_sql(&db, &sql)) {
                    (Ok(v), Ok(r)) if *pred != fallible => assert_eq!(v, r, "{ctx}"),
                    (Err(v), Err(r)) if *pred == fallible => {
                        assert_eq!(v.to_string(), r.to_string(), "{ctx}")
                    }
                    (v, r) => panic!("{ctx}: engine {v:?}, oracle {r:?}"),
                }
            }
        }
    }
}

#[test]
fn join_null_keys_never_match() {
    let db = join_db();
    let rs = both(&db, "SELECT COUNT(*) FROM t x JOIN r y ON x.a = y.a");
    // a=1: 2×2, a=2: 1×1, a=3/NULL: none; r's NULL key matches nothing.
    assert_eq!(rs.rows[0][0], Value::Int(5));
    let rs = both(
        &db,
        "SELECT COUNT(*) FROM t x LEFT JOIN r y ON x.a = y.a WHERE y.a IS NULL",
    );
    // Unmatched left rows: a=3 and a=NULL.
    assert_eq!(rs.rows[0][0], Value::Int(2));
}

#[test]
fn fallible_join_predicates_error_on_both_engines() {
    // `y.u + 1` type-errors on string values. Whether it sits in the ON
    // residual or the WHERE, the vectorized pipeline must surface the
    // same error the row engine does instead of filtering around it.
    let db = join_db();
    for sql in [
        "SELECT COUNT(*) FROM t x JOIN r y ON x.a = y.a AND y.u + 1 > 0",
        "SELECT COUNT(*) FROM t x JOIN r y ON x.a = y.a WHERE y.u + 1 > 0",
    ] {
        let v = db.execute_sql(sql);
        let r = flex_oracle::execute_sql(&db, sql);
        assert!(
            v.is_err(),
            "vectorized engine must error on {sql}, got {v:?}"
        );
        assert!(r.is_err(), "row engine must error on {sql}");
    }
}

#[test]
fn join_order_by_unprojected_and_late_materialization() {
    // ORDER BY touches an unprojected right column: the live-column
    // analysis must materialize it even though the projection doesn't.
    let db = join_db();
    let rs = both(
        &db,
        "SELECT x.c FROM t x JOIN r y ON x.a = y.a ORDER BY y.w DESC, x.c, y.u",
    );
    assert_eq!(rs.rows.len(), 5);
    assert_eq!(rs.rows[0], vec![Value::str("a")]); // w=10 first
}

/// A join materializes only the columns read above it, and which those
/// are is read off the compiled plan. In each query a column of the inner
/// join `x ⋈ y` is read by exactly one thing above it — an ORDER BY
/// source expression, a GROUP BY key, an aggregate argument, the
/// post-join WHERE (interpreted, or a kernel the outer join keeps
/// post-join), an ON residual, an ON match kernel — so leaving it out of
/// the inner join's live set turns it into NULLs and changes the answer.
#[test]
fn a_column_read_once_above_a_join_is_materialized() {
    let db = join_db();
    let inner = "FROM t x JOIN r y ON x.a = y.a";
    for sql in [
        format!("SELECT z.c {inner} JOIN t z ON y.a = z.a ORDER BY x.b * 2 DESC, z.c"),
        format!("SELECT COUNT(*) {inner} JOIN t z ON y.a = z.a GROUP BY x.b ORDER BY 1"),
        format!("SELECT SUM(y.w) {inner} JOIN t z ON y.a = z.a"),
        format!("SELECT z.c {inner} JOIN t z ON y.a = z.a WHERE y.w + 0 > 6 ORDER BY 1"),
        format!("SELECT z.c {inner} RIGHT JOIN t z ON y.a = z.a WHERE y.w > 6 ORDER BY 1"),
        format!("SELECT z.c {inner} JOIN t z ON y.a = z.a AND y.w + 0 > z.d ORDER BY 1"),
        format!("SELECT z.c, x.d {inner} LEFT JOIN t z ON y.a = z.a AND y.w > 6 ORDER BY 1, 2"),
    ] {
        for workers in [1, 8] {
            parallelize(&db, workers);
            let rs = both(&db, &sql);
            assert!(
                rs.rows.iter().flatten().any(|v| !v.is_null()),
                "{sql}: {rs:?}"
            );
        }
    }
}

// ---- conjunct order is scheduling, never spelling ---------------------------

/// `t` (48 rows) and `r` (12 rows) for the scheduling tests. With
/// `nulls`, every column of both loses between a fifth and a half of its
/// values, each on a stride of its own, so every conjunct meets NULLs
/// where its neighbours are TRUE and FALSE.
fn schedule_db(nulls: bool) -> Database {
    let gap = |i: usize, every: usize, v: Value| {
        if nulls && i % every == every - 1 {
            Value::Null
        } else {
            v
        }
    };
    let letter = |i: usize| Value::str(["a", "b", "c", "d", "e"][i % 5]);
    let mut db = build_db(
        (0..48)
            .map(|i| {
                (
                    gap(i, 3, Value::Int(i as i64 % 4 + 1)),
                    gap(i, 4, Value::Float((i % 8) as f64 * 0.25)),
                    gap(i, 5, letter(i)),
                    gap(i, 2, Value::Int(i as i64 % 3)),
                )
            })
            .collect(),
    );
    add_r(
        &mut db,
        (0..12)
            .map(|j| {
                (
                    gap(j, 4, Value::Int(j as i64 % 4 + 1)),
                    gap(j, 3, Value::Int(j as i64 % 3)),
                    gap(j, 5, letter(j)),
                )
            })
            .collect(),
    );
    db
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for shorter in permutations(n - 1) {
        for at in 0..n {
            let mut p = shorter.clone();
            p.insert(at, n - 1);
            out.push(p);
        }
    }
    out
}

/// The conjuncts of `trace`'s one recorded predicate in the order they
/// ran, as indices into the spelled order `written`.
fn resolved_chain(trace: &flex_db::ExecTrace, written: &[usize]) -> Vec<usize> {
    let positions = trace.filter_order.positions();
    assert_eq!(positions.len(), written.len(), "one predicate recorded");
    positions.iter().map(|&p| written[p as usize]).collect()
}

/// The four `pipeline_bench` shapes over `t` and `r` (filter count,
/// histogram over a join, two-way join count with every conjunct pushed,
/// three-way `COUNT(DISTINCT)` with a cross-side `<>`), and a fifth over
/// the NULL-heavy tables with `IS NOT NULL` and `LIKE` in the mix. Every
/// permutation of the WHERE conjuncts, in every combination of `col op
/// lit` / `lit op col` spellings, returns the oracle's rows and runs the
/// same chain of conjuncts, at 1, 2 and 8 workers.
#[test]
fn where_spelling_never_changes_rows_or_schedule() {
    type Shape = (
        bool,
        &'static str,
        &'static [&'static [&'static str]],
        &'static str,
    );
    let shapes: [Shape; 5] = [
        (
            false,
            "SELECT COUNT(*) FROM t",
            &[
                &["d = 1", "1 = d"],
                &["c BETWEEN 'a' AND 'd'"],
                &["c = 'b'", "'b' = c"],
                &["b > 0.3", "0.3 < b"],
            ],
            "",
        ),
        (
            false,
            "SELECT y.u, COUNT(*) FROM t x JOIN r y ON x.a = y.a",
            &[&["x.c BETWEEN 'a' AND 'd'"], &["x.b > 0.3", "0.3 < x.b"]],
            " GROUP BY y.u",
        ),
        (
            false,
            "SELECT COUNT(*) FROM t x JOIN r y ON x.a = y.a",
            &[
                &["y.w = 1", "1 = y.w"],
                &["y.u = 'b'", "'b' = y.u"],
                &["x.c = 'b'", "'b' = x.c"],
                &["x.b > 0.3", "0.3 < x.b"],
            ],
            "",
        ),
        (
            false,
            "SELECT COUNT(DISTINCT y.w) FROM t x JOIN r y ON x.a = y.a JOIN r z ON x.d = z.w",
            &[
                &["z.u = 'a'", "'a' = z.u"],
                &["x.c = 'b'", "'b' = x.c"],
                &["y.w <> x.d", "x.d <> y.w"],
                &["x.b > 0.3", "0.3 < x.b"],
            ],
            "",
        ),
        (
            true,
            "SELECT a, d FROM t",
            &[
                &["a >= 2", "2 <= a"],
                &["b < 1.5", "1.5 > b"],
                &["c BETWEEN 'a' AND 'd'"],
                &["d IS NOT NULL"],
                &["c NOT LIKE 'c%'"],
            ],
            "",
        ),
    ];
    for (nulls, head, conjuncts, tail) in shapes {
        let db = schedule_db(nulls);
        let mut reference: Option<(ResultSet, Vec<usize>)> = None;
        for written in permutations(conjuncts.len()) {
            let spellings: usize = conjuncts.iter().map(|c| c.len()).product();
            for mut pick in 0..spellings {
                let spelled: Vec<&str> = written
                    .iter()
                    .map(|&id| {
                        let choices = conjuncts[id];
                        let s = choices[pick % choices.len()];
                        pick /= choices.len();
                        s
                    })
                    .collect();
                let sql = format!("{head} WHERE {}{tail}", spelled.join(" AND "));
                let q = parse_query(&sql).unwrap();
                let oracle = flex_oracle::execute(&db, &q).unwrap();
                for workers in [1, 2, 8] {
                    db.set_parallelism(workers);
                    let (trace, rows) = db.execute_traced(&q);
                    let rows = rows.unwrap();
                    assert_eq!(rows, oracle, "{sql} (workers={workers})");
                    let chain = resolved_chain(&trace, &written);
                    let (rows0, chain0) = reference.get_or_insert((rows.clone(), chain.clone()));
                    assert_eq!(&rows, rows0, "{sql} (workers={workers})");
                    assert_eq!(&chain, chain0, "{sql} (workers={workers})");
                }
            }
        }
        // The rank table, pinned once: the Int `=`, the Float range, the
        // Str `=`, then the Str BETWEEN.
        if head == "SELECT COUNT(*) FROM t" {
            assert_eq!(reference.unwrap().1, [0, 3, 2, 1]);
        }
    }
}

/// One conjunct that can raise pins its whole predicate: wherever
/// `CAST(c AS INT) = 1` or a `LIKE` over the Int column sits among
/// infallible conjuncts — in a single-scan WHERE, a join's WHERE or an ON
/// residual — the recorded schedule is the written order and the outcome
/// (the error, when a row reaches it) is the oracle's, at every worker
/// count.
#[test]
fn a_fallible_conjunct_pins_the_predicate_as_written() {
    let db = schedule_db(true);
    let infallible = ["x.c BETWEEN 'a' AND 'd'", "x.d = 1", "x.b > 0.3"];
    for fallible in ["CAST(x.c AS INT) = 1", "x.a LIKE '1%'"] {
        for at in 0..=infallible.len() {
            let mut conjuncts = infallible.to_vec();
            conjuncts.insert(at, fallible);
            let pred = conjuncts.join(" AND ");
            for sql in [
                format!("SELECT COUNT(*) FROM t x WHERE {pred}"),
                format!("SELECT COUNT(*) FROM t x JOIN r y ON x.a = y.a WHERE {pred}"),
                format!("SELECT COUNT(*) FROM t x JOIN r y ON x.a = y.a AND {pred}"),
                format!("SELECT COUNT(*) FROM t x LEFT JOIN r y ON x.a = y.a AND {pred}"),
            ] {
                let q = parse_query(&sql).unwrap();
                for workers in [1, 2, 8] {
                    db.set_parallelism(workers);
                    let (trace, result) = db.execute_traced(&q);
                    assert_eq!(trace.filter_order.positions(), [0, 1, 2, 3], "{sql}");
                    assert!(at > 0 || result.is_err(), "{sql}: {result:?}");
                    assert_engines_agree(&db, &sql, &format!("workers={workers}"));
                }
            }
        }
    }
}
