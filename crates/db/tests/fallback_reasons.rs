//! One differential test per row-interpreter fallback variant — and one
//! per variant the plan-IR refactor *retired*.
//!
//! The router (`flex_db::vexec::route`) must (a) decline each residual
//! unsupported shape with the *specific* [`FallbackReason`] variant for
//! it — never the `Unknown` placeholder — and (b) still produce results
//! byte-identical to the row interpreter, because routing is an
//! optimization, not a semantics change. Shapes the plan IR now executes
//! (multi-table join trees, derived tables and the CTE references that
//! expand into them, RIGHT/FULL/CROSS and non-equi joins, UNION) are
//! asserted *vectorized* with exact trace
//! statistics; their enum variants survive only for the residual shapes
//! documented on each variant (and for telemetry label stability).
//!
//! `TableTooLarge` is the one variant without a test: it requires a
//! table of `u32::MAX` rows (the selection-vector NULL sentinel), which
//! no test box can materialize.

use flex_db::{
    DataType, Database, ExecTrace, FallbackReason, JoinOrder, RouteDecision, Schema, Value,
};
use flex_sql::parse_query;

/// Two small tables with enough shape for joins, grouping and set ops.
fn db() -> Database {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("s", DataType::Str),
        ]),
    )
    .unwrap();
    db.create_table(
        "u",
        Schema::of(&[("a", DataType::Int), ("c", DataType::Int)]),
    )
    .unwrap();
    let t_rows = [
        (1, 10, "x"),
        (2, 20, "y"),
        (2, 25, "x"),
        (3, 30, "z"),
        (5, 50, "y"),
    ]
    .into_iter()
    .map(|(a, b, s)| vec![Value::Int(a), Value::Int(b), Value::str(s)])
    .collect();
    db.insert("t", t_rows).unwrap();
    let u_rows = [(1, 100), (2, 200), (4, 400)]
        .into_iter()
        .map(|(a, c)| vec![Value::Int(a), Value::Int(c)])
        .collect();
    db.insert("u", u_rows).unwrap();
    db
}

/// Assert the routing decision for `sql` is a fallback with exactly
/// `reason`, and that both engines agree byte-for-byte on the result.
fn assert_fallback(sql: &str, reason: FallbackReason) {
    let db = db();
    let q = parse_query(sql).unwrap_or_else(|e| panic!("`{sql}` parses: {e:?}"));
    assert_eq!(
        db.route_decision(&q),
        RouteDecision::Fallback(reason),
        "route decision for `{sql}`"
    );
    // The trace from actually executing agrees with the planning-only
    // decision, and the fallback still answers correctly.
    let (trace, result) = db.execute_traced(&q);
    assert_eq!(
        trace.route,
        RouteDecision::Fallback(reason),
        "trace for `{sql}`"
    );
    let vec_result = result.unwrap_or_else(|e| panic!("`{sql}` executes: {e:?}"));
    let row_result = db
        .execute_row(&q)
        .unwrap_or_else(|e| panic!("`{sql}` executes on row engine: {e:?}"));
    assert_eq!(vec_result, row_result, "engines differ on `{sql}`");
}

/// Assert `sql` routes vectorized, executes with exactly the expected
/// trace statistics, and matches the row interpreter byte-for-byte.
fn assert_vectorized(sql: &str, expect: ExecTrace) {
    let db = db();
    let q = parse_query(sql).unwrap_or_else(|e| panic!("`{sql}` parses: {e:?}"));
    assert_eq!(
        db.route_decision(&q),
        RouteDecision::Vectorized,
        "route decision for `{sql}`"
    );
    let (trace, result) = db.execute_traced(&q);
    let rs = result.unwrap_or_else(|e| panic!("`{sql}` executes: {e:?}"));
    assert_eq!(
        trace,
        ExecTrace {
            rows_emitted: rs.rows.len() as u64,
            ..expect
        },
        "trace stats for `{sql}`"
    );
    let row_result = db
        .execute_row(&q)
        .unwrap_or_else(|e| panic!("`{sql}` executes on row engine: {e:?}"));
    assert_eq!(rs, row_result, "engines differ on `{sql}`");
}

/// A vectorized trace skeleton (route pinned, `rows_emitted` filled in
/// by [`assert_vectorized`]).
fn vec_trace(morsels: u64, rows_scanned: u64, join_order: JoinOrder) -> ExecTrace {
    ExecTrace {
        route: RouteDecision::Vectorized,
        topk: false,
        morsels,
        workers: 1,
        rows_scanned,
        rows_emitted: 0,
        join_order,
    }
}

/// `WITH` is expanded before routing (`flex_sql::inline_ctes`), so a CTE
/// reference routes as the derived table it abbreviates: the outer block
/// scans the 4 materialized rows of `c`.
#[test]
fn cte_routes_vectorized_with_stats() {
    assert_vectorized(
        "WITH c AS (SELECT a, b FROM t WHERE b > 10) SELECT COUNT(*) FROM c",
        vec_trace(1, 4, JoinOrder::default()),
    );
}

/// UNION and UNION ALL vectorize (columnar concatenation + the existing
/// DISTINCT machinery); `SetOperation` remains only for INTERSECT /
/// EXCEPT and statically unanalyzable union shapes.
#[test]
fn union_routes_vectorized_with_stats() {
    // t (5 rows, 1 morsel) + u (3 rows, 1 morsel), no joins anywhere.
    assert_vectorized(
        "SELECT a FROM t UNION SELECT a FROM u",
        vec_trace(2, 8, JoinOrder::default()),
    );
    assert_vectorized(
        "SELECT a FROM t UNION ALL SELECT a FROM u ORDER BY a LIMIT 4",
        vec_trace(2, 8, JoinOrder::default()),
    );
}

#[test]
fn set_operation_falls_back() {
    assert_fallback(
        "SELECT a FROM t INTERSECT SELECT a FROM u",
        FallbackReason::SetOperation,
    );
    assert_fallback(
        "SELECT a FROM t EXCEPT SELECT a FROM u",
        FallbackReason::SetOperation,
    );
}

#[test]
fn table_less_select_falls_back() {
    assert_fallback("SELECT 1", FallbackReason::TableLess);
}

/// RIGHT/FULL joins (matched-bit padding) and CROSS joins (nested-loop
/// morsels) vectorize.
#[test]
fn outer_and_cross_joins_route_vectorized_with_stats() {
    let one_join = JoinOrder {
        joins: 1,
        swapped: 0,
    };
    assert_vectorized(
        "SELECT COUNT(*) FROM t RIGHT JOIN u ON t.a = u.a",
        vec_trace(2, 8, one_join),
    );
    assert_vectorized(
        "SELECT COUNT(*) FROM t FULL JOIN u ON t.a = u.a",
        vec_trace(2, 8, one_join),
    );
    assert_vectorized(
        "SELECT COUNT(*) FROM t CROSS JOIN u",
        vec_trace(2, 8, one_join),
    );
}

/// Join trees up to eight leaves vectorize, with the greedy
/// smallest-estimated-input-first build-side choice recorded in
/// `join_order` (pure scheduling — result bytes never depend on it).
#[test]
fn multi_table_join_routes_vectorized_with_stats() {
    // Join 0 builds on u (right, 3 rows ≥ probe side 5: unswapped);
    // join 1's left input is the 3 surviving pairs, smaller than the
    // 5-row right leaf, so the build swaps onto it (bit 1 set).
    assert_vectorized(
        "SELECT COUNT(*) FROM t JOIN u ON t.a = u.a JOIN t v ON u.a = v.a",
        vec_trace(
            3,
            13,
            JoinOrder {
                joins: 2,
                swapped: 0b10,
            },
        ),
    );
}

/// The residual `MultiTableJoin` shape: more than eight leaves.
#[test]
fn nine_leaf_join_tree_falls_back() {
    let mut sql = String::from("SELECT COUNT(*) FROM t t1");
    for i in 2..=9 {
        sql.push_str(&format!(" JOIN t t{i} ON t{}.a = t{i}.a", i - 1));
    }
    assert_fallback(&sql, FallbackReason::MultiTableJoin);
}

/// Derived tables in FROM vectorize — the subquery executes first and
/// its result columnarizes into the outer block's scan.
#[test]
fn derived_table_routes_vectorized_with_stats() {
    // The outer block scans the 4 materialized subquery rows; the inner
    // query's own execution is traced separately.
    assert_vectorized(
        "SELECT COUNT(*) FROM (SELECT a FROM t WHERE b > 10) d",
        vec_trace(1, 4, JoinOrder::default()),
    );
}

/// The residual `DerivedTable` shape: a derived *join leaf* whose
/// subquery has no statically known output shape (here: a set-operation
/// body), so the tree planner cannot type its scan.
#[test]
fn unanalyzable_derived_join_leaf_falls_back() {
    assert_fallback(
        "SELECT COUNT(*) FROM (SELECT a FROM t UNION SELECT a FROM u) d \
         JOIN u ON d.a = u.a",
        FallbackReason::DerivedTable,
    );
}

/// A `WITH` inside a derived join leaf is no obstacle: it is expanded
/// like any other, leaving a leaf the planner can type (5 rows of `d`
/// against 3 of `u`, built on the smaller right side).
#[test]
fn cte_in_derived_join_leaf_routes_vectorized_with_stats() {
    assert_vectorized(
        "SELECT COUNT(*) FROM (WITH c AS (SELECT a FROM t) SELECT a FROM c) d \
         JOIN u ON d.a = u.a",
        vec_trace(
            2,
            8,
            JoinOrder {
                joins: 1,
                swapped: 0,
            },
        ),
    );
}

/// Non-equi joins vectorize as nested-loop morsels with the shared
/// scalar interpreter evaluating the ON residual per candidate pair.
#[test]
fn non_equi_join_routes_vectorized_with_stats() {
    assert_vectorized(
        "SELECT COUNT(*) FROM t JOIN u ON t.a < u.a",
        vec_trace(
            2,
            8,
            JoinOrder {
                joins: 1,
                swapped: 0,
            },
        ),
    );
}

/// The residual `NonEquiJoin` shape: ON/WHERE compilation fails at plan
/// time (here: an unknown column), and the row engine re-derives the
/// identical error.
#[test]
fn unresolvable_join_constraint_falls_back() {
    let db = db();
    let q = parse_query("SELECT COUNT(*) FROM t JOIN u ON t.nope = u.a").unwrap();
    assert_eq!(
        db.route_decision(&q),
        RouteDecision::Fallback(FallbackReason::NonEquiJoin)
    );
    let (trace, vec_err) = db.execute_traced(&q);
    assert_eq!(
        trace.route,
        RouteDecision::Fallback(FallbackReason::NonEquiJoin)
    );
    let row_err = db.execute_row(&q);
    assert!(vec_err.is_err() && row_err.is_err());
    assert_eq!(
        format!("{:?}", vec_err.unwrap_err()),
        format!("{:?}", row_err.unwrap_err()),
        "both engines must report the same error"
    );
}

/// An unknown table is a routing decline (`UnknownTable`) and an
/// identical *error* on both engines — the fallback must not change
/// what the user sees.
#[test]
fn unknown_table_falls_back_and_errors_identically() {
    let db = db();
    let q = parse_query("SELECT COUNT(*) FROM missing").unwrap();
    assert_eq!(
        db.route_decision(&q),
        RouteDecision::Fallback(FallbackReason::UnknownTable)
    );
    let (trace, vec_err) = db.execute_traced(&q);
    assert_eq!(
        trace.route,
        RouteDecision::Fallback(FallbackReason::UnknownTable)
    );
    let row_err = db.execute_row(&q);
    assert!(vec_err.is_err() && row_err.is_err());
    assert_eq!(
        format!("{:?}", vec_err.unwrap_err()),
        format!("{:?}", row_err.unwrap_err()),
        "both engines must report the same error"
    );
}

/// Control: a plain supported shape routes vectorized — the taxonomy
/// must not misfire on the fast path — and the trace carries real
/// execution statistics.
#[test]
fn supported_shape_routes_vectorized_with_stats() {
    assert_vectorized(
        "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a",
        vec_trace(1, 5, JoinOrder::default()),
    );
}

/// Every variant in `ALL` names a concrete cause the router can return.
#[test]
fn taxonomy_is_complete_and_labeled() {
    assert_eq!(FallbackReason::ALL.len(), 7);
    // Indexes are dense and stable (telemetry uses them as array slots).
    for (i, reason) in FallbackReason::ALL.iter().enumerate() {
        assert_eq!(reason.index(), i);
        assert!(!reason.as_str().is_empty());
    }
    // Labels are unique (Prometheus label cardinality depends on it).
    let mut labels: Vec<&str> = FallbackReason::ALL.iter().map(|r| r.as_str()).collect();
    labels.sort_unstable();
    labels.dedup();
    assert_eq!(labels.len(), FallbackReason::ALL.len());
    assert_eq!(RouteDecision::Vectorized.as_str(), "vectorized");
    assert_eq!(
        RouteDecision::Fallback(FallbackReason::TableLess).fallback_reason(),
        Some(FallbackReason::TableLess)
    );
    assert_eq!(RouteDecision::Vectorized.fallback_reason(), None);
}
