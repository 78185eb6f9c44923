//! The executor's trace, and the shapes that used to leave the executor.
//!
//! Two kinds of case. `*_with_stats` pin the exact [`ExecTrace`] of a
//! query — base-table rows scanned, morsels, join order — including the
//! statistics of nested executions (derived tables, `WITH`, set-op arms,
//! expression subqueries), which fold into their parent's. The rest are
//! one case per shape the plan executor once handed to the row
//! interpreter (INTERSECT/EXCEPT, table-less SELECT, trees past eight
//! leaves, set-op-bodied derived join leaves, and every query that fails
//! to bind): each now runs on the executor and must return the oracle's
//! bytes — or the oracle's error text.

use flex_db::{DataType, Database, ExecTrace, JoinOrder, ResultSet, Schema, Value};
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

/// Run `sql` on the executor (at 1 and 4 workers) and on the oracle:
/// equal bytes, or equal error text. Returns the sequential trace and
/// the shared outcome.
fn assert_matches_oracle(sql: &str) -> (ExecTrace, Result<ResultSet, String>) {
    let db = db();
    let q = parse_query(sql).unwrap_or_else(|e| panic!("`{sql}` parses: {e:?}"));
    let show = |r: flex_db::Result<ResultSet>| r.map_err(|e| e.to_string());
    let oracle = show(db.execute_row(&q));
    let (trace, result) = db.execute_traced(&q);
    assert!(trace.route.is_vectorized());
    assert_eq!(show(result), oracle, "executor vs oracle on `{sql}`");
    db.set_parallelism(4);
    assert_eq!(show(db.execute(&q)), oracle, "4 workers on `{sql}`");
    (trace, oracle)
}

/// [`assert_matches_oracle`] for a query that must succeed, with exactly
/// the expected trace statistics.
fn assert_trace(sql: &str, expect: ExecTrace) {
    let (trace, result) = assert_matches_oracle(sql);
    let emitted = result.expect("query executes").rows.len();
    assert_eq!(
        trace,
        ExecTrace {
            rows_emitted: emitted as u64,
            ..expect
        },
        "trace stats for `{sql}`"
    );
}

/// A sequential trace skeleton (`rows_emitted` filled in by
/// [`assert_trace`]).
fn trace(morsels: u64, rows_scanned: u64, join_order: JoinOrder) -> ExecTrace {
    ExecTrace {
        morsels,
        rows_scanned,
        join_order,
        ..ExecTrace::default()
    }
}

/// [`assert_matches_oracle`] for a query that must fail to bind, with
/// `needle` in the (shared) error text.
fn assert_same_error(sql: &str, needle: &str) {
    let err = assert_matches_oracle(sql).1.expect_err("query must fail");
    assert!(err.contains(needle), "`{sql}`: {err}");
}

const ONE_JOIN: JoinOrder = JoinOrder {
    joins: 1,
    swapped: 0,
};

// ---- trace statistics ------------------------------------------------------

/// Group mode compiles every node of an expression once, so an
/// expression subquery of an aggregated block — in HAVING, in the SELECT
/// list, in a sort key — executes once: `n` right-nested `EXISTS (…u)`
/// ahead of an aggregate scan `|t| + n·|u|` rows. (The compiler used to
/// try each level in scalar mode first and ran every subquery below it
/// again: `|t| + n(n+3)/2·|u|`.)
#[test]
fn expression_subqueries_of_an_aggregated_block_run_once() {
    for n in [1, 2, 4, 32] {
        let chain = format!(
            "{}COUNT(*) > 0{}",
            "EXISTS (SELECT 1 FROM u) AND (".repeat(n),
            ")".repeat(n)
        );
        for (sql, expected) in [
            (
                format!("SELECT COUNT(*) FROM t HAVING {chain}"),
                Value::Int(5),
            ),
            (format!("SELECT {chain} FROM t"), Value::Bool(true)),
            (
                format!("SELECT COUNT(*) FROM t ORDER BY {chain}"),
                Value::Int(5),
            ),
        ] {
            let (_, result) = assert_matches_oracle(&sql);
            assert_eq!(result.unwrap().rows, vec![vec![expected]], "{sql}");
            let db = db();
            for workers in [1, 8] {
                db.set_parallelism(workers);
                let (trace, _) = db.execute_traced(&parse_query(&sql).unwrap());
                assert_eq!(
                    trace.rows_scanned,
                    5 + 3 * n as u64,
                    "n={n} workers={workers}: {sql}"
                );
            }
        }
    }
}

#[test]
fn single_table_block_with_stats() {
    assert_trace(
        "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a",
        trace(1, 5, JoinOrder::default()),
    );
}

/// `rows_scanned` is *base-table* rows: a derived table reports what its
/// subquery scanned (all 5 rows of `t`), not the 4 rows it produced —
/// and a CTE reference, which is expanded into one, reports the same as
/// the query written without it.
#[test]
fn derived_table_and_cte_with_stats() {
    let scanned_t = trace(1, 5, JoinOrder::default());
    assert_trace("SELECT COUNT(*) FROM t WHERE b > 10", scanned_t);
    assert_trace(
        "SELECT COUNT(*) FROM (SELECT a FROM t WHERE b > 10) d",
        scanned_t,
    );
    assert_trace(
        "WITH c AS (SELECT a, b FROM t WHERE b > 10) SELECT COUNT(*) FROM c",
        scanned_t,
    );
}

/// The issue's reproduction, at scale: a selective CTE over 1000 rows
/// reports the 1000 rows it scanned, not the 2 it kept.
#[test]
fn cte_over_a_large_table_reports_base_rows_scanned() {
    let mut db = Database::new();
    db.create_table("t", Schema::of(&[("a", DataType::Int)]))
        .unwrap();
    db.insert("t", (0..1000).map(|i| vec![Value::Int(i)]).collect())
        .unwrap();
    for sql in [
        "WITH c AS (SELECT * FROM t WHERE a > 997) SELECT COUNT(*) FROM c",
        "SELECT COUNT(*) FROM t WHERE a > 997",
    ] {
        let (trace, rs) = db.execute_traced(&parse_query(sql).unwrap());
        assert_eq!(rs.unwrap().scalar(), Some(&Value::Int(2)), "{sql}");
        assert_eq!(trace.rows_scanned, 1000, "{sql}");
    }
}

/// Set-op arms are nested executions: t (5 rows, 1 morsel) + u (3 rows,
/// 1 morsel), no joins anywhere. The set operation's own `ORDER BY …
/// LIMIT k` is a bounded top-K and says so.
#[test]
fn set_operations_with_stats() {
    for (sql, topk) in [
        ("SELECT a FROM t UNION SELECT a FROM u", false),
        (
            "SELECT a FROM t UNION ALL SELECT a FROM u ORDER BY a LIMIT 4",
            true,
        ),
        ("SELECT a FROM t INTERSECT SELECT a FROM u", false),
        (
            "SELECT a FROM t EXCEPT SELECT a FROM u ORDER BY 1 DESC LIMIT 1",
            true,
        ),
    ] {
        assert_trace(
            sql,
            ExecTrace {
                topk,
                ..trace(2, 8, JoinOrder::default())
            },
        );
    }
}

/// An arm's joins are recorded in the parent's join order: the first
/// arm's one join (unswapped), then the second arm's (swapped: its
/// 3-row left input is smaller than its 5-row right).
#[test]
fn set_operation_arms_concatenate_join_orders() {
    assert_trace(
        "SELECT t.a FROM t JOIN u ON t.a = u.a UNION SELECT u.a FROM u JOIN t ON u.a = t.a",
        trace(
            4,
            16,
            JoinOrder {
                joins: 2,
                swapped: 0b10,
            },
        ),
    );
}

/// Expression subqueries are nested executions too: the 3 rows of `u`
/// they scan are part of what the query scanned.
#[test]
fn expression_subqueries_with_stats() {
    for sql in [
        "SELECT COUNT(*) FROM t WHERE a IN (SELECT a FROM u)",
        "SELECT COUNT(*) FROM t WHERE a NOT IN (SELECT a FROM u WHERE c > 100)",
        "SELECT COUNT(*) FROM t WHERE EXISTS (SELECT 1 FROM u WHERE c > 300)",
    ] {
        assert_trace(sql, trace(2, 8, JoinOrder::default()));
    }
}

/// RIGHT/FULL joins (matched-bit padding), CROSS and non-equi joins
/// (nested-loop morsels).
#[test]
fn outer_cross_and_non_equi_joins_with_stats() {
    for sql in [
        "SELECT COUNT(*) FROM t RIGHT JOIN u ON t.a = u.a",
        "SELECT COUNT(*) FROM t FULL JOIN u ON t.a = u.a",
        "SELECT COUNT(*) FROM t CROSS JOIN u",
        "SELECT COUNT(*) FROM t JOIN u ON t.a < u.a",
    ] {
        assert_trace(sql, trace(2, 8, ONE_JOIN));
    }
}

/// The greedy smallest-estimated-input-first build-side choice is
/// recorded in `join_order` (pure scheduling — result bytes never
/// depend on it). Join 0 builds on u (right, 3 rows ≥ probe side 5:
/// unswapped); join 1's left input is the 3 surviving pairs, smaller
/// than the 5-row right leaf, so the build swaps onto it (bit 1 set).
#[test]
fn multi_table_join_with_stats() {
    assert_trace(
        "SELECT COUNT(*) FROM t JOIN u ON t.a = u.a JOIN t v ON u.a = v.a",
        trace(
            3,
            13,
            JoinOrder {
                joins: 2,
                swapped: 0b10,
            },
        ),
    );
}

/// A derived join leaf executes when the planner reaches it; what it
/// scanned (5 rows of `t`, through two levels of expansion) and the
/// other leaf (3 rows of `u`) add up.
#[test]
fn derived_join_leaves_with_stats() {
    assert_trace(
        "SELECT COUNT(*) FROM (WITH c AS (SELECT a FROM t) SELECT a FROM c) d \
         JOIN u ON d.a = u.a",
        trace(2, 8, ONE_JOIN),
    );
    // A set-operation body: 5 + 3 rows inside the leaf, 3 beside it.
    assert_trace(
        "SELECT COUNT(*) FROM (SELECT a FROM t UNION SELECT a FROM u) d \
         JOIN u ON d.a = u.a",
        trace(3, 11, ONE_JOIN),
    );
}

/// `SELECT COUNT(*) FROM x t1 JOIN x t2 ON t1.a = t2.a JOIN …` over
/// `leaves` aliases of `table`.
fn self_join_chain(table: &str, leaves: usize) -> String {
    let mut sql = format!("SELECT COUNT(*) FROM {table} t1");
    for i in 2..=leaves {
        sql.push_str(&format!(" JOIN {table} t{i} ON t{}.a = t{i}.a", i - 1));
    }
    sql
}

/// Trees are as wide as the query writes them. `JoinOrder` counts every
/// join but records build sides for the first eight only: in a self-join
/// chain every join after the first has a left input at least as large
/// as its 5-row right leaf, so no bit is ever set — and none may be set
/// by a ninth-or-later join wrapping around the `u8`.
#[test]
fn nine_and_twelve_leaf_trees_with_stats() {
    for leaves in [9u64, 12] {
        assert_trace(
            &self_join_chain("t", leaves as usize),
            trace(
                leaves,
                5 * leaves,
                JoinOrder {
                    joins: leaves as u8 - 1,
                    swapped: 0,
                },
            ),
        );
    }
}

/// The same saturation rule when late joins *do* swap: eleven joins
/// whose left input (`u` filtered to one row) is always the smaller
/// side. Bits 0–7 are set, joins 8–10 are counted and not recorded —
/// at 1 worker and at 4.
#[test]
fn swap_bits_stop_at_the_eighth_join() {
    let mut sql = String::from("SELECT COUNT(*) FROM (SELECT a FROM u WHERE a = 1) t1");
    for i in 2..=12 {
        sql.push_str(&format!(" JOIN t t{i} ON t{}.a = t{i}.a", i - 1));
    }
    let db = db();
    let q = parse_query(&sql).unwrap();
    for workers in [1, 4] {
        db.set_parallelism(workers);
        let (trace, rs) = db.execute_traced(&q);
        assert_eq!(rs.unwrap(), db.execute_row(&q).unwrap());
        assert_eq!(
            trace.join_order,
            JoinOrder {
                joins: 11,
                swapped: 0xFF,
            },
            "{workers} workers"
        );
    }
}

// ---- shapes that used to leave the executor --------------------------------

#[test]
fn intersect_and_except_match_the_oracle() {
    for sql in [
        "SELECT a FROM t INTERSECT SELECT a FROM u",
        "SELECT a FROM t EXCEPT SELECT a FROM u",
        "SELECT a FROM t INTERSECT ALL SELECT a FROM u ORDER BY a DESC",
        "SELECT a, b FROM t EXCEPT SELECT a, c FROM u ORDER BY 2 DESC, a LIMIT 3 OFFSET 1",
        "SELECT a FROM t UNION ALL SELECT a FROM u INTERSECT SELECT a FROM t ORDER BY 1 LIMIT 2",
        "SELECT a FROM t EXCEPT (SELECT a FROM u UNION SELECT 5) ORDER BY a",
    ] {
        let (_, result) = assert_matches_oracle(sql);
        result.expect("query executes");
    }
}

#[test]
fn table_less_selects_match_the_oracle() {
    for sql in [
        "SELECT 1",
        "SELECT 1 + 2 AS three, 'x' AS s",
        "SELECT 1 WHERE 1 = 0",
        "SELECT COUNT(*)",
        "SELECT COUNT(*), SUM(2) WHERE 1 = 0",
        "SELECT 1 UNION SELECT 2 UNION ALL SELECT 1 ORDER BY 1 DESC",
        "SELECT a FROM t WHERE a IN (SELECT 2)",
    ] {
        let (trace, _) = assert_matches_oracle(sql);
        assert!(trace.rows_scanned <= 5, "`{sql}` scans no phantom rows");
    }
}

#[test]
fn unbound_names_report_the_oracles_error() {
    assert_same_error("SELECT COUNT(*) FROM missing", "missing");
    assert_same_error("SELECT COUNT(*) FROM t JOIN nope ON t.a = nope.a", "nope");
    assert_same_error("SELECT COUNT(*) FROM t JOIN u ON t.zz = u.a", "zz");
    assert_same_error("SELECT COUNT(*) FROM t JOIN u USING (zz)", "zz");
    assert_same_error(
        "SELECT COUNT(*) FROM t JOIN u ON t.a = u.a WHERE zz > 1",
        "zz",
    );
    assert_same_error("SELECT a FROM t JOIN u ON t.a = u.a", "a");
    assert_same_error(
        "SELECT COUNT(*) FROM t JOIN (SELECT a FROM nope) d ON t.a = d.a",
        "nope",
    );
}

#[test]
fn set_operation_shape_errors_report_the_oracles_error() {
    assert_same_error("SELECT a, b FROM t UNION SELECT a FROM u", "arity");
    assert_same_error(
        "SELECT a FROM t INTERSECT SELECT a, c FROM u EXCEPT SELECT a FROM nope",
        "arity",
    );
    assert_same_error(
        "SELECT a FROM t UNION SELECT a FROM u ORDER BY a + 1",
        "ORDER BY",
    );
    assert_same_error(
        "SELECT a FROM t UNION SELECT a FROM u ORDER BY 3",
        "ORDER BY",
    );
}

#[test]
fn subquery_shape_errors_report_the_oracles_error() {
    assert_same_error(
        "SELECT COUNT(*) FROM t WHERE a IN (SELECT a, c FROM u)",
        "one column",
    );
    assert_same_error(
        "SELECT COUNT(*) FROM t WHERE EXISTS (SELECT 1 FROM nope)",
        "nope",
    );
}

// ---- deep trees on a small stack -------------------------------------------

/// Run `f` on a thread with a 2 MiB stack — the default for spawned
/// threads, and what a service worker gets.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .expect("ran within a 2 MiB stack");
}

/// The §2 corpus tops out at 95 joins per query: a 96-leaf left-deep
/// tree (over `u`, whose key is unique, so the result stays 3 rows)
/// plans, executes and drops within a worker's stack.
#[test]
fn ninety_six_leaf_join_runs_on_a_worker_stack() {
    on_small_stack(|| {
        let db = db();
        let q = parse_query(&self_join_chain("u", 96)).unwrap();
        let (trace, rs) = db.execute_traced(&q);
        assert_eq!(rs.unwrap(), db.execute_row(&q).unwrap());
        assert_eq!((trace.join_order.joins, trace.rows_scanned), (95, 96 * 3));
    });
}

/// And so does a 96-arm chain mixing all three operators.
#[test]
fn ninety_six_arm_set_operation_runs_on_a_worker_stack() {
    on_small_stack(|| {
        let mut sql = String::from("SELECT a FROM t");
        for i in 1..96 {
            let (op, table) = [
                ("UNION ALL", "u"),
                ("EXCEPT", "u"),
                ("UNION", "t"),
                ("INTERSECT", "t"),
            ][i % 4];
            sql.push_str(&format!(" {op} SELECT a FROM {table} WHERE a <> {}", i % 7));
        }
        sql.push_str(" ORDER BY 1");
        let db = db();
        let q = parse_query(&sql).unwrap();
        let (trace, rs) = db.execute_traced(&q);
        assert_eq!(rs.unwrap(), db.execute_row(&q).unwrap());
        assert_eq!(trace.morsels, 96);
    });
}
