//! The execution entry point, its trace, and the code the plan executor
//! shares with the test oracle.
//!
//! [`execute`] / [`execute_traced`] are the only way a query runs in
//! production: they expand `WITH` ([`flex_sql::inline_ctes`] — the same
//! rewrite the sensitivity analysis runs before lowering, so a relation
//! name in the tree the executor sees is a base table, a CTE nobody
//! references is never evaluated, and one referenced twice is evaluated
//! per reference) and hand the tree to the plan executor
//! ([`crate::vexec`] over the IR of [`crate::plan`]). There is no second
//! path and no decision to make: every shape the parser accepts executes
//! there, and every error is the executor's own.
//!
//! The rest of this module is what the executor and the row-at-a-time
//! reference implementation ([`crate::oracle`]) both call, and which the
//! differential suite therefore does **not** cross-check: the expression
//! compiler and the ORDER BY resolution rule (`plan_sort_keys_with`,
//! `set_op_sort_keys`). There is one compiler, `Exec::compile`: a single
//! pass, one arm per [`flex_sql::Expr`] variant, run by scalar mode and
//! group mode (`GroupCompiler`) alike — they differ in what an aggregate
//! call (a name of [`flex_sql::AGGREGATE_FUNCTIONS`]) is. Grouping,
//! projection and the sort / DISTINCT / LIMIT tail are not here: each
//! exists once in the executor and once, independently, in the oracle.
//! Expression subqueries (`IN (SELECT …)`, `EXISTS`) are the one place the
//! shared compiler executes anything; it does so through the
//! `QueryRunner` its `Exec` was built with, so the executor runs them on
//! itself and the oracle on itself.

use crate::aggregate::{AggFunc, AggSpec};
use crate::bind::{resolve_column, sort_key_by_output, ColMeta};
use crate::database::Database;
use crate::error::{DbError, Result};
use crate::expr::{CastTarget, CompiledExpr, ScalarFunc};
use crate::morsel::Parallelism;
use crate::plan::{FilterOrder, JoinOrder, ResultSet};
use crate::value::{Value, ValueKey};
use crate::vexec::{self, VexecStats};
use flex_sql::{ColumnRef, Expr, FunctionArg, Literal, OrderByItem, Query, Select, SelectItem};
use std::collections::HashSet;

/// Execute a parsed query against a database.
pub fn execute(db: &Database, q: &Query) -> Result<ResultSet> {
    execute_traced(db, q).1
}

/// Which engine ran a query. A vestige: there is one engine, so there is
/// one variant — the type survives only because the frozen
/// `pipeline_bench/trace.rs` reads `ExecTrace::route.is_vectorized()`
/// (ROADMAP lists it among the things a `benchmark` PR must free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteDecision {
    /// The plan executor ran the query.
    Vectorized,
}

impl RouteDecision {
    /// Always `true`.
    pub fn is_vectorized(self) -> bool {
        true
    }
}

/// What the executor observed about how one query ran — the per-query
/// execution span the service folds into its trace. Never affects
/// results. Statistics of nested executions (derived tables, set-op
/// arms, expression subqueries) are folded into their parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecTrace {
    /// Vestigial (see [`RouteDecision`]): always `Vectorized`.
    pub route: RouteDecision,
    /// Whether an `ORDER BY … LIMIT k` tail — a SELECT block's (nested
    /// blocks included) or a set operation's — was served from a bounded
    /// top-K heap instead of a full sort.
    pub topk: bool,
    /// Scan morsels the base-table inputs split into (every leaf of a
    /// join, every arm of a set operation).
    pub morsels: u64,
    /// Worker threads the execution was entitled to use (1 = sequential).
    pub workers: u64,
    /// Base-table rows scanned.
    pub rows_scanned: u64,
    /// Rows in the result set (0 when execution erred).
    pub rows_emitted: u64,
    /// Join order the tree executor chose — pure scheduling that never
    /// affects result bytes (empty for joinless queries).
    pub join_order: JoinOrder,
    /// Conjunct schedules the planner chose for the WHERE predicates
    /// and ON residuals — pure scheduling too (empty when no predicate
    /// has two conjuncts).
    pub filter_order: FilterOrder,
}

impl Default for ExecTrace {
    /// A sequential trace with every statistic at zero — the base for
    /// struct-update syntax in tests.
    fn default() -> Self {
        ExecTrace {
            route: RouteDecision::Vectorized,
            topk: false,
            morsels: 0,
            workers: 1,
            rows_scanned: 0,
            rows_emitted: 0,
            join_order: JoinOrder::default(),
            filter_order: FilterOrder::default(),
        }
    }
}

/// Like [`execute`], but also report how the query ran (top-K pushdown,
/// morsel/worker/row statistics, join and conjunct order). This is the executor's own
/// record, not a re-plan — callers that want telemetry (e.g. the query
/// service) read it at zero extra cost. A `WITH` too large to expand is
/// the expansion error with an all-zero trace.
pub fn execute_traced(db: &Database, q: &Query) -> (ExecTrace, Result<ResultSet>) {
    let (stats, result) = match flex_sql::inline_ctes(q) {
        Ok(q) => vexec::execute_query(db, &q, db.exec_tuning()),
        Err(e) => (VexecStats::default(), Err(e.into())),
    };
    let trace = ExecTrace {
        route: RouteDecision::Vectorized,
        topk: stats.topk,
        morsels: stats.morsels,
        workers: stats.workers,
        rows_scanned: stats.rows_scanned,
        rows_emitted: result.as_ref().map_or(0, |rs| rs.rows.len() as u64),
        join_order: stats.join_order,
        filter_order: stats.filter_order,
    };
    (trace, result)
}

/// Runs one `WITH`-free query to completion under the given tuning and
/// reports its statistics: [`vexec::execute_query`] in production, the
/// oracle's own interpreter inside [`crate::oracle`].
pub(crate) type QueryRunner = fn(&Database, &Query, Parallelism) -> (VexecStats, Result<ResultSet>);

/// The compilation context of one query execution: the database, the
/// runner nested queries go through, the execution's tuning and its
/// statistics.
pub(crate) struct Exec<'a> {
    pub(crate) db: &'a Database,
    run: QueryRunner,
    /// [`Database::exec_tuning`] as read when the outermost execution
    /// started; nested executions inherit it, so a concurrent retune
    /// cannot split one query across two configurations.
    pub(crate) par: Parallelism,
    /// Statistics so far, nested executions included.
    pub(crate) stats: VexecStats,
}

impl<'a> Exec<'a> {
    pub(crate) fn new(db: &'a Database, run: QueryRunner, par: Parallelism) -> Exec<'a> {
        Exec {
            db,
            run,
            par,
            stats: VexecStats::default(),
        }
    }

    /// Run a nested query (a derived table, a set-op arm, an expression
    /// subquery) on the engine this context belongs to and under its
    /// tuning, folding its statistics into this execution's.
    pub(crate) fn subquery(&mut self, q: &Query) -> Result<ResultSet> {
        let (stats, result) = (self.run)(self.db, q, self.par);
        self.stats.absorb(stats);
        result
    }

    /// Compile GROUP BY expressions in scalar mode, resolving positional
    /// references (`GROUP BY 1`) against the projection list.
    pub(crate) fn compile_group_exprs(
        &mut self,
        s: &Select,
        cols: &[ColMeta],
    ) -> Result<Vec<CompiledExpr>> {
        let mut group_exprs = Vec::with_capacity(s.group_by.len());
        for g in &s.group_by {
            if let Expr::Literal(Literal::Integer(i)) = g {
                let idx = *i as usize;
                if idx >= 1 && idx <= s.projection.len() {
                    if let SelectItem::Expr { expr, .. } = &s.projection[idx - 1] {
                        group_exprs.push(self.compile_scalar(expr, cols)?);
                        continue;
                    }
                }
            }
            group_exprs.push(self.compile_scalar(g, cols)?);
        }
        Ok(group_exprs)
    }

    // ---- expression compilation -----------------------------------------

    /// Compile an expression in scalar (non-aggregate) mode against a scope.
    pub(crate) fn compile_scalar(&mut self, e: &Expr, cols: &[ColMeta]) -> Result<CompiledExpr> {
        self.compile(e, cols, &mut Aggs::Refused)
    }

    /// The one expression compiler: every [`Expr`] variant has its arm
    /// here and nowhere else in the engine, and every node is compiled —
    /// an `EXISTS` / `IN (SELECT …)` executed — exactly once. The mode
    /// (`aggs`) changes what an aggregate call is, nothing else.
    fn compile(&mut self, e: &Expr, cols: &[ColMeta], aggs: &mut Aggs<'_>) -> Result<CompiledExpr> {
        // A sub-expression, compiled in this expression's mode.
        macro_rules! sub {
            ($e:expr) => {
                self.compile($e, cols, aggs).map(Box::new)
            };
        }
        Ok(match e {
            Expr::Column(c) => match resolve_column(cols, c) {
                Ok(i) => CompiledExpr::Column(i),
                // Group mode has always reported a name that binds to
                // nothing as one that is not grouped.
                Err(_) if matches!(aggs, Aggs::Slots(_)) => return Err(ungrouped_column(c)),
                Err(unbound) => return Err(unbound),
            },
            Expr::Literal(l) => CompiledExpr::Literal(literal_value(l)),
            Expr::BinaryOp { left, op, right } => CompiledExpr::Binary {
                op: *op,
                left: sub!(left)?,
                right: sub!(right)?,
            },
            Expr::UnaryOp { op, expr } => CompiledExpr::Unary {
                op: *op,
                expr: sub!(expr)?,
            },
            Expr::Function {
                name,
                distinct,
                args,
            } => {
                let wildcard = matches!(args.first(), Some(FunctionArg::Wildcard));
                if let Some(func) = AggFunc::parse(name, *distinct, wildcard) {
                    return self.compile_aggregate(func, name, args, cols, aggs);
                }
                let func = ScalarFunc::parse(name)
                    .ok_or_else(|| DbError::Unsupported(format!("function `{name}`")))?;
                let args = args.iter().map(|a| match a {
                    FunctionArg::Wildcard => Err(DbError::InvalidFunction(format!(
                        "`*` argument is only valid for count, not `{name}`"
                    ))),
                    FunctionArg::Expr(e) => self.compile(e, cols, aggs),
                });
                CompiledExpr::ScalarFn {
                    func,
                    args: args.collect::<Result<_>>()?,
                }
            }
            Expr::Case {
                operand,
                branches,
                else_result,
            } => CompiledExpr::Case {
                operand: operand.as_deref().map(|e| sub!(e)).transpose()?,
                branches: (branches.iter())
                    .map(|(c, r)| Ok((self.compile(c, cols, aggs)?, self.compile(r, cols, aggs)?)))
                    .collect::<Result<_>>()?,
                else_result: else_result.as_deref().map(|e| sub!(e)).transpose()?,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => CompiledExpr::InList {
                expr: sub!(expr)?,
                list: (list.iter().map(|e| self.compile(e, cols, aggs))).collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => CompiledExpr::Between {
                expr: sub!(expr)?,
                low: sub!(low)?,
                high: sub!(high)?,
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => CompiledExpr::Like {
                expr: sub!(expr)?,
                pattern: sub!(pattern)?,
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => CompiledExpr::IsNull {
                expr: sub!(expr)?,
                negated: *negated,
            },
            Expr::Cast { expr, data_type } => CompiledExpr::Cast {
                expr: sub!(expr)?,
                target: CastTarget::parse(data_type)?,
            },
            // Uncorrelated subqueries are evaluated once at compile time.
            Expr::Exists(q) => {
                let rs = self.subquery(q)?;
                CompiledExpr::Literal(Value::Bool(!rs.rows.is_empty()))
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let expr = sub!(expr)?;
                let rs = self.subquery(query)?;
                if rs.columns.len() != 1 {
                    return Err(DbError::Unsupported(
                        "IN subquery must return exactly one column".into(),
                    ));
                }
                let mut set = HashSet::with_capacity(rs.rows.len());
                let mut has_null = false;
                for row in &rs.rows {
                    if row[0].is_null() {
                        has_null = true;
                    } else {
                        set.insert(ValueKey::from(&row[0]));
                    }
                }
                CompiledExpr::InSet {
                    expr,
                    set,
                    has_null,
                    negated: *negated,
                }
            }
        })
    }

    /// An aggregate call, where `aggs` lets one stand: the call takes a
    /// slot (an equal call's, if there is one) and reads as column
    /// `cols.len() + slot` of the scope extended by the slots.
    fn compile_aggregate(
        &mut self,
        func: AggFunc,
        name: &str,
        args: &[FunctionArg],
        cols: &[ColMeta],
        aggs: &mut Aggs<'_>,
    ) -> Result<CompiledExpr> {
        let slots = match aggs {
            Aggs::Slots(slots) => slots,
            Aggs::Nested => {
                return Err(DbError::InvalidAggregate(
                    "nested aggregate functions".into(),
                ))
            }
            Aggs::Refused => {
                return Err(DbError::InvalidAggregate(format!(
                    "aggregate function `{name}` is not allowed here"
                )))
            }
        };
        let arg = match (func, args.first()) {
            (AggFunc::CountStar, _) => None,
            (_, Some(FunctionArg::Expr(arg))) => {
                Some(self.compile(arg, cols, &mut Aggs::Nested)?)
            }
            _ => {
                return Err(DbError::InvalidAggregate(format!(
                    "`{name}` requires an argument"
                )))
            }
        };
        let spec = AggSpec { func, arg };
        let slot = slots.iter().position(|s| *s == spec).unwrap_or_else(|| {
            slots.push(spec);
            slots.len() - 1
        });
        Ok(CompiledExpr::Column(cols.len() + slot))
    }
}

/// What an aggregate call is, where the expression being compiled stands.
enum Aggs<'a> {
    /// Scalar mode (WHERE, ON, GROUP BY, a plain block's tail): an error.
    Refused,
    /// Inside an aggregate's argument: an error of its own.
    Nested,
    /// Group mode: a slot of the block's aggregate list.
    Slots(&'a mut Vec<AggSpec>),
}

fn ungrouped_column(c: &ColumnRef) -> DbError {
    DbError::InvalidAggregate(format!(
        "column `{c}` must appear in GROUP BY or inside an aggregate"
    ))
}

/// How one ORDER BY key is obtained.
pub(crate) enum SortKey {
    /// Value of an output column.
    Output(usize),
    /// An expression evaluated on the pre-projection source row.
    Source(CompiledExpr),
}

/// Resolve every ORDER BY item to a [`SortKey`]: output-position/name
/// matches first ([`sort_key_by_output`] — ordinals and bare names
/// naming an output column, aliases included), then `compile_source` for
/// everything else. This is the **single** resolution rule shared by the
/// scalar and grouped projections, the set-operation sort, and the
/// executor's columnar tail planner — one helper so the executor and
/// the oracle cannot drift on alias/ordinal resolution.
pub(crate) fn plan_sort_keys_with(
    order_by: &[OrderByItem],
    out_cols: &[ColMeta],
    compile_source: &mut dyn FnMut(&Expr) -> Result<CompiledExpr>,
) -> Result<Vec<SortKey>> {
    let mut plan = Vec::with_capacity(order_by.len());
    for item in order_by {
        let key = match sort_key_by_output(&item.expr, out_cols)? {
            Some(pos) => SortKey::Output(pos),
            None => SortKey::Source(compile_source(&item.expr)?),
        };
        plan.push(key);
    }
    Ok(plan)
}

/// Resolve the ORDER BY of a set operation to `(output position,
/// descending)` pairs. A set operation has no source scope, so every key
/// must name an output column of its first arm.
pub(crate) fn set_op_sort_keys(
    order_by: &[OrderByItem],
    out_cols: &[ColMeta],
) -> Result<Vec<(usize, bool)>> {
    let plan = plan_sort_keys_with(order_by, out_cols, &mut |_| {
        Err(DbError::Unsupported(
            "ORDER BY on a set operation must reference output columns".into(),
        ))
    })?;
    Ok(plan
        .into_iter()
        .zip(order_by)
        .map(|(key, item)| match key {
            SortKey::Output(pos) => (pos, item.descending),
            SortKey::Source(_) => unreachable!("source compiler always errors"),
        })
        .collect())
}

/// The arity rule of a set operation: both operands have `l == r`
/// columns.
pub(crate) fn check_set_op_arity(l: usize, r: usize) -> Result<()> {
    if l == r {
        return Ok(());
    }
    Err(DbError::Unsupported(format!(
        "set operation arity mismatch: {l} vs {r} columns"
    )))
}

/// The smallest `offset + limit` prefix the ORDER BY tail must produce,
/// or `None` when `LIMIT` is absent (everything must be sorted).
pub(crate) fn tail_bound(limit: Option<u64>, offset: Option<u64>) -> Option<usize> {
    limit.map(|l| (l as usize).saturating_add(offset.unwrap_or(0) as usize))
}

/// The `k` items that sort first under `cmp`, in sorted order, selected
/// with a bounded binary max-heap — `O(n log k)` and never more than `k`
/// items of state, instead of sorting all `n`.
///
/// `cmp` must be a **total order with no ties between distinct items**
/// (callers append an input-position tie-break): under such an order the
/// k smallest items, sorted, are exactly the first k of a stable full
/// sort, which is what makes the top-K pushdown byte-identical to
/// sort-then-truncate.
pub(crate) fn top_k_sorted<T: Copy>(
    items: impl IntoIterator<Item = T>,
    k: usize,
    cmp: &impl Fn(&T, &T) -> std::cmp::Ordering,
) -> Vec<T> {
    use std::cmp::Ordering::{Greater, Less};
    let mut heap: Vec<T> = Vec::with_capacity(k.min(1024));
    if k == 0 {
        return heap;
    }
    for item in items {
        if heap.len() < k {
            // Insert and sift up (max-heap: parent never less than child).
            heap.push(item);
            let mut i = heap.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if cmp(&heap[i], &heap[parent]) == Greater {
                    heap.swap(i, parent);
                    i = parent;
                } else {
                    break;
                }
            }
        } else if cmp(&item, &heap[0]) == Less {
            // Evict the current k-th (the root) and sift down.
            heap[0] = item;
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut largest = i;
                if l < heap.len() && cmp(&heap[l], &heap[largest]) == Greater {
                    largest = l;
                }
                if r < heap.len() && cmp(&heap[r], &heap[largest]) == Greater {
                    largest = r;
                }
                if largest == i {
                    break;
                }
                heap.swap(i, largest);
                i = largest;
            }
        }
    }
    heap.sort_unstable_by(cmp);
    heap
}

fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Null => Value::Null,
        Literal::Boolean(b) => Value::Bool(*b),
        Literal::Integer(i) => Value::Int(*i),
        Literal::Float(f) => Value::Float(*f),
        Literal::String(s) => Value::Str(s.clone()),
    }
}

/// Compiles expressions in "group mode": aggregate calls become references
/// to computed aggregate slots, and any other column use must match a
/// GROUP BY expression.
///
/// Post-group rows are laid out as `[key values..., aggregate values...]`.
pub(crate) struct GroupCompiler<'a> {
    pub(crate) group_exprs: &'a [CompiledExpr],
    pub(crate) aggs: Vec<AggSpec>,
}

impl GroupCompiler<'_> {
    /// One pass of the compiler over the scope extended by the aggregate
    /// slots, then one rewrite of the *compiled* tree onto the groups layout.
    pub(crate) fn compile(
        &mut self,
        exec: &mut Exec<'_>,
        e: &Expr,
        input_cols: &[ColMeta],
    ) -> Result<CompiledExpr> {
        let mut compiled = exec.compile(e, input_cols, &mut Aggs::Slots(&mut self.aggs))?;
        let mut ungrouped = None;
        self.onto_groups(&mut compiled, input_cols.len(), &mut ungrouped);
        match ungrouped {
            None => Ok(compiled),
            Some(i) => Err(ungrouped_column(
                spelled(e, input_cols, i).expect("a compiled column is one `e` spells"),
            )),
        }
    }

    /// Top-down over a tree compiled against `[input columns…, slots…]`
    /// (`width` input columns): a subtree equal to a GROUP BY expression
    /// is that key's column, a slot moves behind the keys, anything else
    /// is its children's business — so a column-free subtree stays as it
    /// is, and the first input column no key covers is the block's defect.
    fn onto_groups(&self, e: &mut CompiledExpr, width: usize, ungrouped: &mut Option<usize>) {
        if let Some(key) = self.group_exprs.iter().position(|g| g == e) {
            *e = CompiledExpr::Column(key);
        } else if let CompiledExpr::Column(i) = e {
            if *i < width {
                ungrouped.get_or_insert(*i);
            } else {
                *i = *i - width + self.group_exprs.len();
            }
        } else {
            e.for_each_child_mut(|child| self.onto_groups(child, width, ungrouped));
        }
    }
}

/// The first column reference of `e` (subqueries apart) that binds to
/// position `i` of `cols`, as the query spelled it.
fn spelled<'e>(e: &'e Expr, cols: &[ColMeta], i: usize) -> Option<&'e ColumnRef> {
    if let Expr::Column(c) = e {
        return (resolve_column(cols, c) == Ok(i)).then_some(c);
    }
    let mut found = None;
    e.for_each_child(|child| found = found.or_else(|| spelled(child, cols, i)));
    found
}

#[cfg(test)]
mod tests {
    use crate::database::Database;
    use crate::schema::{DataType, Schema};
    use crate::value::Value;

    /// Two small tables with NULLs, duplicates and non-matching keys.
    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "l",
            Schema::of(&[("k", DataType::Int), ("v", DataType::Str)]),
        )
        .unwrap();
        db.create_table(
            "r",
            Schema::of(&[("k", DataType::Int), ("w", DataType::Int)]),
        )
        .unwrap();
        db.insert(
            "l",
            vec![
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Int(1), Value::str("b")],
                vec![Value::Int(2), Value::str("c")],
                vec![Value::Null, Value::str("n")],
            ],
        )
        .unwrap();
        db.insert(
            "r",
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(3), Value::Int(30)],
                vec![Value::Null, Value::Int(99)],
            ],
        )
        .unwrap();
        db
    }

    fn count(db: &Database, sql: &str) -> i64 {
        db.execute_sql(sql)
            .unwrap()
            .scalar()
            .unwrap()
            .as_i64()
            .unwrap()
    }

    #[test]
    fn inner_join_skips_null_keys() {
        let db = db();
        assert_eq!(count(&db, "SELECT COUNT(*) FROM l JOIN r ON l.k = r.k"), 2);
    }

    #[test]
    fn left_join_pads_unmatched_with_nulls() {
        let db = db();
        let rs = db
            .execute_sql("SELECT l.v, r.w FROM l LEFT JOIN r ON l.k = r.k ORDER BY v")
            .unwrap();
        assert_eq!(rs.rows.len(), 4);
        // Row 'c' (k=2) and the NULL-key row have NULL w.
        let c_row = rs.rows.iter().find(|r| r[0] == Value::str("c")).unwrap();
        assert!(c_row[1].is_null());
    }

    #[test]
    fn right_join_pads_left_side() {
        let db = db();
        let rs = db
            .execute_sql("SELECT l.v, r.w FROM l RIGHT JOIN r ON l.k = r.k")
            .unwrap();
        // 2 matches (a,b with w=10) + unmatched r rows k=3 and NULL.
        assert_eq!(rs.rows.len(), 4);
        let unmatched = rs.rows.iter().filter(|r| r[0].is_null()).count();
        assert_eq!(unmatched, 2);
    }

    #[test]
    fn full_join_pads_both_sides() {
        let db = db();
        let rs = db
            .execute_sql("SELECT l.v, r.w FROM l FULL JOIN r ON l.k = r.k")
            .unwrap();
        // 2 matches + 2 unmatched left (c, n) + 2 unmatched right (30, 99).
        assert_eq!(rs.rows.len(), 6);
    }

    #[test]
    fn cross_join_is_cartesian() {
        let db = db();
        assert_eq!(count(&db, "SELECT COUNT(*) FROM l CROSS JOIN r"), 12);
        assert_eq!(count(&db, "SELECT COUNT(*) FROM l, r"), 12);
    }

    #[test]
    fn join_with_residual_predicate() {
        let db = db();
        assert_eq!(
            count(
                &db,
                "SELECT COUNT(*) FROM l JOIN r ON l.k = r.k AND r.w > 10"
            ),
            0
        );
        assert_eq!(
            count(
                &db,
                "SELECT COUNT(*) FROM l JOIN r ON l.k = r.k AND r.w >= 10"
            ),
            2
        );
    }

    #[test]
    fn non_equi_join_uses_nested_loop() {
        let db = db();
        // l.k < r.w matches every non-null pair where k < w.
        let n = count(&db, "SELECT COUNT(*) FROM l JOIN r ON l.k < r.w");
        assert_eq!(n, 9); // 3 non-null l rows × 3 r rows, all k < w
    }

    #[test]
    fn using_constraint_joins_on_shared_column() {
        let db = db();
        assert_eq!(count(&db, "SELECT COUNT(*) FROM l JOIN r USING (k)"), 2);
    }

    #[test]
    fn group_by_treats_nulls_as_one_group() {
        let db = db();
        let rs = db
            .execute_sql("SELECT k, COUNT(*) FROM l GROUP BY k")
            .unwrap();
        assert_eq!(rs.rows.len(), 3); // 1, 2, NULL
    }

    #[test]
    fn having_filters_groups() {
        let db = db();
        let rs = db
            .execute_sql("SELECT k, COUNT(*) FROM l GROUP BY k HAVING COUNT(*) > 1")
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn grand_aggregate_over_empty_input_yields_one_row() {
        let db = db();
        let rs = db
            .execute_sql("SELECT COUNT(*), SUM(w) FROM r WHERE w > 1000")
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(0));
        assert!(rs.rows[0][1].is_null());
    }

    #[test]
    fn order_by_positional_and_desc() {
        let db = db();
        let rs = db.execute_sql("SELECT v FROM l ORDER BY 1 DESC").unwrap();
        let vals: Vec<_> = rs.rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(
            vals,
            vec![
                Value::str("n"),
                Value::str("c"),
                Value::str("b"),
                Value::str("a")
            ]
        );
    }

    #[test]
    fn order_by_unprojected_column() {
        let db = db();
        let rs = db
            .execute_sql("SELECT v FROM r JOIN l ON r.k = l.k ORDER BY w DESC, v")
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn order_by_aggregate_expression() {
        let db = db();
        let rs = db
            .execute_sql("SELECT k FROM l GROUP BY k ORDER BY COUNT(*) DESC LIMIT 1")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(1));
    }

    #[test]
    fn limit_offset() {
        let db = db();
        let rs = db
            .execute_sql("SELECT v FROM l ORDER BY v LIMIT 2 OFFSET 1")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::str("b")], vec![Value::str("c")]]);
    }

    #[test]
    fn union_distinct_and_all() {
        let db = db();
        let distinct = db
            .execute_sql("SELECT k FROM l UNION SELECT k FROM r")
            .unwrap();
        assert_eq!(distinct.rows.len(), 4); // 1, 2, 3, NULL
        let all = db
            .execute_sql("SELECT k FROM l UNION ALL SELECT k FROM r")
            .unwrap();
        assert_eq!(all.rows.len(), 7);
    }

    #[test]
    fn intersect_and_except() {
        let db = db();
        let inter = db
            .execute_sql("SELECT k FROM l INTERSECT SELECT k FROM r")
            .unwrap();
        // Shared keys: 1 and NULL (set semantics group NULLs).
        assert_eq!(inter.rows.len(), 2);
        let except = db
            .execute_sql("SELECT k FROM l EXCEPT SELECT k FROM r")
            .unwrap();
        assert_eq!(except.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn cte_shadowing_and_reuse() {
        let db = db();
        let rs = db
            .execute_sql(
                "WITH l AS (SELECT k FROM r), x AS (SELECT k FROM l) \
                 SELECT COUNT(*) FROM x",
            )
            .unwrap();
        // CTE `l` shadows base table l; x reads from the CTE (3 rows).
        assert_eq!(rs.scalar(), Some(&Value::Int(3)));
    }

    #[test]
    fn derived_table_with_alias_scope() {
        let db = db();
        assert_eq!(
            count(
                &db,
                "SELECT COUNT(*) FROM (SELECT k AS key FROM l WHERE k IS NOT NULL) s \
                 JOIN r ON s.key = r.k"
            ),
            2
        );
    }

    #[test]
    fn uncorrelated_in_subquery() {
        let db = db();
        assert_eq!(
            count(&db, "SELECT COUNT(*) FROM l WHERE k IN (SELECT k FROM r)"),
            2
        );
        assert_eq!(
            count(
                &db,
                "SELECT COUNT(*) FROM l WHERE EXISTS (SELECT 1 FROM r WHERE w > 50)"
            ),
            4
        );
    }

    #[test]
    fn tableless_select() {
        let db = db();
        let rs = db.execute_sql("SELECT 1 + 2 AS three").unwrap();
        assert_eq!(rs.columns, vec!["three"]);
        assert_eq!(rs.rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn qualified_wildcard_projects_one_side() {
        let db = db();
        let rs = db
            .execute_sql("SELECT r.* FROM l JOIN r ON l.k = r.k")
            .unwrap();
        assert_eq!(rs.columns, vec!["k", "w"]);
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn group_by_positional() {
        let db = db();
        let rs = db
            .execute_sql("SELECT v, COUNT(*) FROM l GROUP BY 1")
            .unwrap();
        assert_eq!(rs.rows.len(), 4);
    }

    #[test]
    fn aggregate_arithmetic_over_group_values() {
        let db = db();
        let rs = db
            .execute_sql("SELECT k, COUNT(*) * 2 + 1 FROM l GROUP BY k ORDER BY 1")
            .unwrap();
        // k=1 has 2 rows → 5.
        let one = rs.rows.iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(one[1], Value::Int(5));
    }

    #[test]
    fn non_grouped_column_is_rejected() {
        let db = db();
        let err = db
            .execute_sql("SELECT v, COUNT(*) FROM l GROUP BY k")
            .unwrap_err();
        assert!(matches!(err, crate::error::DbError::InvalidAggregate(_)));
    }

    #[test]
    fn distinct_projection() {
        let db = db();
        let rs = db.execute_sql("SELECT DISTINCT k FROM l").unwrap();
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn ambiguous_bare_column_is_rejected() {
        let db = db();
        let err = db
            .execute_sql("SELECT k FROM l JOIN r ON l.k = r.k")
            .unwrap_err();
        assert!(matches!(err, crate::error::DbError::AmbiguousColumn(_)));
    }

    #[test]
    fn self_join_with_aliases() {
        let db = db();
        assert_eq!(
            count(&db, "SELECT COUNT(*) FROM l a JOIN l b ON a.k = b.k"),
            5 // k=1: 2×2, k=2: 1×1
        );
    }

    /// The tuning an execution starts with reaches every nested
    /// execution (derived table, `IN` subquery): the database still says
    /// one worker and 4096-row chunks, yet all three scans are counted
    /// on the 2-row grid the execution was handed.
    #[test]
    fn nested_executions_inherit_the_executions_tuning() {
        let db = db();
        let q = flex_sql::parse_query(
            "SELECT COUNT(*) FROM (SELECT k FROM l) x WHERE k IN (SELECT k FROM r) \
             AND k IN (SELECT k FROM l)",
        )
        .unwrap();
        let par = crate::morsel::Parallelism {
            workers: 4,
            fold_rows: 2,
        };
        let (stats, result) = crate::vexec::execute_query(&db, &q, par);
        assert_eq!(result.unwrap().scalar(), Some(&Value::Int(2)));
        assert_eq!(stats.workers, 4);
        // l (4 rows) twice and r (3 rows) once, in 2-row morsels.
        assert_eq!((stats.rows_scanned, stats.morsels), (11, 6));
        let (db_stats, _) = crate::vexec::execute_query(&db, &q, db.exec_tuning());
        assert_eq!((db_stats.workers, db_stats.morsels), (1, 3));
    }
}
