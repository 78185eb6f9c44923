//! An execution's context and trace, and the expression compiler.
//!
//! A query runs one way: [`crate::Database::plan`] expands `WITH`
//! ([`flex_sql::inline_ctes`], once per query, so a relation name in the
//! tree the planner sees is a base table, a CTE nobody references is
//! never evaluated, and one referenced twice is evaluated per reference)
//! and plans the whole query ([`crate::plan`]) into a [`crate::Planned`];
//! running that is the plan executor ([`crate::vexec`]).
//! [`crate::Database::execute_traced`] is exactly those two calls. There
//! is no second path and no decision to make: every shape the parser
//! accepts executes there, and every error is the executor's own.
//!
//! The rest of this module is the executor's expression compiler.
//! There is one compiler, `Exec::compile`: a single pass, one arm per
//! [`flex_sql::Expr`] variant, run by scalar mode and group mode
//! (`GroupCompiler`) alike — they differ in what an aggregate call (a name
//! of [`flex_sql::AGGREGATE_FUNCTIONS`]) is. It executes nothing: an
//! expression subquery (`IN (SELECT …)`, `EXISTS`) is planned where its
//! node compiles ([`crate::plan`], "Plan the query, then run it"), and the
//! node reads the answer its block sets at run time. The test oracle (the
//! `flex-oracle` crate) has an evaluator, an aggregate-name match and an
//! ORDER BY rule of its own, so the differential suites check all of this
//! too.

use crate::aggregate::{AggFunc, AggSpec};
use crate::bind::{resolve_column, ColMeta};
use crate::database::Database;
use crate::error::{DbError, Result};
use crate::expr::{CastTarget, CompiledExpr, ScalarFunc, Subquery};
use crate::morsel::Parallelism;
use crate::plan::{self, FilterOrder, JoinOrder, Nested};
use crate::table::Table;
use crate::value::Value;
use flex_sql::{ColumnRef, Expr, FunctionArg, Literal, Select, SelectItem};

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
/// results. One execution runs the whole query, so its nested queries
/// (derived tables, set-op arms, expression subqueries) record here too.
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

impl ExecTrace {
    /// Record that a `len`-row base table is to be scanned: its rows and
    /// morsels count, and it may engage the worker pool.
    pub(crate) fn note_scan(&mut self, len: usize, par: Parallelism) {
        self.workers = self.workers.max(par.workers_for(len) as u64);
        if len > 0 {
            self.rows_scanned += len as u64;
            self.morsels += len.div_ceil(par.sched_rows(len)) as u64;
        }
    }
}

/// One query execution — its plan and then its run: the database, the
/// execution's tuning and its trace.
pub(crate) struct Exec<'a> {
    pub(crate) db: &'a Database,
    /// [`Database::exec_tuning`] as read when the execution started: one
    /// execution runs every block of the query, so a concurrent retune
    /// cannot split it across two configurations.
    pub(crate) par: Parallelism,
    /// The trace so far: the plan's scans and filter order, then the
    /// run's joins and tails.
    pub(crate) trace: ExecTrace,
    /// The nested plans of the block being planned, in the order they
    /// were planned (`plan::plan_block` keeps them per block).
    pub(crate) nested: Vec<Nested>,
    /// The query's leaves in planning order, each a base table or, for a
    /// table-less SELECT, `None`: what a `plan::Lineage` occurrence
    /// indexes.
    pub(crate) occurrences: Vec<Option<&'a Table>>,
    /// Whether any block holds an `EXISTS` or `IN (SELECT …)`.
    pub(crate) subqueries: bool,
}

impl<'a> Exec<'a> {
    pub(crate) fn new(db: &'a Database, par: Parallelism) -> Exec<'a> {
        Exec {
            db,
            par,
            trace: ExecTrace::default(),
            nested: Vec::new(),
            occurrences: Vec::new(),
            subqueries: false,
        }
    }

    // ---- expression compilation -----------------------------------------

    /// Compile an expression in scalar (non-aggregate) mode against a scope.
    pub(crate) fn compile_scalar(&mut self, e: &Expr, cols: &[ColMeta]) -> Result<CompiledExpr> {
        self.compile(e, cols, &mut Aggs::Refused)
    }

    /// The one expression compiler: every [`Expr`] variant has its arm
    /// here and nowhere else in the engine, and every node is compiled —
    /// an `EXISTS` / `IN (SELECT …)` planned — exactly once. The mode
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
            // An uncorrelated subquery is planned here and answered when
            // the block runs its nested plans.
            Expr::Exists(q) => {
                let plan = plan::plan_query(self, q)?;
                let subquery = Subquery::new(q);
                self.nested.push(Nested::Exists(plan, subquery.clone()));
                self.subqueries = true;
                CompiledExpr::Exists(subquery)
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let expr = sub!(expr)?;
                let plan = plan::plan_query(self, query)?;
                if plan.header.len() != 1 {
                    return Err(DbError::Unsupported(
                        "IN subquery must return exactly one column".into(),
                    ));
                }
                let subquery = Subquery::new(query);
                self.nested.push(Nested::In(plan, subquery.clone()));
                self.subqueries = true;
                CompiledExpr::InSubquery {
                    expr,
                    subquery,
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

/// The expression GROUP BY item `g` of block `s` groups by: `GROUP BY n`
/// names the `n`-th SELECT item — an error when there is none, and the
/// integer itself when that item is a wildcard — and anything else is
/// itself.
pub(crate) fn group_key<'s>(s: &'s Select, g: &'s Expr) -> Result<&'s Expr> {
    let Expr::Literal(Literal::Integer(n)) = g else {
        return Ok(g);
    };
    let item = usize::try_from(*n)
        .ok()
        .and_then(|n| n.checked_sub(1))
        .and_then(|i| s.projection.get(i));
    match item {
        Some(SelectItem::Expr { expr, .. }) => Ok(expr),
        Some(_) => Ok(g),
        None => Err(DbError::Unsupported(format!(
            "GROUP BY position {n} out of range"
        ))),
    }
}

/// Compiles expressions in "group mode": aggregate calls become references
/// to computed aggregate slots, and any other column use must match a
/// GROUP BY expression.
///
/// Post-group rows are laid out as `[key values..., aggregate values...]`.
pub(crate) struct GroupCompiler<'a> {
    /// The GROUP BY expressions, compiled in scalar mode.
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
        self.onto_groups(&mut compiled, e, input_cols.len(), &mut ungrouped);
        match ungrouped {
            None => Ok(compiled),
            Some(c) => Err(ungrouped_column(c)),
        }
    }

    /// Top-down over a tree compiled against `[input columns…, slots…]`
    /// (`width` input columns) and, in step, the `source` it was compiled
    /// from: a subtree equal to a GROUP BY expression is that key's
    /// column, a slot moves behind the keys, anything else is its
    /// children's business — so a column-free subtree stays as it is, and
    /// the first input column no key covers, as written, is the block's
    /// defect. (A subtree with a subquery equals a key only if its
    /// subqueries are written as the key's are: see [`Subquery`].)
    fn onto_groups<'e>(
        &self,
        e: &mut CompiledExpr,
        source: &'e Expr,
        width: usize,
        ungrouped: &mut Option<&'e ColumnRef>,
    ) {
        if let Some(key) = self.group_exprs.iter().position(|g| g == e) {
            *e = CompiledExpr::Column(key);
        } else if let CompiledExpr::Column(i) = e {
            if *i >= width {
                *i = *i - width + self.group_exprs.len();
            } else if let Expr::Column(c) = source {
                ungrouped.get_or_insert(c);
            }
        } else {
            // The compiled children are the source's, in the same order.
            let mut sources = Vec::new();
            source.for_each_child(|child| sources.push(child));
            let mut sources = sources.into_iter();
            e.for_each_child_mut(|child| {
                let source = sources.next().expect("a compiled child has a source");
                self.onto_groups(child, source, width, ungrouped)
            });
        }
    }
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
}
