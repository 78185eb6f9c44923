//! The physical-plan IR of the executor, and the planner that compiles a
//! whole query into it.
//!
//! # The plan IR
//!
//! The executor ([`crate::vexec`]) runs a small physical-plan IR in which
//! **every operator produces and consumes a [`ColumnarTable`]**, so any
//! columnar result can feed the next operator:
//!
//! - **Scan** — one leaf of the FROM tree: a base table's columnar
//!   projection, a derived table's (`FROM (SELECT …) alias`) rows —
//!   produced by its own plan, which its block runs first, and
//!   columnarized — or, for a table-less `SELECT`, one row of zero
//!   columns.
//! - **Filter** — infallible kernel conjuncts (`Kernel` values) narrowing
//!   a selection vector over any node's output (pushed-down WHERE/ON
//!   kernels), in the planner's rank order, not the order they were
//!   spelled in.
//! - **Join** — one binary join of the FROM tree (`JoinNode`): equi-key
//!   hash join, or nested-loop for CROSS and non-equi joins, producing
//!   `(left, right)` match index vectors, with matched-bit tracking for
//!   the padded sides of RIGHT/FULL joins. The node late-materializes
//!   only live columns into a new [`ColumnarTable`] that feeds the parent
//!   operator. Trees are as wide as the query writes them.
//! - **Project** — an optional predicate and a list of compiled
//!   expressions evaluated for every input row in row order (the earliest
//!   row's error wins) and emitted as typed columns: computed group keys
//!   and aggregate arguments before the aggregate, HAVING plus computed
//!   SELECT items and sort keys after it (`GroupedPlan`), a plain
//!   block's computed items (`TailPlan::computed`). Plain column
//!   references pass through untouched.
//! - **Aggregate** — the columnar hash-aggregate over key and argument
//!   columns; its output is the groups table `[keys…, aggregates…]`.
//! - **Tail** — ORDER BY / DISTINCT / LIMIT over row positions
//!   (`TailPlan`), late-materializing only the surviving rows into the
//!   result. Plain blocks, groups tables and set operations share it.
//!
//! There is no row pivot anywhere between the leaves and the tail's final
//! materialization: what Project interprets row by row is a scratch row
//! of the referenced columns, and what it emits is columns again.
//!
//! # Plan the query, then run it
//!
//! [`plan_query`] compiles every block of a query — its own, each derived
//! table's, each set-operation arm's, each expression subquery's — before
//! `vexec` runs any operator. One planner ([`plan_block`]) and one runner
//! (`vexec::run_block`) serve every block:
//!
//! 1. **FROM.** FROM becomes a [`PlanNode`] tree of one or more leaves: a
//!    base table's columns, a derived table, or the one empty
//!    row of a table-less SELECT. The walk goes bottom-up, left to right;
//!    a derived leaf is **planned** right there. Its scope is
//!    [`bind::derived_scope`] over its plan's header, and since its
//!    storage is unknown until it runs, its columns rank and gate kernels
//!    as [`Phys::Mixed`]. Each join's `USING`/`ON` compiles as soon as
//!    both of its subtrees are planned.
//! 2. **Clauses.** WHERE compiles against the root's scope and is split
//!    once, by the placement rules below; then the block's own clauses
//!    ([`plan_grouped`] / [`plan_tail`]). An expression subquery is
//!    planned where its node compiles, and the node reads its answer at
//!    run time. A set operation plans its arms left to right, checks
//!    arity at each node, then resolves its ORDER BY. Which columns each
//!    join materializes is read off the compiled plan (`assign_liveness`).
//! 3. **Run.** Only now does an operator touch a row. A block first runs
//!    its [`Nested`] plans in the order they were planned: a derived
//!    table's rows become its leaf, a subquery's answer is set for the
//!    nodes that read it. Then come its joins bottom-up, the WHERE filter
//!    and its operators. Running a plan yields rows; the query's header is
//!    its plan's, attached once, at the top.
//!
//! Every error is raised where it is found, as the [`DbError`] a reader
//! of the query would expect: an unknown table, a `USING`/`ON`/`WHERE`
//! name that does not resolve, a subquery one column too wide.
//!
//! **Error order.** One rule: every compile defect of any block precedes
//! every runtime defect. Compile defects come in the walk order above:
//! FROM leaves left to right (a derived leaf's whole plan counts as its
//! leaf) interleaved bottom-up with each join's `USING`/`ON`; then WHERE,
//! GROUP BY, SELECT items left to right, HAVING, ORDER BY — an expression
//! subquery's plan where its node stands, a set operation's arms and
//! arities before its ORDER BY. Runtime defects come in run order: a
//! block's nested plans, then its joins bottom-up and the WHERE filter,
//! then operator by operator: group keys (earliest row), each aggregate's
//! argument in aggregate order (earliest row), the folds (lowest
//! aggregate index), then per group — or per row of a plain block —
//! HAVING, SELECT items, sort keys. So whatever the data, a query with a
//! compile defect reports one, and the same one as the oracle, which
//! walks the whole query the same way before it reads a row. (The oracle
//! then runs a derived table where its FROM walk reaches it, interleaves
//! join execution with that walk, and aggregates group by group, so of
//! several *runtime* defects it can name a different one; whether a query
//! errors never differs.) Scoping mirrors the oracle's per-node rule
//! exactly: equi-keys and ON residuals are extracted against each node's
//! local `left.cols ++ right.cols` scope.
//!
//! Names become positions in [`crate::bind`] and nowhere else. Beside
//! each scope's names the walk records each column's [`Lineage`], which
//! the sensitivity analysis reads off the plan ([`crate::planned`]).
//!
//! # Predicate placement rules
//!
//! Only **infallible kernel conjuncts** (what `Kernel::of` accepts: `col
//! op literal`, `IS NULL`, `LIKE` on a known-string column; no range
//! kernel yet, ROADMAP 3(a)) are ever pushed below a join, and
//! only predicates made of **infallible conjuncts** are ever reordered
//! (by the rule of the next section); any fallible conjunct pins the
//! whole predicate it belongs to at the point SQL evaluates it, exactly
//! as compiled, so runtime errors surface from the same row at every
//! worker count and on the oracle:
//!
//! - An ON kernel on side `S` *drops* rows of `S` before the join —
//!   unless the join keeps `S`'s unmatched rows (LEFT keeps left, RIGHT
//!   keeps right, FULL keeps both), in which case a failing row is
//!   *unmatchable but not droppable* (it must still be NULL-padded) and
//!   the kernel becomes a **match kernel**. ON kernels push all-or-
//!   nothing: one fallible conjunct keeps the entire residual at the
//!   probe, in ON order.
//! - A WHERE kernel on side `S` pushes below the **root** join iff the
//!   join tree never NULL-pads `S`'s columns (those padded rows need the
//!   post-join evaluation: `w > 5` drops pads, `w IS NULL` keeps them)
//!   and the root's ON residual is all-kernel (shrinking the candidate
//!   pair set under a fallible residual could skip an error). This holds
//!   for every kernel of an **infallible** WHERE, whatever else it
//!   holds: its non-kernel conjuncts (a cross-side `d.city_id <>
//!   t.city_id`, a `BETWEEN`) run post-join on the scalar interpreter,
//!   after the post-join kernels, as one AND chain in rank order — all of
//!   them infallible, so which runs first moves no row and no error. A
//!   WHERE with a fallible conjunct runs post-join, whole, as compiled.
//! - Over a one-leaf root there is no join: an all-kernel WHERE narrows
//!   the leaf's scan, and any other runs whole through Project. The
//!   split above would be as sound there, but it makes small-data
//!   execution faster than `dp_overhead_ratio`'s gate allows until that
//!   ratio is re-contracted (ROADMAP 1(g)).
//!
//! # Conjunct order is scheduling, never semantics
//!
//! The order a predicate's conjuncts are *spelled* in is a property of
//! the text — the service executes the canonical form, whose conjuncts
//! are sorted by their printed SQL — and must not decide how long the
//! query runs. So every compiled conjunct list (a single scan's WHERE, a
//! join block's root WHERE, each join's ON residual) passes through one
//! rule before anything consumes it: when **every** top-level AND
//! conjunct is infallible — a comparison, `BETWEEN` or `IS [NOT] NULL`
//! over column and literal operands, `[NOT] LIKE 'literal'` over a
//! physically all-string column — the conjuncts run in ascending
//!
//! ```text
//! rank = cost ÷ (1 − pass-rate)
//! cost:       1 over Int64/Float64/Bool columns, 4 over Str/Mixed; ×2 for BETWEEN and LIKE
//! pass-rate:  0.1  =, IS NULL        0.33  <, <=, >, >=      0.25  BETWEEN, LIKE
//!             0.9  <>, IS NOT NULL   0.75  NOT BETWEEN, NOT LIKE
//! ```
//!
//! (steps spent per row dropped: cheap and selective first), ties broken
//! by a total order on what the conjunct computes — operator, then
//! operands, with `5 < x` read as `x > 5` — so two spellings of one
//! predicate run one chain. When any conjunct is fallible the predicate
//! is left exactly as compiled. The lists a scheduled predicate is
//! split into (per-side pushed kernels, post-join kernels) inherit the
//! order; one that keeps a non-kernel conjunct is re-chained left-deep
//! for the interpreter.
//!
//! Nothing observable moves: three-valued AND is commutative in truth
//! value and a filter keeps exactly the rows where every conjunct is
//! TRUE; nothing reordered can raise, so no error is skipped or
//! introduced. The rank reads the query and each column's physical
//! storage (`Phys`) and **no data statistic** — no value, count or
//! null share — so the schedule is the same for every literal and
//! opens no data-dependent timing channel beyond the row counts
//! execution already has. It is recorded in [`FilterOrder`] and, like
//! the join order, never bound into the release fingerprint.
//!
//! # Join order is scheduling, never semantics
//!
//! The executor picks the hash-build side per join with a greedy
//! smallest-estimated-input-first heuristic, recorded in [`JoinOrder`].
//! The choice never affects result bytes: swapped probes restore the
//! unswapped emission order before materialization, and the shared tail
//! re-sorts deterministically — so the decision is pure scheduling and
//! is never bound into the release fingerprint.

use crate::aggregate::AggSpec;
use crate::bind::{self, split_join_constraint, ColMeta, Projected};
use crate::column::{Column, ColumnData, ColumnarTable, GATHER_NULL};
use crate::error::{DbError, Result};
use crate::exec::{self, Exec, GroupCompiler};
use crate::expr::{CompiledExpr, Subquery};
use crate::table::Row;
use crate::value::{Value, ValueKey};
use flex_sql::{
    BinaryOperator, Expr, JoinType, OrderByItem, Query, Select, SetExpr, SetOperator, TableRef,
};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

/// The join-scheduling decisions one execution made, recorded in
/// [`crate::exec::ExecTrace`]. Pure observability: join-order selection
/// only ever changes *scheduling* (which input feeds the hash build),
/// never result bytes — swapped probes restore the unswapped emission
/// order before materialization and the shared tail re-sorts
/// deterministically — so this is never bound into the release
/// fingerprint and the heuristic can evolve freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct JoinOrder {
    /// Join operators executed, numbered in execution sequence (a tree
    /// of `n` leaves runs `n - 1` joins, post-order; the joins of a
    /// block's nested plans come first). Saturates at 255.
    pub joins: u8,
    /// Bitmask over the first eight joins of that sequence: bit `k` set
    /// iff the `k`-th join chose its *left* input as the hash-build side
    /// — the greedy smallest-estimated-input-first heuristic swapped the
    /// default build-on-the-right. Later joins are counted, not recorded.
    pub swapped: u8,
}

impl JoinOrder {
    /// Record one more executed join.
    pub(crate) fn push(&mut self, swapped: bool) {
        if swapped && self.joins < 8 {
            self.swapped |= 1 << self.joins;
        }
        self.joins = self.joins.saturating_add(1);
    }
}

/// The conjunct schedules one execution ran, recorded in
/// [`crate::exec::ExecTrace`] next to [`JoinOrder`]. Pure observability:
/// only predicates whose every conjunct is infallible are ever
/// reordered, three-valued AND is commutative in truth value, and the
/// rank reads the query and the physical column types alone — so this is
/// never bound into the release fingerprint (module docs, "Conjunct
/// order is scheduling, never semantics").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FilterOrder {
    /// Top-level AND conjuncts of every WHERE predicate and ON residual
    /// that has at least two (a lone conjunct has no order), predicate
    /// after predicate in the sequence they were planned — a nested
    /// plan's where the walk reaches it. Saturates at 255.
    pub conjuncts: u8,
    /// The first sixteen of them in the order they run, four bits each
    /// from the low end: the position, as written within its own
    /// predicate (equi-keys of an ON not counted), of the conjunct
    /// scheduled there. A predicate with a fallible conjunct runs as
    /// compiled and reads `0, 1, 2, …`. Positions past 15 read 15.
    pub order: u64,
}

impl FilterOrder {
    /// The recorded positions, in run order.
    pub fn positions(&self) -> Vec<u8> {
        (0..self.conjuncts.min(16))
            .map(|k| (self.order >> (4 * k) & 0xF) as u8)
            .collect()
    }

    /// Record one more predicate: `perm[k]` is the written position of
    /// the conjunct that runs `k`-th.
    fn push(&mut self, perm: impl ExactSizeIterator<Item = usize>) {
        if perm.len() < 2 {
            return;
        }
        for p in perm {
            if self.conjuncts < 16 {
                self.order |= (p.min(15) as u64) << (4 * self.conjuncts);
            }
            self.conjuncts = self.conjuncts.saturating_add(1);
        }
    }
}

/// The final result of executing a query.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names, in SELECT order.
    pub columns: Vec<String>,
    /// Result rows, in result order.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// The single scalar value of a 1×1 result, if the shape matches.
    pub fn scalar(&self) -> Option<&crate::value::Value> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Some(&self.rows[0][0])
        } else {
            None
        }
    }
}

// ---- the plan of a whole query ---------------------------------------------

/// A query, planned in full ([`plan_query`]): every block of it compiled,
/// nothing run.
pub(crate) struct QueryPlan {
    /// The output columns.
    pub header: Vec<ColMeta>,
    pub body: QueryBody,
}

impl QueryPlan {
    /// Each output column's [`Lineage`]: a plain block's passed-through
    /// columns keep theirs; computed, aggregated or set-operation columns
    /// have none.
    fn output_lineage(&self) -> Vec<Lineage> {
        if let QueryBody::Select(block) = &self.body {
            if let Body::Plain(tail) = &block.body {
                let passed = |item: &TailItem| match item {
                    TailItem::Source(c) => block.lineage[*c],
                    TailItem::Computed(_) => None,
                };
                return tail.out_items.iter().map(passed).collect();
            }
        }
        vec![None; self.header.len()]
    }
}

/// The base-table column a scope column carries unchanged, as (its
/// table's occurrence — an index into `Exec::occurrences` — and its
/// position in that table's schema); `None` when it is computed or
/// aggregated. Recorded for the sensitivity analysis
/// ([`crate::planned`]); the executor never reads it.
pub(crate) type Lineage = Option<(usize, usize)>;

/// What a planned query runs.
pub(crate) enum QueryBody {
    /// One SELECT block, the query's ORDER BY / LIMIT as its tail.
    Select(Box<BlockPlan>),
    /// A set-operation tree, then the tail over its output.
    SetOp(SetPlan, TailPlan),
}

/// A planned set-operation tree: arms are blocks with no tail of their
/// own, run left to right.
pub(crate) enum SetPlan {
    Arm(Box<BlockPlan>),
    Op {
        op: SetOperator,
        /// `ALL`, which only UNION reads (set semantics otherwise).
        all: bool,
        left: Box<SetPlan>,
        right: Box<SetPlan>,
    },
}

/// A query nested in a block, planned where the block's walk reached it
/// and run before any of the block's rows.
pub(crate) enum Nested {
    /// A derived table: its rows are the block's next derived leaf.
    Derived(QueryPlan),
    /// `EXISTS (…)`: whether it returns a row.
    Exists(QueryPlan, Arc<Subquery<bool>>),
    /// `IN (SELECT …)`, one column wide: its values.
    In(QueryPlan, Arc<Subquery<(HashSet<ValueKey>, bool)>>),
}

/// Plan a whole `WITH`-free query ([module docs](self), "Plan the query,
/// then run it"). Nothing runs: every error this returns is a compile
/// error, and the plan records where each nested query's answer goes.
pub(crate) fn plan_query(ex: &mut Exec<'_>, q: &Query) -> Result<QueryPlan> {
    let (body, header) = match &q.body {
        SetExpr::Select(s) => {
            let (block, header) = plan_block(ex, s, &q.order_by, q.limit, q.offset)?;
            (QueryBody::Select(Box::new(block)), header)
        }
        body => {
            // Named after, and sorted by, the first arm's columns only.
            let (tree, first) = plan_set_expr(ex, body)?;
            let items = (first.into_iter().enumerate())
                .map(|(i, c)| (ColMeta::new(None, c.name), CompiledExpr::Column(i)))
                .collect();
            let (tail, header) =
                build_tail(&q.order_by, q.limit, q.offset, false, items, &mut |_| {
                    Err(DbError::Unsupported(
                        "ORDER BY on a set operation must reference output columns".into(),
                    ))
                })?;
            (QueryBody::SetOp(tree, tail), header)
        }
    };
    Ok(QueryPlan { header, body })
}

/// Plan a set-operation tree's arms depth-first, left before right, and
/// return it with its first arm's header. Arity is checked at each node
/// once both operands are planned: of two defects, the earlier one wins.
fn plan_set_expr(ex: &mut Exec<'_>, e: &SetExpr) -> Result<(SetPlan, Vec<ColMeta>)> {
    match e {
        SetExpr::Select(s) => {
            let (block, header) = plan_block(ex, s, &[], None, None)?;
            Ok((SetPlan::Arm(Box::new(block)), header))
        }
        SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } => {
            let (left, header) = plan_set_expr(ex, left)?;
            let (right, right_header) = plan_set_expr(ex, right)?;
            let (l, r) = (header.len(), right_header.len());
            if l != r {
                return Err(DbError::Unsupported(format!(
                    "set operation arity mismatch: {l} vs {r} columns"
                )));
            }
            let node = SetPlan::Op {
                op: *op,
                all: *all,
                left: Box::new(left),
                right: Box::new(right),
            };
            Ok((node, header))
        }
    }
}

// ---- physical plan IR of a SELECT block ------------------------------------

/// Which side of a join a single-column kernel conjunct reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinSide {
    Left,
    Right,
}

/// A node of a block's physical FROM tree.
pub(crate) enum PlanNode {
    /// Leaf scan: index into [`BlockPlan::leaves`].
    Scan(usize),
    /// Binary join of two subtrees.
    Join(Box<JoinNode>),
}

/// One binary join operator. All kernels are rebased to *child-local*
/// column indices; `residual` stays in this node's combined scope
/// `left.cols ++ right.cols` and runs on the shared scalar interpreter.
pub(crate) struct JoinNode {
    pub left: PlanNode,
    pub right: PlanNode,
    pub join_type: JoinType,
    /// Column width of the left child's output.
    pub lw: usize,
    /// Column width of the right child's output.
    pub rw: usize,
    /// Equi-key column pairs as (left-child-local, right-child-local)
    /// indices. Empty for CROSS and pure non-equi joins, which run as
    /// nested loops.
    pub key_pairs: Vec<(usize, usize)>,
    /// The lineage of both sides of each key the analysis joins by:
    /// `key_pairs`, or when there are none (a comma or CROSS join) the
    /// WHERE's equalities between the sides ([`bind::equi_key`]).
    pub key_lineage: Vec<(Lineage, Lineage)>,
    /// Infallible ON/WHERE kernels *dropping* left-child rows before the
    /// join (sound because the tree never NULL-pads those columns).
    pub left_kernels: Vec<Kernel>,
    /// Infallible kernels dropping right-child rows before the join.
    pub right_kernels: Vec<Kernel>,
    /// ON kernels on a kept-unmatched left side (LEFT/FULL): a failing
    /// row has no match but is not dropped — it must still be padded.
    pub left_match_kernels: Vec<Kernel>,
    /// ON kernels on a kept-unmatched right side (RIGHT/FULL): failing
    /// rows never enter the hash build but still pad at the end.
    pub right_match_kernels: Vec<Kernel>,
    /// Fallible ON conjuncts, evaluated per candidate pair in ON order on
    /// the scalar interpreter — exactly the oracle's residual check.
    pub residual: Vec<CompiledExpr>,
    /// Which of the node's `lw + rw` output columns its parent join or
    /// the block's plan reads. Only these are gathered; dead columns
    /// become cheap all-NULL placeholders that are never re-gathered.
    pub live_cols: Vec<bool>,
}

/// One SELECT block, compiled in full ([`plan_block`]): everything
/// `vexec::run_block` runs.
pub(crate) struct BlockPlan {
    /// The queries nested in the block, in the order they were planned:
    /// what the block runs first.
    pub nested: Vec<Nested>,
    /// Scan leaves in FROM order (what [`PlanNode::Scan`] indexes).
    pub leaves: Vec<FromLeaf>,
    /// The root of the FROM tree: a leaf, or the root join.
    pub root: PlanNode,
    /// The [`Lineage`] of each column of the root's scope.
    pub lineage: Vec<Lineage>,
    /// Whether the block has a WHERE clause.
    pub filtered: bool,
    /// Infallible WHERE kernels narrowing a one-leaf root's scan, in
    /// schedule order. (Over a join they push into the tree or land in
    /// `post_kernels`.)
    pub scan_kernels: Vec<Kernel>,
    /// Infallible WHERE kernels that could not push below the root join
    /// (kept-unmatched sides): applied to the root's match vectors,
    /// side-local, pad-aware.
    pub post_kernels: Vec<(JoinSide, Kernel)>,
    /// What of WHERE no kernel runs, interpreted over the root's rows in
    /// order: the whole predicate as compiled when a conjunct is
    /// fallible (short-circuit and errors stay exactly the oracle's) or
    /// when a one-leaf root's infallible predicate is not all kernels;
    /// over a join, an infallible predicate's non-kernel conjuncts, in
    /// rank order.
    pub post_filter: Option<CompiledExpr>,
    /// The block's own plan, over the root's filtered rows.
    pub body: Body,
}

/// One leaf of a block's FROM tree.
pub(crate) enum FromLeaf {
    /// Rows the plan holds — a base table's shared columns,
    /// or a table-less SELECT's one row of no columns — and the leaf's
    /// occurrence (its index in `Exec::occurrences`).
    Rows(Arc<ColumnarTable>, usize),
    /// A derived table: the rows its plan, the block's `nested[i]`, yields.
    Derived(usize),
}

/// What a block does with its filtered FROM.
pub(crate) enum Body {
    /// One output row per input row: Project, then the tail.
    Plain(TailPlan),
    /// Project, Aggregate, then HAVING and the tail over the groups.
    Grouped(GroupedPlan),
}

impl Body {
    /// Visit every column of the block's input the plan reads: the group
    /// keys and aggregate arguments of a grouped block (HAVING and its
    /// tail read the groups table), or a plain block's computed items and
    /// the items and sort keys it passes through.
    fn for_each_input_column(&self, f: &mut impl FnMut(usize)) {
        match self {
            Body::Grouped(plan) => {
                let args = plan.aggs.iter().filter_map(|spec| spec.arg.as_ref());
                for e in plan.keys.iter().chain(args) {
                    e.for_each_column(f);
                }
            }
            Body::Plain(tail) => {
                for e in &tail.computed {
                    e.for_each_column(f);
                }
                let sort_items = tail.sort.iter().map(|(item, _)| item);
                for item in tail.out_items.iter().chain(sort_items) {
                    if let TailItem::Source(c) = item {
                        f(*c);
                    }
                }
            }
        }
    }
}

/// Compile one SELECT block in full ([module docs](self), "Plan the
/// query, then run it"): the FROM tree, a derived leaf planned where the
/// walk reaches it; WHERE, split once by the placement rules; the block's
/// own plan; and each join's liveness, read off that plan. `order_by`,
/// `limit` and `offset` are what follows the block in its query (a
/// set-operation arm has none). Returns the plan and the block's header.
pub(crate) fn plan_block(
    ex: &mut Exec<'_>,
    s: &Select,
    order_by: &[OrderByItem],
    limit: Option<u64>,
    offset: Option<u64>,
) -> Result<(BlockPlan, Vec<ColMeta>)> {
    // This block's nested plans collect in `ex.nested` while it compiles;
    // the enclosing block's wait here.
    let enclosing = std::mem::take(&mut ex.nested);
    let mut leaves = Vec::new();
    let (mut root, scope) = match &s.from {
        Some(from) => build_node(ex, from, s.selection.as_ref(), &mut leaves)?,
        None => {
            let one_row = Arc::new(ColumnarTable::from_columns(Vec::new(), 1));
            ex.occurrences.push(None);
            leaves.push(FromLeaf::Rows(one_row, ex.occurrences.len() - 1));
            (PlanNode::Scan(0), Scope::default())
        }
    };
    let (cols, phys, lineage) = (scope.cols, scope.phys, scope.lineage);

    // WHERE: a fallible predicate runs whole, as compiled. An infallible
    // one is scheduled first, so every list its conjuncts land in is in
    // rank order: over a one-leaf root it narrows the scan if it is all
    // kernels and runs whole through Project if not; over a join each
    // kernel goes by the placement rules and the rest run post-join.
    let mut scan_kernels = Vec::new();
    let mut post_kernels = Vec::new();
    let mut post_filter = None;
    if let Some(pred) = &s.selection {
        let compiled = ex.compile_scalar(pred, &cols)?;
        let scheduled = schedule_where(compiled, &|c| phys[c], &mut ex.trace.filter_order);
        match (scheduled, &mut root) {
            (Err(pinned), _) => post_filter = Some(pinned),
            (Ok(conjuncts), PlanNode::Scan(_)) => {
                // The split below, over a scan, would make small-data
                // execution faster than the `dp_overhead_ratio` gate
                // allows until it is re-contracted (ROADMAP 1(g)).
                let kernels: Option<Vec<_>> = conjuncts
                    .iter()
                    .map(|e| Kernel::of(e, &|c| phys[c]))
                    .collect();
                match kernels {
                    Some(kernels) => scan_kernels = kernels,
                    None => post_filter = Some(and_chain(conjuncts)),
                }
            }
            (Ok(conjuncts), PlanNode::Join(node)) => {
                // Pushing below the join is only sound when the root's own
                // residual is infallible (here: empty, i.e. fully kernelized).
                let push_ok = node.residual.is_empty();
                let keep_l = keeps_unmatched(node.join_type, JoinSide::Left);
                let keep_r = keeps_unmatched(node.join_type, JoinSide::Right);
                let mut rest = Vec::new();
                for e in conjuncts {
                    match side_kernel(&e, node.lw, &phys) {
                        // A left-side WHERE kernel may narrow the left
                        // scan unless unmatched *right* rows NULL-pad
                        // the left columns (RIGHT/FULL) — those pads
                        // need the post-join evaluation. Symmetrically
                        // for the right side.
                        Some((JoinSide::Left, k)) if push_ok && !keep_r => {
                            node.left_kernels.push(k)
                        }
                        Some((JoinSide::Right, k)) if push_ok && !keep_l => {
                            node.right_kernels.push(k)
                        }
                        Some(side_k) => post_kernels.push(side_k),
                        None => rest.push(e),
                    }
                }
                // Infallible too, so it may run after the kernels.
                if !rest.is_empty() {
                    post_filter = Some(and_chain(rest));
                }
            }
        }
    }

    let (body, header) = if bind::is_aggregated(s) {
        let (plan, header) = plan_grouped(ex, s, &cols, order_by, limit, offset)?;
        (Body::Grouped(plan), header)
    } else {
        let (tail, header) = plan_tail(ex, s, &cols, order_by, limit, offset)?;
        (Body::Plain(tail), header)
    };

    // Liveness: the root join materializes what the block's plan reads;
    // its children also hold what the WHERE reads of the pairs.
    if let PlanNode::Join(node) = &mut root {
        let mut live = vec![false; cols.len()];
        body.for_each_input_column(&mut |i| live[i] = true);
        let mut reads = live.clone();
        for (side, k) in &post_kernels {
            let offset = match side {
                JoinSide::Left => 0,
                JoinSide::Right => node.lw,
            };
            reads[offset + k.col()] = true;
        }
        if let Some(p) = &post_filter {
            p.for_each_column(&mut |i| reads[i] = true);
        }
        assign_liveness(node, live, reads);
    }

    let plan = BlockPlan {
        nested: std::mem::replace(&mut ex.nested, enclosing),
        leaves,
        root,
        lineage,
        filtered: s.selection.is_some(),
        scan_kernels,
        post_kernels,
        post_filter,
        body,
    };
    Ok((plan, header))
}

/// Whether `join_type` keeps (NULL-pads) unmatched rows of `side`.
pub(crate) fn keeps_unmatched(join_type: JoinType, side: JoinSide) -> bool {
    match side {
        JoinSide::Left => matches!(join_type, JoinType::Left | JoinType::Full),
        JoinSide::Right => matches!(join_type, JoinType::Right | JoinType::Full),
    }
}

/// The scope a FROM subtree outputs: each column's name, its physical
/// storage ([`Phys`], which ranks conjuncts and gates LIKE kernels) and
/// its [`Lineage`], index for index.
#[derive(Default)]
struct Scope {
    cols: Vec<ColMeta>,
    phys: Vec<Phys>,
    lineage: Vec<Lineage>,
}

/// Recursively build the plan node for one FROM subtree, planning each
/// leaf as the walk reaches it; `selection` is the block's WHERE, which
/// only the analysis's join keys read. Returns the node and its scope.
fn build_node<'a>(
    ex: &mut Exec<'a>,
    t: &TableRef,
    selection: Option<&Expr>,
    leaves: &mut Vec<FromLeaf>,
) -> Result<(PlanNode, Scope)> {
    match t {
        TableRef::Table { name, alias } => {
            let db = ex.db;
            let table = db
                .table(name)
                .ok_or_else(|| DbError::UnknownTable(name.clone()))?;
            let ctab = table.columnar().clone();
            // Selection vectors are u32 with GATHER_NULL as a sentinel.
            if ctab.len() >= GATHER_NULL as usize {
                return Err(DbError::Unsupported(format!(
                    "scan of {} rows exceeds the executor's {GATHER_NULL}-row limit",
                    ctab.len()
                )));
            }
            ex.trace.note_scan(ctab.len(), ex.par);
            let occurrence = ex.occurrences.len();
            ex.occurrences.push(Some(table));
            let scope = Scope {
                cols: table.col_metas(alias.as_deref().unwrap_or(name)),
                phys: ctab.columns.iter().map(Phys::of).collect(),
                lineage: (0..ctab.columns.len())
                    .map(|column| Some((occurrence, column)))
                    .collect(),
            };
            leaves.push(FromLeaf::Rows(ctab, occurrence));
            Ok((PlanNode::Scan(leaves.len() - 1), scope))
        }
        // The subquery is planned here, before anything that follows it
        // in the query compiles; its rows exist only once its block runs,
        // so no column of it may claim a storage.
        TableRef::Derived { query, alias } => {
            let plan = plan_query(ex, query)?;
            let names = plan.header.iter().map(|c| c.name.clone());
            let cols = bind::derived_scope(alias, names);
            let phys = vec![Phys::Mixed; cols.len()];
            let lineage = plan.output_lineage();
            let scope = Scope {
                cols,
                phys,
                lineage,
            };
            ex.nested.push(Nested::Derived(plan));
            leaves.push(FromLeaf::Derived(ex.nested.len() - 1));
            Ok((PlanNode::Scan(leaves.len() - 1), scope))
        }
        TableRef::Join {
            left,
            right,
            join_type,
            constraint,
        } => {
            let (lnode, mut scope) = build_node(ex, left, selection, leaves)?;
            let (rnode, right) = build_node(ex, right, selection, leaves)?;
            let lw = scope.cols.len();
            let rw = right.cols.len();
            // Equi-keys against this node's local scopes; what is left
            // of ON compiles against the combined one.
            let (key_pairs, on_rest) = split_join_constraint(&scope.cols, &right.cols, constraint)?;
            let lineage = |(l, r): (usize, usize)| (scope.lineage[l], right.lineage[r]);
            let mut key_lineage: Vec<_> = key_pairs.iter().copied().map(lineage).collect();
            if key_lineage.is_empty() {
                let conjuncts = selection.map(Expr::conjuncts).unwrap_or_default();
                let keys = conjuncts
                    .into_iter()
                    .filter_map(|c| bind::equi_key(&scope.cols, &right.cols, c));
                key_lineage.extend(keys.map(lineage));
            }
            scope.cols.extend(right.cols);
            scope.phys.extend(right.phys);
            scope.lineage.extend(right.lineage);
            let mut residual = Vec::with_capacity(on_rest.len());
            for c in &on_rest {
                residual.push(ex.compile_scalar(c, &scope.cols)?);
            }
            let phys = &scope.phys;
            let written: Vec<&CompiledExpr> = residual.iter().collect();
            let scheduled = schedule(&written, &|c| phys[c], &mut ex.trace.filter_order);
            let residual = scheduled.unwrap_or(residual);

            let mut node = JoinNode {
                left: lnode,
                right: rnode,
                join_type: *join_type,
                lw,
                rw,
                key_pairs,
                key_lineage,
                left_kernels: Vec::new(),
                right_kernels: Vec::new(),
                left_match_kernels: Vec::new(),
                right_match_kernels: Vec::new(),
                residual: Vec::new(),
                live_cols: Vec::new(),
            };

            // ON residual (scheduled above when infallible): push only
            // when *every* conjunct has a kernel — a fallible conjunct
            // must keep seeing the full candidate pair set, in ON order.
            // (An empty residual collects to
            // `Some(vec![])`, covering the pure-equi/CROSS cases.) An
            // infallible residual that is not all kernels is not split
            // the way the root WHERE is: a non-empty residual forbids the
            // root WHERE's pushdown (`push_ok`) and the swapped hash
            // build in `vexec`, and no shipped query has one.
            let kernels: Option<Vec<_>> =
                residual.iter().map(|e| side_kernel(e, lw, phys)).collect();
            match kernels {
                Some(kernels) => {
                    for (side, k) in kernels {
                        let list = match (side, keeps_unmatched(*join_type, side)) {
                            (JoinSide::Left, true) => &mut node.left_match_kernels,
                            (JoinSide::Left, false) => &mut node.left_kernels,
                            (JoinSide::Right, true) => &mut node.right_match_kernels,
                            (JoinSide::Right, false) => &mut node.right_kernels,
                        };
                        list.push(k);
                    }
                }
                None => node.residual = residual,
            }

            Ok((PlanNode::Join(Box::new(node)), scope))
        }
    }
}

/// Push liveness down the tree: `node` materializes exactly `live`, and
/// `reads` (which holds `live`) is every column of its combined scope
/// read above it — by its parent or the block's plan and, at the root,
/// by the WHERE over its pairs. Each child materializes its side of
/// `reads` plus what `node` reads at pair time (join keys, kernels,
/// residual references) — so a column is either real along its whole
/// leaf-to-root path, or an all-NULL placeholder from some node upward
/// that no operator ever gathers.
fn assign_liveness(node: &mut JoinNode, live: Vec<bool>, mut reads: Vec<bool>) {
    let lw = node.lw;
    for &(lk, rk) in &node.key_pairs {
        reads[lk] = true;
        reads[lw + rk] = true;
    }
    for k in node.left_kernels.iter().chain(&node.left_match_kernels) {
        reads[k.col()] = true;
    }
    for k in node.right_kernels.iter().chain(&node.right_match_kernels) {
        reads[lw + k.col()] = true;
    }
    for e in &node.residual {
        e.for_each_column(&mut |i| reads[i] = true);
    }
    let rneed = reads.split_off(lw);
    if let PlanNode::Join(child) = &mut node.left {
        assign_liveness(child, reads.clone(), reads);
    }
    if let PlanNode::Join(child) = &mut node.right {
        assign_liveness(child, rneed.clone(), rneed);
    }
    node.live_cols = live;
}

// ---- kernels ---------------------------------------------------------------

/// One infallible conjunct over a single column, as the columnar
/// operators run it: extracted once from a scheduled conjunct
/// ([`Kernel::of`]) and a value from then on — in a [`BlockPlan`]'s
/// scan and post kernels and a [`JoinNode`]'s pushed lists — so nothing
/// downstream re-reads a [`CompiledExpr`]'s shape, and a new kernel is
/// one variant here plus one arm of `vexec::kernel_predicate`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Kernel {
    /// `column op literal` (`literal op column` is stored mirrored).
    Cmp(usize, BinaryOperator, Value),
    /// `column IS [NOT] NULL`: the column, and whether it is negated.
    IsNull(usize, bool),
    /// `column [NOT] LIKE 'pattern'` (column, pattern, negated) over a
    /// [`Phys::Str`] column: LIKE raises on a non-string value, so only
    /// all-string storage is safe.
    Like(usize, String, bool),
}

impl Kernel {
    /// The kernel `e` is, if it is one, over columns stored as `phys`.
    fn of(e: &CompiledExpr, phys: &dyn Fn(usize) -> Phys) -> Option<Kernel> {
        use CompiledExpr::{Binary, Column, IsNull, Like, Literal};
        Some(match e {
            Binary { op, left, right } if op.is_comparison() => match (&**left, &**right) {
                (Column(c), Literal(v)) => Kernel::Cmp(*c, *op, v.clone()),
                (Literal(v), Column(c)) => Kernel::Cmp(*c, flip(*op), v.clone()),
                _ => return None,
            },
            IsNull { expr, negated } => match &**expr {
                Column(c) => Kernel::IsNull(*c, *negated),
                _ => return None,
            },
            Like {
                expr,
                pattern,
                negated,
            } => match (&**expr, &**pattern) {
                (Column(c), Literal(Value::Str(p))) if phys(*c) == Phys::Str => {
                    Kernel::Like(*c, p.clone(), *negated)
                }
                _ => return None,
            },
            _ => return None,
        })
    }

    /// The one column the kernel reads.
    pub(crate) fn col(&self) -> usize {
        let (Kernel::Cmp(col, ..) | Kernel::IsNull(col, _) | Kernel::Like(col, ..)) = self;
        *col
    }

    /// The same kernel over a scope that starts `offset` columns later.
    fn rebased(mut self, offset: usize) -> Kernel {
        let (Kernel::Cmp(col, ..) | Kernel::IsNull(col, _) | Kernel::Like(col, ..)) = &mut self;
        *col -= offset;
        self
    }

    /// Whether the NULL-padded side of an unmatched outer-join row, where
    /// every column reads NULL, passes: only a non-negated `IS NULL`.
    pub(crate) fn keeps_all_null(&self) -> bool {
        matches!(self, Kernel::IsNull(_, false))
    }
}

/// If `e` (over a join's combined scope: `lw` left columns first, stored
/// as `phys`) is a kernel: its side, and the kernel over that side's scope.
fn side_kernel(e: &CompiledExpr, lw: usize, phys: &[Phys]) -> Option<(JoinSide, Kernel)> {
    let kernel = Kernel::of(e, &|c| phys[c])?;
    Some(if kernel.col() < lw {
        (JoinSide::Left, kernel)
    } else {
        (JoinSide::Right, kernel.rebased(lw))
    })
}

/// Mirror a comparison so `lit op col` becomes `col op' lit`.
fn flip(op: BinaryOperator) -> BinaryOperator {
    match op {
        BinaryOperator::Lt => BinaryOperator::Gt,
        BinaryOperator::Gt => BinaryOperator::Lt,
        BinaryOperator::LtEq => BinaryOperator::GtEq,
        BinaryOperator::GtEq => BinaryOperator::LtEq,
        other => other,
    }
}

// ---- conjunct scheduling ---------------------------------------------------

/// How a column is physically stored — all the scheduling rule (and the
/// LIKE gate) reads of it. Never a value, a count or a null share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phys {
    /// `Int64`, `Float64`, `Bool`: a comparison costs one step.
    Fixed,
    /// All strings: four steps a comparison, and the only columns
    /// `LIKE` cannot fail on.
    Str,
    /// `Value`s of several types: four steps a comparison.
    Mixed,
}

impl Phys {
    fn of(col: &Column) -> Phys {
        match col.data {
            ColumnData::Str(_) => Phys::Str,
            ColumnData::Mixed(_) => Phys::Mixed,
            _ => Phys::Fixed,
        }
    }
}

/// One operand of an infallible conjunct: a column or a literal.
#[derive(Clone, Copy)]
enum Leaf<'e> {
    Col(usize),
    Lit(&'e Value),
}

impl<'e> Leaf<'e> {
    fn of(e: &'e CompiledExpr) -> Option<Leaf<'e>> {
        match e {
            CompiledExpr::Column(c) => Some(Leaf::Col(*c)),
            CompiledExpr::Literal(v) => Some(Leaf::Lit(v)),
            _ => None,
        }
    }

    /// Columns by index, then literals by [`Value::total_cmp`].
    fn cmp(&self, other: &Leaf<'_>) -> Ordering {
        match (self, other) {
            (Leaf::Col(a), Leaf::Col(b)) => a.cmp(b),
            (Leaf::Lit(a), Leaf::Lit(b)) => a.total_cmp(b),
            (Leaf::Col(_), Leaf::Lit(_)) => Ordering::Less,
            (Leaf::Lit(_), Leaf::Col(_)) => Ordering::Greater,
        }
    }
}

/// Where an infallible conjunct sorts in its predicate: by rank, then by
/// a total order on what it computes, so two spellings of one predicate
/// run one chain.
struct Slot<'e> {
    /// Estimated steps per row it drops: `cost ÷ (1 − pass-rate)`.
    rank: f64,
    /// Operator (after operand normalization), or the shape and its
    /// negation.
    shape: u8,
    leaves: [Option<Leaf<'e>>; 3],
}

impl Slot<'_> {
    /// The rank table. `None` when `e` can raise: anything but a
    /// comparison, `BETWEEN` or `IS [NOT] NULL` over column and literal
    /// operands, or `[NOT] LIKE 'literal'` over an all-string column.
    fn of<'e>(e: &'e CompiledExpr, phys: &dyn Fn(usize) -> Phys) -> Option<Slot<'e>> {
        const BETWEEN: u8 = 32;
        const IS_NULL: u8 = 34;
        const LIKE: u8 = 36;
        let (shape, pass, steps, leaves) = match e {
            CompiledExpr::Binary { op, left, right } if op.is_comparison() => {
                // `5 < fare` is `fare > 5`, and `u.a <> t.a` is `t.a <> u.a`.
                let (mut l, mut r, mut op) = (Leaf::of(left)?, Leaf::of(right)?, *op);
                if l.cmp(&r).is_gt() {
                    (l, r, op) = (r, l, flip(op));
                }
                let pass = match op {
                    BinaryOperator::Eq => 0.1,
                    BinaryOperator::NotEq => 0.9,
                    _ => 0.33,
                };
                (op as u8, pass, 1.0, [Some(l), Some(r), None])
            }
            CompiledExpr::Between {
                expr,
                low,
                high,
                negated,
            } => (
                BETWEEN + u8::from(*negated),
                if *negated { 0.75 } else { 0.25 },
                2.0,
                [
                    Some(Leaf::of(expr)?),
                    Some(Leaf::of(low)?),
                    Some(Leaf::of(high)?),
                ],
            ),
            CompiledExpr::IsNull { expr, negated } => (
                IS_NULL + u8::from(*negated),
                if *negated { 0.9 } else { 0.1 },
                1.0,
                [Some(Leaf::of(expr)?), None, None],
            ),
            CompiledExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let (l, p) = (Leaf::of(expr)?, Leaf::of(pattern)?);
                match (l, p) {
                    (Leaf::Col(c), Leaf::Lit(Value::Str(_))) if phys(c) == Phys::Str => {}
                    _ => return None,
                }
                (
                    LIKE + u8::from(*negated),
                    if *negated { 0.75 } else { 0.25 },
                    2.0,
                    [Some(l), Some(p), None],
                )
            }
            _ => return None,
        };
        let wide = leaves
            .iter()
            .flatten()
            .any(|l| matches!(l, Leaf::Col(c) if phys(*c) != Phys::Fixed));
        let cost = if wide { 4.0 } else { 1.0 } * steps;
        Some(Slot {
            rank: cost / (1.0 - pass),
            shape,
            leaves,
        })
    }

    fn cmp(&self, other: &Slot<'_>) -> Ordering {
        self.rank
            .total_cmp(&other.rank)
            .then(self.shape.cmp(&other.shape))
            .then_with(|| {
                // Equal shapes have equally many operands.
                let pairs = self
                    .leaves
                    .iter()
                    .flatten()
                    .zip(other.leaves.iter().flatten());
                pairs
                    .map(|(a, b)| a.cmp(b))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            })
    }
}

/// The scheduling rule over one predicate's top-level AND conjuncts,
/// recorded in `order`. When every conjunct is infallible: the conjuncts
/// in the order they will run, ascending by [`Slot`] (stable, so
/// conjuncts that compute the same thing keep their written order). When
/// any can raise: `None` — the predicate runs exactly as compiled.
fn schedule(
    conjuncts: &[&CompiledExpr],
    phys: &dyn Fn(usize) -> Phys,
    order: &mut FilterOrder,
) -> Option<Vec<CompiledExpr>> {
    let slots: Option<Vec<Slot<'_>>> = conjuncts.iter().map(|c| Slot::of(c, phys)).collect();
    let Some(slots) = slots else {
        order.push(0..conjuncts.len());
        return None;
    };
    let mut perm: Vec<usize> = (0..slots.len()).collect();
    perm.sort_by(|&a, &b| slots[a].cmp(&slots[b]));
    order.push(perm.iter().copied());
    Some(perm.iter().map(|&i| conjuncts[i].clone()).collect())
}

/// Schedule a compiled WHERE predicate: its conjuncts in run order, or —
/// one of them fallible — the predicate back, untouched.
fn schedule_where(
    pred: CompiledExpr,
    phys: &dyn Fn(usize) -> Phys,
    order: &mut FilterOrder,
) -> std::result::Result<Vec<CompiledExpr>, CompiledExpr> {
    let mut conjuncts = Vec::new();
    collect_conjuncts(&pred, &mut conjuncts);
    schedule(&conjuncts, phys, order).ok_or(pred)
}

fn collect_conjuncts<'e>(e: &'e CompiledExpr, out: &mut Vec<&'e CompiledExpr>) {
    match e {
        CompiledExpr::Binary {
            op: BinaryOperator::And,
            left,
            right,
        } => {
            collect_conjuncts(left, out);
            collect_conjuncts(right, out);
        }
        e => out.push(e),
    }
}

/// Scheduled conjuncts as the left-deep AND chain the interpreter runs.
fn and_chain(conjuncts: Vec<CompiledExpr>) -> CompiledExpr {
    conjuncts
        .into_iter()
        .reduce(|chain, next| CompiledExpr::Binary {
            op: BinaryOperator::And,
            left: Box::new(chain),
            right: Box::new(next),
        })
        .expect("a predicate has a conjunct")
}

// ---- physical plans for the block tails -----------------------------------

/// One projected (or sort-key) item of a planned tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TailItem {
    /// A plain column of the tail's input, read late: only for the rows
    /// that survive the sort, DISTINCT and LIMIT.
    Source(usize),
    /// Index into [`TailPlan::computed`]: an expression the **Project**
    /// operator evaluates for every input row before the tail orders
    /// anything.
    Computed(usize),
}

/// Physical plan for the ORDER BY / DISTINCT / LIMIT tail of a block:
/// projection and sort keys as **input column indices plus compiled
/// expressions**, so the tail can sort/dedupe/slice row positions and
/// late-materialize only the surviving rows. The input is the block's
/// post-WHERE table for a plain block, the groups table
/// `[keys…, aggregates…]` for an aggregated one ([`GroupedPlan::tail`]),
/// and the concatenated arms for a set operation.
///
/// # Error semantics (why computed items are evaluated for every row)
///
/// The oracle evaluates projection and sort-key expressions for *every*
/// input row before sorting or truncating, so any of those expressions
/// may raise a runtime error from a row that `LIMIT` would later discard.
/// Plain-column items are infallible and can skip non-surviving rows
/// unobservably; `computed` expressions go through Project, **for every
/// row, in the oracle's per-row order** (projection items first, then
/// ORDER BY source expressions), so the first error is the one the
/// oracle reports — only then does the tail sort, dedupe and slice.
pub(crate) struct TailPlan {
    /// What backs each output column.
    pub out_items: Vec<TailItem>,
    /// ORDER BY keys as (item, descending) pairs.
    pub sort: Vec<(TailItem, bool)>,
    /// Compiled non-column expressions, in the oracle's per-row
    /// evaluation order: projection expressions in projection order,
    /// then ORDER BY source expressions in ORDER BY order.
    pub computed: Vec<CompiledExpr>,
    pub distinct: bool,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
}

/// Classify one compiled tail expression: a plain column passes through,
/// anything else joins the Project batch.
fn tail_item(e: CompiledExpr, computed: &mut Vec<CompiledExpr>) -> TailItem {
    match e {
        CompiledExpr::Column(i) => TailItem::Source(i),
        e => {
            computed.push(e);
            TailItem::Computed(computed.len() - 1)
        }
    }
}

/// Assemble a [`TailPlan`] from a compiled SELECT list, resolving ORDER
/// BY by the executor's one rule — of plain and grouped blocks and set
/// operations alike: an ordinal or a bare name of an output column
/// ([`bind::sort_key_by_output`], aliases included) sorts on that
/// item; any other key compiles through `compile_source` against the
/// tail's input scope. Returns the plan and the header: wildcard columns
/// keep their qualifier, expressions are named by alias or printed form.
fn build_tail(
    order_by: &[OrderByItem],
    limit: Option<u64>,
    offset: Option<u64>,
    distinct: bool,
    items: Vec<(ColMeta, CompiledExpr)>,
    compile_source: &mut dyn FnMut(&Expr) -> Result<CompiledExpr>,
) -> Result<(TailPlan, Vec<ColMeta>)> {
    let mut computed = Vec::new();
    let (out_cols, out_items): (Vec<_>, Vec<_>) = items
        .into_iter()
        .map(|(meta, e)| (meta, tail_item(e, &mut computed)))
        .unzip();
    let mut sort = Vec::with_capacity(order_by.len());
    for item in order_by {
        let key = match bind::sort_key_by_output(&item.expr, &out_cols)? {
            Some(pos) => out_items[pos],
            None => tail_item(compile_source(&item.expr)?, &mut computed),
        };
        sort.push((key, item.descending));
    }
    let tail = TailPlan {
        out_items,
        sort,
        computed,
        distinct,
        limit,
        offset,
    };
    Ok((tail, out_cols))
}

/// Plan the tail of a non-aggregated SELECT block. Compile errors are
/// raised here, before any row of the tail's input is touched, in the
/// oracle's order: projection items left to right (an unknown wildcard
/// qualifier among them), then ORDER BY.
fn plan_tail(
    ex: &mut Exec<'_>,
    s: &Select,
    cols: &[ColMeta],
    order_by: &[OrderByItem],
    limit: Option<u64>,
    offset: Option<u64>,
) -> Result<(TailPlan, Vec<ColMeta>)> {
    debug_assert!(!bind::is_aggregated(s));
    let mut items: Vec<(ColMeta, CompiledExpr)> = Vec::new();
    for out in bind::project_scope(cols, &s.projection) {
        let (meta, source) = out?;
        let compiled = match source {
            Projected::Wildcard(i) => CompiledExpr::Column(i),
            Projected::Expr(expr) => ex.compile_scalar(expr, cols)?,
        };
        items.push((meta, compiled));
    }
    let compile_source = &mut |e: &Expr| ex.compile_scalar(e, cols);
    build_tail(order_by, limit, offset, s.distinct, items, compile_source)
}

/// Compiled pieces of an aggregated SELECT block: what the Aggregate
/// operator reads from the block's post-WHERE table, and the block over
/// the **groups table** `[keys…, aggregates…]` that follows it.
pub(crate) struct GroupedPlan {
    /// GROUP BY expressions over the block's scope.
    pub keys: Vec<CompiledExpr>,
    /// The aggregates, in first-appearance order (argument expressions
    /// over the block's scope).
    pub aggs: Vec<AggSpec>,
    /// HAVING over the groups table.
    pub having: Option<CompiledExpr>,
    /// SELECT list, ORDER BY, DISTINCT and LIMIT over the groups table.
    pub tail: TailPlan,
}

/// Plan an aggregated SELECT block. Compile errors are raised here, in
/// the oracle's order: GROUP BY keys left to right (a position out of
/// range among them), projection items left to right (a wildcard is
/// one), HAVING, then ORDER BY.
fn plan_grouped(
    ex: &mut Exec<'_>,
    s: &Select,
    cols: &[ColMeta],
    order_by: &[OrderByItem],
    limit: Option<u64>,
    offset: Option<u64>,
) -> Result<(GroupedPlan, Vec<ColMeta>)> {
    let keys = (s.group_by.iter())
        .map(|g| ex.compile_scalar(exec::group_key(s, g)?, cols))
        .collect::<Result<Vec<_>>>()?;
    let mut gc = GroupCompiler {
        group_exprs: &keys,
        aggs: Vec::new(),
    };
    let mut items = Vec::with_capacity(s.projection.len());
    for out in bind::project_scope(cols, &s.projection) {
        // A wildcard's column and an unknown `q.*` alike: the wildcard
        // itself is the defect here.
        let Ok((meta, Projected::Expr(expr))) = out else {
            return Err(DbError::InvalidAggregate(
                "wildcard projection is not allowed in an aggregated query".into(),
            ));
        };
        items.push((meta, gc.compile(ex, expr, cols)?));
    }
    let having = match &s.having {
        Some(h) => Some(gc.compile(ex, h, cols)?),
        None => None,
    };
    let compile_source = &mut |e: &Expr| gc.compile(ex, e, cols);
    let (tail, header) = build_tail(order_by, limit, offset, s.distinct, items, compile_source)?;
    let aggs = gc.aggs;
    let plan = GroupedPlan {
        keys,
        aggs,
        having,
        tail,
    };
    Ok((plan, header))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    /// A block's plan raises its own compile errors, with the text the
    /// executor reports, from nothing but the scope: the table behind it
    /// is empty and the plan functions never see it. (The differential
    /// suite holds the same texts equal to the oracle's.)
    #[test]
    fn tail_plans_raise_their_compile_errors_from_the_scope_alone() {
        use crate::schema::{DataType, Schema};
        let mut db = crate::database::Database::new();
        db.create_table(
            "t",
            Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]),
        )
        .unwrap();
        let cols = db.table("t").unwrap().col_metas("t");
        for (tail, expected) in [
            ("SELECT nope FROM t", "unknown column `nope`"),
            ("SELECT a FROM t ORDER BY nope", "unknown column `nope`"),
            ("SELECT x.* FROM t", "unknown table `x`"),
            (
                "SELECT a FROM t ORDER BY 9",
                "ORDER BY position 9 out of range",
            ),
            (
                "SELECT *, COUNT(*) FROM t",
                "wildcard projection is not allowed",
            ),
            (
                "SELECT b, COUNT(*) FROM t GROUP BY a",
                "column `b` must appear in GROUP BY",
            ),
            ("SELECT SUM(COUNT(*)) FROM t", "nested aggregate functions"),
            (
                "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY 9",
                "ORDER BY position 9 out of range",
            ),
            (
                "SELECT COUNT(*) FROM t GROUP BY nope",
                "unknown column `nope`",
            ),
            (
                "SELECT COUNT(*) FROM t GROUP BY 9",
                "GROUP BY position 9 out of range",
            ),
            // GROUP BY keys compile left to right.
            (
                "SELECT COUNT(*) FROM t GROUP BY nope, 0",
                "unknown column `nope`",
            ),
            (
                "SELECT COUNT(*) FROM t GROUP BY 0, nope",
                "GROUP BY position 0 out of range",
            ),
            // Two defects: the projection's comes before HAVING's, and
            // HAVING's before ORDER BY's.
            (
                "SELECT b FROM t GROUP BY a HAVING nope > 0 ORDER BY 9",
                "column `b` must appear",
            ),
            (
                "SELECT a FROM t GROUP BY a HAVING nope > 0 ORDER BY 9",
                "column `nope` must appear",
            ),
            ("SELECT x.*, nope FROM t ORDER BY 9", "unknown table `x`"),
        ] {
            let q = flex_sql::parse_query(tail).unwrap();
            let s = q.as_select().unwrap();
            let mut ex = Exec::new(&db, db.exec_tuning());
            let planned = if bind::is_aggregated(s) {
                plan_grouped(&mut ex, s, &cols, &q.order_by, q.limit, q.offset).map(drop)
            } else {
                plan_tail(&mut ex, s, &cols, &q.order_by, q.limit, q.offset).map(drop)
            };
            let err = planned.expect_err(tail).to_string();
            assert!(err.contains(expected), "{tail}: {err}");
            assert_eq!(err, db.execute_sql(tail).unwrap_err().to_string(), "{tail}");
        }
    }

    /// Each join of a three-leaf tree materializes exactly the columns
    /// read above it. Scope: `l.k l.v l.s m.k m.w m.s n.k n.z` (0–7); the
    /// inner join `l ⋈ m` holds 0–5. What the inner join reads itself
    /// (its keys `l.k`, `m.k` and its residual `l.v + m.w`) is the leaves'
    /// business, not its own output's.
    #[test]
    fn liveness_is_exactly_what_is_read_above_each_join() {
        use crate::schema::{DataType, Schema};
        let mut db = crate::database::Database::new();
        for (name, cols) in [
            (
                "l",
                [
                    ("k", DataType::Int),
                    ("v", DataType::Int),
                    ("s", DataType::Str),
                ],
            ),
            (
                "m",
                [
                    ("k", DataType::Int),
                    ("w", DataType::Int),
                    ("s", DataType::Str),
                ],
            ),
        ] {
            db.create_table(name, Schema::of(&cols)).unwrap();
        }
        let n = Schema::of(&[("k", DataType::Int), ("z", DataType::Int)]);
        db.create_table("n", n).unwrap();
        let inner = "FROM l JOIN m ON l.k = m.k AND l.v + m.w > 0";
        for (sql, root, below) in [
            // The group key; a post-join kernel (FULL keeps the left
            // pads); the root's keys and its left match kernel.
            (
                format!(
                    "SELECT l.v, COUNT(*) {inner} FULL JOIN n ON m.k = n.k AND m.s = 'x' \
                     WHERE l.s IS NULL GROUP BY l.v"
                ),
                vec![1],
                vec![1, 2, 3, 5],
            ),
            // A passed-through item and a sort key; the interpreted
            // post-join filter; the root's keys.
            (
                format!("SELECT l.v {inner} JOIN n ON m.k = n.k WHERE m.w + n.z > 0 ORDER BY l.s"),
                vec![1, 2],
                vec![1, 2, 3, 4],
            ),
            // An aggregate argument; the root's residual and keys.
            (
                format!("SELECT SUM(n.z + l.v) {inner} JOIN n ON m.k = n.k AND m.s < n.z"),
                vec![1, 7],
                vec![1, 3, 5],
            ),
            // A computed item; the root's keys.
            (
                format!("SELECT l.s IS NULL {inner} JOIN n ON l.k = n.k ORDER BY 1"),
                vec![2],
                vec![0, 2],
            ),
        ] {
            let q = flex_sql::parse_query(&sql).unwrap();
            let mut ex = Exec::new(&db, db.exec_tuning());
            let plan = plan_block(&mut ex, q.as_select().unwrap(), &q.order_by, None, None);
            let (plan, _) = plan.unwrap_or_else(|e| panic!("{sql}: {e}"));
            let live = |node: &JoinNode| -> Vec<usize> {
                (0..node.live_cols.len())
                    .filter(|&i| node.live_cols[i])
                    .collect()
            };
            let PlanNode::Join(root_node) = &plan.root else {
                panic!("{sql}: a join root");
            };
            let PlanNode::Join(inner_node) = &root_node.left else {
                panic!("{sql}: a join on the left");
            };
            assert_eq!(live(root_node), root, "{sql}: root");
            assert_eq!(live(inner_node), below, "{sql}: inner join");
        }
    }

    /// Where each WHERE conjunct of a join root lands. Scope: `t.id
    /// t.driver_id t.city_id t.fare t.status` (0–4), `d.id d.city_id
    /// d.vehicle` (5–7), `c.id c.name` (8–9); the root joins `t ⋈ d`
    /// (`lw` = 8) with `c`. An infallible WHERE's kernels go by the
    /// placement rules, in rank order, and its other conjuncts alone run
    /// post-join; a fallible one runs whole, and nothing is pushed.
    #[test]
    fn an_infallible_where_over_a_join_pushes_its_kernels_and_keeps_the_rest() {
        use crate::schema::{DataType, Schema};
        use BinaryOperator::{Eq, Gt, NotEq};
        use CompiledExpr::Column as Col;
        let mut db = crate::database::Database::new();
        for (name, cols, row) in [
            (
                "trips",
                &[
                    ("id", DataType::Int),
                    ("driver_id", DataType::Int),
                    ("city_id", DataType::Int),
                    ("fare", DataType::Float),
                    ("status", DataType::Str),
                ][..],
                vec![
                    Value::Int(1),
                    Value::Int(1),
                    Value::Int(1),
                    Value::Float(3.5),
                    "completed".into(),
                ],
            ),
            (
                "drivers",
                &[
                    ("id", DataType::Int),
                    ("city_id", DataType::Int),
                    ("vehicle", DataType::Str),
                ],
                vec![Value::Int(1), Value::Int(2), "sedan".into()],
            ),
            (
                "cities",
                &[("id", DataType::Int), ("name", DataType::Str)],
                vec![Value::Int(1), "Oslo".into()],
            ),
        ] {
            db.create_table(name, Schema::of(cols)).unwrap();
            db.insert(name, vec![row]).unwrap();
        }
        let join = |root: &str| {
            format!(
                "SELECT COUNT(DISTINCT d.id) FROM trips t JOIN drivers d ON t.driver_id = d.id \
                 {root} cities c ON t.city_id = c.id"
            )
        };
        let bench = "WHERE c.name = 'Oslo' AND t.status = 'completed' \
                     AND d.city_id <> t.city_id AND t.fare > 3.0";
        let fare = Kernel::Cmp(3, Gt, Value::Float(3.0));
        let status = Kernel::Cmp(4, Eq, Value::Str("completed".into()));
        let name = Kernel::Cmp(1, Eq, Value::Str("Oslo".into()));
        let cross = CompiledExpr::Binary {
            op: NotEq,
            left: Box::new(Col(6)),
            right: Box::new(Col(2)),
        };
        let plan = |sql: &str| {
            let q = flex_sql::parse_query(sql).unwrap();
            let mut ex = Exec::new(&db, db.exec_tuning());
            let plan = plan_block(&mut ex, q.as_select().unwrap(), &q.order_by, None, None);
            plan.unwrap_or_else(|e| panic!("{sql}: {e}")).0
        };
        let pushed = |plan: &BlockPlan| {
            let PlanNode::Join(root) = &plan.root else {
                panic!("a join root");
            };
            (root.left_kernels.clone(), root.right_kernels.clone())
        };

        // The bench's three-way join: the kernels on `t` and `c` narrow
        // the root's inputs, the cross-side `<>` alone runs post-join.
        let p = plan(&format!("{} {bench}", join("JOIN")));
        let pushed_both = (vec![fare.clone(), status.clone()], vec![name.clone()]);
        assert_eq!(pushed(&p), pushed_both);
        assert!(p.post_kernels.is_empty());
        assert_eq!(p.post_filter.as_ref(), Some(&cross));

        // RIGHT keeps `c`'s unmatched rows and NULL-pads `t ⋈ d`: the
        // kernels on `t` run post-join, over the pads, before the `<>`.
        let p = plan(&format!("{} {bench}", join("RIGHT JOIN")));
        assert_eq!(pushed(&p), (vec![], vec![name.clone()]));
        let post = vec![(JoinSide::Left, fare), (JoinSide::Left, status)];
        assert_eq!(p.post_kernels, post);
        assert_eq!(p.post_filter.as_ref(), Some(&cross));

        // A fallible conjunct (`+` can raise) pins the whole predicate.
        let fallible = "WHERE c.name = 'Oslo' AND t.status = 'completed' \
                        AND t.fare + d.city_id > 3";
        let p = plan(&format!("{} {fallible}", join("JOIN")));
        assert_eq!(pushed(&p), (vec![], vec![]));
        assert!(p.post_kernels.is_empty());
        let mut read = Vec::new();
        p.post_filter
            .unwrap()
            .for_each_column(&mut |c| read.push(c));
        assert_eq!(read, [9, 4, 3, 6]);
    }

    /// Predicates pack four bits a conjunct, in sequence; a lone conjunct
    /// is not a schedule; the seventeenth conjunct on is counted only.
    #[test]
    fn filter_order_packs_predicates_in_sequence() {
        let mut order = FilterOrder::default();
        order.push([2, 0, 1].into_iter());
        assert_eq!((order.conjuncts, order.order), (3, 0x102));
        order.push([0].into_iter());
        assert_eq!((order.conjuncts, order.order), (3, 0x102));
        order.push([1, 0].into_iter());
        assert_eq!(order.positions(), [2, 0, 1, 1, 0]);
        order.push((0..20).rev());
        assert_eq!(order.conjuncts, 25);
        assert_eq!(
            order.positions(),
            [2, 0, 1, 1, 0, 15, 15, 15, 15, 15, 14, 13, 12, 11, 10, 9]
        );
        order.push([2, 0, 1].into_iter());
        assert_eq!((order.conjuncts, order.positions().len()), (28, 16));
    }

    #[test]
    fn scalar_extraction() {
        let rs = ResultSet {
            columns: vec!["count".into()],
            rows: vec![vec![Value::Int(7)]],
        };
        assert_eq!(rs.scalar(), Some(&Value::Int(7)));
    }
}
