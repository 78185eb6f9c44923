//! Intermediate relations flowing between execution operators, plus the
//! physical-plan IR of the executor.
//!
//! # The plan IR
//!
//! The executor ([`crate::vexec`]) runs a small physical-plan IR in which
//! **every operator produces and consumes a [`ColumnarTable`]**, so any
//! columnar result can feed the next operator:
//!
//! - **Scan** — one leaf of the FROM tree: a base table's columnar
//!   projection, a derived table's (`FROM (SELECT …) alias`) executed and
//!   columnarized result, or — for a table-less `SELECT` — one row of
//!   zero columns.
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
//! # Plan as you execute
//!
//! Nothing is analyzed ahead of execution. `plan_tree` builds the join
//! tree bottom-up, left to right, and whatever it reaches that is a query
//! of its own — a derived leaf — **executes right there**; the leaf's
//! scope and physical column types are read off the executed result.
//! Set-operation arms and a block's own derived table run the same way
//! (`vexec`). Every error is therefore raised where it is found, as the
//! [`DbError`] a reader of the query would expect: an unknown table, a
//! `USING`/`ON`/`WHERE` name that does not resolve, a failing subquery.
//!
//! **Error order.** A query with one defect reports that defect. A query
//! with several independent defects reports the first one in this order:
//! FROM leaves left to right (a derived leaf's whole execution counts as
//! its leaf) interleaved bottom-up with each join's `USING`/`ON`
//! compilation, then WHERE compilation, then join execution bottom-up
//! and the WHERE filter, then the block's own plan (`plan_tail` /
//! `plan_grouped`, before any of its rows is touched): GROUP BY,
//! SELECT items left to right, HAVING, ORDER BY. Runtime errors of the
//! block come last, operator by operator: group keys (earliest row), each
//! aggregate's argument in aggregate order (earliest row), the folds
//! (lowest aggregate index), then per group — or per row of a plain block
//! — HAVING, SELECT items, sort keys. (The oracle interleaves join
//! *execution* with the FROM walk, and aggregates group by group, so it
//! can name a different defect of the same query; whether a query errors
//! never differs.) Scoping mirrors the
//! oracle's per-node rule exactly: equi-keys and ON residuals are
//! extracted against each node's local `left.cols ++ right.cols` scope.
//!
//! Names become positions in [`crate::bind`] and nowhere else: column
//! references, `USING`/`ON` keys, SELECT-list expansion and ORDER BY
//! output names — the module the sensitivity analysis binds through too.
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
//!   pair set under a fallible residual could skip an error). Everything
//!   else runs post-join, whole, on the scalar interpreter.
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
use crate::bind::{self, resolve_column, split_join_constraint, ColMeta, Projected};
use crate::column::{Column, ColumnData, ColumnarTable};
use crate::error::{DbError, Result};
use crate::exec::{self, Exec, GroupCompiler, SortKey};
use crate::expr::CompiledExpr;
use crate::table::Row;
use crate::value::Value;
use crate::vexec;
use flex_sql::{
    visitor, BinaryOperator, ColumnRef, Expr, JoinType, OrderByItem, Query, Select, TableRef,
};
use std::cmp::Ordering;
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
    /// of `n` leaves runs `n - 1` joins, post-order; nested executions'
    /// joins come first). Saturates at 255.
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

    /// Record a nested execution's joins after this one's.
    pub(crate) fn append(&mut self, child: JoinOrder) {
        if self.joins < 8 {
            self.swapped |= child.swapped << self.joins;
        }
        self.joins = self.joins.saturating_add(child.joins);
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
    /// after predicate in the sequence they were planned — nested
    /// executions first. Saturates at 255.
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

    /// Record a nested execution's predicates after this one's.
    pub(crate) fn append(&mut self, child: FilterOrder) {
        if self.conjuncts < 16 {
            self.order |= child.order << (4 * self.conjuncts);
        }
        self.conjuncts = self.conjuncts.saturating_add(child.conjuncts);
    }
}

/// An intermediate relation: ordered columns plus a multiset of rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Relation {
    /// Column metadata, in output order.
    pub cols: Vec<ColMeta>,
    /// The rows (each as wide as `cols`).
    pub rows: Vec<Row>,
}

impl Relation {
    /// Assemble a relation from columns and rows.
    pub fn new(cols: Vec<ColMeta>, rows: Vec<Row>) -> Self {
        Relation { cols, rows }
    }

    /// Resolve a column reference to an index into this relation's rows.
    ///
    /// Bare names must be unambiguous; qualified names must match a column
    /// with that qualifier.
    pub fn resolve(&self, r: &ColumnRef) -> Result<usize> {
        resolve_column(&self.cols, r)
    }

    /// Re-qualify every column with a new alias (as when a derived table or
    /// base table gets a `FROM ... alias`).
    pub fn with_qualifier(mut self, alias: &str) -> Relation {
        for c in &mut self.cols {
            c.qualifier = Some(alias.to_string());
        }
        self
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

impl From<Relation> for ResultSet {
    fn from(r: Relation) -> Self {
        ResultSet {
            columns: r.cols.into_iter().map(|c| c.name).collect(),
            rows: r.rows,
        }
    }
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

// ---- physical plan IR for the join pipeline -------------------------------

/// Which side of a join a single-column kernel conjunct reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinSide {
    Left,
    Right,
}

/// A node of the physical join tree.
pub(crate) enum PlanNode {
    /// Leaf scan: index into [`TreePlan::leaves`].
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
    /// Which of the node's `lw + rw` output columns ancestors (or the
    /// query tail) actually read. Only these are gathered; dead columns
    /// become cheap all-NULL placeholders that are never re-gathered.
    pub live_cols: Vec<bool>,
}

/// The planned physical tree for one SELECT block over a join FROM
/// clause, plus the root-level WHERE remainder.
pub(crate) struct TreePlan {
    /// Scan leaves in FROM order (what [`PlanNode::Scan`] indexes): base
    /// tables' shared columnar projections and derived tables' executed
    /// results.
    pub leaves: Vec<Arc<ColumnarTable>>,
    /// The root join (a join FROM always has one).
    pub root: JoinNode,
    /// Infallible WHERE kernels that could not push below the root
    /// (kept-unmatched sides): applied to the root's match vectors,
    /// side-local, pad-aware.
    pub post_kernels: Vec<(JoinSide, Kernel)>,
    /// The whole WHERE predicate when any conjunct lacks a kernel:
    /// interpreted over joined rows in output order, preserving
    /// short-circuit and error behavior exactly.
    pub post_filter: Option<CompiledExpr>,
    /// The full combined scope (all leaf columns in FROM order), as
    /// nested joins qualify it.
    pub cols: Vec<ColMeta>,
}

/// Plan the physical join tree for a SELECT block whose FROM clause is a
/// join, executing derived leaves as the build reaches them. Key
/// extraction, kernel placement, liveness and the order errors surface
/// in follow the rules in the [module docs](self).
pub(crate) fn plan_tree(
    ex: &mut Exec<'_>,
    q: &Query,
    s: &Select,
    from: &TableRef,
) -> Result<TreePlan> {
    let mut leaves = Vec::new();
    let (node, cols, phys) = build_node(ex, from, &mut leaves)?;
    let PlanNode::Join(root) = node else {
        unreachable!("plan_tree is only called on a join FROM clause");
    };
    let mut root = *root;

    // Root-level WHERE: all-kernel predicates split per side and push
    // below the root where the placement rules allow; anything else runs
    // whole, post-join, on the interpreter. Either way an infallible
    // predicate's conjuncts are scheduled first, so every list they land
    // in is in rank order.
    let keep_l = keeps_unmatched(root.join_type, JoinSide::Left);
    let keep_r = keeps_unmatched(root.join_type, JoinSide::Right);
    let mut post_kernels = Vec::new();
    let mut post_filter = None;
    if let Some(pred) = &s.selection {
        let compiled = ex.compile_scalar(pred, &cols)?;
        // Pushing below the join is only sound when the root's own
        // residual is infallible (here: empty, i.e. fully kernelized).
        let push_ok = root.residual.is_empty();
        let scheduled = schedule_where(compiled, &|c| phys[c], &mut ex.stats.filter_order);
        let kernels: Option<Vec<_>> = scheduled.as_ref().ok().and_then(|conjuncts| {
            conjuncts
                .iter()
                .map(|e| side_kernel(e, root.lw, &phys))
                .collect()
        });
        match kernels {
            Some(kernels) => {
                for (side, k) in kernels {
                    match side {
                        // A left-side WHERE kernel may narrow the left
                        // scan unless unmatched *right* rows NULL-pad
                        // the left columns (RIGHT/FULL) — those pads
                        // need the post-join evaluation. Symmetrically
                        // for the right side.
                        JoinSide::Left if push_ok && !keep_r => root.left_kernels.push(k),
                        JoinSide::Right if push_ok && !keep_l => root.right_kernels.push(k),
                        side => post_kernels.push((side, k)),
                    }
                }
            }
            None => post_filter = Some(scheduled.map_or_else(|pinned| pinned, and_chain)),
        }
    }

    // Liveness: what the tail reads from the root's output, plus what
    // the root-level post filters read from the children (over-marking
    // the root's own output for the latter is harmless — one extra
    // gather — and keeps the rule simple: live from leaf to root).
    let mut live = vec![false; cols.len()];
    mark_live_columns(q, s, &cols, &mut live);
    for (side, k) in &post_kernels {
        let offset = match side {
            JoinSide::Left => 0,
            JoinSide::Right => root.lw,
        };
        live[offset + k.col()] = true;
    }
    if let Some(p) = &post_filter {
        p.for_each_column(&mut |i| live[i] = true);
    }
    assign_liveness(&mut root, live);

    Ok(TreePlan {
        leaves,
        root,
        post_kernels,
        post_filter,
        cols,
    })
}

/// Whether `join_type` keeps (NULL-pads) unmatched rows of `side`.
pub(crate) fn keeps_unmatched(join_type: JoinType, side: JoinSide) -> bool {
    match side {
        JoinSide::Left => matches!(join_type, JoinType::Left | JoinType::Full),
        JoinSide::Right => matches!(join_type, JoinType::Right | JoinType::Full),
    }
}

/// Recursively build the plan node for one FROM subtree, opening (and,
/// for a derived table, executing) each leaf as the walk reaches it.
/// Returns the node, its output scope, and each output column's physical
/// storage ([`Phys`]), which ranks conjuncts and gates LIKE kernels.
fn build_node(
    ex: &mut Exec<'_>,
    t: &TableRef,
    leaves: &mut Vec<Arc<ColumnarTable>>,
) -> Result<(PlanNode, Vec<ColMeta>, Vec<Phys>)> {
    match t {
        TableRef::Join {
            left,
            right,
            join_type,
            constraint,
        } => {
            let (lnode, lcols, mut phys) = build_node(ex, left, leaves)?;
            let (rnode, rcols, rphys) = build_node(ex, right, leaves)?;
            let lw = lcols.len();
            let rw = rcols.len();
            // Equi-keys against this node's local scopes; what is left
            // of ON compiles against the combined one.
            let (key_pairs, on_rest) = split_join_constraint(&lcols, &rcols, constraint)?;
            let mut combined = lcols;
            combined.extend(rcols);
            phys.extend(rphys);
            let mut residual = Vec::with_capacity(on_rest.len());
            for c in &on_rest {
                residual.push(ex.compile_scalar(c, &combined)?);
            }
            let written: Vec<&CompiledExpr> = residual.iter().collect();
            let scheduled = schedule(&written, &|c| phys[c], &mut ex.stats.filter_order);
            let residual = scheduled.unwrap_or(residual);

            let mut node = JoinNode {
                left: lnode,
                right: rnode,
                join_type: *join_type,
                lw,
                rw,
                key_pairs,
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
            // `Some(vec![])`, covering the pure-equi/CROSS cases.)
            let kernels: Option<Vec<_>> =
                residual.iter().map(|e| side_kernel(e, lw, &phys)).collect();
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

            Ok((PlanNode::Join(Box::new(node)), combined, phys))
        }
        leaf => {
            let (ctab, cols) = vexec::open_scan(ex, leaf)?;
            let phys = ctab.columns.iter().map(Phys::of).collect();
            leaves.push(ctab);
            Ok((PlanNode::Scan(leaves.len() - 1), cols, phys))
        }
    }
}

/// Push liveness down the tree: a node materializes exactly `needed`,
/// and each child must additionally materialize whatever this node reads
/// at pair time (join keys, kernels, residual references) — so a column
/// is either real along its whole leaf-to-root path, or an all-NULL
/// placeholder from some node upward that no operator ever gathers.
fn assign_liveness(node: &mut JoinNode, needed: Vec<bool>) {
    let lw = node.lw;
    node.live_cols = needed;
    let mut lneed = node.live_cols[..lw].to_vec();
    let mut rneed = node.live_cols[lw..].to_vec();
    for &(lk, rk) in &node.key_pairs {
        lneed[lk] = true;
        rneed[rk] = true;
    }
    for k in node.left_kernels.iter().chain(&node.left_match_kernels) {
        lneed[k.col()] = true;
    }
    for k in node.right_kernels.iter().chain(&node.right_match_kernels) {
        rneed[k.col()] = true;
    }
    for e in &node.residual {
        e.for_each_column(&mut |i| {
            if i < lw {
                lneed[i] = true;
            } else {
                rneed[i - lw] = true;
            }
        });
    }
    if let PlanNode::Join(child) = &mut node.left {
        assign_liveness(child, lneed);
    }
    if let PlanNode::Join(child) = &mut node.right {
        assign_liveness(child, rneed);
    }
}

// ---- kernels ---------------------------------------------------------------

/// One infallible conjunct over a single column, as the columnar
/// operators run it: extracted once from a scheduled conjunct
/// ([`Kernel::of`]) and a value from then on — in `filter`, a
/// [`JoinNode`]'s pushed lists, [`TreePlan::post_kernels`] — so nothing
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
    pub(crate) fn of(e: &CompiledExpr, phys: &dyn Fn(usize) -> Phys) -> Option<Kernel> {
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
pub(crate) enum Phys {
    /// `Int64`, `Float64`, `Bool`: a comparison costs one step.
    Fixed,
    /// All strings: four steps a comparison, and the only columns
    /// `LIKE` cannot fail on.
    Str,
    /// `Value`s of several types: four steps a comparison.
    Mixed,
}

impl Phys {
    pub(crate) fn of(col: &Column) -> Phys {
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
pub(crate) fn schedule_where(
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
pub(crate) fn and_chain(conjuncts: Vec<CompiledExpr>) -> CompiledExpr {
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
    /// Output column metadata: wildcard columns keep their qualifier,
    /// expressions are named by alias or printed form.
    pub out_cols: Vec<ColMeta>,
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

/// Assemble a [`TailPlan`] from a block's compiled SELECT list, resolving
/// ORDER BY through the one shared rule ([`exec::plan_sort_keys_with`]):
/// output-position/name matches sort on the projected item; other keys
/// compile through `compile_source` against the tail's input scope.
fn build_tail(
    q: &Query,
    distinct: bool,
    items: Vec<(ColMeta, CompiledExpr)>,
    compile_source: &mut dyn FnMut(&Expr) -> Result<CompiledExpr>,
) -> Result<TailPlan> {
    let mut computed = Vec::new();
    let (out_cols, out_items): (Vec<_>, Vec<_>) = items
        .into_iter()
        .map(|(meta, e)| (meta, tail_item(e, &mut computed)))
        .unzip();
    let keys = exec::plan_sort_keys_with(&q.order_by, &out_cols, compile_source)?;
    let sort = keys
        .into_iter()
        .zip(&q.order_by)
        .map(|(key, item)| {
            let tail_item = match key {
                SortKey::Output(pos) => out_items[pos],
                SortKey::Source(e) => tail_item(e, &mut computed),
            };
            (tail_item, item.descending)
        })
        .collect();
    Ok(TailPlan {
        out_cols,
        out_items,
        sort,
        computed,
        distinct,
        limit: q.limit,
        offset: q.offset,
    })
}

/// Plan the tail of a non-aggregated SELECT block. Compile errors are
/// raised here, before any row of the tail's input is touched, in the
/// oracle's order: projection items left to right (an unknown wildcard
/// qualifier among them), then ORDER BY.
pub(crate) fn plan_tail(
    ex: &mut Exec<'_>,
    q: &Query,
    s: &Select,
    cols: &[ColMeta],
) -> Result<TailPlan> {
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
    build_tail(q, s.distinct, items, &mut |e| ex.compile_scalar(e, cols))
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
/// the oracle's order: GROUP BY, projection items left to right (a
/// wildcard is one), HAVING, then ORDER BY.
pub(crate) fn plan_grouped(
    ex: &mut Exec<'_>,
    q: &Query,
    s: &Select,
    cols: &[ColMeta],
) -> Result<GroupedPlan> {
    let keys = ex.compile_group_exprs(s, cols)?;
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
    let tail = build_tail(q, s.distinct, items, &mut |e| gc.compile(ex, e, cols))?;
    let aggs = gc.aggs;
    Ok(GroupedPlan {
        keys,
        aggs,
        having,
        tail,
    })
}

/// Mark every combined column the query can read *after* the join —
/// projection, GROUP BY, HAVING and ORDER BY. Over-marking is harmless
/// (an extra gather); under-marking never happens: a reference that does
/// not resolve here fails compilation in the shared tail before any row
/// is touched, and wildcards mark whole sides.
fn mark_live_columns(q: &Query, s: &Select, combined: &[ColMeta], live: &mut [bool]) {
    let mark_expr = |e: &Expr, live: &mut [bool]| {
        visitor::walk_expr(e, &mut |sub| {
            if let Expr::Column(c) = sub {
                if let Ok(i) = resolve_column(combined, c) {
                    live[i] = true;
                }
            }
        });
    };

    // What the SELECT list reads. (An unknown `q.*` marks nothing: the
    // block's plan raises it before any row is touched.)
    let mut out_cols = Vec::new();
    for (meta, source) in bind::project_scope(combined, &s.projection)
        .into_iter()
        .flatten()
    {
        match source {
            Projected::Wildcard(i) => live[i] = true,
            Projected::Expr(expr) => mark_expr(expr, live),
        }
        out_cols.push(meta);
    }
    for g in &s.group_by {
        mark_expr(g, live);
    }
    if let Some(h) = &s.having {
        mark_expr(h, live);
    }
    for OrderByItem { expr, .. } in &q.order_by {
        // A key that is an output position or name sorts on the output
        // value, which the SELECT list already marked; only a source
        // expression reads more. (Out of range: the plan's error.)
        if let Ok(None) = bind::sort_key_by_output(expr, &out_cols) {
            mark_expr(expr, live);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn rel() -> Relation {
        Relation::new(
            vec![
                ColMeta::new(Some("t".into()), "id"),
                ColMeta::new(Some("u".into()), "id"),
                ColMeta::new(Some("t".into()), "city"),
            ],
            vec![vec![Value::Int(1), Value::Int(2), Value::str("sf")]],
        )
    }

    #[test]
    fn qualified_resolution() {
        let r = rel();
        assert_eq!(r.resolve(&ColumnRef::qualified("u", "id")).unwrap(), 1);
        assert_eq!(r.resolve(&ColumnRef::qualified("t", "city")).unwrap(), 2);
    }

    #[test]
    fn bare_ambiguous_name_errors() {
        let r = rel();
        assert!(matches!(
            r.resolve(&ColumnRef::bare("id")),
            Err(DbError::AmbiguousColumn(_))
        ));
        assert_eq!(r.resolve(&ColumnRef::bare("city")).unwrap(), 2);
    }

    #[test]
    fn unknown_column_errors() {
        let r = rel();
        assert!(matches!(
            r.resolve(&ColumnRef::bare("nope")),
            Err(DbError::UnknownColumn(_))
        ));
    }

    /// A block's plan raises its own compile errors — the oracle's, by
    /// text — from nothing but the scope: the table behind it is empty
    /// and the plan functions never see it.
    #[test]
    fn tail_plans_raise_the_oracles_compile_errors_from_the_scope_alone() {
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
            let mut ex = Exec::new(&db, vexec::execute_query, db.exec_tuning());
            let planned = if bind::is_aggregated(s) {
                plan_grouped(&mut ex, &q, s, &cols).map(drop)
            } else {
                plan_tail(&mut ex, &q, s, &cols).map(drop)
            };
            let err = planned.expect_err(tail).to_string();
            assert!(err.contains(expected), "{tail}: {err}");
            assert_eq!(
                err,
                db.execute_sql_row(tail).unwrap_err().to_string(),
                "{tail}"
            );
        }
    }

    /// Predicates pack four bits a conjunct, in sequence; a lone conjunct
    /// is not a schedule; the seventeenth conjunct on is counted only.
    #[test]
    fn filter_order_packs_predicates_in_sequence() {
        let mut child = FilterOrder::default();
        child.push([2, 0, 1].into_iter());
        assert_eq!((child.conjuncts, child.order), (3, 0x102));
        let mut order = FilterOrder::default();
        order.push([0].into_iter());
        assert_eq!(order, FilterOrder::default());
        order.push([1, 0].into_iter());
        order.append(child);
        assert_eq!(order.positions(), [1, 0, 2, 0, 1]);
        order.push((0..20).rev());
        assert_eq!(order.conjuncts, 25);
        assert_eq!(
            order.positions(),
            [1, 0, 2, 0, 1, 15, 15, 15, 15, 15, 14, 13, 12, 11, 10, 9]
        );
        order.append(child);
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
