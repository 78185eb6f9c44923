//! Intermediate relations flowing between execution operators, plus the
//! physical-plan IR for the vectorized engine.
//!
//! # The plan IR
//!
//! The vectorized engine executes a small physical-plan IR in which
//! **every operator produces and consumes a [`ColumnarTable`]**, so any
//! columnar result can feed the next operator:
//!
//! - **Scan** — one leaf of the FROM tree: a base table's columnar
//!   projection, or a derived table (`FROM (SELECT …) alias`) whose
//!   subquery result is columnarized via [`ColumnarTable::from_rows`]
//!   when the executor reaches it (lazily, in the row engine's FROM-walk
//!   order, so subquery errors surface at the same point).
//! - **Filter** — infallible kernel conjuncts narrowing a selection
//!   vector over any node's output (pushed-down WHERE/ON kernels).
//! - **Join** — one binary join of the left-deep FROM tree
//!   (`JoinNode`): equi-key hash join, or nested-loop for CROSS and
//!   non-equi joins, producing `(left, right)` match index vectors, with
//!   matched-bit tracking for the padded sides of RIGHT/FULL joins. The
//!   node late-materializes only live columns into a new
//!   [`ColumnarTable`] that feeds the parent operator.
//! - **Aggregate / Tail** — the shared block tail (columnar
//!   hash-aggregate, or the ORDER BY / DISTINCT / LIMIT tail described
//!   by `TailPlan`) over whichever node's output reaches it.
//!
//! `plan_tree` builds the join-tree plan from a SELECT block,
//! mirroring the row interpreter's per-node scoping *exactly*: equi-keys
//! and ON residuals are extracted against each node's local
//! `left.cols ++ right.cols` scope in the row engine's resolution order,
//! and anything the planner cannot compile falls back so the row engine
//! re-derives the same error.
//!
//! # Predicate placement rules
//!
//! Only **infallible kernel conjuncts** (`col op literal`, `IS NULL`,
//! `LIKE` on a known-string column) are ever pushed or reordered; any
//! fallible conjunct pins the whole predicate it belongs to at its
//! row-engine evaluation point, so runtime errors surface from the same
//! row on both engines:
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
//!   pair set under a fallible residual could skip an error the row
//!   engine reports). Everything else runs post-join, whole, on the
//!   shared interpreter.
//!
//! # Join order is scheduling, never semantics
//!
//! The executor picks the hash-build side per join with a greedy
//! smallest-estimated-input-first heuristic, recorded in [`JoinOrder`].
//! The choice never affects result bytes: swapped probes restore the row
//! engine's emission order before materialization, and the shared tail
//! re-sorts deterministically — so the decision is pure scheduling and
//! is never bound into the release fingerprint.

use crate::column::{ColumnData, ColumnarTable, GATHER_NULL};
use crate::database::Database;
use crate::error::{DbError, Result};
use crate::exec::{self, Exec, SortKey};
use crate::expr::CompiledExpr;
use crate::table::Row;
use crate::vexec::{collect_conjuncts, side_kernel};
use flex_sql::{
    visitor, ColumnRef, Expr, JoinConstraint, JoinType, Literal, OrderByItem, Query, Select,
    SelectItem, SetExpr, TableRef,
};
use std::sync::Arc;

/// Which engine one query executed on — and, when the vectorized engine
/// declined it, the concrete reason — as recorded by the routing entry
/// point itself ([`crate::exec::execute_traced`]). Pure observability:
/// results are byte-identical on both engines, so the decision never
/// leaks into released values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteDecision {
    /// The vectorized columnar engine ran the query (a single-table
    /// block, a planned join tree, a derived table, or a UNION).
    Vectorized,
    /// The row interpreter ran it, for this reason.
    Fallback(FallbackReason),
}

impl RouteDecision {
    /// Whether the query ran (or would run) on the vectorized engine.
    pub fn is_vectorized(self) -> bool {
        matches!(self, RouteDecision::Vectorized)
    }

    /// The fallback reason, or `None` for a vectorized run.
    pub fn fallback_reason(self) -> Option<FallbackReason> {
        match self {
            RouteDecision::Vectorized => None,
            RouteDecision::Fallback(r) => Some(r),
        }
    }

    /// Stable snake_case label (`"vectorized"` or the reason's label),
    /// used for metric labels and bench reports.
    pub fn as_str(self) -> &'static str {
        match self {
            RouteDecision::Vectorized => "vectorized",
            RouteDecision::Fallback(r) => r.as_str(),
        }
    }
}

impl std::fmt::Display for RouteDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why the vectorized engine declined a query. Each `return` point in
/// `vexec`'s router maps to exactly one variant, so production telemetry
/// can show *which* query shapes still miss the fast path instead of a
/// bare fallback count.
///
/// Join trees, derived tables (CTE references included — `WITH` is
/// expanded before routing), RIGHT/FULL/CROSS and non-equi joins, and
/// UNION \[ALL\] vectorize; each variant's doc says what residual shape
/// still produces it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FallbackReason {
    /// A set operation the union planner does not cover:
    /// INTERSECT/EXCEPT anywhere in the body, a statically detectable
    /// arity mismatch, ORDER BY keys that do not resolve to output
    /// columns, or an arm whose output shape cannot be derived without
    /// executing it. Plain UNION/UNION ALL trees vectorize.
    SetOperation,
    /// Table-less `SELECT` (no FROM clause).
    TableLess,
    /// A referenced base table does not exist; the row interpreter runs
    /// it so the error is reported from one place.
    UnknownTable,
    /// A join tree of more than eight leaves (the planner's depth cap;
    /// trees up to eight base/derived tables vectorize).
    MultiTableJoin,
    /// A derived join leaf (`… JOIN (SELECT …) d`) whose output shape
    /// cannot be statically derived (a set-operation body, or a wildcard
    /// over an unanalyzable scope). Statically analyzable derived tables
    /// — which is what every CTE reference becomes — vectorize,
    /// standalone or as join leaves. Also what routing reports for a
    /// `WITH` too large to expand, which neither engine runs.
    DerivedTable,
    /// A base join leaf exceeds the engine's `u32` selection-vector row
    /// limit.
    TableTooLarge,
    /// The planner could not compile the join tree's expressions
    /// (USING/ON/WHERE scope errors the row interpreter re-derives and
    /// reports identically). Genuine non-equi and keyless joins now
    /// vectorize as nested-loop joins.
    NonEquiJoin,
}

impl FallbackReason {
    /// Every variant, in declaration order. Telemetry indexes its
    /// per-variant counters by position in this array.
    pub const ALL: [FallbackReason; 7] = [
        FallbackReason::SetOperation,
        FallbackReason::TableLess,
        FallbackReason::UnknownTable,
        FallbackReason::MultiTableJoin,
        FallbackReason::DerivedTable,
        FallbackReason::TableTooLarge,
        FallbackReason::NonEquiJoin,
    ];

    /// Position of this variant in [`FallbackReason::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label for metric labels and bench reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FallbackReason::SetOperation => "set_operation",
            FallbackReason::TableLess => "table_less",
            FallbackReason::UnknownTable => "unknown_table",
            FallbackReason::MultiTableJoin => "multi_table_join",
            FallbackReason::DerivedTable => "derived_table",
            FallbackReason::TableTooLarge => "table_too_large",
            FallbackReason::NonEquiJoin => "non_equi_join",
        }
    }
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The join-scheduling decisions one vectorized execution made, recorded
/// in [`crate::exec::ExecTrace`]. Pure observability: join-order
/// selection only ever changes *scheduling* (which input feeds the hash
/// build), never result bytes — swapped probes restore the row engine's
/// emission order before materialization and the shared tail re-sorts
/// deterministically — so this is never bound into the release
/// fingerprint and the heuristic can evolve freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct JoinOrder {
    /// Join operators executed, numbered in post-order execution
    /// sequence (a left-deep tree of `n` tables runs `n - 1` joins).
    pub joins: u8,
    /// Bitmask over that sequence: bit `k` set iff the `k`-th join chose
    /// its *left* input as the hash-build side — the greedy
    /// smallest-estimated-input-first heuristic swapped the default
    /// build-on-the-right.
    pub swapped: u8,
}

/// Metadata for one column of an intermediate relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColMeta {
    /// Table alias (or table name) qualifying the column, if any.
    pub qualifier: Option<String>,
    /// The column's (output) name.
    pub name: String,
}

impl ColMeta {
    /// Column metadata with an optional qualifier.
    pub fn new(qualifier: Option<String>, name: impl Into<String>) -> Self {
        ColMeta {
            qualifier,
            name: name.into(),
        }
    }

    fn matches(&self, r: &ColumnRef) -> bool {
        if self.name != r.name {
            return false;
        }
        match &r.qualifier {
            None => true,
            Some(q) => self.qualifier.as_deref() == Some(q.as_str()),
        }
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

/// [`Relation::resolve`] over a bare column scope.
fn resolve_column(cols: &[ColMeta], r: &ColumnRef) -> Result<usize> {
    let mut found = None;
    for (i, c) in cols.iter().enumerate() {
        if c.matches(r) {
            if found.is_some() {
                return Err(DbError::AmbiguousColumn(r.to_string()));
            }
            found = Some(i);
        }
    }
    found.ok_or_else(|| DbError::UnknownColumn(r.to_string()))
}

/// A join constraint split by [`split_join_constraint`]: equi-key pairs
/// as (left-local, right-local) column indices, and the `ON` conjuncts
/// left over as a residual predicate, in `ON` order.
pub(crate) type JoinSplit<'a> = (Vec<(usize, usize)>, Vec<&'a Expr>);

/// Split a join constraint into equi-key pairs and a residual.
/// `USING (c)` is the pair `c = c`; an `ON` conjunct `a = b` between two
/// columns is a key when `a` resolves on the left and `b` on the right,
/// or the other way round; everything else stays residual. The one
/// definition both engines join by: a `USING` column missing or
/// ambiguous on either side is the error.
pub(crate) fn split_join_constraint<'a>(
    left_cols: &[ColMeta],
    right_cols: &[ColMeta],
    constraint: &'a JoinConstraint,
) -> Result<JoinSplit<'a>> {
    let mut key_pairs = Vec::new();
    let mut residual = Vec::new();
    match constraint {
        JoinConstraint::None => {}
        JoinConstraint::Using(names) => {
            for name in names {
                let c = ColumnRef::bare(name.clone());
                key_pairs.push((
                    resolve_column(left_cols, &c)?,
                    resolve_column(right_cols, &c)?,
                ));
            }
        }
        JoinConstraint::On(on) => {
            for conjunct in on.conjuncts() {
                let key = conjunct.as_column_equality().and_then(|(a, b)| {
                    match (resolve_column(left_cols, a), resolve_column(right_cols, b)) {
                        (Ok(l), Ok(r)) => Some((l, r)),
                        _ => resolve_column(left_cols, b)
                            .ok()
                            .zip(resolve_column(right_cols, a).ok()),
                    }
                });
                match key {
                    Some(pair) => key_pairs.push(pair),
                    None => residual.push(conjunct),
                }
            }
        }
    }
    Ok((key_pairs, residual))
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

// ---- physical plan IR for the vectorized join pipeline --------------------

/// Which side of a join a single-column kernel conjunct reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinSide {
    Left,
    Right,
}

/// Where one Scan leaf's columnar data comes from.
pub(crate) enum LeafSource<'a> {
    /// A base table's lazily built columnar projection, shared by `Arc`.
    Base(Arc<ColumnarTable>),
    /// A derived table: the subquery is executed (on whichever engine
    /// routing picks) and its result columnarized when the tree executor
    /// reaches this leaf — the row engine's FROM-walk order, so subquery
    /// errors surface at the same point on both engines.
    Derived {
        query: &'a Query,
        /// Statically derived output arity (checked against the actual
        /// result in debug builds).
        width: usize,
    },
}

/// One leaf of the planned FROM tree, in left-to-right FROM order.
pub(crate) struct Leaf<'a> {
    pub source: LeafSource<'a>,
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
    pub left_kernels: Vec<CompiledExpr>,
    /// Infallible kernels dropping right-child rows before the join.
    pub right_kernels: Vec<CompiledExpr>,
    /// ON kernels on a kept-unmatched left side (LEFT/FULL): a failing
    /// row has no match but is not dropped — it must still be padded.
    pub left_match_kernels: Vec<CompiledExpr>,
    /// ON kernels on a kept-unmatched right side (RIGHT/FULL): failing
    /// rows never enter the hash build but still pad at the end.
    pub right_match_kernels: Vec<CompiledExpr>,
    /// Fallible ON conjuncts, evaluated per candidate pair in ON order on
    /// the shared interpreter — exactly the row engine's residual check.
    pub residual: Vec<CompiledExpr>,
    /// Which of the node's `lw + rw` output columns ancestors (or the
    /// query tail) actually read. Only these are gathered; dead columns
    /// become cheap all-NULL placeholders that are never re-gathered.
    pub live_cols: Vec<bool>,
}

/// The planned physical tree for one SELECT block over a join FROM
/// clause, plus the root-level WHERE remainder.
pub(crate) struct TreePlan<'a> {
    /// Scan leaves in FROM order (what [`PlanNode::Scan`] indexes).
    pub leaves: Vec<Leaf<'a>>,
    /// The root join (a join FROM always has one).
    pub root: JoinNode,
    /// Infallible WHERE kernels that could not push below the root
    /// (kept-unmatched sides): applied to the root's match vectors,
    /// side-local, pad-aware.
    pub post_kernels: Vec<(JoinSide, CompiledExpr)>,
    /// The whole WHERE predicate when any conjunct lacks a kernel:
    /// interpreted over joined rows in output order, preserving
    /// short-circuit and error behavior exactly.
    pub post_filter: Option<CompiledExpr>,
    /// The full combined scope (all leaf columns in FROM order), as the
    /// row engine's nested joins would qualify it.
    pub cols: Vec<ColMeta>,
}

/// The planner's cap on join-tree width: more leaves than this falls
/// back ([`FallbackReason::MultiTableJoin`]), which also bounds
/// [`JoinOrder::swapped`]'s bitmask.
pub(crate) const MAX_TREE_LEAVES: usize = 8;

/// Plan the physical join tree for a SELECT block whose FROM clause is a
/// join, or name the concrete reason the row interpreter must run it.
/// Key extraction, kernel placement and liveness follow the rules in the
/// [module docs](self).
pub(crate) fn plan_tree<'a>(
    ex: &mut Exec<'_>,
    db: &Database,
    q: &Query,
    s: &'a Select,
    from: &'a TableRef,
) -> std::result::Result<TreePlan<'a>, FallbackReason> {
    let mut leaves = Vec::new();
    let (node, cols, like_ok) = build_node(ex, db, from, &mut leaves)?;
    if leaves.len() > MAX_TREE_LEAVES {
        return Err(FallbackReason::MultiTableJoin);
    }
    let PlanNode::Join(root) = node else {
        unreachable!("plan_tree is only called on a join FROM clause");
    };
    let mut root = *root;

    // Root-level WHERE: all-kernel predicates split per side and push
    // below the root where the placement rules allow; anything else runs
    // whole, post-join, on the interpreter.
    let keep_l = keeps_unmatched(root.join_type, JoinSide::Left);
    let keep_r = keeps_unmatched(root.join_type, JoinSide::Right);
    let mut post_kernels = Vec::new();
    let mut post_filter = None;
    if let Some(pred) = &s.selection {
        let compiled = ex
            .compile_scalar(pred, &cols)
            .map_err(|_| FallbackReason::NonEquiJoin)?;
        let mut conjuncts = Vec::new();
        collect_conjuncts(&compiled, &mut conjuncts);
        // Pushing below the join is only sound when the root's own
        // residual is infallible (here: empty, i.e. fully kernelized).
        let push_ok = root.residual.is_empty();
        let kernels: Option<Vec<_>> = conjuncts
            .iter()
            .map(|e| side_kernel(e, root.lw, &like_ok[..root.lw], &like_ok[root.lw..]))
            .collect();
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
            None => post_filter = Some(compiled),
        }
    }

    // Liveness: what the tail reads from the root's output, plus what
    // the root-level post filters read from the children (over-marking
    // the root's own output for the latter is harmless — one extra
    // gather — and keeps the rule simple: live from leaf to root).
    let mut live = vec![false; cols.len()];
    mark_live_columns(q, s, &Relation::new(cols.clone(), Vec::new()), &mut live);
    for (side, k) in &post_kernels {
        let offset = match side {
            JoinSide::Left => 0,
            JoinSide::Right => root.lw,
        };
        k.for_each_column(&mut |i| live[offset + i] = true);
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

/// Recursively build the plan node for one FROM subtree, returning the
/// node, its output scope, and a per-column "physically all-string"
/// marker (`like_ok`) that gates LIKE kernels (base-table columns only —
/// a derived leaf's physical types are unknown until it executes).
fn build_node<'a>(
    ex: &mut Exec<'_>,
    db: &Database,
    t: &'a TableRef,
    leaves: &mut Vec<Leaf<'a>>,
) -> std::result::Result<(PlanNode, Vec<ColMeta>, Vec<bool>), FallbackReason> {
    match t {
        TableRef::Table { name, alias } => {
            // Unknown tables fall back so the row engine reports the
            // error.
            let table = db.table(name).ok_or(FallbackReason::UnknownTable)?;
            // Selection vectors are u32 with GATHER_NULL as a sentinel.
            if table.len() >= GATHER_NULL as usize {
                return Err(FallbackReason::TableTooLarge);
            }
            let cols = table.col_metas(alias.as_deref().unwrap_or(name));
            let ctab = table.columnar().clone();
            let like_ok = ctab
                .columns
                .iter()
                .map(|c| matches!(c.data, ColumnData::Str(_)))
                .collect();
            leaves.push(Leaf {
                source: LeafSource::Base(ctab),
            });
            Ok((PlanNode::Scan(leaves.len() - 1), cols, like_ok))
        }
        TableRef::Derived { query, alias } => {
            let names = derived_out_names(db, query).ok_or(FallbackReason::DerivedTable)?;
            let cols: Vec<ColMeta> = names
                .iter()
                .map(|n| ColMeta::new(Some(alias.clone()), n.clone()))
                .collect();
            let width = cols.len();
            leaves.push(Leaf {
                source: LeafSource::Derived { query, width },
            });
            Ok((PlanNode::Scan(leaves.len() - 1), cols, vec![false; width]))
        }
        TableRef::Join {
            left,
            right,
            join_type,
            constraint,
        } => {
            let (lnode, lcols, llike) = build_node(ex, db, left, leaves)?;
            let (rnode, rcols, rlike) = build_node(ex, db, right, leaves)?;
            let lw = lcols.len();
            let rw = rcols.len();
            // Equi-keys against this node's local scopes; what is left
            // of ON compiles against the combined one. Either failing is
            // a scope error the row engine re-derives.
            let (key_pairs, on_rest) = split_join_constraint(&lcols, &rcols, constraint)
                .map_err(|_| FallbackReason::NonEquiJoin)?;
            let mut combined = lcols;
            combined.extend(rcols);
            let mut residual = Vec::with_capacity(on_rest.len());
            for c in &on_rest {
                residual.push(
                    ex.compile_scalar(c, &combined)
                        .map_err(|_| FallbackReason::NonEquiJoin)?,
                );
            }

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

            // ON residual: push only when *every* conjunct has a kernel —
            // a fallible conjunct must keep seeing the full candidate
            // pair set, in ON order. (An empty residual collects to
            // `Some(vec![])`, covering the pure-equi/CROSS cases.)
            let kernels: Option<Vec<_>> = residual
                .iter()
                .map(|e| side_kernel(e, lw, &llike, &rlike))
                .collect();
            match kernels {
                Some(kernels) => {
                    for (side, k) in kernels {
                        match side {
                            JoinSide::Left if keeps_unmatched(*join_type, JoinSide::Left) => {
                                node.left_match_kernels.push(k)
                            }
                            JoinSide::Left => node.left_kernels.push(k),
                            JoinSide::Right if keeps_unmatched(*join_type, JoinSide::Right) => {
                                node.right_match_kernels.push(k)
                            }
                            JoinSide::Right => node.right_kernels.push(k),
                        }
                    }
                }
                None => node.residual = residual,
            }

            let mut like_ok = llike;
            like_ok.extend(rlike);
            Ok((PlanNode::Join(Box::new(node)), combined, like_ok))
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
        k.for_each_column(&mut |i| lneed[i] = true);
    }
    for k in node.right_kernels.iter().chain(&node.right_match_kernels) {
        k.for_each_column(&mut |i| rneed[i] = true);
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

// ---- static shape analysis (derived tables, union arms) -------------------

/// The output column names of a SELECT block, derived without executing
/// anything, or `None` when the shape requires execution to know (the
/// row engine then reports any error from one place). Mirrors the names
/// `select_plain`/`select_grouped` would produce: [`Expr::output_name`]
/// for explicit items, scope column names for wildcards.
pub(crate) fn static_out_names(db: &Database, s: &Select) -> Option<Vec<String>> {
    let mut names = Vec::new();
    for item in &s.projection {
        match item {
            SelectItem::Wildcard => {
                let scope = static_scope(db, s.from.as_ref()?)?;
                names.extend(scope.into_iter().map(|c| c.name));
            }
            SelectItem::QualifiedWildcard(q) => {
                let scope = static_scope(db, s.from.as_ref()?)?;
                let before = names.len();
                names.extend(
                    scope
                        .into_iter()
                        .filter(|c| c.qualifier.as_deref() == Some(q.as_str()))
                        .map(|c| c.name),
                );
                if names.len() == before {
                    // Unknown qualifier: the row engine reports it.
                    return None;
                }
            }
            SelectItem::Expr { expr, alias } => {
                names.push(expr.output_name(alias.as_deref()));
            }
        }
    }
    Some(names)
}

/// The statically known column scope of a FROM subtree, or `None` when
/// any leaf's shape needs execution to know.
fn static_scope(db: &Database, t: &TableRef) -> Option<Vec<ColMeta>> {
    match t {
        TableRef::Table { name, alias } => {
            let table = db.table(name)?;
            Some(table.col_metas(alias.as_deref().unwrap_or(name)))
        }
        TableRef::Derived { query, alias } => {
            let names = derived_out_names(db, query)?;
            Some(
                names
                    .into_iter()
                    .map(|n| ColMeta::new(Some(alias.clone()), n))
                    .collect(),
            )
        }
        TableRef::Join { left, right, .. } => {
            let mut cols = static_scope(db, left)?;
            cols.extend(static_scope(db, right)?);
            Some(cols)
        }
    }
}

/// The output column names of a derived table's subquery, statically, or
/// `None` when they cannot be derived without executing it (a
/// set-operation body).
pub(crate) fn derived_out_names(db: &Database, q: &Query) -> Option<Vec<String>> {
    match &q.body {
        SetExpr::Select(s) => static_out_names(db, s),
        SetExpr::SetOp { .. } => None,
    }
}

// ---- physical plan for the vectorized ORDER BY / DISTINCT / LIMIT tail ---

/// One projected (or sort-key) item of a planned columnar tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TailItem {
    /// A plain source column (read straight from the columnar input).
    Source(usize),
    /// Index into [`TailPlan::computed`]: an expression evaluated
    /// speculatively for every post-WHERE row.
    Computed(usize),
}

/// Physical plan for the columnar query tail: projection, ORDER BY,
/// DISTINCT and LIMIT/OFFSET over **source column indices plus compiled
/// expressions**, so the tail can sort/dedupe/slice a selection vector
/// and late-materialize only the surviving rows.
///
/// # Error semantics (why computed items are evaluated speculatively)
///
/// The row engine evaluates projection and sort-key expressions for
/// *every* post-WHERE row before sorting or truncating, so any of those
/// expressions may raise a runtime error from a row that `LIMIT` would
/// later discard. Plain-column items are infallible and can skip
/// non-surviving rows unobservably; `computed` expressions are instead
/// evaluated **for every row, in the row engine's per-row order**
/// (projection items first, then ORDER BY source expressions), with the
/// first error surfacing exactly as the row engine would report it —
/// only then does the tail sort, dedupe and slice.
pub(crate) struct TailPlan {
    /// Output column metadata, exactly as `select_plain` would name it.
    pub out_cols: Vec<ColMeta>,
    /// What backs each output column.
    pub out_items: Vec<TailItem>,
    /// ORDER BY keys as (item, descending) pairs.
    pub sort: Vec<(TailItem, bool)>,
    /// Compiled non-column expressions, in the row engine's per-row
    /// evaluation order: projection expressions in projection order,
    /// then ORDER BY source expressions in ORDER BY order.
    pub computed: Vec<CompiledExpr>,
    pub distinct: bool,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
}

/// Plan the columnar tail for a non-aggregated SELECT block, or `None`
/// when planning hits a compile/scope error — the row-engine tail over
/// gathered rows then re-derives and reports it identically.
pub(crate) fn plan_tail(
    ex: &mut Exec<'_>,
    q: &Query,
    s: &Select,
    cols: &[ColMeta],
) -> Option<TailPlan> {
    debug_assert!(!Exec::has_aggregates(s));
    let scope = Relation::new(cols.to_vec(), Vec::new());
    let mut out_cols: Vec<ColMeta> = Vec::new();
    let mut out_items: Vec<TailItem> = Vec::new();
    let mut computed: Vec<CompiledExpr> = Vec::new();
    for item in &s.projection {
        match item {
            SelectItem::Wildcard => {
                out_cols.extend(cols.iter().cloned());
                out_items.extend((0..cols.len()).map(TailItem::Source));
            }
            SelectItem::QualifiedWildcard(qual) => {
                let before = out_items.len();
                for (i, c) in cols.iter().enumerate() {
                    if c.qualifier.as_deref() == Some(qual.as_str()) {
                        out_cols.push(c.clone());
                        out_items.push(TailItem::Source(i));
                    }
                }
                if out_items.len() == before {
                    // Unknown qualifier: the row-engine tail reports it.
                    return None;
                }
            }
            SelectItem::Expr { expr, alias } => {
                let item = match expr {
                    Expr::Column(c) => TailItem::Source(scope.resolve(c).ok()?),
                    _ => {
                        let e = ex.compile_scalar(expr, cols).ok()?;
                        computed.push(e);
                        TailItem::Computed(computed.len() - 1)
                    }
                };
                out_cols.push(ColMeta::new(None, expr.output_name(alias.as_deref())));
                out_items.push(item);
            }
        }
    }

    // ORDER BY resolution goes through the engines' single shared rule:
    // output-position/name matches sort on the projected item; other
    // keys compile against the source scope (plain columns read the
    // column, everything else joins the speculative batch).
    let keys =
        exec::plan_sort_keys_with(&q.order_by, &out_cols, &mut |e| ex.compile_scalar(e, cols))
            .ok()?;
    let mut sort = Vec::with_capacity(keys.len());
    for (key, item) in keys.into_iter().zip(&q.order_by) {
        let tail_item = match key {
            SortKey::Output(pos) => out_items[pos],
            SortKey::Source(CompiledExpr::Column(i)) => TailItem::Source(i),
            SortKey::Source(e) => {
                computed.push(e);
                TailItem::Computed(computed.len() - 1)
            }
        };
        sort.push((tail_item, item.descending));
    }

    Some(TailPlan {
        out_cols,
        out_items,
        sort,
        computed,
        distinct: s.distinct,
        limit: q.limit,
        offset: q.offset,
    })
}

/// Mark every combined column the query can read *after* the join —
/// projection, GROUP BY, HAVING and ORDER BY. Over-marking is harmless
/// (an extra gather); under-marking never happens: a reference that does
/// not resolve here fails compilation in the shared tail before any row
/// is touched, and wildcards mark whole sides.
fn mark_live_columns(q: &Query, s: &Select, combined: &Relation, live: &mut [bool]) {
    let mark_expr = |e: &Expr, live: &mut [bool]| {
        visitor::walk_expr(e, &mut |sub| {
            if let Expr::Column(c) = sub {
                if let Ok(i) = combined.resolve(c) {
                    live[i] = true;
                }
            }
        });
    };

    // Output column names, for ORDER BY items that resolve to an output
    // position (those never read input columns).
    let mut out_names: Vec<String> = Vec::new();
    for item in &s.projection {
        match item {
            SelectItem::Wildcard => {
                live.iter_mut().for_each(|l| *l = true);
                return; // everything is live already
            }
            SelectItem::QualifiedWildcard(q) => {
                for (i, c) in combined.cols.iter().enumerate() {
                    if c.qualifier.as_deref() == Some(q.as_str()) {
                        live[i] = true;
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                out_names.push(expr.output_name(alias.as_deref()));
                mark_expr(expr, live);
            }
        }
    }
    for g in &s.group_by {
        mark_expr(g, live);
    }
    if let Some(h) = &s.having {
        mark_expr(h, live);
    }
    for OrderByItem { expr, .. } in &q.order_by {
        match expr {
            // Positional (`ORDER BY 2`) reads no input column.
            Expr::Literal(Literal::Integer(_)) => {}
            // A bare name matching an output column sorts on the output
            // value, exactly like `exec::sort_key_by_output`.
            Expr::Column(c) if c.qualifier.is_none() && out_names.contains(&c.name) => {}
            other => mark_expr(other, live),
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

    #[test]
    fn scalar_extraction() {
        let rs = ResultSet {
            columns: vec!["count".into()],
            rows: vec![vec![Value::Int(7)]],
        };
        assert_eq!(rs.scalar(), Some(&Value::Int(7)));
    }
}
