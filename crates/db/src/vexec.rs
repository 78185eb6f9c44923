//! The plan executor: columnar, batch-at-a-time, and the only engine
//! production runs.
//!
//! Instead of interpreting one `Vec<Value>` row at a time, the executor
//! scans a [`ColumnarTable`]: WHERE predicates run as **comparison
//! kernels** over whole typed column vectors, narrowing a *selection
//! vector* of surviving row indices, and GROUP BY / aggregate blocks run
//! as a **columnar hash-aggregate** that assigns group ids from key
//! columns and accumulates each aggregate in a single pass — no
//! intermediate row materialization at all on the hot COUNT/SUM/AVG
//! shapes that dominate the Uber and TPC-H workloads.
//!
//! # One entry point, every shape
//!
//! `execute_query` runs any `WITH`-free query ([`crate::exec`]'s public
//! entry points expand `WITH` first, so a CTE reference *is* a derived
//! table here) and is also what every nested query goes through — a
//! derived table, a set-operation arm, an `IN (SELECT …)` / `EXISTS`
//! subquery — each as an execution of its own whose statistics fold into
//! its parent's (`VexecStats::absorb`). A query is one of:
//!
//! - a SELECT block over **one scan**: a base table, a derived table
//!   (`FROM (SELECT …) alias` — the subquery executes first and its
//!   result columnarizes into the block's scan), or nothing at all (a
//!   table-less `SELECT` scans one row of zero columns);
//! - a SELECT block over a **join tree** of any width
//!   (`plan::plan_tree`): INNER/LEFT/RIGHT/FULL equi-joins run as
//!   columnar hash joins (matched-bit tracking pads the kept sides),
//!   CROSS and non-equi joins as nested-loop morsels, each join
//!   late-materializing only live columns into the next operator's
//!   input;
//! - a **set-operation** tree (UNION \[ALL\], INTERSECT, EXCEPT, mixed
//!   freely): arms execute left to right, concatenate into one columnar
//!   table, and each node of the tree keeps, drops or dedupes index
//!   ranges over it.
//!
//! Nothing declines and nothing is analyzed ahead of time: whatever the
//! walk reaches executes there, and an error is raised where it is found
//! ([`crate::plan`], "Plan as you execute"). Every block is the same
//! operator sequence over [`ColumnarTable`]s — Scan → Filter → Join →
//! Project → Aggregate → Project → Tail, each step present only when the
//! query asks for it:
//!
//! - **Filter**: WHERE conjuncts that all are `Kernel`s (a type:
//!   `kernel_predicate` is a total match) narrow the selection one at a
//!   time; one conjunct that is not (`BETWEEN`, arbitrary CASE or
//!   arithmetic) sends the whole predicate to Project's scalar
//!   interpreter over scratch rows gathered from only the referenced
//!   columns. Infallible conjuncts run in the planner's rank
//!   order either way ([`crate::plan`], "Conjunct order is scheduling");
//!   a fallible one pins the predicate as compiled, preserving
//!   short-circuit and error semantics.
//! - **Project** (`project`) is where every computed expression runs —
//!   group keys, aggregate arguments, HAVING, computed SELECT items and
//!   sort keys: an optional predicate and a list of compiled expressions
//!   evaluated for every input row in row order, emitted as typed
//!   columns. Plain column references never pass through it.
//! - **Aggregate** (`run_grouped`) assigns group ids from key columns
//!   and accumulates each aggregate in a single pass; its output, the
//!   groups table `[keys…, aggregates…]`, is the input of one more
//!   Project (HAVING, the SELECT list) and the tail.
//! - **Tail** (`run_tail`, the only ORDER BY / DISTINCT / LIMIT there
//!   is — plain blocks, groups tables and set operations all end in it):
//!   row positions sort by typed column keys, `ORDER BY … LIMIT k` runs
//!   as a bounded top-K heap, DISTINCT dedupes typed keys, and only the
//!   surviving rows late-materialize.
//!
//! # One body per operator
//!
//! Every operator below is written once: a **per-morsel body** over a
//! contiguous range of its input, plus an **order-preserving merge** of
//! the per-morsel results. [`crate::morsel`] alone decides whether that
//! body runs once, inline, on `0..len` (one worker, or a small input) or
//! on a scoped pool over scheduling morsels — nothing in this file asks.
//! The merges: selection vectors, gathered rows and join match vectors
//! concatenate; sorted runs (or top-K selections) merge through the loser
//! tree with a lower-run-wins tie-break (= a stable sort); morsel-local
//! group tables map into the global first-appearance order; aggregate
//! partial states (`AggPartial` in [`crate::aggregate`]) merge under
//! order-preserving rules — `SUM`/`AVG`/`STDDEV` as per-fold-chunk leaf
//! sums that concatenate in morsel order before one fixed-shape tree
//! combine, `MEDIAN` as sorted runs; and of several failing morsels the
//! earliest one's error is the one reported. Each merge is the identity
//! on a single morsel, so execution is byte-identical at every worker
//! count — including *which* runtime error surfaces — and
//! `parallelism = 1` runs these same functions, inline.
//!
//! # Identity with the oracle
//!
//! [`crate::oracle`] interprets the same queries row by row; the
//! differential suite holds the two equal. They compile expressions with
//! the one compiler (`Exec::compile`), resolve ORDER BY keys through one
//! rule, and everything else exists twice: the oracle groups, projects, sorts
//! and slices materialized rows with code of its own. Floating-point
//! aggregates agree in every bit because both fold through the same
//! fixed-shape reduction tree over the same fold grid — chunk `p /
//! fold_rows` of post-WHERE position `p`, which is the executor's
//! selection position (and, after Project, the dense row index) and the
//! oracle's input row index. The tail reproduces a stable sort /
//! first-occurrence DISTINCT / LIMIT slice exactly (position tie-breaks
//! stand in for sort stability — see `run_tail`), so any query that
//! executes without error returns a [`ResultSet`] byte-identical to the
//! oracle's, at any worker count. A query errors here iff it errors
//! there; a single-defect query reports the same error text
//! ([`crate::plan`], "Error order"). The one permitted divergence: of
//! several *runtime* defects in one aggregated block the two may name
//! different ones, because the executor runs operator by operator (all
//! keys, then each aggregate's argument, then the folds in table order)
//! where the oracle runs group by group.

use crate::aggregate::{self, AggFunc, AggPartial, FoldAcc, FoldState};
use crate::bind::{self, ColMeta};
use crate::column::{Column, ColumnData, ColumnarTable, GATHER_NULL};
use crate::database::Database;
use crate::error::{DbError, Result};
use crate::exec::{self, Exec};
use crate::expr::{columns_read, comparison_holds, like_match, CompiledExpr};
use crate::morsel::{self, Parallelism};
use crate::plan::{
    self, FilterOrder, GroupedPlan, JoinNode, JoinOrder, JoinSide, Kernel, Phys, PlanNode,
    Relation, ResultSet, TailItem, TailPlan,
};
use crate::table::Row;
use crate::value::{BorrowKey, RowKey, Value, ValueKey};
use flex_sql::{BinaryOperator, JoinType, Query, Select, SetExpr, SetOperator, TableRef};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Statistics one execution reports about itself — the observability
/// payload of [`crate::exec::ExecTrace`], nested executions included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VexecStats {
    /// Whether an `ORDER BY … LIMIT` tail — a SELECT block's or a set
    /// operation's — ran as a bounded top-K selection instead of a full
    /// sort.
    pub topk: bool,
    /// Scan morsels the base-table inputs split into.
    pub morsels: u64,
    /// Worker threads the execution was entitled to use (1 when every
    /// input was too small to engage the morsel pool).
    pub workers: u64,
    /// Base-table rows scanned.
    pub rows_scanned: u64,
    /// Join order the tree executor chose (pure scheduling — never
    /// affects result bytes; see [`JoinOrder`]).
    pub join_order: JoinOrder,
    /// Conjunct schedules the planner chose (pure scheduling too; see
    /// [`FilterOrder`]).
    pub filter_order: FilterOrder,
}

impl Default for VexecStats {
    fn default() -> Self {
        VexecStats {
            topk: false,
            morsels: 0,
            workers: 1,
            rows_scanned: 0,
            join_order: JoinOrder::default(),
            filter_order: FilterOrder::default(),
        }
    }
}

impl VexecStats {
    /// Fold a nested execution — a derived table, a set-op arm, an
    /// expression subquery — into this one: its scans are this query's
    /// scans, its joins and predicates precede this query's own.
    pub(crate) fn absorb(&mut self, child: VexecStats) {
        self.topk |= child.topk;
        self.morsels += child.morsels;
        self.rows_scanned += child.rows_scanned;
        self.workers = self.workers.max(child.workers);
        self.join_order.append(child.join_order);
        self.filter_order.append(child.filter_order);
    }

    /// Record that a `len`-row input is about to be scanned: it may
    /// engage the worker pool, and when it is a base table its rows and
    /// morsels count (a derived table's were counted by its subquery).
    fn note_scan(&mut self, len: usize, par: Parallelism, base_table: bool) {
        self.workers = self.workers.max(par.workers_for(len) as u64);
        if base_table && len > 0 {
            self.rows_scanned += len as u64;
            self.morsels += len.div_ceil(par.sched_rows(len)) as u64;
        }
    }
}

/// Execute a `WITH`-free query under the execution's tuning and report
/// its statistics: the single entry point behind
/// [`crate::exec::execute_traced`], and the runner every nested query of
/// an execution goes through.
pub(crate) fn execute_query(
    db: &Database,
    q: &Query,
    par: Parallelism,
) -> (VexecStats, Result<ResultSet>) {
    let mut ex = Exec::new(db, execute_query, par);
    let result = run_query(&mut ex, q);
    (ex.stats, result)
}

fn run_query(ex: &mut Exec<'_>, q: &Query) -> Result<ResultSet> {
    let s = match &q.body {
        SetExpr::Select(s) => s,
        SetExpr::SetOp { .. } => return run_set_op(ex, q),
    };
    match &s.from {
        // Table-less SELECT: one row, no columns.
        None => {
            let one_row = ColumnarTable::from_columns(Vec::new(), 1);
            run_block(ex, q, s, Vec::new(), &one_row)
        }
        Some(from @ TableRef::Join { .. }) => run_tree(ex, q, s, from),
        Some(scan) => {
            let (ctab, cols) = open_scan(ex, scan)?;
            run_block(ex, q, s, cols, &ctab)
        }
    }
}

/// Open the scan behind a non-join FROM item: a base table's shared
/// columnar projection, or a derived table — whose subquery executes
/// here, before anything that follows it in the query compiles, and
/// whose result columnarizes under the alias's scope.
pub(crate) fn open_scan(
    ex: &mut Exec<'_>,
    t: &TableRef,
) -> Result<(Arc<ColumnarTable>, Vec<ColMeta>)> {
    let (ctab, cols, base_table) = match t {
        TableRef::Table { name, alias } => {
            let table = ex
                .db
                .table(name)
                .ok_or_else(|| DbError::UnknownTable(name.clone()))?;
            let cols = table.col_metas(alias.as_deref().unwrap_or(name));
            (table.columnar().clone(), cols, true)
        }
        TableRef::Derived { query, alias } => {
            let rs = ex.subquery(query)?;
            let ctab = ColumnarTable::from_rows(&rs.rows, rs.columns.len());
            let cols = bind::derived_scope(alias, rs.columns);
            (Arc::new(ctab), cols, false)
        }
        TableRef::Join { .. } => unreachable!("join FROM clauses go through plan_tree"),
    };
    // Selection vectors are u32 with GATHER_NULL as a sentinel.
    if ctab.len() >= GATHER_NULL as usize {
        return Err(DbError::Unsupported(format!(
            "scan of {} rows exceeds the executor's {GATHER_NULL}-row limit",
            ctab.len()
        )));
    }
    ex.stats.note_scan(ctab.len(), ex.par, base_table);
    Ok((ctab, cols))
}

/// One SELECT block over an already-columnar input: WHERE → selection
/// vector, then the shared [`finish_block`] tail. The scan behind
/// `ctab` can be a base table, a columnarized derived-table result, or
/// the one empty row of a table-less SELECT.
fn run_block(
    ex: &mut Exec<'_>,
    q: &Query,
    s: &Select,
    cols: Vec<ColMeta>,
    ctab: &ColumnarTable,
) -> Result<ResultSet> {
    // WHERE → selection vector.
    let sel = match &s.selection {
        Some(pred) => {
            let compiled = ex.compile_scalar(pred, &cols)?;
            filter(ctab, compiled, ex.par, &mut ex.stats.filter_order)?
        }
        None => (0..ctab.len() as u32).collect(),
    };
    finish_block(ex, q, s, cols, ctab, &sel)
}

/// Everything downstream of the scan/filter/join, shared by the
/// single-scan and join-tree pipelines. The block's plan raises its own
/// compile errors; then an aggregated block is Project → Aggregate →
/// Project → Tail ([`run_grouped`]) and a plain one Project → Tail.
fn finish_block(
    ex: &mut Exec<'_>,
    q: &Query,
    s: &Select,
    cols: Vec<ColMeta>,
    ctab: &ColumnarTable,
    sel: &[u32],
) -> Result<ResultSet> {
    let par = ex.par;
    let rel = if bind::is_aggregated(s) {
        let plan = plan::plan_grouped(ex, q, s, &cols)?;
        run_grouped(ctab, sel, &plan, par, &mut ex.stats.topk)?
    } else {
        let tail = plan::plan_tail(ex, q, s, &cols)?;
        let (sel, computed) = project(ctab, sel, None, &tail.computed, par)?;
        run_tail(ctab, &sel, &computed, &tail, par, &mut ex.stats.topk)
    };
    Ok(ResultSet::from(rel))
}

// ---- Project ---------------------------------------------------------------

/// The **Project** operator: for every selected row, in row order,
/// evaluate `pred` (a row that is not TRUE is dropped and evaluates
/// nothing further) and then `exprs` left to right, and emit the kept
/// selection plus one typed [`Column`] per expression, dense over it
/// (output row `p` is input row `kept[p]`). Rows go through the scalar
/// interpreter over a scratch row holding only the referenced columns;
/// morsels concatenate in order, so the error reported is the earliest
/// row's earliest expression's — the one a row-at-a-time evaluation
/// meets first — at every worker count. A plain column reference is
/// infallible and is gathered instead of interpreted.
fn project<'s>(
    ctab: &ColumnarTable,
    sel: &'s [u32],
    pred: Option<&CompiledExpr>,
    exprs: &[CompiledExpr],
    par: Parallelism,
) -> Result<(Cow<'s, [u32]>, Vec<Column>)> {
    let computed: Vec<&CompiledExpr> = (exprs.iter())
        .filter(|e| !matches!(e, CompiledExpr::Column(_)))
        .collect();
    let mut kept = Cow::Borrowed(sel);
    let mut vals: Vec<Value> = Vec::new();
    if pred.is_some() || !computed.is_empty() {
        let refs = columns_read(pred.into_iter().chain(computed.iter().copied()));
        let (passed, out) = morsel::try_run_concat(sel.len(), par, |r| {
            let mut scratch: Row = vec![Value::Null; ctab.columns.len()];
            let mut passed = Vec::new();
            let mut out = Vec::with_capacity(r.len() * computed.len());
            for &i in &sel[r] {
                for &c in &refs {
                    scratch[c] = ctab.columns[c].value(i as usize);
                }
                if let Some(pred) = pred {
                    if !pred.eval_bool(&scratch)? {
                        continue;
                    }
                    passed.push(i);
                }
                for e in &computed {
                    out.push(e.eval(&scratch)?);
                }
            }
            Ok::<_, DbError>((passed, out))
        })?;
        if pred.is_some() {
            kept = Cow::Owned(passed);
        }
        vals = out;
    }
    // Deal the row-major values into one vector per computed expression.
    let mut dealt: Vec<Vec<Value>> = (computed.iter())
        .map(|_| Vec::with_capacity(kept.len()))
        .collect();
    for (i, v) in vals.into_iter().enumerate() {
        dealt[i % computed.len()].push(v);
    }
    let mut dealt = dealt.into_iter();
    let columns = exprs
        .iter()
        .map(|e| match e {
            CompiledExpr::Column(c) => ctab.columns[*c].gather(&kept),
            _ => Column::from_values(dealt.next().expect("one vector per computed expression")),
        })
        .collect();
    Ok((kept, columns))
}

// ---- ORDER BY / DISTINCT / LIMIT tail --------------------------------------

/// A column as the tail reads it: tail position `p` is row `sel[p]` of a
/// pass-through input column, or row `p` of a projected (or
/// identity-selected) one.
#[derive(Clone, Copy)]
struct TailCol<'a> {
    col: &'a Column,
    sel: Option<&'a [u32]>,
}

impl<'a> TailCol<'a> {
    #[inline]
    fn row(&self, p: usize) -> usize {
        match self.sel {
            Some(sel) => sel[p] as usize,
            None => p,
        }
    }

    /// The [`BorrowKey`] at position `p` — one column's contribution to
    /// a DISTINCT or set-operation key — borrowing strings straight from
    /// the column.
    fn borrow_key(&self, p: usize) -> BorrowKey<'a> {
        let (col, i) = (self.col, self.row(p));
        if col.is_null(i) {
            return BorrowKey::Null;
        }
        match &col.data {
            ColumnData::Int64(xs) => BorrowKey::Int(xs[i]),
            ColumnData::Float64(xs) => BorrowKey::from_float(xs[i]),
            ColumnData::Bool(bs) => BorrowKey::Bool(bs[i]),
            ColumnData::Str(ss) => BorrowKey::Str(&ss[i]),
            ColumnData::Mixed(vs) => BorrowKey::from(&vs[i]),
        }
    }
}

/// The DISTINCT key of position `p` over `cols`: the same key sequence
/// `RowKey::from_values` derives from the materialized row —
/// [`BorrowKey`] mirrors `ValueKey` exactly — without cloning.
fn distinct_key<'a>(cols: &[TailCol<'a>], p: usize) -> Vec<BorrowKey<'a>> {
    cols.iter().map(|c| c.borrow_key(p)).collect()
}

/// The one ORDER BY / DISTINCT / LIMIT tail — of a plain block, of the
/// groups table of an aggregated one, and of a set operation. Its input
/// is `sel.len()` rows: [`TailItem::Source`] items read `ctab` through
/// the selection, [`TailItem::Computed`] items read Project's dense
/// `computed` columns. It works on row **positions** `0..sel.len()`:
///
/// 1. **Sort** the positions by typed columnar sort keys
///    ([`Column::row_ordering`] — no `Value` materialization, no key
///    rows). `ORDER BY … LIMIT k` with no DISTINCT runs as a bounded
///    **top-K heap** ([`exec::top_k_sorted`]) so only `offset + k`
///    positions are ever held. Morsels sort (or top-K-select) locally and
///    a loser tree merges the runs ([`morsel::merge_sorted_runs`]).
/// 2. **DISTINCT** dedupes the surviving positions over typed output
///    keys ([`distinct_key`]), keeping first occurrences in the current
///    order and stopping early once `offset + limit` rows are kept.
/// 3. **LIMIT/OFFSET** slice the position vector.
/// 4. Only then are the survivors **late-materialized**, reading just
///    the output columns (per morsel, stitched in order).
///
/// Every step is infallible (column reads only — whatever can fail ran
/// in Project, for every row), so skipping non-surviving rows can never
/// skip an error the oracle would report.
///
/// # Byte-identity with the oracle
///
/// The oracle stable-sorts whole rows by evaluated key values
/// (`Value::total_cmp` per key). Here the comparator chains the same
/// per-column orderings and then breaks ties by position — positions
/// follow the input's row order, so position order *is* the oracle's
/// stable-sort tie order, and a total order with no inter-row ties makes
/// unstable sorts, bounded heaps and run merges all produce that same
/// permutation. DISTINCT hashes keys that partition rows exactly as
/// `RowKey::from_values` over the output row would.
fn run_tail(
    ctab: &ColumnarTable,
    sel: &[u32],
    computed: &[Column],
    tail: &TailPlan,
    par: Parallelism,
    topk_hit: &mut bool,
) -> Relation {
    let n = sel.len();
    // A selection as long as its table is the identity (selections are
    // strictly increasing): read it by position.
    let via = (n != ctab.len()).then_some(sel);
    let col = |item: TailItem| match item {
        TailItem::Source(c) => TailCol {
            col: &ctab.columns[c],
            sel: via,
        },
        TailItem::Computed(k) => TailCol {
            col: &computed[k],
            sel: None,
        },
    };
    let out: Vec<TailCol<'_>> = tail.out_items.iter().map(|&item| col(item)).collect();
    let sort: Vec<(TailCol<'_>, bool)> = tail
        .sort
        .iter()
        .map(|&(item, desc)| (col(item), desc))
        .collect();
    let target = exec::tail_bound(tail.limit, tail.offset);
    // DISTINCT filters *after* the sort, so a pre-DISTINCT bound could
    // come up short; it disables the top-K path.
    let bound = if tail.distinct { None } else { target };

    // 1. Order the positions (no sort: the tail is a pure slice — take
    // it before materializing anything).
    let mut pos: Vec<u32> = if sort.is_empty() {
        (0..bound.map_or(n, |k| k.min(n)) as u32).collect()
    } else {
        ordered_positions(&sort, n, bound, par, topk_hit)
    };

    // 2. DISTINCT over typed output keys, first occurrence wins.
    if tail.distinct {
        let mut seen: HashSet<Vec<BorrowKey<'_>>> = HashSet::new();
        let mut kept = Vec::new();
        for &p in &pos {
            if seen.insert(distinct_key(&out, p as usize)) {
                kept.push(p);
                // Infallible tail: stopping at the bound is unobservable.
                if target.is_some_and(|t| kept.len() >= t) {
                    break;
                }
            }
        }
        pos = kept;
    }

    // 3. LIMIT/OFFSET on the position vector. (Paths bounded above
    // already hold at most `offset + limit` positions.)
    if let Some(off) = tail.offset {
        pos.drain(..(off as usize).min(pos.len()));
    }
    if let Some(lim) = tail.limit {
        pos.truncate(lim as usize);
    }

    // 4. Late materialization of only the output columns (in output
    // order — a column projected twice is read twice).
    // (Rows before the metadata clone: were the rows the heap's last
    // allocation, dropping a large result would trim the heap and the
    // next query would fault the pages back in — 2x on 100k rows.)
    let rows = materialize_rows(&out, &pos, par);
    Relation::new(tail.out_cols.clone(), rows)
}

/// Materialize the tail's surviving rows, reading only the output
/// columns, stitched in morsel order.
fn materialize_rows(out: &[TailCol<'_>], pos: &[u32], par: Parallelism) -> Vec<Row> {
    morsel::run_concat(pos.len(), par, |r| {
        pos[r]
            .iter()
            .map(|&p| {
                // (A push loop: measurably tighter than collecting a map.)
                let mut row = Vec::with_capacity(out.len());
                for c in out {
                    row.push(c.col.value(c.row(p as usize)));
                }
                row
            })
            .collect()
    })
}

/// Sort the positions `0..n` by the tail's typed columnar sort keys —
/// bounded top-K when `bound` allows, per morsel with a loser-tree
/// merge. Single-key sorts over a single-typed column get a
/// **monomorphized** comparator (the hot dashboard shape: the `f64`
/// comparison inlines into the sort loop); multi-key and `Mixed`-column
/// sorts chain the boxed per-column orderings. Every comparator ends
/// with the position tie-break — a total order with no ties between
/// distinct positions — which is what lets unstable sorts, bounded heaps
/// and the loser-tree merge all reproduce the oracle's stable sort
/// exactly.
fn ordered_positions(
    sort: &[(TailCol<'_>, bool)],
    n: usize,
    bound: Option<usize>,
    par: Parallelism,
    topk_hit: &mut bool,
) -> Vec<u32> {
    if let [(key, desc)] = *sort {
        match &key.col.data {
            ColumnData::Int64(xs) => {
                return order_by_typed_key(
                    n,
                    bound,
                    par,
                    desc,
                    topk_hit,
                    key,
                    |i| xs[i],
                    |a: &i64, b| a.cmp(b),
                );
            }
            ColumnData::Float64(xs) => {
                return order_by_typed_key(
                    n,
                    bound,
                    par,
                    desc,
                    topk_hit,
                    key,
                    |i| xs[i],
                    |a: &f64, b| a.total_cmp(b),
                );
            }
            ColumnData::Str(ss) => {
                return order_by_typed_key(
                    n,
                    bound,
                    par,
                    desc,
                    topk_hit,
                    key,
                    |i| ss[i].as_str(),
                    |a: &&str, b| a.cmp(b),
                );
            }
            ColumnData::Bool(bs) => {
                return order_by_typed_key(
                    n,
                    bound,
                    par,
                    desc,
                    topk_hit,
                    key,
                    |i| bs[i],
                    |a: &bool, b| a.cmp(b),
                );
            }
            ColumnData::Mixed(_) => {}
        }
    }
    type BoxedKey<'a> = (Box<dyn Fn(usize, usize) -> Ordering + Sync + 'a>, bool);
    let keys: Vec<BoxedKey<'_>> = sort
        .iter()
        .map(|&(key, desc)| {
            let ord = key.col.row_ordering();
            let ord: Box<dyn Fn(usize, usize) -> Ordering + Sync> = match key.sel {
                Some(sel) => Box::new(move |a, b| ord(sel[a] as usize, sel[b] as usize)),
                None => ord,
            };
            (ord, desc)
        })
        .collect();
    let cmp = move |a: &u32, b: &u32| {
        for (key, desc) in &keys {
            let ord = key(*a as usize, *b as usize);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        a.cmp(b)
    };
    let topk = bound.filter(|&k| k < n);
    *topk_hit |= topk.is_some();
    // Morsel-local sorted runs (any global top-K position is in its
    // morsel's top K), loser-tree merged.
    let runs = morsel::run(n, par, |r| {
        let run = r.start as u32..r.end as u32;
        match topk {
            Some(k) => exec::top_k_sorted(run, k, &cmp),
            None => {
                let mut run: Vec<u32> = run.collect();
                run.sort_unstable_by(&cmp);
                run
            }
        }
    });
    morsel::merge_sorted_runs(runs, topk, cmp)
}

/// Single-typed-key ordering via decorate–sort–undecorate: each morsel
/// splits its range of positions into NULL positions and `(key,
/// position)` pairs, sorts (or bounded-top-K-selects) the *pairs* — key
/// comparisons read sequentially-copied pair memory instead of chasing
/// random column indices, and the comparator is monomorphized per column
/// type — then the runs loser-tree-merge and NULLs splice back in at the
/// place `total_cmp` gives them (first ascending, last descending).
///
/// Order identity with the boxed comparator chain (and therefore the
/// oracle): NULLs tie with each other only, so among themselves they
/// keep position order — chunks collect them in position order and
/// concatenate in morsel order, which is exactly that; pairs carry the
/// position tie-break in the comparator; and `desc` only reverses the
/// key order, never the tie-break.
#[allow(clippy::too_many_arguments)]
fn order_by_typed_key<T, G, F>(
    n: usize,
    bound: Option<usize>,
    par: Parallelism,
    desc: bool,
    topk_hit: &mut bool,
    key: TailCol<'_>,
    get: G,
    ord: F,
) -> Vec<u32>
where
    T: Copy + Send + Sync,
    G: Fn(usize) -> T + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let has_nulls = key.col.nulls.any();
    let pair_cmp = move |a: &(T, u32), b: &(T, u32)| {
        let o = ord(&a.0, &b.0);
        let o = if desc { o.reverse() } else { o };
        o.then(a.1.cmp(&b.1))
    };
    let topk = bound.is_some_and(|k| k < n);
    if topk {
        *topk_hit = true;
    }
    let k = bound.unwrap_or(usize::MAX);
    // Under top-K, at most k NULL positions can survive the splice below,
    // and they are collected in position order — capping the collection
    // (per morsel and merged) keeps the bounded tail's memory at
    // O(offset + k) even on a mostly-NULL key column, byte-identically.
    let null_cap = if topk { k } else { usize::MAX };
    let decorate = |r: std::ops::Range<usize>| -> (Vec<u32>, Vec<(T, u32)>) {
        let mut nulls = Vec::new();
        let mut pairs = Vec::with_capacity(r.len());
        for p in r {
            let idx = key.row(p);
            if has_nulls && key.col.is_null(idx) {
                if nulls.len() < null_cap {
                    nulls.push(p as u32);
                }
            } else {
                pairs.push((get(idx), p as u32));
            }
        }
        (nulls, pairs)
    };
    let chunks = morsel::run(n, par, |r| {
        let (nulls, mut pairs) = decorate(r);
        if topk {
            pairs = exec::top_k_sorted(pairs, k, &pair_cmp);
        } else {
            pairs.sort_unstable_by(&pair_cmp);
        }
        (nulls, pairs)
    });
    let mut nulls: Vec<u32> = Vec::new();
    let mut runs = Vec::with_capacity(chunks.len());
    for (n, p) in chunks {
        let room = null_cap - nulls.len();
        nulls.extend(n.into_iter().take(room));
        runs.push(p);
    }
    let pairs = morsel::merge_sorted_runs(runs, topk.then_some(k), pair_cmp);
    // Splice NULLs back: ascending order ranks them below every key
    // (first), descending reverses that (last). `k` bounds the total.
    let want = k.min(nulls.len() + pairs.len());
    let mut out = Vec::with_capacity(want);
    if desc {
        out.extend(pairs.into_iter().map(|p| p.1).take(want));
        let rest = want - out.len();
        out.extend(nulls.into_iter().take(rest));
    } else {
        out.extend(nulls.into_iter().take(want));
        let rest = want - out.len();
        out.extend(pairs.into_iter().map(|p| p.1).take(rest));
    }
    out
}

// ---- columnar filtering -------------------------------------------------

/// Scan the table for the rows where `pred` is TRUE (SQL filter
/// semantics: NULL drops).
///
/// A predicate whose every top-level AND conjunct is infallible runs in
/// the planner's schedule ([`plan::schedule_where`]), not in the order it
/// was spelled. When every conjunct also is a [`Kernel`], conjuncts narrow
/// the selection one at a time, so later conjuncts only touch surviving
/// rows; otherwise the scheduled chain goes to the scalar interpreter
/// ([`project`] with it as the predicate, over every row).
/// Both are only sound because nothing reordered can raise: the oracle
/// keeps evaluating later conjuncts on rows where an earlier one was
/// NULL (AND short-circuits on FALSE only), so skipping those rows may
/// skip a runtime *error* the oracle would report. Any fallible conjunct
/// therefore sends the whole predicate, exactly as compiled, to the
/// scalar interpreter, which preserves short-circuit and error behavior.
///
/// Each morsel of the table narrows independently (kernels and the
/// scalar interpreter are both per-row) and the surviving indices
/// concatenate in morsel order, so the first error in row order is the
/// one that surfaces.
fn filter(
    ctab: &ColumnarTable,
    pred: CompiledExpr,
    par: Parallelism,
    order: &mut FilterOrder,
) -> Result<Vec<u32>> {
    let phys = |c: usize| Phys::of(&ctab.columns[c]);
    let pred = match plan::schedule_where(pred, &phys, order) {
        Ok(conjuncts) => match conjuncts.iter().map(|c| Kernel::of(c, &phys)).collect() {
            Some::<Vec<_>>(kernels) => return Ok(kernel_scan(ctab, &kernels, par)),
            None => plan::and_chain(conjuncts),
        },
        Err(pinned) => pinned,
    };
    let all: Vec<u32> = (0..ctab.len() as u32).collect();
    Ok(project(ctab, &all, Some(&pred), &[], par)?.0.into_owned())
}

/// Narrow a full-table scan by a list of kernel conjuncts (the identity
/// selection when there are none), morsel by morsel.
fn kernel_scan(tab: &ColumnarTable, kernels: &[Kernel], par: Parallelism) -> Vec<u32> {
    if kernels.is_empty() {
        return (0..tab.len() as u32).collect();
    }
    morsel::run_concat(tab.len(), par, |r| {
        narrow_by_kernels(tab, kernels, (r.start as u32..r.end as u32).collect())
    })
}

/// Apply every kernel conjunct in order to one selection.
fn narrow_by_kernels(ctab: &ColumnarTable, kernels: &[Kernel], mut sel: Vec<u32>) -> Vec<u32> {
    for k in kernels {
        if sel.is_empty() {
            break;
        }
        let pred = kernel_predicate(ctab, k);
        sel.retain(|&i| pred(i as usize));
    }
    sel
}

/// Row predicate for one [`Kernel`]: `true` iff the row passes. NULL
/// rows never pass comparisons or LIKE (SQL filter semantics);
/// `IS [NOT] NULL` follows its negation. The type dispatch happens once
/// here, so callers can apply the returned closure across selection
/// vectors or join match vectors alike.
pub(crate) fn kernel_predicate<'a>(
    ctab: &'a ColumnarTable,
    kernel: &'a Kernel,
) -> Box<dyn Fn(usize) -> bool + 'a> {
    let col = &ctab.columns[kernel.col()];
    match kernel {
        Kernel::Cmp(_, op, lit) => cmp_predicate(col, *op, lit),
        Kernel::IsNull(_, negated) => Box::new(move |i| col.is_null(i) != *negated),
        Kernel::Like(_, pattern, negated) => {
            let ColumnData::Str(ss) = &col.data else {
                unreachable!("`Kernel::of` admits LIKE over all-string columns only")
            };
            Box::new(move |i| !col.is_null(i) && (like_match(&ss[i], pattern) != *negated))
        }
    }
}

// ---- columnar hash join -------------------------------------------------

/// Where a left row's join candidates come from: a hash index over the
/// right (build) side's join-key columns, or — with no key columns —
/// the whole right selection. Key equality must match the oracle's
/// `ValueKey` semantics exactly. The `i64`/`&str` specializations are
/// chosen from the *build side's* physical column type alone (where
/// `ValueKey` equality degenerates to plain equality); a left key column
/// of a different physical type is handled in [`JoinIndex::probe`],
/// whose fall-through arms route through `ValueKey` so `1` still joins
/// `1.0` — do not simplify those arms away. Candidate lists are in
/// right-table order, so probes emit matches in the oracle's order.
enum JoinIndex<'a> {
    /// No key columns (CROSS, pure non-equi ON): every left row's
    /// candidates are the whole right selection — a nested-loop join.
    All(&'a [u32]),
    Int(HashMap<i64, Vec<u32>>),
    Str(HashMap<&'a str, Vec<u32>>),
    Value(HashMap<ValueKey, Vec<u32>>),
    Multi(HashMap<RowKey, Vec<u32>>),
}

impl<'a> JoinIndex<'a> {
    /// Build over the (already filtered) right selection. Rows with any
    /// NULL key column never enter the index — NULL keys never match.
    fn build(
        rtab: &'a ColumnarTable,
        key_pairs: &[(usize, usize)],
        rsel: &'a [u32],
    ) -> JoinIndex<'a> {
        if key_pairs.is_empty() {
            return JoinIndex::All(rsel);
        }
        if let [(_, rk)] = key_pairs {
            let col = &rtab.columns[*rk];
            match &col.data {
                ColumnData::Int64(xs) => {
                    let mut map: HashMap<i64, Vec<u32>> = HashMap::new();
                    for &ri in rsel {
                        let idx = ri as usize;
                        if !col.is_null(idx) {
                            map.entry(xs[idx]).or_default().push(ri);
                        }
                    }
                    return JoinIndex::Int(map);
                }
                ColumnData::Str(ss) => {
                    let mut map: HashMap<&str, Vec<u32>> = HashMap::new();
                    for &ri in rsel {
                        let idx = ri as usize;
                        if !col.is_null(idx) {
                            map.entry(ss[idx].as_str()).or_default().push(ri);
                        }
                    }
                    return JoinIndex::Str(map);
                }
                _ => {
                    let mut map: HashMap<ValueKey, Vec<u32>> = HashMap::new();
                    for &ri in rsel {
                        let idx = ri as usize;
                        if !col.is_null(idx) {
                            map.entry(ValueKey::from(&col.value(idx)))
                                .or_default()
                                .push(ri);
                        }
                    }
                    return JoinIndex::Value(map);
                }
            }
        }
        let mut map: HashMap<RowKey, Vec<u32>> = HashMap::new();
        'right: for &ri in rsel {
            let idx = ri as usize;
            let mut key = Vec::with_capacity(key_pairs.len());
            for &(_, rk) in key_pairs {
                let col = &rtab.columns[rk];
                if col.is_null(idx) {
                    continue 'right;
                }
                key.push(ValueKey::from(&col.value(idx)));
            }
            map.entry(RowKey(key)).or_default().push(ri);
        }
        JoinIndex::Multi(map)
    }

    /// Candidate right rows for left row `lidx`, or `None` when the key
    /// is NULL or absent (a hash bucket is never empty; `All` may be).
    /// The `Int`/`Str` arms cover mismatched physical types by falling
    /// through `ValueKey` where needed.
    fn probe(
        &self,
        ltab: &ColumnarTable,
        key_pairs: &[(usize, usize)],
        lidx: usize,
    ) -> Option<&[u32]> {
        match self {
            JoinIndex::All(all) => Some(all),
            JoinIndex::Int(map) => {
                let (lk, _) = key_pairs[0];
                let col = &ltab.columns[lk];
                if col.is_null(lidx) {
                    return None;
                }
                match &col.data {
                    ColumnData::Int64(xs) => map.get(&xs[lidx]).map(Vec::as_slice),
                    // Left key is not physically Int64: go through
                    // ValueKey, which unifies integral floats with ints.
                    _ => match ValueKey::from(&col.value(lidx)) {
                        ValueKey::Int(k) => map.get(&k).map(Vec::as_slice),
                        _ => None,
                    },
                }
            }
            JoinIndex::Str(map) => {
                let (lk, _) = key_pairs[0];
                let col = &ltab.columns[lk];
                if col.is_null(lidx) {
                    return None;
                }
                match &col.data {
                    ColumnData::Str(ss) => map.get(ss[lidx].as_str()).map(Vec::as_slice),
                    ColumnData::Mixed(vs) => match &vs[lidx] {
                        Value::Str(s) => map.get(s.as_str()).map(Vec::as_slice),
                        _ => None,
                    },
                    _ => None,
                }
            }
            JoinIndex::Value(map) => {
                let (lk, _) = key_pairs[0];
                let col = &ltab.columns[lk];
                if col.is_null(lidx) {
                    return None;
                }
                map.get(&ValueKey::from(&col.value(lidx)))
                    .map(Vec::as_slice)
            }
            JoinIndex::Multi(map) => {
                let mut key = Vec::with_capacity(key_pairs.len());
                for &(lk, _) in key_pairs {
                    let col = &ltab.columns[lk];
                    if col.is_null(lidx) {
                        return None;
                    }
                    key.push(ValueKey::from(&col.value(lidx)));
                }
                map.get(&RowKey(key)).map(Vec::as_slice)
            }
        }
    }
}

/// Evaluator for fallible ON-residual conjuncts: a scratch combined row
/// holding only the columns the residual references, refilled per side as
/// the probe walks candidate pairs. Produces exactly the oracle's
/// values and errors (shared interpreter, same evaluation order).
struct ResidualEval<'a> {
    residual: &'a [CompiledExpr],
    lrefs: Vec<usize>,
    rrefs: Vec<usize>,
    scratch: Row,
}

impl<'a> ResidualEval<'a> {
    fn new(residual: &'a [CompiledExpr], lw: usize, rw: usize) -> ResidualEval<'a> {
        let (lrefs, rrefs) = columns_read(residual).into_iter().partition(|&i| i < lw);
        ResidualEval {
            residual,
            lrefs,
            rrefs,
            scratch: vec![Value::Null; lw + rw],
        }
    }

    fn load_left(&mut self, ltab: &ColumnarTable, lidx: usize) {
        for &c in &self.lrefs {
            self.scratch[c] = ltab.columns[c].value(lidx);
        }
    }

    /// Whether the candidate pair passes every residual conjunct,
    /// short-circuiting on the first non-TRUE like the oracle.
    fn pair_ok(&mut self, rtab: &ColumnarTable, lw: usize, ridx: usize) -> Result<bool> {
        for &c in &self.rrefs {
            self.scratch[c] = rtab.columns[c - lw].value(ridx);
        }
        for p in self.residual {
            if !p.eval_bool(&self.scratch)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// The post-join filter over one morsel of the match vectors: a pair
/// survives when every pushed kernel keeps it and then the residual
/// WHERE predicate — scalar-interpreted over a scratch row holding only
/// the referenced columns — is TRUE. Exactly the oracle's filter of the
/// joined relation: kernels are infallible, so the predicate sees the
/// same pairs in the same order, with the same values, short-circuit
/// and errors. On the NULL-padded side of an unmatched outer-join row
/// every column reads NULL, so only a non-negated `IS NULL` kernel keeps
/// the pad.
fn filter_pairs(
    ltab: &ColumnarTable,
    rtab: &ColumnarTable,
    (kernels, pred): PostSplit<'_>,
    pairs_l: &[u32],
    pairs_r: &[u32],
) -> Result<(Vec<u32>, Vec<u32>)> {
    let lw = ltab.columns.len();
    let kernels: Vec<_> = kernels
        .iter()
        .map(|(side, k)| {
            let tab = match side {
                JoinSide::Left => ltab,
                JoinSide::Right => rtab,
            };
            (*side, kernel_predicate(tab, k), k.keeps_all_null())
        })
        .collect();
    let (lrefs, rrefs): (Vec<_>, Vec<_>) = columns_read(pred).into_iter().partition(|&i| i < lw);
    let mut scratch: Row = vec![Value::Null; lw + rtab.columns.len()];
    let value_at = |tab: &ColumnarTable, c: usize, i: u32| {
        if i == GATHER_NULL {
            Value::Null
        } else {
            tab.columns[c].value(i as usize)
        }
    };
    let mut out_l = Vec::with_capacity(pairs_l.len());
    let mut out_r = Vec::with_capacity(pairs_l.len());
    for (&li, &ri) in pairs_l.iter().zip(pairs_r) {
        let kept = kernels.iter().all(|(side, keep, keeps_pad)| {
            let idx = match side {
                JoinSide::Left => li,
                JoinSide::Right => ri,
            };
            if idx == GATHER_NULL {
                *keeps_pad
            } else {
                keep(idx as usize)
            }
        });
        if !kept {
            continue;
        }
        if let Some(pred) = pred {
            for &c in &lrefs {
                scratch[c] = value_at(ltab, c, li);
            }
            for &c in &rrefs {
                scratch[c] = value_at(rtab, c - lw, ri);
            }
            if !pred.eval_bool(&scratch)? {
                continue;
            }
        }
        out_l.push(li);
        out_r.push(ri);
    }
    Ok((out_l, out_r))
}

/// The tree root's WHERE split: side-tagged pushed kernels plus the
/// compiled post-join residual filter.
type PostSplit<'p> = (&'p [(JoinSide, Kernel)], Option<&'p CompiledExpr>);

/// Bottom-up executor over a planned join tree ([`plan::TreePlan`]):
/// each node's children materialize first (left before right), then the
/// node joins them into a columnar intermediate holding only the
/// columns its parent needs.
struct TreeExec<'e> {
    par: Parallelism,
    join_order: &'e mut JoinOrder,
}

impl TreeExec<'_> {
    fn exec_node(
        &mut self,
        node: &PlanNode,
        leaves: &[Arc<ColumnarTable>],
    ) -> Result<Arc<ColumnarTable>> {
        match node {
            PlanNode::Scan(i) => Ok(leaves[*i].clone()),
            PlanNode::Join(j) => self.exec_join(j, None, leaves),
        }
    }

    /// Join one node's children into `(left, right)` match vectors and
    /// late-materialize the live columns. `post` carries the WHERE
    /// split (kernels + residual filter) at the tree root only.
    ///
    /// `PostSplit` borrows the root's pushed WHERE kernels (tagged by
    /// side) and the compiled residual filter.
    ///
    /// Emission order is always the oracle's: matches stream in
    /// left-row order with each bucket in right-row order, unmatched
    /// left rows of a pad-keeping join emit in place, and unmatched
    /// right rows append at the end in right-row order. The swapped
    /// build path restores that order by sorting its pair vector.
    fn exec_join(
        &mut self,
        node: &JoinNode,
        post: Option<PostSplit<'_>>,
        leaves: &[Arc<ColumnarTable>],
    ) -> Result<Arc<ColumnarTable>> {
        let ltab = self.exec_node(&node.left, leaves)?;
        let rtab = self.exec_node(&node.right, leaves)?;
        let par = self.par;
        let (lw, rw) = (node.lw, node.rw);
        debug_assert_eq!(ltab.columns.len(), lw);
        debug_assert_eq!(rtab.columns.len(), rw);
        let keep_l = plan::keeps_unmatched(node.join_type, JoinSide::Left);
        let keep_r = plan::keeps_unmatched(node.join_type, JoinSide::Right);

        // Scans: selection vectors narrowed by the pushed-down drop
        // kernels (sound on a side only when it keeps no pads), then the
        // match-only kernels (ON conjuncts on a pad-keeping right side:
        // failing rows cannot match but still pad).
        let lsel = kernel_scan(&ltab, &node.left_kernels, par);
        let rsel = kernel_scan(&rtab, &node.right_kernels, par);
        let rmatch = narrow_by_kernels(&rtab, &node.right_match_kernels, rsel.clone());

        // Greedy smallest-estimated-input-first: build on the smaller
        // (already kernel-narrowed) input. Only pure INNER equi-joins
        // swap — pads and fallible residuals pin the probe side — and
        // the pair sort in `swapped_equi_join` makes the swap invisible
        // to result bytes. Recorded in the scheduling trace at the
        // join's post-order position.
        let swap = !node.key_pairs.is_empty()
            && matches!(node.join_type, JoinType::Inner)
            && node.residual.is_empty()
            && node.left_match_kernels.is_empty()
            && lsel.len() < rmatch.len();
        self.join_order.push(swap);

        let (mut pairs_l, mut pairs_r) = if swap {
            swapped_equi_join(&ltab, &rtab, &node.key_pairs, &lsel, &rmatch, par)
        } else {
            // One probe loop for hash and nested-loop joins, which differ
            // only in where a left row's candidates come from: its
            // bucket of the index built over `rmatch` (on one thread —
            // bucket lists must be in right-table order), or, for a
            // keyless node (CROSS, pure non-equi ON), all of `rmatch`
            // (`JoinIndex::All`). The loop walks the left side in order
            // and each candidate list in right-table order, gating pairs
            // by the fallible residual in ON-conjunct order — the
            // oracle's loops, so matches, short-circuits and errors come
            // out in its combined-row order; unmatched left rows of a
            // pad-keeping join are emitted in place with the GATHER_NULL
            // pad. Morsels split `lsel` against the shared read-only
            // index and their match vectors concatenate in morsel order.
            let index = JoinIndex::build(&rtab, &node.key_pairs, &rmatch);
            morsel::try_run_concat(lsel.len(), par, |r| -> Result<(Vec<u32>, Vec<u32>)> {
                let left_preds: Vec<_> = node
                    .left_match_kernels
                    .iter()
                    .map(|k| kernel_predicate(&ltab, k))
                    .collect();
                let mut residual =
                    (!node.residual.is_empty()).then(|| ResidualEval::new(&node.residual, lw, rw));
                let mut pairs_l: Vec<u32> = Vec::with_capacity(r.len());
                let mut pairs_r: Vec<u32> = Vec::with_capacity(r.len());
                for &li in &lsel[r] {
                    let lidx = li as usize;
                    let mut matched = false;
                    if left_preds.iter().all(|p| p(lidx)) {
                        if let Some(candidates) = index.probe(&ltab, &node.key_pairs, lidx) {
                            if let Some(res) = &mut residual {
                                res.load_left(&ltab, lidx);
                                for &ri in candidates {
                                    if res.pair_ok(&rtab, lw, ri as usize)? {
                                        matched = true;
                                        pairs_l.push(li);
                                        pairs_r.push(ri);
                                    }
                                }
                            } else {
                                matched = !candidates.is_empty();
                                for &ri in candidates {
                                    pairs_l.push(li);
                                    pairs_r.push(ri);
                                }
                            }
                        }
                    }
                    if keep_l && !matched {
                        pairs_l.push(li);
                        pairs_r.push(GATHER_NULL);
                    }
                }
                Ok((pairs_l, pairs_r))
            })?
        };

        // Matched-bit tracking for RIGHT/FULL joins: right rows no
        // surviving pair references pad with a NULL left side, appended
        // after every match in right-row order — the oracle's
        // emission order. Pads come from `rsel` (not `rmatch`): rows
        // failing a match-only kernel still pad, and drop-kernel
        // narrowing of a pad-keeping side is blocked at plan time.
        if keep_r {
            let mut matched = vec![false; rtab.len()];
            for &rj in pairs_r.iter() {
                if rj != GATHER_NULL {
                    matched[rj as usize] = true;
                }
            }
            for &rj in &rsel {
                if !matched[rj as usize] {
                    pairs_l.push(GATHER_NULL);
                    pairs_r.push(rj);
                }
            }
        }

        // Post-join filters (WHERE conjuncts that could not be pushed),
        // applied per pair at the tree root — after pads, exactly where
        // the oracle filters the joined relation.
        if let Some(post) = post.filter(|(kernels, pred)| !kernels.is_empty() || pred.is_some()) {
            (pairs_l, pairs_r) = morsel::try_run_concat(pairs_l.len(), par, |r| {
                filter_pairs(&ltab, &rtab, post, &pairs_l[r.clone()], &pairs_r[r])
            })?;
        }

        // Late materialization: gather only the live columns; dead
        // columns become all-NULL placeholders nothing downstream reads
        // (liveness planning guarantees no parent gathers them).
        let n = pairs_l.len();
        let mut columns = Vec::with_capacity(lw + rw);
        for (c, col) in ltab.columns.iter().enumerate() {
            columns.push(if node.live_cols[c] {
                col.gather(&pairs_l)
            } else {
                Column::all_null(n)
            });
        }
        for (c, col) in rtab.columns.iter().enumerate() {
            columns.push(if node.live_cols[lw + c] {
                col.gather(&pairs_r)
            } else {
                Column::all_null(n)
            });
        }
        Ok(Arc::new(ColumnarTable::from_columns(columns, n)))
    }
}

/// Pure INNER equi-join with the build side swapped onto the smaller
/// left input: build over `lsel`, probe `rmatch` morsel by morsel, then
/// sort the pair vector by `(left, right)` — bucket lists are ascending
/// and pairs are unique, so the sort reproduces exactly the unswapped
/// (oracle) emission order. Infallible by construction (no residual,
/// no pads), which is what makes the order restoration a pure
/// permutation.
fn swapped_equi_join(
    ltab: &ColumnarTable,
    rtab: &ColumnarTable,
    key_pairs: &[(usize, usize)],
    lsel: &[u32],
    rmatch: &[u32],
    par: Parallelism,
) -> (Vec<u32>, Vec<u32>) {
    let inv: Vec<(usize, usize)> = key_pairs.iter().map(|&(lk, rk)| (rk, lk)).collect();
    let index = JoinIndex::build(ltab, &inv, lsel);
    let mut pairs: Vec<(u32, u32)> = morsel::run_concat(rmatch.len(), par, |r| {
        let mut pairs = Vec::with_capacity(r.len());
        for &ri in &rmatch[r] {
            if let Some(candidates) = index.probe(rtab, &inv, ri as usize) {
                for &li in candidates {
                    pairs.push((li, ri));
                }
            }
        }
        pairs
    });
    pairs.sort_unstable();
    (
        pairs.iter().map(|p| p.0).collect(),
        pairs.iter().map(|p| p.1).collect(),
    )
}

/// A SELECT block over a join FROM clause: plan the tree (derived
/// leaves execute as the planner reaches them), execute it bottom-up
/// (each join late-materializing only live columns into a columnar
/// intermediate), then run the shared WHERE-residue, aggregate and
/// projection tail over the root's output. See [`crate::plan`] for why
/// each pushdown preserves the oracle's bytes.
fn run_tree(ex: &mut Exec<'_>, q: &Query, s: &Select, from: &TableRef) -> Result<ResultSet> {
    let tree = plan::plan_tree(ex, q, s, from)?;
    let mut texec = TreeExec {
        par: ex.par,
        join_order: &mut ex.stats.join_order,
    };
    let joined = texec.exec_join(
        &tree.root,
        Some((&tree.post_kernels, tree.post_filter.as_ref())),
        &tree.leaves,
    )?;
    let sel: Vec<u32> = (0..joined.len() as u32).collect();
    finish_block(ex, q, s, tree.cols, &joined, &sel)
}

/// Run a set-operation tree: arms execute left to right as queries of
/// their own, their rows concatenate into one columnar intermediate, the
/// tree's nodes keep, drop or dedupe index ranges over it bottom-up
/// ([`set_op_indices`]), and the surviving indices are the selection the
/// shared ORDER BY / LIMIT tail ([`run_tail`]) runs over.
fn run_set_op(ex: &mut Exec<'_>, q: &Query) -> Result<ResultSet> {
    // 1. Execute every arm, checking arity node by node; the output is
    // named after the first arm and sorts by its own columns only.
    let mut arms: Vec<ResultSet> = Vec::new();
    let arity = run_arms(ex, &q.body, &mut arms)?;
    let out_cols: Vec<ColMeta> = std::mem::take(&mut arms[0].columns)
        .into_iter()
        .map(|n| ColMeta::new(None, n))
        .collect();
    let sort = exec::set_op_sort_keys(&q.order_by, &out_cols)?;
    let tail = TailPlan {
        out_cols,
        out_items: (0..arity).map(TailItem::Source).collect(),
        sort: sort
            .into_iter()
            .map(|(pos, desc)| (TailItem::Source(pos), desc))
            .collect(),
        computed: Vec::new(),
        distinct: false,
        limit: q.limit,
        offset: q.offset,
    };

    // 2. Concatenate the arms' rows columnar.
    let mut ranges: Vec<std::ops::Range<u32>> = Vec::with_capacity(arms.len());
    let mut all_rows: Vec<Row> = Vec::new();
    for rs in &mut arms {
        let start = all_rows.len() as u32;
        all_rows.append(&mut rs.rows);
        ranges.push(start..all_rows.len() as u32);
    }
    let ctab = ColumnarTable::from_rows(&all_rows, arity);
    drop(all_rows);

    // 3. The set-op tree selects index ranges bottom-up; the result is a
    // strictly ascending index list in set-op emission order — the
    // tail's selection, whose position tie-break keeps that order.
    let mut next_arm = 0usize;
    let cols: Vec<TailCol<'_>> = ctab
        .columns
        .iter()
        .map(|col| TailCol { col, sel: None })
        .collect();
    let idx = set_op_indices(&q.body, &ranges, &mut next_arm, &cols);
    // The set operation's own `ORDER BY … LIMIT` is a tail like any
    // block's: a bounded top-K here is reported in `ExecTrace::topk`.
    let par = ex.par;
    Ok(run_tail(&ctab, &idx, &[], &tail, par, &mut ex.stats.topk).into())
}

/// Execute the SELECT arms of a set-op tree depth-first, left before
/// right, pushing each result onto `arms`, and return the tree's output
/// width. Arity is checked at each node as soon as both operands have
/// run — so of two defects the earlier one in that walk is reported,
/// and nothing to the right of an erring node executes.
fn run_arms(ex: &mut Exec<'_>, e: &SetExpr, arms: &mut Vec<ResultSet>) -> Result<usize> {
    match e {
        SetExpr::Select(s) => {
            // An arm is a query of its own with no ORDER BY / LIMIT
            // (those apply to the set operation's output).
            let rs = ex.subquery(&Query::from_select((**s).clone()))?;
            let width = rs.columns.len();
            arms.push(rs);
            Ok(width)
        }
        SetExpr::SetOp { left, right, .. } => {
            let l = run_arms(ex, left, arms)?;
            let r = run_arms(ex, right, arms)?;
            exec::check_set_op_arity(l, r)?;
            Ok(l)
        }
    }
}

/// The surviving row indices of a set-op tree over the concatenated arm
/// rows: leaves consume arm ranges in depth-first order; UNION ALL
/// concatenates its operands; UNION keeps first occurrences over
/// full-row keys; INTERSECT / EXCEPT keep the left operand's first
/// occurrences whose key is / is not among the right operand's (`ALL`
/// is ignored on both: set semantics) — the same partition `RowKey`
/// equality gives the oracle at each node.
fn set_op_indices(
    e: &SetExpr,
    ranges: &[std::ops::Range<u32>],
    next_arm: &mut usize,
    cols: &[TailCol<'_>],
) -> Vec<u32> {
    match e {
        SetExpr::Select(_) => {
            let r = ranges[*next_arm].clone();
            *next_arm += 1;
            r.collect()
        }
        SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } => {
            let mut idx = set_op_indices(left, ranges, next_arm, cols);
            let right = set_op_indices(right, ranges, next_arm, cols);
            let key = |i: u32| distinct_key(cols, i as usize);
            let mut seen: HashSet<Vec<BorrowKey<'_>>> = HashSet::new();
            match (op, all) {
                (SetOperator::Union, true) => idx.extend(right),
                (SetOperator::Union, false) => {
                    idx.extend(right);
                    idx.retain(|&i| seen.insert(key(i)));
                }
                (SetOperator::Intersect | SetOperator::Except, _) => {
                    let in_right: HashSet<_> = right.into_iter().map(key).collect();
                    let keep = *op == SetOperator::Intersect;
                    idx.retain(|&i| {
                        let k = key(i);
                        in_right.contains(&k) == keep && seen.insert(k)
                    });
                }
            }
            idx
        }
    }
}

/// Row predicate for `column op literal`, with the exact semantics of
/// [`Value::sql_cmp`]: NULLs and incomparable type pairs never match.
fn cmp_predicate<'a>(
    col: &'a Column,
    op: BinaryOperator,
    lit: &Value,
) -> Box<dyn Fn(usize) -> bool + 'a> {
    if lit.is_null() {
        return Box::new(|_| false);
    }
    let keep = move |ord: Ordering| comparison_holds(op, ord);
    let has_nulls = col.nulls.any();
    macro_rules! pred {
        ($cmp_at:expr) => {{
            let cmp_at = $cmp_at;
            Box::new(move |i: usize| {
                if has_nulls && col.is_null(i) {
                    return false;
                }
                matches!(cmp_at(i), Some(ord) if keep(ord))
            })
        }};
    }
    match (&col.data, lit) {
        // sql_cmp compares Int-vs-Int through f64 coercion too (not exact
        // i64 order) — match it bit-for-bit, 2^53-adjacent values included.
        (ColumnData::Int64(xs), Value::Int(b)) => {
            let b = *b as f64;
            pred!(move |i: usize| (xs[i] as f64).partial_cmp(&b))
        }
        (ColumnData::Int64(xs), Value::Float(b)) => {
            let b = *b;
            pred!(move |i: usize| (xs[i] as f64).partial_cmp(&b))
        }
        (ColumnData::Float64(xs), Value::Int(b)) => {
            let b = *b as f64;
            pred!(move |i: usize| xs[i].partial_cmp(&b))
        }
        (ColumnData::Float64(xs), Value::Float(b)) => {
            let b = *b;
            pred!(move |i: usize| xs[i].partial_cmp(&b))
        }
        (ColumnData::Str(ss), Value::Str(b)) => {
            let b = b.clone();
            pred!(move |i: usize| Some(ss[i].as_str().cmp(b.as_str())))
        }
        (ColumnData::Bool(bs), Value::Bool(b)) => {
            let b = *b;
            pred!(move |i: usize| Some(bs[i].cmp(&b)))
        }
        // Numeric coercion pairs involving booleans (sql_cmp coerces
        // booleans to 0/1 when the other side is numeric).
        (ColumnData::Int64(xs), Value::Bool(b)) => {
            let b = if *b { 1.0 } else { 0.0 };
            pred!(move |i: usize| (xs[i] as f64).partial_cmp(&b))
        }
        (ColumnData::Float64(xs), Value::Bool(b)) => {
            let b = if *b { 1.0 } else { 0.0 };
            pred!(move |i: usize| xs[i].partial_cmp(&b))
        }
        (ColumnData::Bool(bs), Value::Int(_) | Value::Float(_)) => {
            let b = lit.as_f64().expect("numeric literal");
            pred!(move |i: usize| (if bs[i] { 1.0 } else { 0.0 }).partial_cmp(&b))
        }
        (ColumnData::Mixed(vs), _) => {
            let lit = lit.clone();
            pred!(move |i: usize| vs[i].sql_cmp(&lit))
        }
        // Remaining cross-type pairs are incomparable under sql_cmp: the
        // comparison is NULL for every row, so nothing survives.
        _ => Box::new(|_| false),
    }
}

// ---- columnar hash-aggregate -------------------------------------------

/// An aggregated block, Project → Aggregate → Project → Tail.
///
/// **Input.** Plain-column keys and arguments are read from the block's
/// table through its selection. If any is computed, Project evaluates
/// them into a dense table first — every key expression for every row
/// (row by row, keys left to right), then each aggregate's argument over
/// all rows, in aggregate order — which the aggregate reads through the
/// identity selection: row `p` of it is selection position `p`, so the
/// fold grid does not move.
///
/// **Aggregate.** Every morsel of the selection builds its own
/// local group table (first-appearance order within the morsel) and one
/// [`AggPartial`] per aggregate — numeric aggregates fold their
/// fold-grid chunks into leaf sums right there; the morsels then merge
/// **in morsel order** — local groups map into a global table in
/// first-appearance order (all of morsel 0's rows precede morsel 1's),
/// and partial states merge per [`AggPartial::merge`]'s order-preserving
/// rules, after which a single fixed-shape tree combine (or loser-tree
/// run merge) finishes each group. `STDDEV` takes a second morsel pass
/// ([`stddev_pass`]) once the mean pass has merged. Aggregate-stage
/// errors are reported for the lowest aggregate index first and, within
/// an aggregate, from the earliest morsel — aggregate-major, row order.
///
/// **Output.** The groups, column-major as the merge leaves them, are a
/// [`ColumnarTable`] `[keys…, aggregates…]` in first-appearance order,
/// and post-aggregation is just another block over it: Project with
/// HAVING as its predicate (per group: HAVING, then the SELECT list, then
/// ORDER BY source keys — the oracle's order), then the shared
/// [`run_tail`], top-K over groups when `ORDER BY … LIMIT` allows.
fn run_grouped(
    ctab: &ColumnarTable,
    sel: &[u32],
    plan: &GroupedPlan,
    par: Parallelism,
    topk: &mut bool,
) -> Result<Relation> {
    let nkeys = plan.keys.len();
    let args = || plan.aggs.iter().filter_map(|spec| spec.arg.as_ref());
    let plain = (plan.keys.iter().chain(args())).all(|e| matches!(e, CompiledExpr::Column(_)));
    let (projected, identity): (ColumnarTable, Vec<u32>);
    let (ctab, sel) = if plain {
        (ctab, sel)
    } else {
        let mut columns = project(ctab, sel, None, &plan.keys, par)?.1;
        for arg in args() {
            columns.extend(project(ctab, sel, None, std::slice::from_ref(arg), par)?.1);
        }
        projected = ColumnarTable::from_columns(columns, sel.len());
        identity = (0..sel.len() as u32).collect();
        (&projected, &identity[..])
    };
    // Where the aggregate finds each key and each argument (`None` for
    // `COUNT(*)`): the column it names, or its place in the projection.
    let column_of = |e: &CompiledExpr, projected_at: usize| match e {
        CompiledExpr::Column(c) if plain => *c,
        _ => projected_at,
    };
    let key_cols: Vec<usize> = (plan.keys.iter().enumerate())
        .map(|(k, e)| column_of(e, k))
        .collect();
    let mut next_arg = nkeys..;
    let agg_args: Vec<Option<usize>> = (plan.aggs.iter())
        .map(|spec| Some(column_of(spec.arg.as_ref()?, next_arg.next()?)))
        .collect();

    let fold_rows = par.fold_rows;
    let dense = sel.len() == ctab.len();
    // STDDEV's second (M2) pass revisits the data with per-group means
    // in hand; it needs every row's group id.
    let need_gids = plan.aggs.iter().any(|spec| spec.func == AggFunc::Stddev);
    type MorselState = (Vec<Row>, Vec<u32>, Vec<Result<AggPartial>>);
    let mut morsels: Vec<MorselState> = morsel::run(sel.len(), par, |range| {
        let base = range.start;
        let chunk = &sel[range];
        let (gids, groups) = assign_groups(ctab, &key_cols, chunk);
        let ngroups = groups.len();
        let partials = plan
            .aggs
            .iter()
            .zip(&agg_args)
            .map(|(spec, arg)| {
                partial_agg(
                    ctab, spec.func, *arg, chunk, &gids, ngroups, base, fold_rows, dense,
                )
            })
            .collect();
        (groups, if need_gids { gids } else { Vec::new() }, partials)
    });

    // Merge morsel-local groups into the global first-appearance order.
    // A single morsel's table already is that order: adopt it.
    let mut groups: Vec<Row> = Vec::new();
    let mut gid_maps: Vec<Vec<u32>> = Vec::with_capacity(morsels.len());
    if let [(only, _, _)] = &mut morsels[..] {
        groups = std::mem::take(only);
        gid_maps.push((0..groups.len() as u32).collect());
    } else {
        let mut map: HashMap<RowKey, u32> = HashMap::new();
        for (local_groups, _, _) in &mut morsels {
            let mut gmap = Vec::with_capacity(local_groups.len());
            for key_vals in local_groups.drain(..) {
                let gid = match map.entry(RowKey::from_values(&key_vals)) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        groups.push(key_vals);
                        *e.insert((groups.len() - 1) as u32)
                    }
                };
                gmap.push(gid);
            }
            gid_maps.push(gmap);
        }
    }
    // A grand aggregate over zero rows still yields one group.
    if key_cols.is_empty() && groups.is_empty() {
        groups.push(Vec::new());
    }
    let ngroups = groups.len();

    // Merge partial states per aggregate, morsels in order; with STDDEV,
    // also every selection position's global group id.
    let mut global: Vec<Result<AggPartial>> = plan
        .aggs
        .iter()
        .zip(&agg_args)
        .map(|(spec, arg)| {
            let mixed = mixed_best(ctab, spec.func, *arg);
            Ok(AggPartial::new_global(spec.func, ngroups, mixed))
        })
        .collect();
    let mut gids: Vec<u32> = Vec::with_capacity(if need_gids { sel.len() } else { 0 });
    for ((_, local_gids, partials), gmap) in morsels.into_iter().zip(&gid_maps) {
        gids.extend(local_gids.into_iter().map(|g| gmap[g as usize]));
        for ((g, partial), spec) in global.iter_mut().zip(partials).zip(&plan.aggs) {
            // A failed aggregate keeps its earliest morsel's error.
            if let Ok(state) = g {
                match partial {
                    Ok(p) => state.merge(p, gmap, spec.func),
                    Err(e) => *g = Err(e),
                }
            }
        }
    }
    // `?` in aggregate order: the lowest failing index is reported.
    let mut agg_vals: Vec<Vec<Value>> = Vec::with_capacity(global.len());
    for ((g, spec), arg) in global.into_iter().zip(&plan.aggs).zip(&agg_args) {
        agg_vals.push(match g? {
            AggPartial::Sums(states) if spec.func == AggFunc::Stddev => {
                stddev_pass(ctab, *arg, sel, par, &gids, states)?
            }
            g => g.finalize(spec.func),
        });
    }

    // The groups table `[keys…, aggregates…]`, then the block over it.
    let mut key_vals: Vec<Vec<Value>> = (0..nkeys).map(|_| Vec::with_capacity(ngroups)).collect();
    for group in groups {
        for (k, v) in group.into_iter().enumerate() {
            key_vals[k].push(v);
        }
    }
    let columns = key_vals
        .into_iter()
        .chain(agg_vals)
        .map(Column::from_values)
        .collect();
    let groups = ColumnarTable::from_columns(columns, ngroups);
    let all: Vec<u32> = (0..ngroups as u32).collect();
    let (kept, computed) = project(
        &groups,
        &all,
        plan.having.as_ref(),
        &plan.tail.computed,
        par,
    )?;
    Ok(run_tail(&groups, &kept, &computed, &plan.tail, par, topk))
}

/// Second pass of `STDDEV`: with per-group means fixed by the merged
/// mean pass, every morsel folds its groups' squared deviations on the
/// same fold grid (`gids` holds each selection position's global group
/// id), and the per-morsel leaf lists concatenate in morsel order —
/// the two tree folds of [`aggregate::stddev_tree`], bit for bit.
fn stddev_pass(
    ctab: &ColumnarTable,
    arg: Option<usize>,
    sel: &[u32],
    par: Parallelism,
    gids: &[u32],
    states: Vec<FoldState>,
) -> Result<Vec<Value>> {
    let col = match arg {
        Some(c) => &ctab.columns[c],
        None => {
            return Err(DbError::InvalidAggregate(
                "Stddev requires an argument".to_string(),
            ))
        }
    };
    let ngroups = states.len();
    let counts: Vec<u64> = states.iter().map(FoldState::count).collect();
    let means: Vec<f64> = states
        .into_iter()
        .zip(&counts)
        .map(|(s, &n)| if n == 0 { 0.0 } else { s.into_sum() / n as f64 })
        .collect();
    let step = par.fold_rows.max(1);
    let m2s: Vec<Vec<FoldState>> =
        morsel::try_run(sel.len(), par, |range| -> Result<Vec<FoldState>> {
            let mut accs: Vec<FoldAcc> = vec![FoldAcc::new(); ngroups];
            for p in range {
                let idx = sel[p] as usize;
                if col.is_null(idx) {
                    continue;
                }
                let g = gids[p] as usize;
                let x = numeric_at(col, idx, AggFunc::Stddev)?;
                accs[g].push(p / step, (x - means[g]).powi(2));
            }
            Ok(accs.into_iter().map(FoldAcc::finish).collect::<Vec<_>>())
        })?;
    let mut m2: Vec<FoldState> = vec![FoldState::default(); ngroups];
    for morsel_states in m2s {
        for (g, state) in morsel_states.into_iter().enumerate() {
            m2[g].append(state);
        }
    }
    Ok(m2
        .into_iter()
        .zip(&counts)
        .map(|(state, &n)| {
            if n < 2 {
                Value::Null
            } else {
                Value::Float((state.into_sum() / (n as f64 - 1.0)).sqrt())
            }
        })
        .collect())
}

/// Assign a group id to every selected row (ids in first-appearance
/// order, like the oracle) and collect each group's key values.
/// Integer and string single-column keys get dedicated hash paths; the
/// general case goes through [`RowKey`], which unifies `1` and `1.0`
/// exactly like the oracle does.
fn assign_groups(ctab: &ColumnarTable, key_cols: &[usize], sel: &[u32]) -> (Vec<u32>, Vec<Row>) {
    let mut gids = Vec::with_capacity(sel.len());
    let mut groups: Vec<Row> = Vec::new();
    if key_cols.is_empty() {
        if !sel.is_empty() {
            gids.resize(sel.len(), 0);
            groups.push(Vec::new());
        }
        return (gids, groups);
    }
    if let [c] = key_cols {
        let col = &ctab.columns[*c];
        match &col.data {
            ColumnData::Int64(xs) => {
                let mut map: HashMap<i64, u32> = HashMap::new();
                let mut null_gid: Option<u32> = None;
                for &i in sel {
                    let idx = i as usize;
                    let g = if col.is_null(idx) {
                        *null_gid.get_or_insert_with(|| {
                            groups.push(vec![Value::Null]);
                            (groups.len() - 1) as u32
                        })
                    } else {
                        match map.entry(xs[idx]) {
                            Entry::Occupied(e) => *e.get(),
                            Entry::Vacant(e) => {
                                groups.push(vec![Value::Int(xs[idx])]);
                                *e.insert((groups.len() - 1) as u32)
                            }
                        }
                    };
                    gids.push(g);
                }
                return (gids, groups);
            }
            ColumnData::Str(ss) => {
                let mut map: HashMap<&str, u32> = HashMap::new();
                let mut null_gid: Option<u32> = None;
                for &i in sel {
                    let idx = i as usize;
                    let g = if col.is_null(idx) {
                        *null_gid.get_or_insert_with(|| {
                            groups.push(vec![Value::Null]);
                            (groups.len() - 1) as u32
                        })
                    } else {
                        match map.entry(ss[idx].as_str()) {
                            Entry::Occupied(e) => *e.get(),
                            Entry::Vacant(e) => {
                                groups.push(vec![Value::Str(ss[idx].clone())]);
                                *e.insert((groups.len() - 1) as u32)
                            }
                        }
                    };
                    gids.push(g);
                }
                return (gids, groups);
            }
            _ => {}
        }
    }
    let mut map: HashMap<RowKey, u32> = HashMap::new();
    for &i in sel {
        let idx = i as usize;
        let key_vals: Row = key_cols
            .iter()
            .map(|&c| ctab.columns[c].value(idx))
            .collect();
        let g = match map.entry(RowKey::from_values(&key_vals)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                groups.push(key_vals);
                *e.insert((groups.len() - 1) as u32)
            }
        };
        gids.push(g);
    }
    (gids, groups)
}

/// Numeric view of a non-null column slot, with the oracle's exact
/// type error on non-numeric values.
fn numeric_at(col: &Column, idx: usize, func: AggFunc) -> Result<f64> {
    let type_err = |found: &str| DbError::TypeMismatch {
        context: format!("{func:?} argument"),
        expected: "number".to_string(),
        found: found.to_string(),
    };
    match &col.data {
        ColumnData::Int64(xs) => Ok(xs[idx] as f64),
        ColumnData::Float64(xs) => Ok(xs[idx]),
        ColumnData::Bool(bs) => Ok(if bs[idx] { 1.0 } else { 0.0 }),
        ColumnData::Str(_) => Err(type_err("string")),
        ColumnData::Mixed(vs) => vs[idx]
            .as_f64()
            .ok_or_else(|| type_err(vs[idx].type_name())),
    }
}

/// Tree-fold a contiguous fully-selected slice of a no-null numeric
/// column with the dense SIMD leaf kernels — the fast path for grand
/// aggregates (and single-group morsels) where fold chunks map to
/// contiguous column slices. `range.start` must be fold-chunk-aligned
/// (scheduling morsels are whole multiples of `fold_rows`). Returns
/// `None` when the column shape doesn't admit the dense kernel.
fn dense_fold(col: &Column, range: std::ops::Range<usize>, fold_rows: usize) -> Option<FoldState> {
    if col.nulls.any() {
        return None;
    }
    let step = fold_rows.max(1);
    let mut acc = FoldAcc::new();
    match &col.data {
        ColumnData::Float64(xs) => {
            for leaf in xs[range].chunks(step) {
                acc.push_leaf(aggregate::leaf_sum(leaf), leaf.len() as u64);
            }
        }
        ColumnData::Int64(xs) => {
            for leaf in xs[range].chunks(step) {
                acc.push_leaf(aggregate::leaf_sum_ints(leaf), leaf.len() as u64);
            }
        }
        _ => return None,
    }
    Some(acc.finish())
}

/// Hashable grouping/distinct key of a non-null column slot, matching
/// `ValueKey::from(&col.value(idx))` without materializing the `Value`.
fn value_key_at(col: &Column, idx: usize) -> ValueKey {
    match &col.data {
        ColumnData::Int64(xs) => ValueKey::Int(xs[idx]),
        ColumnData::Float64(xs) => ValueKey::from(&Value::Float(xs[idx])),
        ColumnData::Bool(bs) => ValueKey::Bool(bs[idx]),
        ColumnData::Str(ss) => ValueKey::Str(ss[idx].clone()),
        ColumnData::Mixed(vs) => ValueKey::from(&vs[idx]),
    }
}

/// Compute one aggregate's [`AggPartial`] over one morsel of the
/// selection (morsel-local group ids) — the only columnar evaluation of
/// an aggregate. `SUM`/`AVG`/`STDDEV` fold their fold-grid chunks into
/// leaf sums right here (`base` is the morsel's absolute selection
/// offset, so chunk ids are global and morsel boundaries — always
/// chunk-aligned — never split a leaf), and `MEDIAN` sorts its run
/// locally; only the final tree combine / run merge is left for after
/// the morsel-order merge. `dense` says the selection is the full table
/// (identity), which unlocks the contiguous SIMD kernel for single-group
/// morsels. Type errors surface from the earliest row in row order.
#[allow(clippy::too_many_arguments)]
fn partial_agg(
    ctab: &ColumnarTable,
    func: AggFunc,
    arg: Option<usize>,
    sel: &[u32],
    gids: &[u32],
    ngroups: usize,
    base: usize,
    fold_rows: usize,
    dense: bool,
) -> Result<AggPartial> {
    if func == AggFunc::CountStar {
        let mut counts = vec![0i64; ngroups];
        for &g in gids {
            counts[g as usize] += 1;
        }
        return Ok(AggPartial::Counts(counts));
    }
    let col = match arg {
        Some(c) => &ctab.columns[c],
        None => {
            return Err(DbError::InvalidAggregate(format!(
                "{func:?} requires an argument"
            )))
        }
    };
    match func {
        AggFunc::CountStar => unreachable!("handled above"),
        AggFunc::Count => {
            let mut counts = vec![0i64; ngroups];
            if col.nulls.any() {
                for (k, &i) in sel.iter().enumerate() {
                    if !col.is_null(i as usize) {
                        counts[gids[k] as usize] += 1;
                    }
                }
            } else {
                for &g in gids {
                    counts[g as usize] += 1;
                }
            }
            Ok(AggPartial::Counts(counts))
        }
        AggFunc::CountDistinct => {
            let mut sets: Vec<HashSet<ValueKey>> = vec![HashSet::new(); ngroups];
            for (k, &i) in sel.iter().enumerate() {
                let idx = i as usize;
                if col.is_null(idx) {
                    continue;
                }
                sets[gids[k] as usize].insert(value_key_at(col, idx));
            }
            Ok(AggPartial::Distinct(sets))
        }
        AggFunc::Sum | AggFunc::Avg | AggFunc::Stddev => {
            // Single-group morsel over the identity selection: all of
            // this morsel's rows belong to one group, so its leaves are
            // contiguous column slices — the SIMD kernel path.
            if ngroups == 1 && dense {
                if let Some(state) = dense_fold(col, base..base + sel.len(), fold_rows) {
                    return Ok(AggPartial::Sums(vec![state]));
                }
            }
            let mut accs: Vec<FoldAcc> = vec![FoldAcc::new(); ngroups];
            let step = fold_rows.max(1);
            for (k, &i) in sel.iter().enumerate() {
                let idx = i as usize;
                if col.is_null(idx) {
                    continue;
                }
                accs[gids[k] as usize].push((base + k) / step, numeric_at(col, idx, func)?);
            }
            Ok(AggPartial::Sums(
                accs.into_iter().map(FoldAcc::finish).collect(),
            ))
        }
        AggFunc::Median => {
            let mut per: Vec<Vec<f64>> = vec![Vec::new(); ngroups];
            for (k, &i) in sel.iter().enumerate() {
                let idx = i as usize;
                if col.is_null(idx) {
                    continue;
                }
                per[gids[k] as usize].push(numeric_at(col, idx, func)?);
            }
            // Sort each group's run here; the merge only
            // loser-tree-merges the pre-sorted runs.
            Ok(AggPartial::Runs(
                per.into_iter()
                    .map(|mut run| {
                        run.sort_by(f64::total_cmp);
                        vec![run]
                    })
                    .collect(),
            ))
        }
        AggFunc::Min | AggFunc::Max => {
            // Mixed columns need value-collecting partials: total_cmp is
            // not transitive across physical types, so per-morsel winners
            // cannot be merged — see `AggPartial::BestValues`.
            if let ColumnData::Mixed(vs) = &col.data {
                let mut per: Vec<Vec<Value>> = vec![Vec::new(); ngroups];
                for (k, &i) in sel.iter().enumerate() {
                    let idx = i as usize;
                    if col.is_null(idx) {
                        continue;
                    }
                    per[gids[k] as usize].push(vs[idx].clone());
                }
                return Ok(AggPartial::BestValues(per));
            }
            Ok(AggPartial::Best(min_max(col, func, sel, gids, ngroups)))
        }
    }
}

/// Whether `partial_agg` produces the value-collecting `MIN`/`MAX` shape
/// for this aggregate (Mixed argument column) — the global accumulator
/// must be constructed to match.
fn mixed_best(ctab: &ColumnarTable, func: AggFunc, arg: Option<usize>) -> bool {
    matches!(func, AggFunc::Min | AggFunc::Max)
        && arg.is_some_and(|c| matches!(ctab.columns[c].data, ColumnData::Mixed(_)))
}

/// MIN/MAX over a single-typed column with the oracle's tie-breaking
/// (first occurrence wins on `total_cmp` equality), specialized per
/// column representation.
fn min_max(col: &Column, func: AggFunc, sel: &[u32], gids: &[u32], ngroups: usize) -> Vec<Value> {
    let min = func == AggFunc::Min;
    let adopt = |ord: Ordering| match ord {
        Ordering::Less => min,
        Ordering::Greater => !min,
        Ordering::Equal => false,
    };
    match &col.data {
        ColumnData::Int64(xs) => {
            let mut best: Vec<Option<i64>> = vec![None; ngroups];
            for (k, &i) in sel.iter().enumerate() {
                let idx = i as usize;
                if col.is_null(idx) {
                    continue;
                }
                let b = &mut best[gids[k] as usize];
                match b {
                    None => *b = Some(xs[idx]),
                    Some(cur) => {
                        if adopt(xs[idx].cmp(cur)) {
                            *cur = xs[idx];
                        }
                    }
                }
            }
            best.into_iter()
                .map(|o| o.map_or(Value::Null, Value::Int))
                .collect()
        }
        ColumnData::Float64(xs) => {
            let mut best: Vec<Option<f64>> = vec![None; ngroups];
            for (k, &i) in sel.iter().enumerate() {
                let idx = i as usize;
                if col.is_null(idx) {
                    continue;
                }
                let b = &mut best[gids[k] as usize];
                match b {
                    None => *b = Some(xs[idx]),
                    Some(cur) => {
                        if adopt(xs[idx].total_cmp(cur)) {
                            *cur = xs[idx];
                        }
                    }
                }
            }
            best.into_iter()
                .map(|o| o.map_or(Value::Null, Value::Float))
                .collect()
        }
        ColumnData::Bool(bs) => {
            let mut best: Vec<Option<bool>> = vec![None; ngroups];
            for (k, &i) in sel.iter().enumerate() {
                let idx = i as usize;
                if col.is_null(idx) {
                    continue;
                }
                let b = &mut best[gids[k] as usize];
                match b {
                    None => *b = Some(bs[idx]),
                    Some(cur) => {
                        if adopt(bs[idx].cmp(cur)) {
                            *cur = bs[idx];
                        }
                    }
                }
            }
            best.into_iter()
                .map(|o| o.map_or(Value::Null, Value::Bool))
                .collect()
        }
        ColumnData::Str(ss) => {
            // Track the best row index; clone the winning string once.
            let mut best: Vec<Option<usize>> = vec![None; ngroups];
            for (k, &i) in sel.iter().enumerate() {
                let idx = i as usize;
                if col.is_null(idx) {
                    continue;
                }
                let b = &mut best[gids[k] as usize];
                match b {
                    None => *b = Some(idx),
                    Some(cur) => {
                        if adopt(ss[idx].cmp(&ss[*cur])) {
                            *cur = idx;
                        }
                    }
                }
            }
            best.into_iter()
                .map(|o| o.map_or(Value::Null, |i| Value::Str(ss[i].clone())))
                .collect()
        }
        ColumnData::Mixed(_) => {
            unreachable!("Mixed MIN/MAX collects values (`AggPartial::BestValues`)")
        }
    }
}
