//! # flex-oracle
//!
//! The reference `flex_db`'s executor is tested against: a row-at-a-time
//! interpreter of the parsed query, written to be obviously right rather
//! than fast. The differential suites (`crates/db/tests/differential.rs`,
//! `exec_trace.rs`, and the root package's `engine_agreement`,
//! `cte_inlining` and `sensitivity_soundness`) run each query on both and
//! require the same rows in the same order, the same float bits, or the
//! same error text. FLEX's release fingerprint and noise seed hash the
//! true results, so an executor bug is a release bug.
//!
//! This is a test crate (`publish = false`): a dev-dependency of `flex-db`
//! and of the root package, and a dependency of `flex-bench`, whose
//! `exec_bench` checks each answer against it before timing. Nothing a
//! deployment links reaches it.
//!
//! # What it shares with the executor
//!
//! Only what the suites do not set out to test, and only through
//! `flex_db`'s public API:
//! - the parser, `WITH` expansion ([`flex_sql::inline_ctes`]) and the
//!   naming of output columns ([`flex_sql::Expr::output_name`]);
//! - the data model: [`Value`] and its comparisons, [`ValueKey`] and
//!   [`RowKey`], and [`DbError`];
//! - the binder's name resolution, [`bind::resolve_column`] and
//!   [`bind::split_join_constraint`].
//!
//! Everything else is its own, so that a bug in the executor's copy shows
//! as a disagreement:
//! - a check walk over the whole query before anything runs: every
//!   block's scope (a derived table's from its SELECT list, a set
//!   operation's from its first arm), every name, every clause prepared,
//!   every arity — so every compile defect of any block precedes every
//!   runtime defect, whatever the data;
//! - the expression evaluator (`eval`): a recursive walk over
//!   [`flex_sql::Expr`], after a prepare step that binds names, refuses
//!   unknown functions and misplaced aggregates and runs each
//!   uncorrelated subquery once, all before the block reads a row;
//! - the aggregate names and folds (`fold`), with a naive statement of the
//!   fold grid that `SUM`, `AVG` and `STDDEV` reduce on;
//! - the ORDER BY rule: an ordinal, else an output name or alias, else an
//!   expression over the block's input;
//! - joins, set operations, grouping, projection, sorting, DISTINCT and
//!   LIMIT, all over materialized rows.
//!
//! It does not read `flex_sql::AGGREGATE_FUNCTIONS`, and cannot call
//! `AggFunc::parse`, `bind::is_aggregated`, `bind::sort_key_by_output` or
//! the executor's compiler, plan and kernels: they are private to
//! `flex_db`.

mod eval;
mod fold;

use eval::{Answer, Group, Input, Place};
use flex_db::bind::{self, ColMeta};
use flex_db::{Database, DbError, Result, ResultSet, Row, RowKey, Value, ValueKey};
use flex_sql::{
    Expr, FunctionArg, JoinConstraint, JoinType, Literal, OrderByItem, Query, Select, SelectItem,
    SetExpr, SetOperator, TableRef,
};
use fold::Agg;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// Run a parsed query on the oracle: check the whole of it, then run it.
pub fn execute(db: &Database, q: &Query) -> Result<ResultSet> {
    let q = flex_sql::inline_ctes(q)?;
    let mut oracle = Oracle {
        db,
        fold_rows: db.morsel_rows(),
        answers: HashMap::new(),
        checking: true,
    };
    oracle.check(&q)?;
    oracle.checking = false;
    let rel = oracle.query(&q)?;
    Ok(ResultSet {
        columns: rel.cols.into_iter().map(|c| c.name).collect(),
        rows: rel.rows,
    })
}

/// Parse SQL and run it on the oracle.
pub fn execute_sql(db: &Database, sql: &str) -> Result<ResultSet> {
    execute(db, &flex_sql::parse_query(sql)?)
}

/// One execution.
struct Oracle<'db> {
    db: &'db Database,
    /// The width of a fold chunk ([`Database::morsel_rows`]).
    fold_rows: usize,
    /// Each `EXISTS` / `IN (SELECT …)` node's answer, by the node's
    /// address: the query tree outlives the execution and never moves.
    answers: HashMap<*const Expr, Answer>,
    /// Whether this is the check walk ([`Oracle::check`]), which reads
    /// no row and runs no subquery, rather than the run.
    checking: bool,
}

/// A relation: columns, and rows as wide as them.
struct Rel {
    cols: Vec<ColMeta>,
    rows: Vec<Row>,
}

/// One column of a block's output.
enum Item<'q> {
    /// A column of the input, which a wildcard expanded to.
    Column(usize),
    /// A SELECT item's expression.
    Expr(&'q Expr),
}

/// Where an ORDER BY key's value comes from.
enum SortKey<'q> {
    /// An output column.
    Output(usize),
    /// An expression over the block's input (a row, or a group).
    Source(&'q Expr),
}

/// Whether a block aggregates, and so what its clauses are evaluated
/// over.
enum Block<'q> {
    /// One output row per input row.
    Plain,
    /// One output row per group: the GROUP BY keys, and the aggregate
    /// calls of the SELECT list, HAVING and ORDER BY in the order they are
    /// written.
    Grouped {
        keys: Vec<&'q Expr>,
        calls: Vec<&'q Expr>,
    },
}

/// A block's clauses, prepared: what it groups by and aggregates, its
/// output columns and where each one's value and each sort key come from.
struct Prepared<'q> {
    block: Block<'q>,
    out_cols: Vec<ColMeta>,
    items: Vec<Item<'q>>,
    sort: Vec<SortKey<'q>>,
}

impl<'db> Oracle<'db> {
    // ---- the check walk ---------------------------------------------------

    /// Walk the whole query without reading a row or running a subquery,
    /// and return its header: FROM leaves left to right (a derived
    /// table's whole check where it stands) with each join's `ON` once
    /// both sides are known, then the block's clauses; a set operation's
    /// arms left to right, arity at each node, then its ORDER BY.
    fn check(&mut self, q: &Query) -> Result<Vec<ColMeta>> {
        match &q.body {
            SetExpr::Select(s) => self.check_select(s, &q.order_by),
            body => {
                let cols = self.check_set_expr(body)?;
                set_op_sort_keys(&q.order_by, &cols)?;
                Ok(cols)
            }
        }
    }

    fn check_set_expr(&mut self, body: &SetExpr) -> Result<Vec<ColMeta>> {
        match body {
            SetExpr::Select(s) => self.check_select(s, &[]),
            SetExpr::SetOp { left, right, .. } => {
                let l = self.check_set_expr(left)?;
                let r = self.check_set_expr(right)?;
                check_arity(l.len(), r.len())?;
                Ok(l)
            }
        }
    }

    fn check_select(&mut self, s: &Select, order_by: &[OrderByItem]) -> Result<Vec<ColMeta>> {
        let input = match &s.from {
            Some(from) => self.check_from(from)?,
            None => Vec::new(),
        };
        Ok(self.prepare_block(s, &input, order_by)?.out_cols)
    }

    fn check_from(&mut self, t: &TableRef) -> Result<Vec<ColMeta>> {
        match t {
            TableRef::Table { name, alias } => {
                let table = self.db.table(name);
                let table = table.ok_or_else(|| DbError::UnknownTable(name.clone()))?;
                let names = table.schema.columns.iter().map(|c| &c.name);
                Ok(scope(alias.as_ref().unwrap_or(name), names))
            }
            TableRef::Derived { query, alias } => {
                let cols = self.check(query)?;
                Ok(scope(alias, cols.iter().map(|c| &c.name)))
            }
            TableRef::Join {
                left,
                right,
                constraint,
                ..
            } => {
                let left = self.check_from(left)?;
                let right = self.check_from(right)?;
                let (_, residual) = bind::split_join_constraint(&left, &right, constraint)?;
                let cols = [left, right].concat();
                for conjunct in residual {
                    self.prepare(conjunct, &cols, &mut Place::Scalar)?;
                }
                Ok(cols)
            }
        }
    }

    // ---- the run ----------------------------------------------------------

    fn query(&mut self, q: &Query) -> Result<Rel> {
        let mut rel = match &q.body {
            SetExpr::Select(s) => self.select(s, &q.order_by)?,
            body => {
                let mut rel = self.set_expr(body)?;
                let keys = set_op_sort_keys(&q.order_by, &rel.cols)?;
                rel.rows
                    .sort_by(|a, b| compare_by(&keys, |i| (&a[i], &b[i])));
                rel
            }
        };
        let offset = (q.offset.unwrap_or(0) as usize).min(rel.rows.len());
        rel.rows.drain(..offset);
        if let Some(limit) = q.limit {
            rel.rows.truncate(limit as usize);
        }
        Ok(rel)
    }

    /// A set-operation tree, arms left to right. `UNION` without `ALL`,
    /// `INTERSECT` and `EXCEPT` keep each distinct row once, at its first
    /// occurrence.
    fn set_expr(&mut self, body: &SetExpr) -> Result<Rel> {
        let (op, all, left, right) = match body {
            SetExpr::Select(s) => return self.select(s, &[]),
            SetExpr::SetOp {
                op,
                all,
                left,
                right,
            } => (op, all, left, right),
        };
        let l = self.set_expr(left)?;
        let r = self.set_expr(right)?;
        check_arity(l.cols.len(), r.cols.len())?;
        let in_right =
            || -> HashSet<RowKey> { r.rows.iter().map(|row| RowKey::from_values(row)).collect() };
        let rows = match (op, all) {
            (SetOperator::Union, true) => l.rows.into_iter().chain(r.rows).collect(),
            (SetOperator::Union, false) => first_occurrences(l.rows.into_iter().chain(r.rows)),
            (SetOperator::Intersect, _) => {
                let right = in_right();
                first_occurrences(
                    l.rows
                        .into_iter()
                        .filter(|row| right.contains(&RowKey::from_values(row))),
                )
            }
            (SetOperator::Except, _) => {
                let right = in_right();
                first_occurrences(
                    l.rows
                        .into_iter()
                        .filter(|row| !right.contains(&RowKey::from_values(row))),
                )
            }
        };
        Ok(Rel { cols: l.cols, rows })
    }

    /// One SELECT block with the ORDER BY that follows it (which may read
    /// columns and aggregates the SELECT list does not).
    fn select<'q>(&mut self, s: &'q Select, order_by: &'q [OrderByItem]) -> Result<Rel> {
        let input = match &s.from {
            Some(from) => self.from(from)?,
            // A table-less SELECT reads one row of no columns.
            None => Rel {
                cols: Vec::new(),
                rows: vec![Vec::new()],
            },
        };
        self.project(s, input, order_by)
    }

    /// Everything after FROM: WHERE, the SELECT list, grouped or not,
    /// HAVING, ORDER BY and DISTINCT. Every clause is prepared first
    /// ([`Oracle::prepare_block`]); then the rows run, WHERE first.
    fn project<'q>(
        &mut self,
        s: &'q Select,
        input: Rel,
        order_by: &'q [OrderByItem],
    ) -> Result<Rel> {
        let cols = &input.cols[..];
        let Prepared {
            block,
            out_cols,
            items,
            sort,
        } = self.prepare_block(s, cols, order_by)?;

        let mut rows = input.rows;
        if let Some(pred) = &s.selection {
            let mut kept = Vec::new();
            for row in rows {
                if self.eval(pred, &Input::Row(cols, &row))?.is_true() {
                    kept.push(row);
                }
            }
            rows = kept;
        }
        // Each output row with its sort key values.
        let mut out: Vec<(Row, Row)> = Vec::new();
        match &block {
            Block::Plain => {
                for row in &rows {
                    out.push(self.output_row(&Input::Row(cols, row), &items, &sort)?);
                }
            }
            Block::Grouped { keys, calls } => {
                for (key_values, members) in self.groups(keys, cols, &rows)? {
                    let mut call_values = Vec::with_capacity(calls.len());
                    for call in calls {
                        call_values.push(self.aggregate(call, cols, &rows, &members)?);
                    }
                    let group = Input::Group(Group {
                        cols,
                        keys,
                        key_values: &key_values,
                        calls,
                        call_values: &call_values,
                    });
                    if let Some(h) = &s.having {
                        if !self.eval(h, &group)?.is_true() {
                            continue;
                        }
                    }
                    out.push(self.output_row(&group, &items, &sort)?);
                }
            }
        }
        // A stable sort: rows with equal keys keep their order.
        let dirs: Vec<(usize, bool)> = order_by.iter().map(|i| i.descending).enumerate().collect();
        out.sort_by(|(_, a), (_, b)| compare_by(&dirs, |k| (&a[k], &b[k])));
        let rows = out.into_iter().map(|(row, _)| row);
        let rows = if s.distinct {
            first_occurrences(rows)
        } else {
            rows.collect()
        };
        Ok(Rel {
            cols: out_cols,
            rows,
        })
    }

    /// Prepare every clause of a block over its input scope `cols`, in
    /// order: WHERE, GROUP BY, the SELECT list, HAVING, ORDER BY.
    fn prepare_block<'q>(
        &mut self,
        s: &'q Select,
        cols: &[ColMeta],
        order_by: &'q [OrderByItem],
    ) -> Result<Prepared<'q>> {
        if let Some(pred) = &s.selection {
            self.prepare(pred, cols, &mut Place::Scalar)?;
        }
        let mut block = if is_aggregated(s) {
            Block::Grouped {
                keys: self.group_keys(s, cols)?,
                calls: Vec::new(),
            }
        } else {
            Block::Plain
        };
        let mut out_cols = Vec::new();
        let mut items = Vec::new();
        for item in &s.projection {
            match item {
                SelectItem::Expr { expr, alias } => {
                    self.prepare_in(&mut block, expr, cols)?;
                    out_cols.push(ColMeta::new(None, expr.output_name(alias.as_deref())));
                    items.push(Item::Expr(expr));
                }
                _ if matches!(block, Block::Grouped { .. }) => {
                    return Err(DbError::InvalidAggregate(
                        "wildcard projection is not allowed in an aggregated query".into(),
                    ))
                }
                SelectItem::Wildcard => {
                    out_cols.extend(cols.iter().cloned());
                    items.extend((0..cols.len()).map(Item::Column));
                }
                SelectItem::QualifiedWildcard(q) => {
                    let before = items.len();
                    for (i, c) in cols.iter().enumerate() {
                        if c.qualifier.as_deref() == Some(q.as_str()) {
                            out_cols.push(c.clone());
                            items.push(Item::Column(i));
                        }
                    }
                    if items.len() == before {
                        return Err(DbError::UnknownTable(q.clone()));
                    }
                }
            }
        }
        // HAVING makes a block grouped, so it filters groups.
        if let Some(h) = &s.having {
            self.prepare_in(&mut block, h, cols)?;
        }
        let mut sort = Vec::with_capacity(order_by.len());
        for item in order_by {
            let key = match output_key(&item.expr, &out_cols)? {
                Some(i) => SortKey::Output(i),
                None => {
                    self.prepare_in(&mut block, &item.expr, cols)?;
                    SortKey::Source(&item.expr)
                }
            };
            sort.push(key);
        }
        Ok(Prepared {
            block,
            out_cols,
            items,
            sort,
        })
    }

    /// The GROUP BY expressions, prepared. `GROUP BY n` names the `n`-th
    /// SELECT item — the integer itself when that item is a wildcard, and
    /// an error when there is no such item.
    fn group_keys<'q>(&mut self, s: &'q Select, cols: &[ColMeta]) -> Result<Vec<&'q Expr>> {
        let mut keys = Vec::with_capacity(s.group_by.len());
        for g in &s.group_by {
            let key = match g {
                Expr::Literal(Literal::Integer(n)) => {
                    let item = (usize::try_from(*n).ok())
                        .and_then(|n| n.checked_sub(1))
                        .and_then(|i| s.projection.get(i));
                    match item {
                        Some(SelectItem::Expr { expr, .. }) => expr,
                        Some(_) => g,
                        None => {
                            return Err(DbError::Unsupported(format!(
                                "GROUP BY position {n} out of range"
                            )))
                        }
                    }
                }
                _ => g,
            };
            self.prepare(key, cols, &mut Place::Scalar)?;
            keys.push(key);
        }
        Ok(keys)
    }

    /// Prepare a SELECT item, HAVING or sort key of `block`. In a grouped
    /// block every column it reads must lie inside a GROUP BY key or an
    /// aggregate call.
    fn prepare_in<'q>(
        &mut self,
        block: &mut Block<'q>,
        e: &'q Expr,
        cols: &[ColMeta],
    ) -> Result<()> {
        match block {
            Block::Plain => self.prepare(e, cols, &mut Place::Scalar),
            Block::Grouped { keys, calls } => {
                self.prepare(e, cols, &mut Place::Grouped(calls))?;
                match eval::first_ungrouped(e, cols, keys) {
                    Some(c) => Err(eval::ungrouped(c)),
                    None => Ok(()),
                }
            }
        }
    }

    fn output_row(
        &self,
        input: &Input<'_>,
        items: &[Item<'_>],
        sort: &[SortKey<'_>],
    ) -> Result<(Row, Row)> {
        let mut row = Vec::with_capacity(items.len());
        for item in items {
            row.push(match (item, input) {
                (Item::Expr(e), _) => self.eval(e, input)?,
                (Item::Column(i), Input::Row(_, values)) => values[*i].clone(),
                (Item::Column(_), Input::Group(_)) => {
                    unreachable!("a grouped block has no wildcard")
                }
            });
        }
        let mut keys = Vec::with_capacity(sort.len());
        for key in sort {
            keys.push(match key {
                SortKey::Output(i) => row[*i].clone(),
                SortKey::Source(e) => self.eval(e, input)?,
            });
        }
        Ok((row, keys))
    }

    /// The groups of `rows`, in order of first appearance: each group's key
    /// values (its first row's) and its rows' positions. With no GROUP BY
    /// every row is in the one group, which exists even with no rows.
    fn groups(
        &self,
        keys: &[&Expr],
        cols: &[ColMeta],
        rows: &[Row],
    ) -> Result<Vec<(Row, Vec<usize>)>> {
        if keys.is_empty() {
            return Ok(vec![(Vec::new(), (0..rows.len()).collect())]);
        }
        let mut groups: Vec<(Row, Vec<usize>)> = Vec::new();
        let mut index: HashMap<RowKey, usize> = HashMap::new();
        for (p, row) in rows.iter().enumerate() {
            let mut values = Vec::with_capacity(keys.len());
            for key in keys {
                values.push(self.eval(key, &Input::Row(cols, row))?);
            }
            let g = *index
                .entry(RowKey::from_values(&values))
                .or_insert_with(|| {
                    groups.push((values, Vec::new()));
                    groups.len() - 1
                });
            groups[g].1.push(p);
        }
        Ok(groups)
    }

    /// An aggregate call over one group: its argument over the group's
    /// rows, in order (NULLs dropped, each kept value checked), folded.
    fn aggregate(
        &self,
        call: &Expr,
        cols: &[ColMeta],
        rows: &[Row],
        members: &[usize],
    ) -> Result<Value> {
        let Expr::Function {
            name,
            distinct,
            args,
        } = call
        else {
            unreachable!("an aggregate call is a function call");
        };
        let star = matches!(args.first(), Some(FunctionArg::Wildcard));
        let agg = Agg::named(name, *distinct, star).expect("prepared as an aggregate");
        let arg = match args.first() {
            Some(FunctionArg::Expr(arg)) if agg != Agg::CountStar => Some(arg),
            _ => None,
        };
        let mut values = Vec::new();
        if let Some(arg) = arg {
            for &p in members {
                let v = self.eval(arg, &Input::Row(cols, &rows[p]))?;
                if !v.is_null() {
                    values.push((p, agg.argument(v)?));
                }
            }
        }
        Ok(agg.over(members.len(), &values, self.fold_rows))
    }

    // ---- FROM ---------------------------------------------------------------

    fn from(&mut self, t: &TableRef) -> Result<Rel> {
        match t {
            TableRef::Table { name, alias } => {
                let table = self.db.table(name);
                let table = table.ok_or_else(|| DbError::UnknownTable(name.clone()))?;
                let names = table.schema.columns.iter().map(|c| &c.name);
                Ok(Rel {
                    cols: scope(alias.as_ref().unwrap_or(name), names),
                    rows: table.rows.clone(),
                })
            }
            TableRef::Derived { query, alias } => {
                let rel = self.query(query)?;
                Ok(Rel {
                    cols: scope(alias, rel.cols.iter().map(|c| &c.name)),
                    rows: rel.rows,
                })
            }
            TableRef::Join {
                left,
                right,
                join_type,
                constraint,
            } => {
                let left = self.from(left)?;
                let right = self.from(right)?;
                self.join(left, right, *join_type, constraint)
            }
        }
    }

    /// A join. Each left row, in order, is followed by its matches in
    /// right-row order (or, unmatched in a LEFT or FULL join, by NULLs);
    /// the right rows a RIGHT or FULL join leaves unmatched come last.
    /// Equi-keys match by [`ValueKey`] and a NULL key matches nothing; the
    /// rest of `ON` must then hold, conjunct by conjunct.
    fn join(
        &mut self,
        left: Rel,
        right: Rel,
        join_type: JoinType,
        constraint: &JoinConstraint,
    ) -> Result<Rel> {
        let (keys, residual) = bind::split_join_constraint(&left.cols, &right.cols, constraint)?;
        let mut cols = left.cols.clone();
        cols.extend(right.cols.iter().cloned());
        for conjunct in &residual {
            self.prepare(conjunct, &cols, &mut Place::Scalar)?;
        }
        let pad_left = matches!(join_type, JoinType::Left | JoinType::Full);
        let pad_right = matches!(join_type, JoinType::Right | JoinType::Full);
        let (lw, rw) = (left.cols.len(), right.cols.len());

        // With no equi-key every right row is a candidate for every left
        // row; with keys, the right rows of the left row's key.
        let everything: Vec<usize> = (0..right.rows.len()).collect();
        let mut by_key: HashMap<RowKey, Vec<usize>> = HashMap::new();
        for (i, row) in right.rows.iter().enumerate() {
            if let Some(key) = join_key(row, keys.iter().map(|&(_, r)| r)) {
                by_key.entry(key).or_default().push(i);
            }
        }
        let mut right_matched = vec![false; right.rows.len()];
        let mut rows = Vec::new();
        let mut pair = vec![Value::Null; lw + rw];
        for l in &left.rows {
            let candidates = if keys.is_empty() {
                &everything[..]
            } else {
                let key = join_key(l, keys.iter().map(|&(l, _)| l));
                key.and_then(|key| by_key.get(&key))
                    .map_or(&[][..], Vec::as_slice)
            };
            let mut matched = false;
            for &r in candidates {
                pair[..lw].clone_from_slice(l);
                pair[lw..].clone_from_slice(&right.rows[r]);
                if self.holds(&residual, &cols, &pair)? {
                    matched = true;
                    right_matched[r] = true;
                    rows.push(pair.clone());
                }
            }
            if !matched && pad_left {
                let mut row = l.clone();
                row.resize(lw + rw, Value::Null);
                rows.push(row);
            }
        }
        if pad_right {
            for (r, matched) in right.rows.iter().zip(right_matched) {
                if !matched {
                    let mut row = vec![Value::Null; lw];
                    row.extend(r.iter().cloned());
                    rows.push(row);
                }
            }
        }
        Ok(Rel { cols, rows })
    }

    /// Whether every conjunct is TRUE on `row`, stopping at the first that
    /// is not.
    fn holds(&self, conjuncts: &[&Expr], cols: &[ColMeta], row: &[Value]) -> Result<bool> {
        for c in conjuncts {
            if !self.eval(c, &Input::Row(cols, row))?.is_true() {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// The columns `names`, each qualified by `qualifier`: a table's or a
/// derived table's scope.
fn scope<'n>(qualifier: &str, names: impl Iterator<Item = &'n String>) -> Vec<ColMeta> {
    let qualified = |name: &String| ColMeta::new(Some(qualifier.to_string()), name.clone());
    names.map(qualified).collect()
}

/// The arity rule of a set operation: both operands as wide.
fn check_arity(l: usize, r: usize) -> Result<()> {
    if l == r {
        return Ok(());
    }
    Err(DbError::Unsupported(format!(
        "set operation arity mismatch: {l} vs {r} columns"
    )))
}

/// The equi-join key of `row` at `positions`, or `None` when a part of it
/// is NULL.
fn join_key(row: &[Value], positions: impl Iterator<Item = usize>) -> Option<RowKey> {
    let key = positions.map(|i| (!row[i].is_null()).then(|| ValueKey::from(&row[i])));
    key.collect::<Option<Vec<_>>>().map(RowKey)
}

/// Whether a block aggregates: it has a GROUP BY or a HAVING, or an
/// aggregate call in its SELECT list. HAVING without GROUP BY makes the
/// block one group, as in standard SQL.
fn is_aggregated(s: &Select) -> bool {
    let in_items = s.projection.iter().any(|item| match item {
        SelectItem::Expr { expr, .. } => eval::contains_aggregate(expr),
        _ => false,
    });
    !s.group_by.is_empty() || s.having.is_some() || in_items
}

/// The ORDER BY rule's first two steps: an integer literal is an output
/// position (1-based, and it must exist), and an unqualified name that
/// some output column has is the first such column. `None`: the key is an
/// expression over the block's input.
fn output_key(e: &Expr, out_cols: &[ColMeta]) -> Result<Option<usize>> {
    match e {
        Expr::Literal(Literal::Integer(n)) => match usize::try_from(*n) {
            Ok(n) if (1..=out_cols.len()).contains(&n) => Ok(Some(n - 1)),
            _ => Err(DbError::Unsupported(format!(
                "ORDER BY position {n} out of range"
            ))),
        },
        Expr::Column(c) if c.qualifier.is_none() => {
            Ok(out_cols.iter().position(|col| col.name == c.name))
        }
        _ => Ok(None),
    }
}

/// A set operation's ORDER BY, as (output position, descending): it has
/// no input of its own, so every key must be an output column.
fn set_op_sort_keys(order_by: &[OrderByItem], out_cols: &[ColMeta]) -> Result<Vec<(usize, bool)>> {
    let mut keys = Vec::with_capacity(order_by.len());
    for item in order_by {
        let Some(i) = output_key(&item.expr, out_cols)? else {
            return Err(DbError::Unsupported(
                "ORDER BY on a set operation must reference output columns".into(),
            ));
        };
        keys.push((i, item.descending));
    }
    Ok(keys)
}

/// Order two rows by `keys` — (position, descending) pairs, where
/// `at(position)` gives both rows' values — under [`Value::total_cmp`].
fn compare_by<'v>(
    keys: &[(usize, bool)],
    at: impl Fn(usize) -> (&'v Value, &'v Value),
) -> Ordering {
    for &(i, descending) in keys {
        let (a, b) = at(i);
        let ord = a.total_cmp(b);
        let ord = if descending { ord.reverse() } else { ord };
        if ord.is_ne() {
            return ord;
        }
    }
    Ordering::Equal
}

/// `rows` with each distinct row ([`RowKey`]) kept once, where it first
/// occurs.
fn first_occurrences(rows: impl IntoIterator<Item = Row>) -> Vec<Row> {
    let mut seen = HashSet::new();
    rows.into_iter()
        .filter(|row| seen.insert(RowKey::from_values(row)))
        .collect()
}
