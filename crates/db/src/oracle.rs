//! The test oracle: a row-at-a-time interpreter of the parsed query.
//!
//! This is the reference implementation the differential suite compares
//! the plan executor ([`crate::vexec`]) against — `Vec<Value>` rows,
//! hash joins on extracted equi-keys with residual predicates, hash
//! set-operations, one relation materialized per FROM node. It is **not
//! a production path**: nothing but [`Database::execute_row`] /
//! [`Database::execute_sql_row`] reaches it, and CI greps the production
//! crates for either name.
//!
//! It re-implements everything from FROM to LIMIT — joins, set
//! operations, grouping (`AggSpec::compute` per group), projection and
//! the ORDER BY / DISTINCT / LIMIT tail, all over materialized rows — so
//! the differential suite checks each of those against the executor's
//! columnar operators. What it shares with the executor, and the suite
//! therefore cannot cross-check, is listed in [`crate::exec`]'s module
//! docs: the expression compiler and evaluator and the ORDER BY
//! resolution rule (plus the leaf/tree fold kernels of
//! [`crate::aggregate`]). Expression subqueries run on the oracle (the
//! `Exec` it builds carries `run` as its runner).

use crate::bind::{self, split_join_constraint, ColMeta};
use crate::database::Database;
use crate::error::{DbError, Result};
use crate::exec::{
    check_set_op_arity, plan_sort_keys_with, set_op_sort_keys, Exec, GroupCompiler, SortKey,
};
use crate::expr::CompiledExpr;
use crate::morsel::Parallelism;
use crate::plan::{Relation, ResultSet};
use crate::table::Row;
use crate::value::{RowKey, Value, ValueKey};
use crate::vexec::VexecStats;
use flex_sql::{
    JoinConstraint, JoinType, OrderByItem, Query, Select, SelectItem, SetExpr, SetOperator,
    TableRef,
};
use std::collections::{HashMap, HashSet};

/// Execute a parsed query on the oracle.
pub fn execute_row(db: &Database, q: &Query) -> Result<ResultSet> {
    let q = flex_sql::inline_ctes(q)?;
    run(db, &q, db.exec_tuning()).1
}

/// The oracle as a [`crate::exec::QueryRunner`]. It scans no columns, so
/// its statistics are empty; of the tuning it reads the fold grid only.
fn run(db: &Database, q: &Query, par: Parallelism) -> (VexecStats, Result<ResultSet>) {
    let result = Exec::new(db, run, par).query(q).map(ResultSet::from);
    (VexecStats::default(), result)
}

impl Exec<'_> {
    fn query(&mut self, q: &Query) -> Result<Relation> {
        let mut rel = match &q.body {
            SetExpr::Select(s) => self.select_full(s, &q.order_by)?,
            SetExpr::SetOp { .. } => {
                let mut rel = self.set_expr(&q.body)?;
                if !q.order_by.is_empty() {
                    sort_by_output_columns(&mut rel, &q.order_by)?;
                }
                rel
            }
        };
        apply_limit_offset(&mut rel, q.limit, q.offset);
        Ok(rel)
    }

    fn set_expr(&mut self, body: &SetExpr) -> Result<Relation> {
        match body {
            SetExpr::Select(s) => self.select_full(s, &[]),
            SetExpr::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let l = self.set_expr(left)?;
                let r = self.set_expr(right)?;
                check_set_op_arity(l.cols.len(), r.cols.len())?;
                let rows = match (op, all) {
                    (SetOperator::Union, true) => {
                        let mut rows = l.rows;
                        rows.extend(r.rows);
                        rows
                    }
                    (SetOperator::Union, false) => {
                        let mut seen = HashSet::new();
                        let mut rows = Vec::new();
                        for row in l.rows.into_iter().chain(r.rows) {
                            if seen.insert(RowKey::from_values(&row)) {
                                rows.push(row);
                            }
                        }
                        rows
                    }
                    (SetOperator::Intersect, _) => {
                        let right_keys: HashSet<RowKey> =
                            r.rows.iter().map(|row| RowKey::from_values(row)).collect();
                        let mut seen = HashSet::new();
                        l.rows
                            .into_iter()
                            .filter(|row| {
                                let k = RowKey::from_values(row);
                                right_keys.contains(&k) && seen.insert(k)
                            })
                            .collect()
                    }
                    (SetOperator::Except, _) => {
                        let right_keys: HashSet<RowKey> =
                            r.rows.iter().map(|row| RowKey::from_values(row)).collect();
                        let mut seen = HashSet::new();
                        l.rows
                            .into_iter()
                            .filter(|row| {
                                let k = RowKey::from_values(row);
                                !right_keys.contains(&k) && seen.insert(k)
                            })
                            .collect()
                    }
                };
                Ok(Relation::new(l.cols, rows))
            }
        }
    }

    /// Execute one SELECT block, including its ORDER BY (which may
    /// reference un-projected input columns or aggregate expressions).
    fn select_full(&mut self, s: &Select, order_by: &[OrderByItem]) -> Result<Relation> {
        // FROM
        let input = match &s.from {
            Some(t) => self.table_ref(t)?,
            // Table-less select: a single empty row.
            None => Relation::new(Vec::new(), vec![Vec::new()]),
        };

        // WHERE
        let input = if let Some(pred) = &s.selection {
            let compiled = self.compile_scalar(pred, &input.cols)?;
            let mut filtered = Vec::with_capacity(input.rows.len());
            for row in input.rows {
                if compiled.eval_bool(&row)? {
                    filtered.push(row);
                }
            }
            Relation::new(input.cols, filtered)
        } else {
            input
        };

        self.select_after_where(s, input, order_by)
    }

    /// Everything in a SELECT block downstream of the WHERE filter:
    /// grouping/projection, ORDER BY and DISTINCT.
    fn select_after_where(
        &mut self,
        s: &Select,
        input: Relation,
        order_by: &[OrderByItem],
    ) -> Result<Relation> {
        let (rel, key_rows) = if bind::is_aggregated(s) {
            self.select_grouped(s, input, order_by)?
        } else {
            self.select_plain(s, input, order_by)?
        };
        Ok(finish_select(rel, key_rows, order_by, s.distinct))
    }

    /// Non-aggregated projection. Returns the output relation plus, when
    /// ORDER BY is present, one sort-key row per output row.
    fn select_plain(
        &mut self,
        s: &Select,
        input: Relation,
        order_by: &[OrderByItem],
    ) -> Result<(Relation, Option<Vec<Row>>)> {
        // Compile projection items.
        enum Item {
            All,
            Qualified(String),
            Expr(CompiledExpr),
        }
        let mut items = Vec::new();
        let mut out_cols = Vec::new();
        for item in &s.projection {
            match item {
                SelectItem::Wildcard => {
                    out_cols.extend(input.cols.iter().cloned());
                    items.push(Item::All);
                }
                SelectItem::QualifiedWildcard(q) => {
                    let matching: Vec<_> = input
                        .cols
                        .iter()
                        .filter(|c| c.qualifier.as_deref() == Some(q.as_str()))
                        .cloned()
                        .collect();
                    if matching.is_empty() {
                        return Err(DbError::UnknownTable(q.clone()));
                    }
                    out_cols.extend(matching);
                    items.push(Item::Qualified(q.clone()));
                }
                SelectItem::Expr { expr, alias } => {
                    let compiled = self.compile_scalar(expr, &input.cols)?;
                    out_cols.push(ColMeta::new(None, expr.output_name(alias.as_deref())));
                    items.push(Item::Expr(compiled));
                }
            }
        }

        // Sort keys: output-position/name matches are handled after
        // projection; other expressions are evaluated on the input row.
        let sort_plan = plan_sort_keys_with(order_by, &out_cols, &mut |e| {
            self.compile_scalar(e, &input.cols)
        })?;

        let mut out_rows = Vec::with_capacity(input.rows.len());
        let mut key_rows = if order_by.is_empty() {
            None
        } else {
            Some(Vec::with_capacity(input.rows.len()))
        };
        for row in &input.rows {
            let mut out = Vec::with_capacity(out_cols.len());
            for item in &items {
                match item {
                    Item::All => out.extend(row.iter().cloned()),
                    Item::Qualified(q) => {
                        for (c, v) in input.cols.iter().zip(row) {
                            if c.qualifier.as_deref() == Some(q.as_str()) {
                                out.push(v.clone());
                            }
                        }
                    }
                    Item::Expr(e) => out.push(e.eval(row)?),
                }
            }
            if let Some(keys) = &mut key_rows {
                keys.push(eval_sort_keys(&sort_plan, &out, row)?);
            }
            out_rows.push(out);
        }
        Ok((Relation::new(out_cols, out_rows), key_rows))
    }

    /// Aggregated projection (GROUP BY or aggregate functions present).
    fn select_grouped(
        &mut self,
        s: &Select,
        input: Relation,
        order_by: &[OrderByItem],
    ) -> Result<(Relation, Option<Vec<Row>>)> {
        let group_exprs = self.compile_group_exprs(s, &input.cols)?;

        // Compile projection and HAVING in group mode, collecting AggSpecs.
        let mut gc = GroupCompiler {
            group_exprs: &group_exprs,
            aggs: Vec::new(),
        };
        let mut out_cols = Vec::new();
        let mut out_exprs = Vec::new();
        for item in &s.projection {
            match item {
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                    return Err(DbError::InvalidAggregate(
                        "wildcard projection is not allowed in an aggregated query".into(),
                    ));
                }
                SelectItem::Expr { expr, alias } => {
                    let compiled = gc.compile(self, expr, &input.cols)?;
                    out_cols.push(ColMeta::new(None, expr.output_name(alias.as_deref())));
                    out_exprs.push(compiled);
                }
            }
        }
        let having = s
            .having
            .as_ref()
            .map(|h| gc.compile(self, h, &input.cols))
            .transpose()?;
        // Order-by expressions may also be grouped expressions.
        let order_compiled = plan_sort_keys_with(order_by, &out_cols, &mut |e| {
            gc.compile(self, e, &input.cols)
        })?;
        let aggs = gc.aggs;

        // Partition input rows into groups.
        let mut group_index: HashMap<RowKey, usize> = HashMap::new();
        let mut groups: Vec<(Row, Vec<usize>)> = Vec::new();
        for (ri, row) in input.rows.iter().enumerate() {
            let mut key_vals = Vec::with_capacity(group_exprs.len());
            for g in &group_exprs {
                key_vals.push(g.eval(row)?);
            }
            let key = RowKey::from_values(&key_vals);
            let gi = *group_index.entry(key).or_insert_with(|| {
                groups.push((key_vals, Vec::new()));
                groups.len() - 1
            });
            groups[gi].1.push(ri);
        }
        // A grand aggregate over zero rows still yields one group.
        if s.group_by.is_empty() && groups.is_empty() {
            groups.push((Vec::new(), Vec::new()));
        }

        // Evaluate aggregates per group and build post-group rows:
        // [group key values..., aggregate values...].
        let mut out_rows = Vec::with_capacity(groups.len());
        let mut key_rows = if order_by.is_empty() {
            None
        } else {
            Some(Vec::with_capacity(groups.len()))
        };
        // Positions in the post-WHERE input sequence (`ri`) are what the
        // executor's aggregate folds on too, so `AggSpec::compute`
        // evaluates the identical fixed-shape reduction tree over the
        // identical fold grid.
        let fold_rows = self.par.fold_rows;
        for (key_vals, row_indices) in groups {
            let member_rows: Vec<&[Value]> = row_indices
                .iter()
                .map(|&i| input.rows[i].as_slice())
                .collect();
            let mut group_row = key_vals;
            for spec in &aggs {
                group_row.push(spec.compute(&member_rows, &row_indices, fold_rows)?);
            }
            if let Some(h) = &having {
                if !h.eval_bool(&group_row)? {
                    continue;
                }
            }
            let mut out = Vec::with_capacity(out_exprs.len());
            for e in &out_exprs {
                out.push(e.eval(&group_row)?);
            }
            if let Some(keys) = &mut key_rows {
                keys.push(eval_sort_keys(&order_compiled, &out, &group_row)?);
            }
            out_rows.push(out);
        }
        Ok((Relation::new(out_cols, out_rows), key_rows))
    }

    // ---- FROM clause ----------------------------------------------------

    fn table_ref(&mut self, t: &TableRef) -> Result<Relation> {
        match t {
            TableRef::Table { name, alias } => {
                let qualifier = alias.clone().unwrap_or_else(|| name.clone());
                let table = self
                    .db
                    .table(name)
                    .ok_or_else(|| DbError::UnknownTable(name.clone()))?;
                let cols = table
                    .schema
                    .columns
                    .iter()
                    .map(|c| ColMeta::new(Some(qualifier.clone()), c.name.clone()))
                    .collect();
                Ok(Relation::new(cols, table.rows.clone()))
            }
            TableRef::Derived { query, alias } => {
                let rel = self.query(query)?;
                Ok(rel.with_qualifier(alias))
            }
            TableRef::Join {
                left,
                right,
                join_type,
                constraint,
            } => {
                let l = self.table_ref(left)?;
                let r = self.table_ref(right)?;
                self.join(l, r, *join_type, constraint)
            }
        }
    }

    fn join(
        &mut self,
        left: Relation,
        right: Relation,
        join_type: JoinType,
        constraint: &JoinConstraint,
    ) -> Result<Relation> {
        let mut combined_cols = left.cols.clone();
        combined_cols.extend(right.cols.iter().cloned());

        let (key_pairs, on_rest) = split_join_constraint(&left.cols, &right.cols, constraint)?;
        let mut residual = Vec::with_capacity(on_rest.len());
        for conjunct in on_rest {
            residual.push(self.compile_scalar(conjunct, &combined_cols)?);
        }

        let lw = left.cols.len();
        let rw = right.cols.len();
        let mut out_rows: Vec<Row> = Vec::new();
        let mut right_matched = vec![false; right.rows.len()];

        // Scratch buffer reused for every candidate pair.
        let mut combined: Row = vec![Value::Null; lw + rw];

        let matches_for = |combined: &mut Row,
                           lrow: &Row,
                           rrow: &Row,
                           residual: &[CompiledExpr]|
         -> Result<bool> {
            combined[..lw].clone_from_slice(lrow);
            combined[lw..].clone_from_slice(rrow);
            for p in residual {
                if !p.eval_bool(combined)? {
                    return Ok(false);
                }
            }
            Ok(true)
        };

        if !key_pairs.is_empty() {
            // Hash join. NULL keys never match.
            let mut index: HashMap<RowKey, Vec<usize>> = HashMap::new();
            'right: for (ri, rrow) in right.rows.iter().enumerate() {
                let mut key = Vec::with_capacity(key_pairs.len());
                for &(_, rk) in &key_pairs {
                    if rrow[rk].is_null() {
                        continue 'right;
                    }
                    key.push(ValueKey::from(&rrow[rk]));
                }
                index.entry(RowKey(key)).or_default().push(ri);
            }
            for lrow in &left.rows {
                let mut matched = false;
                let mut key = Vec::with_capacity(key_pairs.len());
                let mut has_null = false;
                for &(lk, _) in &key_pairs {
                    if lrow[lk].is_null() {
                        has_null = true;
                        break;
                    }
                    key.push(ValueKey::from(&lrow[lk]));
                }
                if !has_null {
                    if let Some(candidates) = index.get(&RowKey(key)) {
                        for &ri in candidates {
                            if matches_for(&mut combined, lrow, &right.rows[ri], &residual)? {
                                matched = true;
                                right_matched[ri] = true;
                                out_rows.push(combined.clone());
                            }
                        }
                    }
                }
                if !matched && matches!(join_type, JoinType::Left | JoinType::Full) {
                    let mut row = lrow.clone();
                    row.extend(std::iter::repeat_n(Value::Null, rw));
                    out_rows.push(row);
                }
            }
        } else {
            // Nested-loop join (cross joins and non-equi predicates).
            for lrow in &left.rows {
                let mut matched = false;
                for (ri, rrow) in right.rows.iter().enumerate() {
                    if matches_for(&mut combined, lrow, rrow, &residual)? {
                        matched = true;
                        right_matched[ri] = true;
                        out_rows.push(combined.clone());
                    }
                }
                if !matched && matches!(join_type, JoinType::Left | JoinType::Full) {
                    let mut row = lrow.clone();
                    row.extend(std::iter::repeat_n(Value::Null, rw));
                    out_rows.push(row);
                }
            }
        }

        if matches!(join_type, JoinType::Right | JoinType::Full) {
            for (ri, rrow) in right.rows.iter().enumerate() {
                if !right_matched[ri] {
                    let mut row = vec![Value::Null; lw];
                    row.extend(rrow.iter().cloned());
                    out_rows.push(row);
                }
            }
        }

        Ok(Relation::new(combined_cols, out_rows))
    }
}

/// Apply the SELECT tail: ORDER BY (via precomputed key rows) then
/// DISTINCT (keeping the first occurrence).
fn finish_select(
    mut rel: Relation,
    key_rows: Option<Vec<Row>>,
    order_by: &[OrderByItem],
    distinct: bool,
) -> Relation {
    if let Some(keys) = key_rows {
        debug_assert_eq!(keys.len(), rel.rows.len());
        let mut idx: Vec<usize> = (0..rel.rows.len()).collect();
        idx.sort_by(|&a, &b| compare_key_rows(&keys[a], &keys[b], order_by));
        rel.rows = permute(std::mem::take(&mut rel.rows), &idx);
    }
    if distinct {
        let mut seen = HashSet::new();
        rel.rows.retain(|row| seen.insert(RowKey::from_values(row)));
    }
    rel
}

fn eval_sort_keys(plan: &[SortKey], out_row: &[Value], source_row: &[Value]) -> Result<Row> {
    let mut keys = Vec::with_capacity(plan.len());
    for k in plan {
        keys.push(match k {
            SortKey::Output(i) => out_row[*i].clone(),
            SortKey::Source(e) => e.eval(source_row)?,
        });
    }
    Ok(keys)
}

fn compare_key_rows(a: &[Value], b: &[Value], order_by: &[OrderByItem]) -> std::cmp::Ordering {
    for (i, item) in order_by.iter().enumerate() {
        let ord = a[i].total_cmp(&b[i]);
        let ord = if item.descending { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

fn permute(rows: Vec<Row>, idx: &[usize]) -> Vec<Row> {
    let mut slots: Vec<Option<Row>> = rows.into_iter().map(Some).collect();
    idx.iter()
        .map(|&i| slots[i].take().expect("permutation index used once"))
        .collect()
}

fn apply_limit_offset(rel: &mut Relation, limit: Option<u64>, offset: Option<u64>) {
    if let Some(off) = offset {
        let off = (off as usize).min(rel.rows.len());
        rel.rows.drain(..off);
    }
    if let Some(lim) = limit {
        rel.rows.truncate(lim as usize);
    }
}

/// Sort a finished relation by output column names / positions only
/// (used for set-operation results).
fn sort_by_output_columns(rel: &mut Relation, order_by: &[OrderByItem]) -> Result<()> {
    let keys = set_op_sort_keys(order_by, &rel.cols)?;
    rel.rows.sort_by(|a, b| {
        for &(pos, descending) in &keys {
            let ord = a[pos].total_cmp(&b[pos]);
            let ord = if descending { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(())
}
