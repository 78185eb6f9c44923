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
//! What it does *not* re-implement, and the differential suite therefore
//! cannot cross-check, is listed in [`crate::exec`]'s module docs: the
//! expression compiler, the grouping/projection code and the ORDER BY
//! resolution rule are the executor's own. Expression subqueries run on
//! the oracle (the `Exec` it builds carries `run` as its runner).

use crate::database::Database;
use crate::error::{DbError, Result};
use crate::exec::{apply_limit_offset, check_set_op_arity, set_op_sort_keys, Exec};
use crate::expr::CompiledExpr;
use crate::morsel::Parallelism;
use crate::plan::{split_join_constraint, ColMeta, Relation, ResultSet};
use crate::table::Row;
use crate::value::{RowKey, Value, ValueKey};
use crate::vexec::VexecStats;
use flex_sql::{
    JoinConstraint, JoinType, OrderByItem, Query, Select, SetExpr, SetOperator, TableRef,
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
