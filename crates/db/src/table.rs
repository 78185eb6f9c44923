//! In-memory tables.

use crate::bind::ColMeta;
use crate::column::ColumnarTable;
use crate::error::Result;
use crate::schema::Schema;
use crate::value::{BorrowKey, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// A row is a vector of values matching the table schema's arity.
pub type Row = Vec<Value>;

/// An in-memory table: a schema plus a multiset of rows.
///
/// The table also carries a lazily built [`ColumnarTable`] projection used
/// by the executor: the first
/// scan pays the row-to-column conversion once, and subsequent
/// reads share it. Beside it, each column's label domain
/// ([`Table::labels`]) is built on first use the same way. Writes through
/// [`Table::insert`] invalidate both; `rows` is public for read access,
/// and any code mutating it
/// directly must go through `insert`/`insert_all` instead so the cache
/// stays coherent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Declared column layout.
    pub schema: Schema,
    /// The rows, row-major, in insertion order.
    pub rows: Vec<Row>,
    /// Lazily built column-major projection of `rows`.
    columnar: OnceLock<Arc<ColumnarTable>>,
    /// Per column, lazily built: its distinct non-NULL values, sorted
    /// (see [`Table::labels`]). Dropped with `columnar` on every write.
    labels: Box<[OnceLock<Vec<Value>>]>,
}

/// Equality ignores the columnar cache: two tables with the same rows are
/// equal whether or not either has been scanned columnar-ly.
impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.schema == other.schema && self.rows == other.rows
    }
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            labels: (0..schema.len()).map(|_| OnceLock::new()).collect(),
            schema,
            rows: Vec::new(),
            columnar: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert a row after validating it against the schema.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.schema.check_row(&row)?;
        self.columnar.take();
        for labels in self.labels.iter_mut() {
            labels.take();
        }
        self.rows.push(row);
        Ok(())
    }

    /// Insert many rows, validating each.
    pub fn insert_all<I: IntoIterator<Item = Row>>(&mut self, rows: I) -> Result<()> {
        for row in rows {
            self.insert(row)?;
        }
        Ok(())
    }

    /// The columnar projection of this table, built on first use and
    /// shared (cheaply clonable `Arc`) until the next write. The `Arc`
    /// is what lets the executor's morsel-parallel operators
    /// scan one immutable projection from several worker threads at
    /// once without copying or locking.
    pub fn columnar(&self) -> &Arc<ColumnarTable> {
        self.columnar
            .get_or_init(|| Arc::new(ColumnarTable::from_rows(&self.rows, self.schema.len())))
    }

    /// The schema columns as scope metadata qualified by `qualifier` (the
    /// table's alias, or its name) — exactly what the oracle builds
    /// when it scans this table, shared so the executor resolves
    /// column references identically.
    pub fn col_metas(&self, qualifier: &str) -> Vec<ColMeta> {
        self.schema
            .columns
            .iter()
            .map(|c| ColMeta::new(Some(qualifier.to_string()), c.name.clone()))
            .collect()
    }

    /// The distinct non-NULL values of the named column, sorted by
    /// [`Value::total_cmp`] — a histogram's bin labels when the column is
    /// public. Values are distinct under [`crate::ValueKey`] equality
    /// (`1` and `1.0` are one label, the first in row order); built on
    /// first use and kept until the next write.
    pub fn labels(&self, column: &str) -> Option<&[Value]> {
        let idx = self.schema.index_of(column)?;
        Some(self.labels[idx].get_or_init(|| {
            let mut seen = HashSet::new();
            let mut labels: Vec<Value> = self
                .rows
                .iter()
                .map(|r| &r[idx])
                .filter(|v| !v.is_null() && seen.insert(BorrowKey::from(*v)))
                .cloned()
                .collect();
            labels.sort_by(Value::total_cmp);
            labels
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};

    fn demo() -> Table {
        let mut t = Table::new(
            "t",
            Schema::of(&[("id", DataType::Int), ("city", DataType::Str)]),
        );
        t.insert(vec![Value::Int(1), Value::str("sf")]).unwrap();
        t.insert(vec![Value::Int(2), Value::str("nyc")]).unwrap();
        t
    }

    #[test]
    fn insert_validates() {
        let mut t = demo();
        assert_eq!(t.len(), 2);
        assert!(t.insert(vec![Value::str("bad"), Value::str("x")]).is_err());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn columnar_projection_matches_rows() {
        let t = demo();
        let c = t.columnar();
        assert_eq!(c.len(), 2);
        for (i, row) in t.rows.iter().enumerate() {
            assert_eq!(&c.row(i), row);
        }
    }

    #[test]
    fn insert_invalidates_columnar_cache() {
        let mut t = demo();
        assert_eq!(t.columnar().len(), 2);
        t.insert(vec![Value::Int(3), Value::str("la")]).unwrap();
        assert_eq!(t.columnar().len(), 3);
        assert_eq!(t.columnar().row(2), vec![Value::Int(3), Value::str("la")]);
    }

    #[test]
    fn labels_are_sorted_distinct_non_null_and_follow_writes() {
        let mut t = Table::new("t", Schema::of(&[("x", DataType::Float)]));
        for v in [
            Value::Float(2.0),
            Value::Null,
            Value::Int(2),
            Value::Float(-1.5),
            Value::Int(7),
        ] {
            t.insert(vec![v]).unwrap();
        }
        // `2.0` and `2` are one label; the first in row order is kept.
        let want = [Value::Float(-1.5), Value::Float(2.0), Value::Int(7)];
        assert_eq!(t.labels("x").unwrap(), &want);
        assert!(t.labels("nope").is_none());
        t.insert(vec![Value::Int(0)]).unwrap();
        assert_eq!(t.labels("x").unwrap()[1], Value::Int(0), "rebuilt on write");
    }

    #[test]
    fn equality_ignores_cache_state() {
        let a = demo();
        let b = demo();
        let _ = a.columnar();
        assert_eq!(a, b);
    }
}
