//! In-memory tables.

use crate::bind::ColMeta;
use crate::column::ColumnarTable;
use crate::error::Result;
use crate::schema::Schema;
use crate::value::Value;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// A row is a vector of values matching the table schema's arity.
pub type Row = Vec<Value>;

/// An in-memory table: a schema plus a multiset of rows, stored once, as
/// columns ([`ColumnarTable`]).
///
/// A write ([`Table::insert_all`]) validates the whole batch, then builds
/// the table's columns again from its rows and the new ones, so a table
/// is loaded in batches, not a row at a time. Everything that reads a
/// table — the executor's scans, the metrics collector, the labels, the
/// service's fingerprint — reads the typed columns; [`Table::rows`]
/// rebuilds the rows for the few readers that want them. Beside the
/// columns, each column's label domain ([`Table::labels`]) is built on
/// first use and dropped by the next write.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Declared column layout.
    pub schema: Schema,
    /// The rows, column-major, in insertion order.
    columns: Arc<ColumnarTable>,
    /// Per column, lazily built: its distinct non-NULL values, sorted
    /// (see [`Table::labels`]).
    labels: Box<[OnceLock<Vec<Value>>]>,
}

/// Equality ignores the label cache: two tables with the same rows are
/// equal whether or not either has had its labels read.
impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.schema == other.schema && self.columns == other.columns
    }
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            columns: Arc::new(ColumnarTable::from_rows(&[], schema.len())),
            labels: no_labels(schema.len()),
            schema,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Insert a row after validating it against the schema.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.insert_all([row])
    }

    /// Insert a batch of rows, all or nothing: every row is validated
    /// before any is written.
    pub fn insert_all<I: IntoIterator<Item = Row>>(&mut self, rows: I) -> Result<()> {
        let mut rows: Vec<Row> = rows.into_iter().collect();
        for row in &rows {
            self.schema.check_row(row)?;
        }
        let mut all = self.rows();
        all.append(&mut rows);
        self.columns = Arc::new(ColumnarTable::from_rows(&all, self.schema.len()));
        self.labels = no_labels(self.schema.len());
        Ok(())
    }

    /// Every row, rebuilt exactly as written, in insertion order.
    pub fn rows(&self) -> Vec<Row> {
        self.columns.rows()
    }

    /// The table's columns, shared (a cheaply clonable `Arc`) until the
    /// next write replaces them. The `Arc` is what lets the executor's
    /// morsel-parallel operators scan one immutable table from several
    /// worker threads at once without copying or locking.
    pub fn columnar(&self) -> &Arc<ColumnarTable> {
        &self.columns
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
            let col = &self.columns.columns[idx];
            let mut seen = HashSet::new();
            let mut labels: Vec<Value> = (0..col.len())
                .filter(|&i| !col.is_null(i) && seen.insert(col.key(i)))
                .map(|i| col.value(i))
                .collect();
            labels.sort_by(Value::total_cmp);
            labels
        }))
    }
}

/// An empty label cache for `arity` columns.
fn no_labels(arity: usize) -> Box<[OnceLock<Vec<Value>>]> {
    (0..arity).map(|_| OnceLock::new()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, ColumnData, NullMask};
    use crate::schema::{DataType, Schema};
    use proptest::prelude::*;

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
    fn a_batch_with_an_invalid_row_writes_nothing() {
        let mut t = demo();
        let before = t.rows();
        let batch = vec![
            vec![Value::Int(3), Value::str("la")],
            vec![Value::Int(4), Value::Int(4)],
        ];
        assert!(t.insert_all(batch).is_err());
        assert_eq!(t.rows(), before);
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
        let _ = a.labels("city");
        assert_eq!(a, b);
    }

    /// A value as its bits: a float by its bit pattern, so NaN equals
    /// itself and `-0.0` differs from `0.0`.
    fn bits(v: &Value) -> String {
        match v {
            Value::Float(f) => format!("Float({:#x})", f.to_bits()),
            other => format!("{other:?}"),
        }
    }

    /// A column as its bits: representation, NULL mask and every slot.
    fn column_bits(c: &Column) -> (std::mem::Discriminant<ColumnData>, NullMask, Vec<String>) {
        let slots = (0..c.len()).map(|i| bits(&c.value(i))).collect();
        (std::mem::discriminant(&c.data), c.nulls.clone(), slots)
    }

    fn long_string() -> String {
        "x".repeat(300)
    }

    fn arb_row() -> BoxedStrategy<Row> {
        let int = prop_oneof![
            Just(Value::Null),
            (-3i64..4).prop_map(Value::Int),
            Just(Value::Int(i64::MIN)),
        ];
        // A `Float` column admits `Int`s: a batch can turn a typed column
        // into a mixed one.
        let float = prop_oneof![
            Just(Value::Null),
            (-3i64..4).prop_map(|i| Value::Float(i as f64 * 0.5)),
            (-3i64..4).prop_map(Value::Int),
            Just(Value::Float(-0.0)),
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(-f64::NAN)),
            Just(Value::Float(f64::INFINITY)),
        ];
        let string = prop_oneof![
            Just(Value::Null),
            Just(Value::str("")),
            "[ab]{1,3}".prop_map(Value::Str),
            Just(Value::Str(long_string())),
        ];
        let boolean = prop_oneof![Just(Value::Null), any::<bool>().prop_map(Value::Bool)];
        (int, float, string, boolean)
            .prop_map(|(i, f, s, b)| vec![i, f, s, b])
            .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one stored copy of a table is exact: after every batch,
        /// `rows()` returns every row written so far bit for bit, every
        /// NULL is in the mask, and the columns equal one build of all of
        /// them at once — whatever representation the earlier batches
        /// had given a column.
        #[test]
        fn storage_returns_every_written_row_bit_for_bit(
            batches in proptest::collection::vec(proptest::collection::vec(arb_row(), 0..10), 1..5),
        ) {
            let schema = Schema::of(&[
                ("i", DataType::Int),
                ("f", DataType::Float),
                ("s", DataType::Str),
                ("b", DataType::Bool),
            ]);
            let mut t = Table::new("t", schema);
            let mut written: Vec<Row> = Vec::new();
            for batch in batches {
                written.extend(batch.iter().cloned());
                t.insert_all(batch).unwrap();
                let bits_of = |rows: &[Row]| -> Vec<Vec<String>> {
                    rows.iter().map(|r| r.iter().map(bits).collect()).collect()
                };
                prop_assert_eq!(t.len(), written.len());
                prop_assert_eq!(bits_of(&t.rows()), bits_of(&written));
                let once = ColumnarTable::from_rows(&written, 4);
                prop_assert_eq!(t.columnar().len(), once.len());
                for (c, (stored, built)) in t.columnar().columns.iter().zip(&once.columns).enumerate() {
                    let nulls = written.iter().filter(|r| r[c].is_null()).count();
                    prop_assert_eq!(stored.nulls.null_count(), nulls);
                    prop_assert_eq!(column_bits(stored), column_bits(built));
                }
            }
        }
    }
}
