//! Precomputed database metrics consumed by the elastic-sensitivity
//! analysis: the **max-frequency** metric `mf(a, t, x)` (paper §3.3) and
//! the **value-range** metric `vr(a, t)` (paper §3.7.2).
//!
//! The paper obtains `mf` with one SQL query per join column, e.g.
//! `SELECT COUNT(a) FROM T GROUP BY a ORDER BY count DESC LIMIT 1`, and
//! refreshes it via database triggers on update; [`crate::Database`]
//! emulates the trigger by recomputing a table's metrics after each write
//! to it. Both metrics read the table's typed columns: no `Value` or
//! `String` is built per cell.

use crate::column::{Column, ColumnData};
use crate::table::Table;
use crate::value::KeyHash;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// Metrics for every `(table, column)` pair in a database, by table, then
/// by column, so a look-up borrows its two names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsCatalog {
    tables: BTreeMap<String, BTreeMap<String, Metrics>>,
}

/// One column's recorded metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Metrics {
    /// Max frequency: occurrences of the most frequent non-null value.
    mf: Option<u64>,
    /// Value range `max - min` for numeric columns (None for non-numeric
    /// or all-null columns), or the range declared for the column.
    vr: Option<f64>,
    /// Whether `vr` was declared ([`MetricsCatalog::set_value_range`]):
    /// a write then keeps it, so noise is never calibrated from the data.
    vr_declared: bool,
}

impl MetricsCatalog {
    /// Compute metrics for a set of tables.
    pub fn compute<'a, I: IntoIterator<Item = &'a Table>>(tables: I) -> MetricsCatalog {
        let mut catalog = MetricsCatalog::default();
        for table in tables {
            catalog.add_table(table);
        }
        catalog
    }

    /// Compute and record metrics for one table, replacing prior entries
    /// except a declared value range.
    pub fn add_table(&mut self, table: &Table) {
        let columns = &table.columnar().columns;
        let entries = self.tables.entry(table.name.clone()).or_default();
        for (def, col) in table.schema.columns.iter().zip(columns) {
            let metrics = entries.entry(def.name.clone()).or_default();
            metrics.mf = Some(max_frequency(col));
            if !metrics.vr_declared {
                metrics.vr = value_range(col);
            }
        }
    }

    /// One column's entry, if any metric of it is recorded.
    fn get(&self, table: &str, column: &str) -> Option<&Metrics> {
        self.tables.get(table)?.get(column)
    }

    /// One column's entry, made if it is missing.
    fn entry(&mut self, table: &str, column: &str) -> &mut Metrics {
        let columns = self.tables.entry(table.to_string()).or_default();
        columns.entry(column.to_string()).or_default()
    }

    /// The max-frequency metric `mf(column, table, x)` for the current
    /// database instance, or `None` if the column is unknown.
    pub fn max_freq(&self, table: &str, column: &str) -> Option<u64> {
        self.get(table, column)?.mf
    }

    /// The value-range metric `vr(column, table)`, or `None` if the column
    /// is unknown or has no numeric range.
    pub fn value_range(&self, table: &str, column: &str) -> Option<f64> {
        self.get(table, column)?.vr
    }

    /// All metric entries as `(table, column, mf, vr)` in sorted order —
    /// a stable enumeration for fingerprinting and serialization.
    pub fn sorted_entries(&self) -> Vec<(&str, &str, Option<u64>, Option<f64>)> {
        (self.tables.iter())
            .flat_map(|(table, columns)| {
                (columns.iter())
                    .map(move |(column, m)| (table.as_str(), column.as_str(), m.mf, m.vr))
            })
            .collect()
    }

    /// Declare a column's value range (an externally-supplied data model,
    /// e.g. a check constraint defining the permissible range). Later
    /// writes keep it; only [`crate::Database::recompute_metrics`] drops
    /// it.
    pub fn set_value_range(&mut self, table: &str, column: &str, range: f64) {
        let metrics = self.entry(table, column);
        metrics.vr = Some(range);
        metrics.vr_declared = true;
    }

    /// Override the max-frequency metric (used by tests and by simulations
    /// of stale metrics).
    pub fn set_max_freq(&mut self, table: &str, column: &str, mf: u64) {
        self.entry(table, column).mf = Some(mf);
    }
}

/// Frequency of the most frequent non-null value of `col`. Integer and
/// string cells are counted as themselves, the rest by their borrowed
/// keys ([`Column::key`]), which partition the cells the same way.
fn max_frequency(col: &Column) -> u64 {
    let cells = (0..col.len()).filter(|&i| !col.is_null(i));
    match &col.data {
        ColumnData::Int64(xs) => mode(cells.map(|i| xs[i])),
        ColumnData::Str(ss) => mode(cells.map(|i| &ss[i])),
        _ => mode(cells.map(|i| col.key(i))),
    }
}

/// The largest number of times one key occurs in `keys`.
fn mode<K: Hash + Eq>(keys: impl Iterator<Item = K>) -> u64 {
    let mut counts: HashMap<K, u64, KeyHash> = HashMap::default();
    let mut best = 0u64;
    for key in keys {
        let c = counts.entry(key).or_insert(0);
        *c += 1;
        best = best.max(*c);
    }
    best
}

/// `max - min` over the non-null numeric values of `col`
/// ([`Column::number`]).
fn value_range(col: &Column) -> Option<f64> {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut any = false;
    for x in (0..col.len()).filter_map(|i| col.number(i)) {
        min = min.min(x);
        max = max.max(x);
        any = true;
    }
    if any {
        Some(max - min)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};
    use crate::value::Value;

    fn table() -> Table {
        let mut t = Table::new(
            "trips",
            Schema::of(&[
                ("driver_id", DataType::Int),
                ("fare", DataType::Float),
                ("city", DataType::Str),
            ]),
        );
        for (d, f, c) in [
            (1, 10.0, "sf"),
            (1, 20.0, "sf"),
            (1, 5.0, "nyc"),
            (2, 8.0, "sf"),
        ] {
            t.insert(vec![Value::Int(d), Value::Float(f), Value::str(c)])
                .unwrap();
        }
        t
    }

    #[test]
    fn max_frequency_counts_mode() {
        let c = MetricsCatalog::compute([&table()]);
        assert_eq!(c.max_freq("trips", "driver_id"), Some(3));
        assert_eq!(c.max_freq("trips", "city"), Some(3));
        assert_eq!(c.max_freq("trips", "fare"), Some(1));
        assert_eq!(c.max_freq("trips", "nope"), None);
    }

    #[test]
    fn max_frequency_ignores_nulls() {
        let mut t = Table::new("t", Schema::of(&[("a", DataType::Int)]));
        t.insert(vec![Value::Null]).unwrap();
        t.insert(vec![Value::Null]).unwrap();
        t.insert(vec![Value::Int(1)]).unwrap();
        let c = MetricsCatalog::compute([&t]);
        assert_eq!(c.max_freq("t", "a"), Some(1));
    }

    #[test]
    fn empty_table_has_zero_mf() {
        let t = Table::new("t", Schema::of(&[("a", DataType::Int)]));
        let c = MetricsCatalog::compute([&t]);
        assert_eq!(c.max_freq("t", "a"), Some(0));
    }

    #[test]
    fn value_range_numeric_only() {
        let c = MetricsCatalog::compute([&table()]);
        assert_eq!(c.value_range("trips", "fare"), Some(15.0));
        assert_eq!(c.value_range("trips", "driver_id"), Some(1.0));
        assert_eq!(c.value_range("trips", "city"), None);
    }

    #[test]
    fn overrides() {
        let mut c = MetricsCatalog::compute([&table()]);
        c.set_value_range("trips", "fare", 100.0);
        c.set_max_freq("trips", "driver_id", 65);
        assert_eq!(c.value_range("trips", "fare"), Some(100.0));
        assert_eq!(c.max_freq("trips", "driver_id"), Some(65));
    }
}
