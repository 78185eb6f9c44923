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

use crate::column::Column;
use crate::table::Table;
use std::collections::HashMap;

/// Metrics for every `(table, column)` pair in a database.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsCatalog {
    /// Max frequency: occurrences of the most frequent non-null value.
    mf: HashMap<(String, String), u64>,
    /// Value range `max - min` for numeric columns (None for non-numeric
    /// or all-null columns).
    vr: HashMap<(String, String), Option<f64>>,
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

    /// Compute and record metrics for one table, replacing prior entries.
    pub fn add_table(&mut self, table: &Table) {
        let columns = &table.columnar().columns;
        for (def, col) in table.schema.columns.iter().zip(columns) {
            let key = (table.name.clone(), def.name.clone());
            self.mf.insert(key.clone(), max_frequency(col));
            self.vr.insert(key, value_range(col));
        }
    }

    /// The max-frequency metric `mf(column, table, x)` for the current
    /// database instance, or `None` if the column is unknown.
    pub fn max_freq(&self, table: &str, column: &str) -> Option<u64> {
        self.mf
            .get(&(table.to_string(), column.to_string()))
            .copied()
    }

    /// The value-range metric `vr(column, table)`, or `None` if the column
    /// is unknown or has no numeric range.
    pub fn value_range(&self, table: &str, column: &str) -> Option<f64> {
        self.vr
            .get(&(table.to_string(), column.to_string()))
            .copied()
            .flatten()
    }

    /// All metric entries as `(table, column, mf, vr)` in sorted order —
    /// a stable enumeration for fingerprinting and serialization (the
    /// backing maps iterate in randomized hash order).
    pub fn sorted_entries(&self) -> Vec<(&str, &str, Option<u64>, Option<f64>)> {
        let mut keys: Vec<&(String, String)> = self.mf.keys().chain(self.vr.keys()).collect();
        keys.sort();
        keys.dedup();
        keys.into_iter()
            .map(|key| {
                (
                    key.0.as_str(),
                    key.1.as_str(),
                    self.mf.get(key).copied(),
                    self.vr.get(key).copied().flatten(),
                )
            })
            .collect()
    }

    /// Override a metric (used to model externally-supplied data models,
    /// e.g. a check constraint defining the permissible value range).
    pub fn set_value_range(&mut self, table: &str, column: &str, range: f64) {
        self.vr
            .insert((table.to_string(), column.to_string()), Some(range));
    }

    /// Override the max-frequency metric (used by tests and by simulations
    /// of stale metrics).
    pub fn set_max_freq(&mut self, table: &str, column: &str, mf: u64) {
        self.mf.insert((table.to_string(), column.to_string()), mf);
    }

    /// Number of `(table, column)` pairs with a recorded max frequency.
    pub fn len(&self) -> usize {
        self.mf.len()
    }

    /// Whether the catalog holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.mf.is_empty()
    }
}

/// Frequency of the most frequent non-null value of `col`, counted over
/// its borrowed keys ([`Column::key`]).
fn max_frequency(col: &Column) -> u64 {
    let mut counts = HashMap::new();
    let mut best = 0u64;
    for i in (0..col.len()).filter(|&i| !col.is_null(i)) {
        let c = counts.entry(col.key(i)).or_insert(0u64);
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
