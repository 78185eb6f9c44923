//! The database: a named collection of tables, a set of public (non-
//! protected) tables, and a metrics catalog kept fresh on writes.

use crate::error::{DbError, Result};
use crate::exec;
use crate::metrics::MetricsCatalog;
use crate::morsel::{self, DEFAULT_MORSEL_ROWS};
use crate::plan::ResultSet;
use crate::schema::Schema;
use crate::table::{Row, Table};
use flex_sql::{parse_query, Query};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// An in-memory multi-table database.
///
/// Tables marked *public* contain non-protected data (paper §3.6) — e.g.
/// the `cities` table in the paper's deployment; the elastic-sensitivity
/// analysis treats them as having stability 0.
#[derive(Debug)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    public_tables: BTreeSet<String>,
    metrics: MetricsCatalog,
    /// Emulates the paper's trigger-based metric maintenance: when set
    /// (the default), metrics are recomputed for a table after each write.
    pub auto_metrics: bool,
    /// Worker threads the executor may use per query (morsel-
    /// driven; see [`crate::morsel`]). 1 = sequential. Atomic so shared
    /// (`Arc<Database>`) handles can tune it; it is pure execution tuning
    /// and never affects results, which are byte-identical at any value.
    exec_parallelism: AtomicUsize,
    /// Reduction-grid chunk size (the aggregate fold tree's leaf width;
    /// tests shrink it to force multi-leaf merging on small tables).
    /// Unlike the worker count this is determinism-bearing: it fixes the
    /// fold-tree shape and therefore float bit patterns.
    exec_morsel_rows: AtomicUsize,
}

impl Clone for Database {
    fn clone(&self) -> Self {
        Database {
            tables: self.tables.clone(),
            public_tables: self.public_tables.clone(),
            metrics: self.metrics.clone(),
            auto_metrics: self.auto_metrics,
            exec_parallelism: AtomicUsize::new(self.parallelism()),
            exec_morsel_rows: AtomicUsize::new(self.morsel_rows()),
        }
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    /// Create an empty database with no tables.
    pub fn new() -> Self {
        Database {
            tables: BTreeMap::new(),
            public_tables: BTreeSet::new(),
            metrics: MetricsCatalog::default(),
            auto_metrics: true,
            exec_parallelism: AtomicUsize::new(1),
            exec_morsel_rows: AtomicUsize::new(DEFAULT_MORSEL_ROWS),
        }
    }

    /// Set the number of worker threads the executor may use for
    /// one query (clamped to ≥ 1; at 1 every operator runs inline on the
    /// caller's thread — the same functions, over one morsel). Results
    /// are byte-identical at every setting — aggregates fold on a fixed
    /// reduction grid and per-morsel partial results merge in morsel
    /// order — so downstream DP noise seeding is unaffected. Takes
    /// `&self` (atomic) so services holding `Arc<Database>` can tune it;
    /// an execution already running keeps the value it started with.
    ///
    /// ```
    /// use flex_db::{Database, DataType, Schema, Value};
    ///
    /// let mut db = Database::new();
    /// db.create_table("t", Schema::of(&[("x", DataType::Float)])).unwrap();
    /// db.insert("t", (0..10_000).map(|i| vec![Value::Float(i as f64 * 0.1)]).collect())
    ///     .unwrap();
    /// let sequential = db.execute_sql("SELECT SUM(x) FROM t").unwrap();
    /// db.set_parallelism(4);
    /// let parallel = db.execute_sql("SELECT SUM(x) FROM t").unwrap();
    /// // Bit-identical floats at any worker count.
    /// assert_eq!(sequential, parallel);
    /// ```
    pub fn set_parallelism(&self, workers: usize) {
        self.exec_parallelism
            .store(workers.max(1), Ordering::Relaxed);
    }

    /// Current per-query worker budget of the executor.
    pub fn parallelism(&self) -> usize {
        self.exec_parallelism.load(Ordering::Relaxed).max(1)
    }

    /// Override the reduction-grid chunk size (the fold tree's leaf
    /// width; see [`crate::morsel`]). Exposed for differential tests —
    /// tiny chunks force real multi-leaf tree folds and multi-morsel
    /// merging on small tables. **Determinism-bearing**: unlike the
    /// worker count, this changes aggregate float bit patterns, so a
    /// service that seeds noise from result bits must pin it before
    /// fingerprinting and never retune it afterwards. Production code
    /// should keep the default; scheduling morsel sizes are autotuned
    /// independently ([`crate::morsel::Parallelism::sched_rows`]).
    #[doc(hidden)]
    pub fn set_morsel_rows(&self, rows: usize) {
        self.exec_morsel_rows.store(rows.max(1), Ordering::Relaxed);
    }

    /// Current reduction-grid chunk size.
    pub fn morsel_rows(&self) -> usize {
        self.exec_morsel_rows.load(Ordering::Relaxed).max(1)
    }

    /// The execution-tuning snapshot, read once when an execution starts
    /// and carried on its `Exec` — nested executions included — so a
    /// concurrent retune cannot split one query across two
    /// configurations.
    pub(crate) fn exec_tuning(&self) -> morsel::Parallelism {
        morsel::Parallelism {
            workers: self.parallelism(),
            fold_rows: self.morsel_rows(),
        }
    }

    /// Create an empty table.
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) -> Result<()> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(DbError::DuplicateTable(name));
        }
        let table = Table::new(name.clone(), schema);
        if self.auto_metrics {
            self.metrics.add_table(&table);
        }
        self.tables.insert(name, table);
        Ok(())
    }

    /// Insert rows into a table, refreshing metrics if `auto_metrics`.
    pub fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<()> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        t.insert_all(rows)?;
        if self.auto_metrics {
            self.metrics.add_table(t);
        }
        Ok(())
    }

    /// Mark a table as public (non-protected) for the §3.6 optimization.
    pub fn mark_public(&mut self, table: &str) {
        self.public_tables.insert(table.to_string());
    }

    /// Whether `table` was marked public (joins against it do not
    /// multiply sensitivity).
    pub fn is_public(&self, table: &str) -> bool {
        self.public_tables.contains(table)
    }

    /// Names of all tables marked public, in sorted order.
    pub fn public_tables(&self) -> impl Iterator<Item = &str> {
        self.public_tables.iter().map(String::as_str)
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Names of all tables, in sorted order.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Total number of rows across all tables — the database size `n` used
    /// by the smooth-sensitivity mechanism and by `δ = n^(−ln n)`.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    /// The current metrics catalog.
    pub fn metrics(&self) -> &MetricsCatalog {
        &self.metrics
    }

    /// Mutable access to metrics (for overrides such as externally-defined
    /// value ranges).
    pub fn metrics_mut(&mut self) -> &mut MetricsCatalog {
        &mut self.metrics
    }

    /// Recompute the full metrics catalog (needed after bulk loads with
    /// `auto_metrics` disabled).
    pub fn recompute_metrics(&mut self) {
        self.metrics = MetricsCatalog::compute(self.tables.values());
    }

    /// Parse and execute a SQL query.
    pub fn execute_sql(&self, sql: &str) -> Result<ResultSet> {
        let q = parse_query(sql)?;
        self.execute(&q)
    }

    /// Execute a parsed query on the plan executor ([`crate::vexec`]).
    ///
    /// ```
    /// use flex_db::{Database, DataType, Schema, Value};
    ///
    /// let mut db = Database::new();
    /// db.create_table("trips", Schema::of(&[("city", DataType::Str), ("fare", DataType::Float)]))
    ///     .unwrap();
    /// db.insert(
    ///     "trips",
    ///     vec![
    ///         vec![Value::str("sf"), Value::Float(12.0)],
    ///         vec![Value::str("nyc"), Value::Float(30.0)],
    ///         vec![Value::str("sf"), Value::Float(8.0)],
    ///     ],
    /// )
    /// .unwrap();
    /// let q = flex_sql::parse_query("SELECT city, SUM(fare) AS total FROM trips GROUP BY city")
    ///     .unwrap();
    /// let rs = db.execute(&q).unwrap();
    /// assert_eq!(rs.rows[0], vec![Value::str("sf"), Value::Float(20.0)]);
    /// ```
    pub fn execute(&self, q: &Query) -> Result<ResultSet> {
        exec::execute(self, q)
    }

    /// Like [`Database::execute`], but also report how the query ran
    /// ([`exec::ExecTrace`]: rows scanned and emitted, morsels, workers,
    /// top-K pushdown, join order).
    pub fn execute_traced(&self, q: &Query) -> (exec::ExecTrace, Result<ResultSet>) {
        exec::execute_traced(self, q)
    }

    /// Execute a parsed query on the test oracle ([`crate::oracle`], the
    /// row-at-a-time reference implementation) instead of the executor.
    /// For differential tests only — nothing in production calls it.
    #[doc(hidden)]
    pub fn execute_row(&self, q: &Query) -> Result<ResultSet> {
        crate::oracle::execute_row(self, q)
    }

    /// Parse and execute a SQL query on the test oracle.
    #[doc(hidden)]
    pub fn execute_sql_row(&self, sql: &str) -> Result<ResultSet> {
        let q = parse_query(sql)?;
        self.execute_row(&q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use crate::value::Value;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "trips",
            Schema::of(&[
                ("id", DataType::Int),
                ("driver_id", DataType::Int),
                ("city_id", DataType::Int),
                ("fare", DataType::Float),
                ("status", DataType::Str),
            ]),
        )
        .unwrap();
        db.create_table(
            "cities",
            Schema::of(&[("id", DataType::Int), ("name", DataType::Str)]),
        )
        .unwrap();
        db.mark_public("cities");
        db.insert(
            "cities",
            vec![
                vec![Value::Int(1), Value::str("sf")],
                vec![Value::Int(2), Value::str("nyc")],
            ],
        )
        .unwrap();
        let rows = [
            (1, 10, 1, 12.0, "completed"),
            (2, 10, 1, 8.0, "completed"),
            (3, 11, 2, 30.0, "canceled"),
            (4, 12, 2, 22.0, "completed"),
            (5, 10, 2, 15.0, "completed"),
        ]
        .into_iter()
        .map(|(id, driver, city, fare, status)| {
            vec![
                Value::Int(id),
                Value::Int(driver),
                Value::Int(city),
                Value::Float(fare),
                Value::str(status),
            ]
        })
        .collect();
        db.insert("trips", rows).unwrap();
        db
    }

    #[test]
    fn count_star() {
        let db = db();
        let rs = db.execute_sql("SELECT COUNT(*) FROM trips").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(5)));
    }

    #[test]
    fn where_filters() {
        let db = db();
        let rs = db
            .execute_sql("SELECT COUNT(*) FROM trips WHERE status = 'completed'")
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(4)));
    }

    #[test]
    fn join_and_group() {
        let db = db();
        let rs = db
            .execute_sql(
                "SELECT c.name, COUNT(*) AS n FROM trips t \
                 JOIN cities c ON t.city_id = c.id \
                 GROUP BY c.name ORDER BY n DESC",
            )
            .unwrap();
        assert_eq!(rs.columns, vec!["name", "n"]);
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0], vec![Value::str("nyc"), Value::Int(3)]);
    }

    #[test]
    fn count_distinct() {
        let db = db();
        let rs = db
            .execute_sql("SELECT COUNT(DISTINCT driver_id) FROM trips")
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(3)));
    }

    #[test]
    fn metrics_follow_writes() {
        let mut db = db();
        assert_eq!(db.metrics().max_freq("trips", "driver_id"), Some(3));
        db.insert(
            "trips",
            vec![vec![
                Value::Int(6),
                Value::Int(10),
                Value::Int(1),
                Value::Float(9.0),
                Value::str("completed"),
            ]],
        )
        .unwrap();
        assert_eq!(db.metrics().max_freq("trips", "driver_id"), Some(4));
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db();
        assert!(matches!(
            db.create_table("trips", Schema::default()),
            Err(DbError::DuplicateTable(_))
        ));
    }

    #[test]
    fn total_rows_sums_tables() {
        assert_eq!(db().total_rows(), 7);
    }
}
