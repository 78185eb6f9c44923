//! # flex-db
//!
//! An in-memory SQL database engine: the substrate the FLEX differential-
//! privacy system runs against. FLEX treats the database as a black box
//! (paper Requirement 1 — compatibility with existing databases); this
//! crate supplies that black box, plus the **metrics collector** producing
//! the precomputed max-frequency (`mf`) and value-range (`vr`) metrics the
//! elastic-sensitivity analysis consumes.
//!
//! Supported execution features: CTEs (expanded into derived tables by
//! [`flex_sql::inline_ctes`] before the executor sees the query), derived
//! tables, inner/left/right/full/cross joins in trees of any width (hash
//! joins on extracted equijoin keys), WHERE/GROUP BY/HAVING/ORDER
//! BY/LIMIT, the seven aggregation functions of the paper's study (count,
//! sum, avg, min, max, median, stddev) including `COUNT(DISTINCT ...)`,
//! UNION \[ALL\] / INTERSECT / EXCEPT, table-less SELECT, and uncorrelated
//! subquery predicates.
//!
//! Every query runs on **one engine** behind [`Database::execute`]: the
//! plan executor, an operator-at-a-time executor over a physical-plan IR
//! (each table's [`ColumnarTable`] — the one copy of its rows, built when
//! they are written — scanned with predicate kernels, columnar hash / nested-loop joins with predicate
//! pushdown and late materialization, a columnar hash-aggregate, and an
//! index-based ORDER BY / DISTINCT / LIMIT tail). It plans the whole query
//! — nested queries included — before it runs any of it, so there is
//! nothing to route and every error is raised where it is found;
//! [`Database::execute_traced`] reports what a run scanned. Each operator
//! is a per-morsel body plus a morsel-order merge, run inline or across a
//! scoped worker pool when [`Database::set_parallelism`] raises the
//! per-query worker budget, so results stay byte-identical at every
//! thread count.
//!
//! The planner, the expression compiler, the executor and its kernels are
//! private to this crate. The differential suites check them against
//! `flex-oracle`, a separate test crate with an interpreter of its own
//! that reaches this one only through its public API.
//!
//! ```
//! use flex_db::{Database, DataType, Schema, Value};
//!
//! let mut db = Database::new();
//! db.create_table("t", Schema::of(&[("x", DataType::Int)])).unwrap();
//! db.insert("t", vec![vec![Value::Int(1)], vec![Value::Int(2)]]).unwrap();
//! let rs = db.execute_sql("SELECT COUNT(*) FROM t WHERE x > 1").unwrap();
//! assert_eq!(rs.scalar(), Some(&Value::Int(1)));
//! ```

#![warn(missing_docs)]

mod aggregate;
pub mod bind;
pub mod column;
pub mod database;
pub mod error;
mod exec;
mod expr;
pub mod metrics;
mod morsel;
mod plan;
pub mod planned;
pub mod schema;
pub mod table;
pub mod value;
mod vexec;

pub use aggregate::AggFunc;
pub use bind::ColMeta;
pub use column::{Column, ColumnData, ColumnarTable, NullMask, Strings};
pub use database::Database;
pub use error::{DbError, Result};
pub use exec::{ExecTrace, RouteDecision};
pub use metrics::MetricsCatalog;
pub use morsel::DEFAULT_MORSEL_ROWS;
pub use plan::{FilterOrder, JoinOrder, ResultSet};
pub use planned::Planned;
pub use schema::{ColumnDef, DataType, Schema};
pub use table::{Row, Table};
pub use value::{BorrowKey, KeyHash, RowKey, Value, ValueKey};
