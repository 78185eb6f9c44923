//! # flex
//!
//! Umbrella crate for the FLEX differential-privacy system — a Rust
//! reproduction of *"Towards Practical Differential Privacy for SQL
//! Queries"* (Johnson, Near & Song, VLDB 2018).
//!
//! Re-exports the public API of the component crates:
//!
//! * [`sql`] — SQL lexer/parser/AST/printer ([`flex_sql`]);
//! * [`db`] — the in-memory SQL engine and metrics collector ([`flex_db`]);
//! * [`core`] — elastic sensitivity and the FLEX mechanism ([`flex_core`]);
//! * [`mechanisms`] — wPINQ/PINQ/restricted-sensitivity baselines
//!   ([`flex_mechanisms`]);
//! * [`workloads`] — synthetic datasets and workloads ([`flex_workloads`]);
//! * [`service`] — the concurrent multi-analyst query service with budget
//!   ledgers and a noisy-answer cache ([`flex_service`]).
//!
//! ```
//! use flex::prelude::*;
//! use rand::SeedableRng;
//!
//! let db = flex::workloads::uber::generate(&UberConfig {
//!     trips: 5_000,
//!     ..UberConfig::default()
//! });
//! let params = PrivacyParams::new(1.0, 1e-8).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let out = run_sql(
//!     &db,
//!     "SELECT COUNT(*) FROM trips WHERE status = 'completed'",
//!     params,
//!     &mut rng,
//! )
//! .unwrap();
//! assert!(out.scalar().is_some());
//! ```

pub use flex_core as core;
pub use flex_db as db;
pub use flex_mechanisms as mechanisms;
pub use flex_service as service;
pub use flex_sql as sql;
pub use flex_workloads as workloads;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use flex_core::{
        analyze, analyze_with, enumerate_bins, run_sql, run_sql_with, AnalysisOptions,
        AnalyzedQuery, Composition, FlexError, FlexOptions, FlexResult, PrivacyBudget,
        PrivacyParams, SensExpr, SmoothSensitivity,
    };
    pub use flex_db::{DataType, Database, ExecTrace, ResultSet, Schema, Table, Value};
    pub use flex_service::{
        BudgetLedger, FsyncPolicy, LedgerPolicy, MetricsReport, QueryService, QueryTrace,
        RecoveryReport, ServiceConfig, ServiceError, ServiceResponse, TelemetrySnapshot,
    };
    pub use flex_sql::{canonical_sql, canonicalize, parse_query, print_query, Query};
    pub use flex_workloads::{GraphConfig, TpchConfig, UberConfig};
}
