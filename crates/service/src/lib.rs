//! # flex-service
//!
//! The **front door** of the FLEX differential-privacy system: a
//! concurrent, multi-analyst query service over one
//! [`Database`](flex_db::Database), in the mold of the paper's deployment
//! at Uber (middleware intercepting analysts' SQL) and the Chorus
//! query-rewriting service that scaled the same analysis to a real
//! multi-analyst installation.
//!
//! ```text
//!            analysts (threads)            QueryService
//!   "alice" ── SQL ──▶ submit() ─┬─ parse + canonicalize
//!   "bob"   ── SQL ──▶ submit() ─┤      │
//!                                │      ├─ noisy-answer cache ── hit ──▶ free, bit-identical
//!                                │      ├─ BudgetLedger admission ── reject ─▶ error, no compute
//!                                │      └─ worker pool: analyze → execute → smooth → noise
//!                                └─ Ticket::wait() ◀─ noised rows only
//! ```
//!
//! * [`BudgetLedger`] — thread-safe per-analyst (ε, δ) accounts with
//!   admission control and pluggable composition (sequential or strong);
//! * [`AnswerCache`] — released answers keyed on canonical ASTs; repeats
//!   cost zero budget and return bit-identical rows;
//! * [`Telemetry`] — counters, queue depth and stage timings for ops.
//!
//! ```
//! use flex_service::{QueryService, ServiceConfig};
//! use flex_core::PrivacyParams;
//! use flex_db::{Database, DataType, Schema, Value};
//! use std::sync::Arc;
//!
//! let mut db = Database::new();
//! db.create_table("t", Schema::of(&[("x", DataType::Int)])).unwrap();
//! db.insert("t", (0..100).map(|i| vec![Value::Int(i)]).collect()).unwrap();
//!
//! let svc = QueryService::new(Arc::new(db), ServiceConfig::default());
//! let p = PrivacyParams::new(1.0, 1e-8).unwrap();
//! let first = svc.query("alice", "SELECT COUNT(*) FROM t", p).unwrap();
//! let again = svc.query("alice", "select count(*) from t", p).unwrap();
//! assert!(again.from_cache);
//! assert_eq!(first.rows, again.rows);
//! assert_eq!(svc.ledger().spent("alice").0, 1.0); // charged once
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod export;
pub mod fault;
pub mod ledger;
mod prf;
mod queue;
pub mod service;
mod sync;
pub mod telemetry;
pub mod wal;

pub use cache::{Admission, AnswerCache, CacheKey, CachedAnswer};
pub use error::{ServiceError, ServiceResult};
pub use export::{AnalystBudget, MetricsReport};
pub use fault::FaultStorage;
pub use ledger::{BudgetLedger, Charge, LedgerPolicy};
pub use service::{QueryService, ServiceConfig, ServiceResponse, Ticket};
pub use telemetry::{
    LatencyHistogram, LatencySnapshot, Metric, QueryTrace, SlowQuery, Telemetry, TelemetrySnapshot,
};
pub use wal::{
    AccountSnapshot, FileStorage, FsyncPolicy, LedgerSnapshot, RecoveryReport, Storage, Wal, WalOp,
};
