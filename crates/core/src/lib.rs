//! # flex-core
//!
//! **Elastic sensitivity** and the **FLEX** mechanism — a Rust
//! reproduction of *"Towards Practical Differential Privacy for SQL
//! Queries"* (Johnson, Near, Song; VLDB 2018).
//!
//! Elastic sensitivity is an efficiently-computable upper bound on the
//! *local sensitivity* of SQL counting queries with arbitrary equijoins.
//! It is computed statically from the query and a set of precomputed
//! *max-frequency* metrics — no extra interaction with the database — and
//! then smoothed with smooth sensitivity so Laplace noise calibrated to it
//! yields (ε, δ)-differential privacy.
//!
//! Pipeline (paper Figure 2):
//!
//! ```text
//! SQL ──parse──▶ AST ──lower──▶ core relational algebra (Fig. 1a)
//!     ──analyze──▶ Ŝ⁽ᵏ⁾ as a polynomial-like SensExpr (Fig. 1b/1c)
//!     ──smooth──▶ S = max_k e^(−βk) Ŝ⁽ᵏ⁾  with β = ε / (2 ln(2/δ))
//!     ──run true query + Lap(2S/ε)──▶ differentially private results
//! ```
//!
//! ```
//! use flex_core::{run_sql, PrivacyParams};
//! use flex_db::{Database, DataType, Schema, Value};
//! use rand::SeedableRng;
//!
//! let mut db = Database::new();
//! db.create_table("trips", Schema::of(&[("driver_id", DataType::Int)])).unwrap();
//! db.insert("trips", (0..1000).map(|i| vec![Value::Int(i % 40)]).collect()).unwrap();
//!
//! let params = PrivacyParams::new(1.0, 1e-8).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let result = run_sql(&db, "SELECT COUNT(*) FROM trips", params, &mut rng).unwrap();
//! assert!((result.scalar().unwrap() - 1000.0).abs() < 100.0);
//! ```

pub mod analysis;
pub mod budget;
pub mod error;
pub mod histogram;
pub mod laplace;
pub mod lower;
pub mod mechanism;
pub mod mwem;
pub mod ptr;
pub mod relalg;
pub mod senspoly;
pub mod smooth;
pub mod study;

pub use analysis::{analyze, analyze_with, AnalysisOptions, AnalyzedQuery};
pub use budget::{strong_composition, BudgetedFlex, Composition, PrivacyBudget, SparseVector};
pub use error::{FlexError, Result};
pub use flex_db::ExecTrace;
pub use histogram::enumerate_bins;
pub use laplace::{laplace, noisy};
pub use lower::{lower, GroupKey, Lowered, OutputColumn, RootAgg};
pub use mechanism::{
    run_query, run_query_deadline, run_query_with, run_sql, run_sql_with, FlexOptions, FlexResult,
    FlexTimings,
};
pub use mwem::{mwem, LinearQuery, MwemResult};
pub use ptr::{propose_test_release, PtrOutcome};
pub use relalg::{Attr, QueryKind, Rel};
pub use senspoly::{Poly, SensExpr};
pub use smooth::{smooth, PrivacyParams, SmoothSensitivity};
pub use study::{analyze_corpus, StudyReport};
