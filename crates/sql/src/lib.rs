//! # flex-sql
//!
//! SQL front-end for the FLEX differential-privacy system: a hand-written
//! lexer, a recursive-descent parser producing a typed [`ast`], a printer
//! that round-trips ASTs back to SQL, the [`inline`] pass that expands
//! `WITH` before anything binds a relation name, and visitor utilities
//! used by the elastic-sensitivity analysis and the empirical query-study
//! analyzer.
//!
//! The dialect covers the SQL constructs exercised by the paper's workloads
//! (see crate-level docs of [`parser`] for the grammar): CTEs, all join
//! types, derived tables, set operations, grouping/having/ordering, and a
//! rich expression language including `CASE`, `IN`, `BETWEEN`, `LIKE`,
//! `EXISTS`, and aggregate function calls.
//!
//! ```
//! use flex_sql::parse_query;
//!
//! let q = parse_query("SELECT COUNT(*) FROM trips WHERE city_id = 3").unwrap();
//! assert!(q.as_select().is_some());
//! ```

pub mod ast;
pub mod canonical;
pub mod error;
pub mod inline;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod token;
pub mod visitor;

pub use ast::*;
pub use canonical::{canonical_sql, canonicalize};
pub use error::{ParseError, Result};
pub use inline::inline_ctes;
pub use parser::{parse_query, parse_script};
pub use printer::{print_expr, print_query};
