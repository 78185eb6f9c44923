//! Analysis and mechanism errors.

use std::fmt;

/// Result alias for FLEX operations.
pub type Result<T> = std::result::Result<T, FlexError>;

/// Why a query cannot be answered with differential privacy by FLEX.
///
/// The variants mirror the unsupported-query discussion of paper §3.7.1 and
/// the error taxonomy of the §5.1 success-rate experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum FlexError {
    /// The query returns raw (non-aggregated) data; differential privacy
    /// is not intended for such queries (paper §2.2).
    RawDataQuery,
    /// A join has no equijoin conjunct (e.g. `ON a.x > b.y`); bounding its
    /// sensitivity would need data-dependent information (§3.7.1).
    NonEquijoin(String),
    /// A join key is not drawn directly from an original table (e.g. a
    /// count computed in a subquery), so no `mf` metric exists (§3.7.1).
    JoinKeyNotFromBaseTable(String),
    /// The root aggregation function has no elastic-sensitivity rule.
    UnsupportedAggregate(String),
    /// Set operations are outside the core relational algebra of Fig. 1a.
    UnsupportedSetOperation,
    /// A bare projection over the aggregating root (§3.3) does more than
    /// reorder and rename its columns: repeats one (two noise draws on one
    /// statistic for one charge), drops one, or applies DISTINCT.
    UnsupportedProjection(String),
    /// Subquery predicates (EXISTS / IN (SELECT ...)) are rejected
    /// conservatively: they can leak through the filtered relation.
    UnsupportedSubqueryPredicate,
    /// Referenced table missing from the database.
    UnknownTable(String),
    /// Referenced column missing or ambiguous.
    UnknownColumn(String),
    /// A required metric is missing (e.g. value range for a SUM column).
    MissingMetric {
        table: String,
        column: String,
        metric: String,
    },
    /// SQL failed to parse.
    Parse(String),
    /// The privacy budget is exhausted.
    BudgetExhausted { requested: f64, remaining: f64 },
    /// Invalid privacy parameters (ε ≤ 0 or δ outside (0, 1)).
    InvalidParams(String),
    /// Error from the underlying database engine while running the query.
    Db(String),
    /// Histogram bins could not be enumerated automatically and none were
    /// supplied by the analyst (§4, histogram bin enumeration).
    BinsNotEnumerable(String),
    /// The caller-supplied deadline expired between pipeline stages; no
    /// noised answer was released. Carries the stage that observed the
    /// expiry.
    DeadlineExceeded {
        /// Pipeline stage at whose boundary the deadline was found
        /// expired (`"analysis"` or `"execution"`).
        stage: &'static str,
    },
}

impl fmt::Display for FlexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlexError::RawDataQuery => {
                f.write_str("query returns raw data (no aggregation at the root)")
            }
            FlexError::NonEquijoin(d) => write!(f, "join without an equijoin term: {d}"),
            FlexError::JoinKeyNotFromBaseTable(d) => {
                write!(f, "join key not drawn from an original table: {d}")
            }
            FlexError::UnsupportedAggregate(a) => {
                write!(f, "aggregation function `{a}` is not supported")
            }
            FlexError::UnsupportedSetOperation => {
                f.write_str("set operations (UNION/INTERSECT/EXCEPT) are not supported")
            }
            FlexError::UnsupportedProjection(d) => write!(
                f,
                "a projection over an aggregating subquery may only reorder and rename its \
                 columns: {d}"
            ),
            FlexError::UnsupportedSubqueryPredicate => {
                f.write_str("subquery predicates (EXISTS / IN (SELECT)) are not supported")
            }
            FlexError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            FlexError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            FlexError::MissingMetric {
                table,
                column,
                metric,
            } => write!(f, "missing {metric} metric for {table}.{column}"),
            FlexError::Parse(m) => write!(f, "parse error: {m}"),
            FlexError::BudgetExhausted {
                requested,
                remaining,
            } => write!(
                f,
                "privacy budget exhausted: requested ε={requested}, remaining ε={remaining}"
            ),
            FlexError::InvalidParams(m) => write!(f, "invalid privacy parameters: {m}"),
            FlexError::Db(m) => write!(f, "database error: {m}"),
            FlexError::BinsNotEnumerable(m) => {
                write!(f, "histogram bins cannot be enumerated: {m}")
            }
            FlexError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded after the {stage} stage")
            }
        }
    }
}

impl std::error::Error for FlexError {}

impl From<flex_sql::ParseError> for FlexError {
    fn from(e: flex_sql::ParseError) -> Self {
        FlexError::Parse(e.to_string())
    }
}

/// A name that does not resolve, or a `WITH` that does not expand, keeps
/// its meaning in this taxonomy; any other engine error is [`FlexError::Db`].
impl From<flex_db::DbError> for FlexError {
    fn from(e: flex_db::DbError) -> Self {
        use flex_db::DbError;
        match e {
            DbError::UnknownColumn(c) => FlexError::UnknownColumn(c),
            DbError::AmbiguousColumn(c) => FlexError::UnknownColumn(format!("{c} is ambiguous")),
            DbError::UnknownTable(t) => FlexError::UnknownTable(t),
            DbError::Parse(m) => FlexError::Parse(m),
            other => FlexError::Db(other.to_string()),
        }
    }
}

impl FlexError {
    /// Coarse error category used by the §5.1 success-rate experiment.
    pub fn category(&self) -> &'static str {
        match self {
            FlexError::Parse(_) => "parse error",
            FlexError::RawDataQuery
            | FlexError::NonEquijoin(_)
            | FlexError::JoinKeyNotFromBaseTable(_)
            | FlexError::UnsupportedAggregate(_)
            | FlexError::UnsupportedSetOperation
            | FlexError::UnsupportedProjection(_)
            | FlexError::UnsupportedSubqueryPredicate => "unsupported query",
            _ => "other",
        }
    }
}
