//! Service-level errors.

use flex_core::FlexError;
use std::fmt;

/// Result alias for service operations.
pub type ServiceResult<T> = std::result::Result<T, ServiceError>;

/// Why the service could not answer a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Admission control rejected the request: answering would push the
    /// analyst's composed privacy cost past their cap. Nothing was
    /// computed and nothing was charged.
    BudgetRejected {
        /// Who asked.
        analyst: String,
        /// The `ε` cost the request would have composed in.
        requested_epsilon: f64,
        /// The `ε` headroom actually left under the analyst's cap.
        remaining_epsilon: f64,
    },
    /// The ledger runs strong composition, which requires homogeneous
    /// per-query parameters; this request's `(ε, δ)` differs from the
    /// analyst's pinned values.
    HeterogeneousParams {
        /// Who asked.
        analyst: String,
        /// The `(ε, δ)` the analyst's earlier queries pinned.
        pinned: (f64, f64),
        /// The differing `(ε, δ)` of this request.
        requested: (f64, f64),
    },
    /// The underlying FLEX pipeline failed (parse error, unsupported
    /// query, execution error, ...). Any admission charge was refunded.
    Flex(FlexError),
    /// The service is shutting down and dropped the request.
    Shutdown,
    /// The service shed the request under overload: the job queue was
    /// at capacity. Nothing was computed and the admission
    /// charge was refunded — safe to retry after backing off.
    Overloaded,
    /// The per-query deadline expired before the answer was released.
    /// The admission charge was refunded (a timed-out query releases
    /// nothing).
    Timeout {
        /// The configured deadline that was exceeded.
        timeout: std::time::Duration,
    },
    /// The budget write-ahead log could not record the admission, so
    /// the service failed closed: the query was rejected rather than
    /// admitted uncharged. Nothing was computed and nothing was spent.
    WalUnavailable(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::BudgetRejected {
                analyst,
                requested_epsilon,
                remaining_epsilon,
            } => write!(
                f,
                "analyst `{analyst}`: requested ε={requested_epsilon} but only \
                 ε={remaining_epsilon} remains"
            ),
            ServiceError::HeterogeneousParams {
                analyst,
                pinned,
                requested,
            } => write!(
                f,
                "analyst `{analyst}`: strong composition requires homogeneous \
                 parameters; pinned (ε, δ)=({}, {}) but got ({}, {})",
                pinned.0, pinned.1, requested.0, requested.1
            ),
            ServiceError::Flex(e) => write!(f, "query failed: {e}"),
            ServiceError::Shutdown => f.write_str("service is shutting down"),
            ServiceError::Overloaded => f.write_str(
                "service overloaded: the job queue is full; charge refunded, retry later",
            ),
            ServiceError::Timeout { timeout } => write!(
                f,
                "query exceeded its {timeout:?} deadline; charge refunded"
            ),
            ServiceError::WalUnavailable(e) => write!(
                f,
                "budget write-ahead log unavailable, rejecting query (fail closed): {e}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<FlexError> for ServiceError {
    fn from(e: FlexError) -> Self {
        ServiceError::Flex(e)
    }
}

impl From<flex_sql::ParseError> for ServiceError {
    fn from(e: flex_sql::ParseError) -> Self {
        ServiceError::Flex(FlexError::from(e))
    }
}
