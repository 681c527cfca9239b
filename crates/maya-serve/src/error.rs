//! Service-level errors (distinct from pipeline errors, which travel
//! inside [`Payload`](crate::request::Payload) variants).

use std::fmt;

use maya_estimator::SnapshotError;

/// Failure at the service boundary: admission, routing, lifecycle.
#[derive(Debug)]
pub enum ServeError {
    /// The request named a cluster target the service does not know.
    UnknownTarget(String),
    /// The bounded admission queue is full (only from
    /// [`try_submit`](crate::MayaService::try_submit); `submit` blocks).
    Overloaded,
    /// The submission's tenant is over its admission quota (max queued
    /// jobs per tenant, see
    /// [`ServiceBuilder::tenant_max_queued`](crate::ServiceBuilder::tenant_max_queued)).
    /// Shed immediately by both `submit` and `try_submit` — unlike
    /// [`ServeError::Overloaded`], waiting alone will not help until
    /// this tenant's own queued jobs drain.
    QuotaExceeded {
        /// The over-quota tenant.
        tenant: String,
    },
    /// The service has shut down (or a worker died) before the request
    /// could be accepted or answered.
    Stopped,
    /// Two targets were registered under the same name.
    DuplicateTarget(String),
    /// A service needs at least one registered target.
    NoTargets,
    /// The job was cancelled (via
    /// [`JobHandle::cancel`](crate::JobControl::cancel)) before
    /// completing. Only reported by the blocking
    /// [`JobHandle::wait`](crate::JobHandle::wait) shim —
    /// [`wait_outcome`](crate::JobHandle::wait_outcome) returns the
    /// typed [`JobOutcome::Cancelled`](crate::JobOutcome::Cancelled)
    /// with any committed-prefix response instead.
    Cancelled,
    /// The job's deadline elapsed (while queued, or at a search wave
    /// boundary). Only reported by the blocking
    /// [`JobHandle::wait`](crate::JobHandle::wait) shim — see
    /// [`ServeError::Cancelled`].
    Expired,
    /// `EstimatorChoice::Custom` holds one fixed estimator instance,
    /// which cannot be correct for more than one cluster; a service
    /// whose targets span distinct clusters must use a cluster-aware
    /// choice (`Oracle`, `Forest`, or `Factory`).
    CustomEstimatorSpansClusters,
    /// Persisting or restoring an estimator memo snapshot failed.
    Snapshot(SnapshotError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTarget(t) => write!(f, "unknown cluster target {t:?}"),
            ServeError::Overloaded => write!(f, "admission queue full"),
            ServeError::QuotaExceeded { tenant } => {
                write!(f, "tenant {tenant:?} is over its admission quota")
            }
            ServeError::Stopped => write!(f, "service stopped"),
            ServeError::DuplicateTarget(t) => write!(f, "target {t:?} registered twice"),
            ServeError::NoTargets => write!(f, "service built with no cluster targets"),
            ServeError::Cancelled => write!(f, "job cancelled"),
            ServeError::Expired => write!(f, "job deadline expired"),
            ServeError::CustomEstimatorSpansClusters => write!(
                f,
                "EstimatorChoice::Custom is one fixed instance and cannot serve multiple \
                 distinct clusters; use EstimatorChoice::Factory instead"
            ),
            ServeError::Snapshot(e) => write!(f, "snapshot error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}
