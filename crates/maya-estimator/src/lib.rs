//! Kernel-runtime estimation (§4.3, Appendix B).
//!
//! Maya's estimators are pluggable; the defaults here mirror the paper:
//!
//! - [`forest::RandomForest`]: from-scratch CART regression trees with
//!   bagging, trained on log-runtime targets from profiled kernel
//!   microbenchmarks;
//! - [`profiler::Profiler`]: the "transparent profiling mode" that runs
//!   operations on the (ground-truth) hardware and logs arguments plus
//!   observed runtimes, with duration-dependent measurement noise;
//! - [`collectives::CollectiveTable`]: nccl-tests-style profiled link
//!   tables with log-log interpolation, plus an ASTRA-sim-style
//!   hierarchical analytical fallback for scales beyond the profiled
//!   range (used by the 16K-GPU experiments);
//! - [`estimator::OracleEstimator`]: returns true per-op runtimes, the
//!   "oracle" of Table 3 that isolates simulation-phase error;
//! - [`metrics`]: per-kernel MAPE reports on held-out splits, recreating
//!   Tables 7-9;
//! - [`cache::CachingEstimator`]: a memoizing decorator that shares
//!   kernel / memcpy / collective answers across predictions, holding
//!   at most `entries` in all when capped (0 keeps nothing) — config
//!   search re-queries the same shapes thousands of times, so the
//!   prediction engine wraps its estimator in one of these;
//! - [`snapshot`]: memo persistence — `CachingEstimator::snapshot()` /
//!   `restore()` serialize the full memo so a service can warm-start
//!   the next process with everything this one learned.

pub mod cache;
pub mod collectives;
pub mod estimator;
pub mod features;
pub mod forest;
pub mod metrics;
pub mod profiler;
pub mod snapshot;
pub mod tree;

pub use cache::{CacheStats, CachingEstimator};
pub use collectives::{AnalyticalCollectives, CollectiveTable};
pub use estimator::{ForestEstimator, OracleEstimator, RuntimeEstimator};
pub use forest::{ForestParams, RandomForest};
pub use metrics::{mape, MapeReport};
pub use profiler::{ProfileScale, Profiler};
pub use snapshot::SnapshotError;
pub use tree::{RegressionTree, TreeParams};
