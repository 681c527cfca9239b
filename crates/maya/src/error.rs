//! Unified error type for the Maya pipeline.

use std::fmt;

/// Any failure along the emulate-collate-estimate-simulate pipeline.
#[derive(Debug)]
pub enum MayaError {
    /// The job configuration is invalid (divisibility, topology rules).
    Config(maya_torchlet::ConfigError),
    /// A device API call failed for a reason other than OOM (OOM is a
    /// first-class prediction outcome, not an error).
    Device(maya_cuda::CudaError),
    /// Trace collation failed.
    Collate(maya_collate::CollateError),
    /// Simulation failed.
    Sim(maya_sim::SimError),
    /// Ground-truth execution failed.
    Exec(maya_hw::ExecError),
    /// The job's world size disagrees with the cluster.
    WorldMismatch {
        /// Ranks the job wants.
        job: u32,
        /// GPUs the cluster has.
        cluster: u32,
    },
    /// The work was cancelled (via [`crate::CancelToken`]) before this
    /// piece of it ran. Only ever reported for work that never started:
    /// results produced before the cancellation are real and final.
    Cancelled,
}

impl fmt::Display for MayaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MayaError::Config(e) => write!(f, "invalid configuration: {e}"),
            MayaError::Device(e) => write!(f, "device API error: {e}"),
            MayaError::Collate(e) => write!(f, "collation error: {e}"),
            MayaError::Sim(e) => write!(f, "simulation error: {e}"),
            MayaError::Exec(e) => write!(f, "execution error: {e}"),
            MayaError::WorldMismatch { job, cluster } => {
                write!(f, "job wants {job} ranks but cluster has {cluster} GPUs")
            }
            MayaError::Cancelled => write!(f, "cancelled before execution"),
        }
    }
}

impl std::error::Error for MayaError {}

impl From<maya_torchlet::ConfigError> for MayaError {
    fn from(e: maya_torchlet::ConfigError) -> Self {
        MayaError::Config(e)
    }
}

impl From<maya_collate::CollateError> for MayaError {
    fn from(e: maya_collate::CollateError) -> Self {
        MayaError::Collate(e)
    }
}

impl From<maya_sim::SimError> for MayaError {
    fn from(e: maya_sim::SimError) -> Self {
        MayaError::Sim(e)
    }
}

impl From<maya_hw::ExecError> for MayaError {
    fn from(e: maya_hw::ExecError) -> Self {
        MayaError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = MayaError::WorldMismatch { job: 8, cluster: 4 };
        assert!(e.to_string().contains("8 ranks"));
        let c: MayaError = maya_torchlet::ConfigError::SeqParallelNeedsTp.into();
        assert!(c.to_string().contains("sequence parallelism"));
    }
}
