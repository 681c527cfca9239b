//! Maya's discrete-event simulator (§4.3, Appendix A).
//!
//! Replays an annotated job trace over a cluster specification:
//!
//! - each host is a dispatch queue that replays recorded per-call host
//!   delays as blocking work and runs ahead of the device exactly as a
//!   CUDA host thread does;
//! - each device exposes streams that execute timed operations FIFO;
//! - `cudaEventRecord` / `cudaStreamWaitEvent` / `cuda*Synchronize` are
//!   modeled with a CUDA-event wait map keyed by `(event, version)`
//!   (Algorithm 3);
//! - collectives rendezvous in a network wait map keyed by
//!   `(communicator, sequence)`; once the last participant joins, all
//!   streams advance in lockstep by the estimator-predicted wire time —
//!   the paper's deliberate simplification (no SM contention, no
//!   completion skew), whose cost shows up as Table 3's oracle gap.
//!
//! Durations come from a pluggable [`maya_estimator::RuntimeEstimator`].

pub mod engine;
pub mod report;

pub use engine::{SimError, SimObs, SimScratch, Simulator};
pub use report::SimReport;
