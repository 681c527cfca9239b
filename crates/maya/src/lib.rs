//! Maya: transparent GPU-runtime-emulation performance modeling.
//!
//! This is the top-level crate of the reproduction of "Maya: Optimizing
//! Deep Learning Training Workloads using GPU Runtime Emulation"
//! (EuroSys '26). It wires the full pipeline of Figure 5:
//!
//! 1. **Emulation** — unmodified training code (anything that programs
//!    against [`maya_cuda::CudaContext`]) runs per rank on a virtual
//!    device; every API call is recorded.
//! 2. **Collation** — per-worker traces merge into a job trace;
//!    collectives are matched by communicator id + sequence number;
//!    dynamic worker deduplication drops redundant ranks.
//! 3. **Estimation** — a pluggable [`maya_estimator::RuntimeEstimator`]
//!    annotates operations with predicted durations.
//! 4. **Simulation** — the event-driven simulator replays the annotated
//!    trace over a cluster spec and produces a [`maya_sim::SimReport`].
//!
//! The pipeline is owned by a reusable [`PredictionEngine`], the one
//! front door: it wraps the estimator in a cross-prediction memo cache
//! and fans independent predictions over a worker pool
//! ([`PredictionEngine::predict_batch`]), which is what makes large
//! config searches cheap — see `engine`'s module docs.
//!
//! The engine also exposes the *testbed* entry point
//! ([`PredictionEngine::measure_actual`]) backed by the independent
//! ground-truth executor, standing in for real-hardware measurements
//! (DESIGN.md §2).
//!
//! # Examples
//!
//! ```
//! use maya::MayaBuilder;
//! use maya_hw::ClusterSpec;
//! use maya_torchlet::TrainingJob;
//!
//! let engine = MayaBuilder::new(ClusterSpec::h100(1, 1)).build().unwrap();
//! let job = TrainingJob::smoke();
//! let prediction = engine.predict_job(&job).unwrap();
//! assert!(prediction.report().is_some());
//! ```
//!
//! Construction goes through [`MayaBuilder`] — an estimator and the
//! spec knobs — whose `build` returns the engine.
//!
//! For serving many clients against many cluster targets from one
//! process, see the `maya-serve` crate: it multiplexes
//! [`PredictionEngine`]s per [`EmulationSpec`] behind a typed
//! request/response API.

pub mod builder;
pub mod cancel;
pub mod engine;
pub mod error;
pub mod pipeline;
pub mod serdes;

pub use builder::{EstimatorChoice, EstimatorFactory, MayaBuilder};
pub use cancel::CancelToken;
pub use engine::PredictionEngine;
pub use error::MayaError;
pub use maya_net::{FaultPlan, RankFailure, StragglerWindow};
pub use maya_sim::SimObs;
pub use pipeline::{EmulationSpec, PredictOutcome, Prediction, StageTimings};
