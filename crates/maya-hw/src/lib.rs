//! Hardware models for the Maya reproduction.
//!
//! This crate plays the role of the *physical testbed* in the paper's
//! evaluation. It provides:
//!
//! - [`GpuSpec`] / [`ClusterSpec`]: parameterized descriptions of the
//!   V100, H100 and A40 deployments from §7.1 (plus A100 for good
//!   measure), including interconnect characteristics;
//! - [`kernel_model::GroundTruthKernelModel`]: a deterministic roofline
//!   model with tile/wave-quantization efficiency structure and a
//!   hash-seeded microarchitectural perturbation — the "real" runtime of
//!   every kernel;
//! - [`net_model::GroundTruthNetModel`]: topology-aware collective timing
//!   (ring/hierarchical, latency + bandwidth-ramp terms);
//! - [`executor::GroundTruthExecutor`]: an *independent* high-fidelity
//!   replayer of collated job traces that adds effects Maya's simulator
//!   deliberately abstracts away (SM contention between overlapping
//!   compute and communication, NCCL setup costs, non-lockstep collective
//!   completion, host jitter). Its output stands in for "Actual" numbers
//!   in every figure.
//!
//! Because no GPUs exist in this environment, the ground truth here *is*
//! the hardware; the substitution is documented in `DESIGN.md` §2.

pub mod executor;
pub mod kernel_model;
pub mod mfu;
pub mod net_model;
pub mod noise;
pub mod power;
pub mod specs;
pub mod topology;

pub use executor::{ExecError, GroundTruthExecutor, Measurement};
pub use kernel_model::GroundTruthKernelModel;
pub use mfu::{model_flops_per_iteration, ModelFlopsSpec};
pub use net_model::GroundTruthNetModel;
pub use power::PowerModel;
pub use specs::{ClusterSpec, GpuArch, GpuSpec, LinkSpec};
pub use topology::{HeteroPool, NetLink, RankClass, TopologySpec};
