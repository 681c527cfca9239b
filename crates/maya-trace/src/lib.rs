//! Trace schema for the Maya GPU-runtime-emulation reproduction.
//!
//! This crate defines the vocabulary shared by every stage of the Maya
//! pipeline: the kinds of device operations a training workload issues
//! ([`DeviceOp`]), the metadata captured for compute kernels
//! ([`KernelKind`]), per-worker traces recorded by the emulator
//! ([`WorkerTrace`]), the structural signature and collective index the
//! emulator computes while recording ([`TraceMeta`]), and the collated
//! job-level trace consumed by the simulator ([`JobTrace`]).
//!
//! The paper's emulator records "compute kernels, memory operations, and
//! synchronization events" together with "essential metadata including
//! input/output tensor shapes, data types, and memory layouts" (§4.2). The
//! types here encode exactly that metadata, at CUDA-API granularity.

pub mod dtype;
pub mod event;
pub mod json;
pub mod kernel;
pub mod ops;
pub mod serdes;
pub mod signature;
pub mod time;

pub use dtype::Dtype;
pub use event::{
    validate_groups, validate_ranks, validate_site, JobTrace, TraceEvent, WorkerTrace,
    WorkerTraceSummary,
};
pub use kernel::KernelKind;
pub use ops::{CollectiveDesc, CollectiveKind, DeviceOp, MemcpyKind, StreamId};
pub use signature::{shape_digest, signature_of, Signer, TraceBuffers, TraceMeta};
pub use time::SimTime;
