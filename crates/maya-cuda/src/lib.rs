//! A CUDA-shaped virtual device runtime with a transparent emulator.
//!
//! This crate is the Rust analog of Maya's `LD_PRELOAD` shim (§4.1, §6):
//! it exposes the *narrow waist* of accelerator programming — the CUDA
//! runtime API plus the cuBLAS / cuDNN / NCCL library surfaces — and
//! backs it with an emulator that:
//!
//! - turns compute kernels into metadata-recording no-ops;
//! - tracks physical resources (a device memory allocator that detects
//!   OOM and invalid frees) and virtual resources (streams, events with
//!   re-use versions, library handles, communicators), flagging misuse;
//! - models *context-aware operation sequences* — cuBLAS math calls pick
//!   up the stream bound to their handle, cuDNN convolutions read their
//!   descriptor objects, NCCL collectives carry communicator identity and
//!   per-communicator sequence numbers;
//! - charges host-side dispatch time to every call from a [`ModelClock`]:
//!   §4.2 measures wall-clock deltas between calls, which differ run to
//!   run, and a deterministic per-class cost keeps traces, dedup classes
//!   and digests reproducible.
//!
//! Training code written against [`CudaContext`] is "unmodified user
//! code" in the sense of the paper: it would behave identically against a
//! real device backend, and the emulator records everything it does.

pub mod clock;
pub mod context;
pub mod cublas;
pub mod cudnn;
pub mod error;
pub mod nccl;
mod recording;

pub use clock::{HostCharges, HostOpClass, ModelClock};
pub use context::{CudaContext, CudaEvent, CudaStream, DevicePtr};
pub use cublas::CublasHandle;
pub use cudnn::{CudnnConvDesc, CudnnHandle};
pub use error::{CudaError, CudaResult};
pub use nccl::{NcclComm, NcclUniqueId};
