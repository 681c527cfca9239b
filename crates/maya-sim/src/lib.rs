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
//!
//! A run is two passes (see [`engine`]). Lowering reads the trace once
//! into a **replay program** in the [`SimScratch`] arena — per worker a
//! dense array of small ops whose stream, CUDA-event and communicator
//! ids are interned and whose kernel and memcpy durations are already
//! estimated, one estimator query per distinct kernel shape of the job
//! and one per memcpy — and [`Lowered::replay`] runs the event loop
//! over that program alone. Lowering goes worker by worker
//! ([`Lowering::worker`]), so a caller that produces traces one at a
//! time lowers each as it arrives and drops it; one pass over the
//! collective sites ([`Lowering::resolve`]) then resolves them against
//! the communicator map. [`Simulator::lower`] does both steps over a
//! trace in hand. A replay leaves the program as lowering wrote it, so
//! a [`Lowered`] job replays any number of times.
//! The program is also the only per-op state: a stream's queue and a
//! rank's lane of pending issue pumps are cursors over it. The replay
//! relies on one invariant, that a stream's `busy_until` never
//! decreases: an issue pump due while its stream is already busy past
//! that instant can only be a no-op, so it is counted in
//! [`SimReport::events_processed`] and never enters the heap.
//! [`Simulator::run`] and [`Simulator::run_prevalidated`] do both
//! passes.

pub mod engine;
pub mod report;

pub use engine::{Lowered, Lowering, SimError, SimObs, SimScratch, Simulator};
pub use report::SimReport;
