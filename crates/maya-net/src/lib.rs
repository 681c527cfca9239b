//! Contention-aware network modeling for the Maya simulator.
//!
//! Two pieces, both opt-in from `EmulationSpec`:
//!
//! - [`FlowNet`]: a max-min fair shared-bandwidth flow model in the
//!   style of flow-level network simulators (dslab's
//!   `throughput-model`). Concurrent collectives become *flows* that
//!   compete for the capacity of the links they cross; whenever a flow
//!   starts or finishes, the rates of every active flow re-converge
//!   via water-filling and the simulator re-schedules each flow's
//!   completion event. No per-tick simulation — the model only does
//!   work at flow boundaries, preserving the event core's O(events)
//!   scaling.
//! - [`FaultPlan`]: a deterministic, seed-driven fault-injection plan
//!   (straggler slowdown windows and rank failures with
//!   checkpoint/restart cost) that the simulator replays as
//!   first-class events.
//!
//! The crate is deliberately independent of the simulator: `maya-sim`
//! owns event scheduling and calls in here only to (re)converge rates
//! and to ask "when would this flow finish at its current rate?".

pub mod fault;
pub mod flow;

pub use fault::{FaultPlan, RankFailure, StragglerWindow};
pub use flow::FlowNet;
