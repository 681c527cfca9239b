//! Baseline performance-modeling systems (§7.1): Calculon-, AMPeD- and
//! Proteus-like models.
//!
//! Faithful to the paper's framing, all three consume a *declarative*
//! description of the workload — the model architecture and the recipe
//! knobs — never the emulated trace. Whatever the training scripts
//! actually do (host overheads, exact kernel shapes, memory lifetimes,
//! overlap structure) is invisible to them: that is the semantic gap.
//!
//! Their characteristic behaviors, calibrated to the paper's findings:
//!
//! - **Calculon**: a careful analytical model covering every knob of
//!   Table 5 for Megatron-style GPT training, but optimistic — it
//!   assumes near-peak math efficiency, latency-free collectives, full
//!   overlap of data-parallel communication, and free host dispatch, so
//!   it consistently *under*-estimates (Fig. 9's left-shifted CDF).
//! - **AMPeD**: a coarse operator-level analytical model with a fixed
//!   utilization factor and no overlap modeling; it *over*-estimates by
//!   2-3x and supports only plain TP/PP (Table 1).
//! - **Proteus**: a domain-specific simulator whose strategy-tree
//!   translation captures GEMMs and collectives but drops the pointwise-
//!   kernel tail and host effects; its kernel database was profiled on
//!   Volta, so on Hopper its per-shape extrapolation is badly
//!   miscalibrated (the order-of-magnitude deviations of Fig. 7).

mod amped;
mod analytical;
mod calculon;
mod proteus;

pub use amped::Amped;
pub use analytical::{BaselineModel, BaselinePrediction};
pub use calculon::Calculon;
pub use proteus::Proteus;
