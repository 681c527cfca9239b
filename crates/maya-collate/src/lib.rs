//! Trace collation and dynamic worker deduplication (§4.2).
//!
//! [`Collator`] merges per-worker traces into a job-level trace as the
//! workers finish: it reconstructs communicator membership from
//! `(comm_id, rank_in_comm)` pairs and verifies that every logical
//! collective is issued consistently by all of its participants (same
//! kind, payload and sequence position) — the "matching across workers
//! using communicator IDs and sequence numbers" step of the paper.
//!
//! A worker arrives with the metadata its recorder built while writing
//! the trace (`maya_trace::TraceMeta`): where its collectives are — the
//! only events collation reads — and the rolling structural hash of its
//! operation sequence (invariant to rank-specific identifiers like raw
//! communicator ids and pointers, sensitive to shapes, streams and
//! communication structure). The collator keeps the trace only if no
//! lower rank carried the same hash; the simulator then runs one
//! representative per class. [`collate()`], [`dedup_classes`] and
//! [`reduce_job`] are the same machinery for traces that are already
//! all in hand: they scan for the metadata a recorder would have
//! handed over.

pub mod collate;
pub mod dedup;

pub use collate::{collate, collate_with_known_groups, CollateError, CollateStats, Collator};
pub use dedup::{dedup_classes, reduce_job, signature, unique_megatron_ranks, DedupClass};
