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
//! lower rank carried the same hash, and hands a kept trace straight
//! back rather than holding it; the simulator then runs one
//! representative per class. The collator is the product's one
//! collation path: the engine feeds it ranks as they are recorded, and
//! a caller's finished traces each with the metadata a recorder would
//! have handed over (`TraceMeta::scan`).
//!
//! [`collate()`], [`collate_with_known_groups`], [`dedup_classes`] and
//! [`reduce_job`] do the same over traces that are all in hand. They
//! now serve only the benchmark's replay and the tests, and leave once
//! that replay goes through the collator (ROADMAP.md, item 2(a)).

pub mod collate;
pub mod dedup;

pub use collate::{
    collate, collate_with_known_groups, CollateError, CollateStats, Collator, Pushed,
};
pub use dedup::{dedup_classes, reduce_job, signature, unique_megatron_ranks, DedupClass};
