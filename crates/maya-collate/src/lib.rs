//! Trace collation and dynamic worker deduplication (§4.2).
//!
//! [`Collator`] merges per-worker traces into a job-level trace as the
//! workers finish, one pass over each: it reconstructs communicator
//! membership from `(comm_id, rank_in_comm)` pairs and verifies that
//! every logical collective is issued consistently by all of its
//! participants (same kind, payload and sequence position) — the
//! "matching across workers using communicator IDs and sequence
//! numbers" step of the paper.
//!
//! In the same pass it computes a rolling structural hash of the
//! worker's operation sequence (invariant to rank-specific identifiers
//! like raw communicator ids and pointers, sensitive to shapes, streams
//! and communication structure) and keeps the trace only if no lower
//! rank hashed the same; the simulator then runs one representative per
//! class. [`collate()`], [`dedup_classes`] and [`reduce_job`] are the same
//! machinery for traces that are already all in hand.

pub mod collate;
pub mod dedup;

pub use collate::{collate, collate_with_known_groups, CollateError, CollateStats, Collator};
pub use dedup::{dedup_classes, reduce_job, signature, unique_megatron_ranks, DedupClass};
