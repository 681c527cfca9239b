//! Merging per-worker traces into a validated job trace.
//!
//! [`Collator`] is the one implementation: it takes finished worker
//! traces in rank order, each with the [`TraceMeta`] its recorder built
//! while writing it, and reads only the collective descriptors that
//! metadata carries. From them it claims the worker's `(comm,
//! rank_in_comm)` slots and records what the worker contributes to every
//! collective it joins, whether or not the worker's events were written.
//! When folding, it keeps each kept class's first trace as a template
//! ([`Templates`], which [`Collator::templates`] hands to the recorders
//! of later ranks, and where the caller reads a kept trace,
//! [`Pushed::template`]): a worker whose recorder matched a template
//! whole arrives with no events and is dropped on the spot, and one
//! whose events were written is compared in full against the templates
//! its recorder did not see — those kept after it started, when several
//! threads emulate, or all of them for a trace that came from no
//! recorder — and dropped if it equals one, else kept as the next
//! template. A dropped worker's buffers go back for the next rank to
//! record into. A push costs O(collectives), and O(events) for a trace
//! it compares. The fold verdict is the collator's alone: `push` takes
//! a settle callback and runs it on exactly the traces it keeps, just
//! before one becomes a template or goes back to the caller, so a
//! recorder's deferred host time is computed for kept traces and no
//! caller compares a trace to decide. A collator that does not fold
//! holds no trace: one it keeps goes straight back to the caller
//! ([`Pushed::kept`]), who may lower it and recycle its buffer before
//! the next rank arrives. [`Collator::finish`] yields the job's
//! communicator map. A trace that came from no recorder is pushed with
//! the metadata [`TraceMeta::scan`] computes from it, as the engine's
//! `predict_trace` does. [`collate`] and
//! [`collate_with_known_groups`] do that for a whole set with folding
//! off, keeping every trace; they serve only the benchmark's replay and
//! the tests, and leave once that replay goes through the collator
//! (ROADMAP.md, item 2(a)).
//!
//! Nothing is checked from the traces that are kept: slot claims,
//! payload agreement and participant counts live in per-communicator
//! tables that every pushed worker updates, so a fault in a worker the
//! fold drops is reported exactly as if it had been kept. Nor is a kept
//! trace read again at the end: every collective a push books has had
//! its size checked against its communicator's, and every booked
//! communicator is in the map `finish` builds, so the job passes
//! [`JobTrace::validate`]'s per-event loop by construction. Errors come
//! out in the order the three-pass collator raised them: size and
//! membership conflicts (at once, from `push`), then group
//! reconstruction, structure, and collective agreement (from `finish`).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

use maya_trace::{
    validate_groups, validate_ranks, CollectiveDesc, CollectiveKind, JobTrace, Templates,
    TraceBuffers, TraceMeta, WorkerTrace,
};

/// Errors detected while collating traces.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CollateError {
    /// Two workers claim the same `(comm, rank_in_comm)` slot.
    ConflictingCommMembership {
        /// Communicator id.
        comm: u64,
        /// Contested position.
        rank_in_comm: u32,
        /// First claimant (global rank).
        first: u32,
        /// Second claimant.
        second: u32,
    },
    /// A worker declares a different size for a communicator than others.
    CommSizeMismatch {
        /// Communicator id.
        comm: u64,
        /// Sizes seen.
        sizes: (u32, u32),
    },
    /// Participants disagree on a collective's kind or payload.
    CollectiveMismatch {
        /// Communicator id.
        comm: u64,
        /// Sequence number.
        seq: u32,
        /// Human-readable detail.
        detail: String,
    },
    /// A communicator slot was never claimed but ops reference the group.
    IncompleteComm {
        /// Communicator id.
        comm: u64,
        /// Number of members seen vs declared size.
        seen: u32,
        /// Declared size.
        declared: u32,
    },
    /// The merged job failed structural validation.
    Invalid(String),
}

impl fmt::Display for CollateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollateError::ConflictingCommMembership {
                comm,
                rank_in_comm,
                first,
                second,
            } => {
                write!(
                    f,
                    "comm {comm:#x} slot {rank_in_comm} claimed by ranks {first} and {second}"
                )
            }
            CollateError::CommSizeMismatch { comm, sizes } => {
                write!(
                    f,
                    "comm {comm:#x} declared with sizes {} and {}",
                    sizes.0, sizes.1
                )
            }
            CollateError::CollectiveMismatch { comm, seq, detail } => {
                write!(
                    f,
                    "collective (comm {comm:#x}, seq {seq}) mismatch: {detail}"
                )
            }
            CollateError::IncompleteComm {
                comm,
                seen,
                declared,
            } => {
                write!(f, "comm {comm:#x} has {seen}/{declared} members traced")
            }
            CollateError::Invalid(msg) => write!(f, "invalid job: {msg}"),
        }
    }
}

impl std::error::Error for CollateError {}

/// Merges worker traces into a job trace for a `world`-rank job.
///
/// Workers may be a subset of all ranks (selective launch, §7.4); in that
/// case communicator membership is inferred by arithmetic (constant
/// stride) extrapolation, which covers groups with two or more observed
/// members. Single-observation groups are assumed rank-contiguous —
/// callers with workload knowledge should prefer
/// [`collate_with_known_groups`].
pub fn collate(workers: Vec<WorkerTrace>, world: u32) -> Result<JobTrace, CollateError> {
    collate_with_known_groups(workers, world, &BTreeMap::new())
}

/// [`collate`] with authoritative communicator membership supplied by the
/// caller (e.g. computed from the Megatron parallelism configuration for
/// selective launch). Known groups bypass inference; observed slots are
/// still checked against them.
pub fn collate_with_known_groups(
    mut workers: Vec<WorkerTrace>,
    world: u32,
    known: &BTreeMap<u64, Vec<u32>>,
) -> Result<JobTrace, CollateError> {
    workers.sort_by_key(|w| w.rank);
    let mut collator = Collator::new(world, known, false);
    let mut kept = Vec::with_capacity(workers.len());
    for w in workers {
        let meta = TraceMeta::scan(&w.events);
        kept.extend(collator.push(w, meta, |_| {})?.kept);
    }
    Ok(JobTrace {
        nranks: world,
        workers: kept,
        comm_groups: collator.finish()?,
    })
}

/// Deterministic work counters of one [`Collator`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CollateStats {
    /// Workers pushed.
    pub workers_in: u64,
    /// Workers whose traces were kept.
    pub workers_kept: u64,
    /// Events read: the collectives of every pushed worker, once each.
    pub events_seen: u64,
}

/// What [`Collator::push`] hands back for one worker.
#[derive(Debug)]
pub struct Pushed {
    /// The worker's trace if the collator does not fold, which keeps
    /// every trace. The caller holds it from here on.
    pub kept: Option<WorkerTrace>,
    /// When folding, the template the worker's trace became if it opened
    /// a new class: [`Collator::templates`] holds it until the collator
    /// is gone, and the caller reads it there.
    pub template: Option<usize>,
    /// Buffers the caller may record the next rank into: the collective
    /// and residue buffers always, the worker's event buffer if it was
    /// folded away (an unallocated one if it was kept), all emptied; the
    /// host-note buffer never reaches the collator and comes back
    /// unallocated.
    pub spare: TraceBuffers,
}

/// Rendezvous pair of a full (non-p2p) collective.
const FULL: (u32, u32) = (u32::MAX, u32::MAX);
/// Kind class shared by `Send` and `Recv`.
const P2P_CLASS: u8 = 255;

/// What the participants of one collective must agree on, and how many
/// have joined it.
#[derive(Clone, Copy)]
struct Site {
    class: u8,
    bytes: u64,
    joined: u32,
}

/// Everything observed about one communicator.
struct Comm {
    id: u64,
    /// Size declared by the first collective seen on it.
    size: u32,
    /// `rank_in_comm -> global rank` that claimed the slot.
    slots: BTreeMap<u32, u32>,
    /// Full collectives whose `seq` arrived in counting order, by `seq`.
    in_order: Vec<Site>,
    /// Every other site, keyed `(seq, pair)`: p2p transfers, and full
    /// collectives whose `seq` skipped ahead of the table.
    other: HashMap<(u32, (u32, u32)), Site>,
}

impl Comm {
    /// Checks `desc`'s size against the communicator's and claims its
    /// slot for `rank`.
    fn claim(&mut self, rank: u32, desc: &CollectiveDesc) -> Result<(), CollateError> {
        if self.size != desc.nranks {
            return Err(CollateError::CommSizeMismatch {
                comm: self.id,
                sizes: (self.size, desc.nranks),
            });
        }
        match self.slots.get(&desc.rank_in_comm) {
            None => {
                self.slots.insert(desc.rank_in_comm, rank);
            }
            Some(&first) if first != rank => {
                return Err(CollateError::ConflictingCommMembership {
                    comm: self.id,
                    rank_in_comm: desc.rank_in_comm,
                    first,
                    second: rank,
                });
            }
            Some(_) => {}
        }
        Ok(())
    }

    /// Joins one participant to the collective `desc` names; `Err` when
    /// it disagrees with those already there.
    fn join(&mut self, desc: &CollectiveDesc) -> Result<(), CollateError> {
        let (class, pair) = match desc.kind {
            CollectiveKind::Send { peer } | CollectiveKind::Recv { peer } => (
                P2P_CLASS,
                (desc.rank_in_comm.min(peer), desc.rank_in_comm.max(peer)),
            ),
            k => (k.id(), FULL),
        };
        let arrival = Site {
            class,
            bytes: desc.bytes,
            joined: 1,
        };
        let key = (desc.seq, pair);
        let seq = desc.seq as usize;
        let site = if pair == FULL && seq < self.in_order.len() {
            self.in_order.get_mut(seq)
        } else if pair == FULL && seq == self.in_order.len() && !self.other.contains_key(&key) {
            self.in_order.push(arrival);
            None
        } else {
            match self.other.entry(key) {
                Entry::Occupied(e) => Some(e.into_mut()),
                Entry::Vacant(e) => {
                    e.insert(arrival);
                    None
                }
            }
        };
        let Some(site) = site else { return Ok(()) };
        let detail = if site.class != class {
            "kind mismatch between participants".into()
        } else if site.bytes != desc.bytes {
            format!("payload mismatch: {} vs {}", site.bytes, desc.bytes)
        } else {
            site.joined += 1;
            return Ok(());
        };
        Err(CollateError::CollectiveMismatch {
            comm: self.id,
            seq: desc.seq,
            detail,
        })
    }

    /// Full collectives as `(seq, participants joined)`, by `seq`.
    fn full_collectives(&self) -> Vec<(u32, u32)> {
        let mut skipped: Vec<(u32, u32)> = self
            .other
            .iter()
            .filter(|((_, pair), _)| *pair == FULL)
            .map(|((seq, _), site)| (*seq, site.joined))
            .collect();
        skipped.sort_unstable();
        let counted = self
            .in_order
            .iter()
            .zip(0u32..)
            .map(|(s, seq)| (seq, s.joined));
        counted.chain(skipped).collect()
    }

    /// The communicator's member list: `known` if the caller supplied
    /// one, else observed slots with the holes inferred.
    fn members(&self, known: Option<&Vec<u32>>, world: u32) -> Result<Vec<u32>, CollateError> {
        let (comm, size) = (self.id, self.size);
        if let Some(k) = known {
            if k.len() != size as usize {
                return Err(CollateError::CommSizeMismatch {
                    comm,
                    sizes: (k.len() as u32, size),
                });
            }
            for (&pos, &g) in &self.slots {
                if k.get(pos as usize) != Some(&g) {
                    return Err(CollateError::ConflictingCommMembership {
                        comm,
                        rank_in_comm: pos,
                        first: k.get(pos as usize).copied().unwrap_or(u32::MAX),
                        second: g,
                    });
                }
            }
            return Ok(k.clone());
        }
        // Build the dense member list where complete; for a partially
        // observed communicator infer the missing global ranks, which
        // works when the group is arithmetic (constant stride) — that
        // covers Megatron's tp/dp/pp groups.
        let mut members = vec![u32::MAX; size as usize];
        for (&pos, &g) in &self.slots {
            match members.get_mut(pos as usize) {
                Some(m) => *m = g,
                None => {
                    return Err(CollateError::Invalid(format!(
                        "comm {comm:#x}: rank_in_comm {pos} out of size {size}"
                    )))
                }
            }
        }
        if members.contains(&u32::MAX) {
            infer_missing_members(&mut members, world).map_err(|seen| {
                CollateError::IncompleteComm {
                    comm,
                    seen,
                    declared: size,
                }
            })?;
        }
        Ok(members)
    }
}

/// One communicator the worker being pushed has used.
struct Used {
    id: u64,
    /// Position in `Collator::comms`.
    slot: usize,
    /// The `(nranks, rank_in_comm)` this worker already claimed there.
    claimed: (u32, u32),
}

/// Streaming collation and deduplication (see the module docs).
pub struct Collator<'k> {
    world: u32,
    known: &'k BTreeMap<u64, Vec<u32>>,
    fold: bool,
    /// Communicators in first-use order; `comm_slot` finds one by id.
    comms: Vec<Comm>,
    comm_slot: HashMap<u64, usize>,
    /// Communicators the worker being pushed has used; the entry spares
    /// every later collective on one a hash lookup.
    used: Vec<Used>,
    /// Every rank pushed, kept or not.
    ranks: Vec<u32>,
    /// The first trace of every class kept, when folding.
    templates: Templates,
    /// First kind or payload disagreement; reported by `finish`, after
    /// the checks that outrank it.
    mismatch: Option<CollateError>,
    stats: CollateStats,
}

impl<'k> Collator<'k> {
    /// A collator for a `world`-rank job. `known` is authoritative
    /// membership for the communicators it lists (may be empty); with
    /// `fold`, a worker whose calls equal a lower rank's is dropped.
    pub fn new(world: u32, known: &'k BTreeMap<u64, Vec<u32>>, fold: bool) -> Self {
        Collator {
            world,
            known,
            fold,
            comms: Vec::new(),
            comm_slot: HashMap::new(),
            used: Vec::new(),
            ranks: Vec::new(),
            templates: Templates::default(),
            mismatch: None,
            stats: CollateStats::default(),
        }
    }

    /// Work counters so far.
    pub fn stats(&self) -> CollateStats {
        self.stats
    }

    /// The classes kept so far, for the recorder of a later rank to
    /// compare its calls against: a snapshot, which does not see classes
    /// kept after it is taken. Once the collator is gone, the last
    /// snapshot owns the templates' buffers.
    pub fn templates(&self) -> Templates {
        self.templates.clone()
    }

    /// Takes the next worker and the metadata recorded with it; ranks
    /// must not decrease from one call to the next. Only the collective
    /// descriptors `meta` carries are read, and, when folding, the
    /// events of a trace whose recorder did not match a template whole.
    /// `settle` runs on the trace once it is known to be kept, before
    /// it becomes a template or goes back to the caller, and on no
    /// other: a trace folded away is dropped without it, so a caller
    /// that owes a trace its host time computes it for kept traces
    /// only (the fold compares calls, never host time).
    pub fn push(
        &mut self,
        mut trace: WorkerTrace,
        meta: TraceMeta,
        settle: impl FnOnce(&mut WorkerTrace),
    ) -> Result<Pushed, CollateError> {
        if let Some(&last) = self.ranks.last() {
            if trace.rank < last {
                return Err(CollateError::Invalid(format!(
                    "worker {} pushed after worker {last}: the collator takes ranks in order",
                    trace.rank
                )));
            }
        }
        let misfit = |what: String| CollateError::Invalid(format!("worker {}: {what}", trace.rank));
        let held = self.templates.len();
        match meta.matched {
            Some(t) if !self.fold || t >= held => {
                return Err(misfit(format!("matched template {t} of {held} held")))
            }
            None if meta.calls != trace.events.len() || meta.seen > held => {
                return Err(misfit(format!(
                    "{} calls against {} of {held} templates, {} events written",
                    meta.calls,
                    meta.seen,
                    trace.events.len()
                )))
            }
            _ => {}
        }
        self.ranks.push(trace.rank);
        self.stats.workers_in += 1;
        self.stats.events_seen += meta.collectives.len() as u64;

        self.used.clear();
        for desc in &meta.collectives {
            self.collective(trace.rank, desc)?;
        }

        let TraceMeta {
            mut collectives,
            mut residue,
            matched,
            seen,
            ..
        } = meta;
        collectives.clear();
        residue.clear();
        let mut spare = TraceBuffers {
            collectives,
            residue,
            ..TraceBuffers::default()
        };
        if !self.fold {
            self.stats.workers_kept += 1;
            settle(&mut trace);
            return Ok(Pushed {
                kept: Some(trace),
                template: None,
                spare,
            });
        }
        if matched.is_some() || self.templates.find(&trace.events, seen).is_some() {
            trace.events.clear();
            spare.events = trace.events;
            return Ok(Pushed {
                kept: None,
                template: None,
                spare,
            });
        }
        self.stats.workers_kept += 1;
        settle(&mut trace);
        let template = Some(self.templates.len());
        self.templates = self.templates.kept(trace);
        Ok(Pushed {
            kept: None,
            template,
            spare,
        })
    }

    /// Books one collective of the worker being pushed.
    fn collective(&mut self, rank: u32, desc: &CollectiveDesc) -> Result<(), CollateError> {
        let claim = (desc.nranks, desc.rank_in_comm);
        let used = self.used.iter().find(|u| u.id == desc.comm_id);
        let (slot, claimed) = match used {
            Some(u) => (u.slot, u.claimed == claim),
            None => {
                let slot = *self.comm_slot.entry(desc.comm_id).or_insert_with(|| {
                    self.comms.push(Comm {
                        id: desc.comm_id,
                        size: desc.nranks,
                        slots: BTreeMap::new(),
                        in_order: Vec::new(),
                        other: HashMap::new(),
                    });
                    self.comms.len() - 1
                });
                self.used.push(Used {
                    id: desc.comm_id,
                    slot,
                    claimed: claim,
                });
                (slot, false)
            }
        };
        let comm = &mut self.comms[slot];
        if !claimed {
            comm.claim(rank, desc)?;
        }
        if let Err(e) = comm.join(desc) {
            self.mismatch.get_or_insert(e);
        }
        Ok(())
    }

    /// Reconstructs communicator membership and runs the checks that
    /// need every worker to have been seen; yields the job's
    /// communicator map ([`JobTrace::comm_groups`], covering the full
    /// job) for the traces `push` kept.
    pub fn finish(mut self) -> Result<BTreeMap<u64, Vec<u32>>, CollateError> {
        self.comms.sort_unstable_by_key(|c| c.id);
        let mut groups = BTreeMap::new();
        for comm in &self.comms {
            groups.insert(comm.id, comm.members(self.known.get(&comm.id), self.world)?);
        }
        validate_ranks(self.world, self.ranks.iter().copied()).map_err(CollateError::Invalid)?;
        validate_groups(self.world, &groups).map_err(CollateError::Invalid)?;
        if let Some(e) = self.mismatch {
            return Err(e);
        }
        // A full collective must have been joined by every group member
        // that was pushed (`ranks` is sorted: `validate_ranks` passed).
        for (comm, members) in self.comms.iter().zip(groups.values()) {
            let expected = members
                .iter()
                .filter(|m| self.ranks.binary_search(m).is_ok())
                .count() as u32;
            for (seq, joined) in comm.full_collectives() {
                if joined != expected {
                    return Err(CollateError::CollectiveMismatch {
                        comm: comm.id,
                        seq,
                        detail: format!("{joined}/{expected} present participants joined"),
                    });
                }
            }
        }
        Ok(groups)
    }
}

/// Fills `u32::MAX` holes in a member list by arithmetic extrapolation
/// from the known slots (Megatron groups have constant stride). Returns
/// `Err(seen_count)` if no consistent stride exists.
fn infer_missing_members(members: &mut [u32], world: u32) -> Result<(), u32> {
    let known: Vec<(usize, u32)> = members
        .iter()
        .enumerate()
        .filter(|(_, &m)| m != u32::MAX)
        .map(|(i, &m)| (i, m))
        .collect();
    let seen = known.len() as u32;
    let (base, stride) = match known.as_slice() {
        [] => return Err(0),
        // A single observation cannot pin the stride; assume contiguous
        // ranks around the observed anchor.
        [(pos, g)] => (*g as i64 - *pos as i64, 1),
        // Deduce the stride from the first two known slots.
        [(i0, g0), (i1, g1), ..] => {
            let stride = (*g1 as i64 - *g0 as i64) / (*i1 as i64 - *i0 as i64).max(1);
            (*g0 as i64 - stride * *i0 as i64, stride)
        }
    };
    for (i, slot) in members.iter_mut().enumerate() {
        let v = base + stride * i as i64;
        if v < 0 || v >= world as i64 {
            return Err(seen);
        }
        let v = v as u32;
        if *slot != u32::MAX && *slot != v {
            return Err(seen);
        }
        *slot = v;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_trace::{CollectiveDesc, DeviceOp, SimTime, StreamId, TraceEvent};

    fn coll_event(
        kind: CollectiveKind,
        comm: u64,
        seq: u32,
        bytes: u64,
        n: u32,
        r: u32,
    ) -> TraceEvent {
        TraceEvent {
            stream: StreamId::DEFAULT,
            op: DeviceOp::Collective {
                desc: CollectiveDesc {
                    kind,
                    comm_id: comm,
                    seq,
                    bytes,
                    nranks: n,
                    rank_in_comm: r,
                },
            },
            host_delay: SimTime::from_us(1.0),
        }
    }

    fn worker(rank: u32, events: Vec<TraceEvent>) -> WorkerTrace {
        let mut w = WorkerTrace::new(rank);
        w.events = events;
        w
    }

    #[test]
    fn reconstructs_comm_groups_by_slot() {
        let w0 = worker(
            0,
            vec![coll_event(CollectiveKind::AllReduce, 5, 0, 64, 2, 0)],
        );
        let w1 = worker(
            1,
            vec![coll_event(CollectiveKind::AllReduce, 5, 0, 64, 2, 1)],
        );
        let job = collate(vec![w1, w0], 2).unwrap();
        assert_eq!(job.comm_groups[&5], vec![0, 1]);
        assert_eq!(job.workers[0].rank, 0, "workers sorted by rank");
    }

    #[test]
    fn non_contiguous_group_order_preserved() {
        // dp group over ranks 1 and 3 (stride 2), rank 3 is slot 1.
        let w1 = worker(
            1,
            vec![coll_event(CollectiveKind::AllReduce, 9, 0, 64, 2, 0)],
        );
        let w3 = worker(
            3,
            vec![coll_event(CollectiveKind::AllReduce, 9, 0, 64, 2, 1)],
        );
        let job = collate(vec![w3, w1], 4).unwrap();
        assert_eq!(job.comm_groups[&9], vec![1, 3]);
    }

    #[test]
    fn conflicting_membership_detected() {
        let w0 = worker(
            0,
            vec![coll_event(CollectiveKind::AllReduce, 5, 0, 64, 2, 0)],
        );
        let w1 = worker(
            1,
            vec![coll_event(CollectiveKind::AllReduce, 5, 1, 64, 2, 0)],
        );
        let err = collate(vec![w0, w1], 2).unwrap_err();
        assert!(
            matches!(err, CollateError::ConflictingCommMembership { .. }),
            "{err}"
        );
    }

    #[test]
    fn size_mismatch_detected() {
        let w0 = worker(
            0,
            vec![coll_event(CollectiveKind::AllReduce, 5, 0, 64, 2, 0)],
        );
        let w1 = worker(
            1,
            vec![coll_event(CollectiveKind::AllReduce, 5, 0, 64, 3, 1)],
        );
        let err = collate(vec![w0, w1], 2).unwrap_err();
        assert!(
            matches!(err, CollateError::CommSizeMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn payload_mismatch_detected() {
        let w0 = worker(
            0,
            vec![coll_event(CollectiveKind::AllReduce, 5, 0, 64, 2, 0)],
        );
        let w1 = worker(
            1,
            vec![coll_event(CollectiveKind::AllReduce, 5, 0, 128, 2, 1)],
        );
        let err = collate(vec![w0, w1], 2).unwrap_err();
        assert!(
            matches!(err, CollateError::CollectiveMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn missing_participant_detected() {
        // Dense 2-rank job where rank 1 skips the second collective.
        let w0 = worker(
            0,
            vec![
                coll_event(CollectiveKind::AllReduce, 5, 0, 64, 2, 0),
                coll_event(CollectiveKind::AllReduce, 5, 1, 64, 2, 0),
            ],
        );
        let w1 = worker(
            1,
            vec![coll_event(CollectiveKind::AllReduce, 5, 0, 64, 2, 1)],
        );
        let err = collate(vec![w0, w1], 2).unwrap_err();
        assert!(
            matches!(err, CollateError::CollectiveMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn send_recv_pairs_match_by_pair_key() {
        let w0 = worker(
            0,
            vec![coll_event(CollectiveKind::Send { peer: 1 }, 7, 0, 32, 2, 0)],
        );
        let w1 = worker(
            1,
            vec![coll_event(CollectiveKind::Recv { peer: 0 }, 7, 0, 32, 2, 1)],
        );
        assert!(collate(vec![w0, w1], 2).is_ok());
    }

    #[test]
    fn sparse_collate_infers_strided_group() {
        // Only rank 0 of an 8-rank dp group (stride 1) was emulated.
        let w0 = worker(
            0,
            vec![coll_event(CollectiveKind::AllReduce, 5, 0, 64, 8, 0)],
        );
        let job = collate(vec![w0], 8).unwrap();
        assert_eq!(job.comm_groups[&5], vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_ne!(job.workers.len(), job.nranks as usize);
    }

    #[test]
    fn sparse_collate_infers_stride_from_two_members() {
        // Ranks 0 and 4 of a 4-member group with stride 4.
        let w0 = worker(
            0,
            vec![coll_event(CollectiveKind::AllReduce, 5, 0, 64, 4, 0)],
        );
        let w4 = worker(
            4,
            vec![coll_event(CollectiveKind::AllReduce, 5, 0, 64, 4, 1)],
        );
        let job = collate(vec![w0, w4], 16).unwrap();
        assert_eq!(job.comm_groups[&5], vec![0, 4, 8, 12]);
    }

    #[test]
    fn empty_job_collates() {
        let job = collate(vec![worker(0, vec![])], 1).unwrap();
        assert_eq!(job.total_events(), 0);
        assert!(job.comm_groups.is_empty());
    }
}
