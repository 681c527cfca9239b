//! The three-pass collator and the after-the-fact dedup, frozen as they
//! stood before `Collator` replaced them: slot discovery over every
//! worker, `JobTrace::validate` + `validate_collectives` over every
//! worker again, then `signature` over every worker a third time. Test
//! oracle only — function bodies are verbatim, so a difference between
//! this and the library is a behaviour change. The library compares
//! calls where this hashes them and its classes carry no signature, so
//! the class type is frozen here too; the contract between the two is
//! the partition.

#![allow(dead_code)]

use std::collections::BTreeMap;

use maya_collate::CollateError;
use maya_trace::{CollectiveKind, DeviceOp, JobTrace, WorkerTrace};

/// One equivalence class of identical workers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DedupClass {
    /// The rank whose trace represents the class.
    pub representative: u32,
    /// All member ranks (including the representative).
    pub members: Vec<u32>,
    /// The class signature.
    pub signature: u64,
}

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
    let mut comm_sizes: BTreeMap<u64, u32> = BTreeMap::new();
    let mut comm_slots: BTreeMap<u64, BTreeMap<u32, u32>> = BTreeMap::new();

    for w in &workers {
        for e in &w.events {
            if let DeviceOp::Collective { desc } = e.op {
                match comm_sizes.get(&desc.comm_id) {
                    None => {
                        comm_sizes.insert(desc.comm_id, desc.nranks);
                    }
                    Some(&n) if n != desc.nranks => {
                        return Err(CollateError::CommSizeMismatch {
                            comm: desc.comm_id,
                            sizes: (n, desc.nranks),
                        });
                    }
                    _ => {}
                }
                let slots = comm_slots.entry(desc.comm_id).or_default();
                match slots.get(&desc.rank_in_comm) {
                    None => {
                        slots.insert(desc.rank_in_comm, w.rank);
                    }
                    Some(&g) if g != w.rank => {
                        return Err(CollateError::ConflictingCommMembership {
                            comm: desc.comm_id,
                            rank_in_comm: desc.rank_in_comm,
                            first: g,
                            second: w.rank,
                        });
                    }
                    _ => {}
                }
            }
        }
    }

    // Build dense member lists where complete; for partially-observed
    // communicators (dedup), infer the missing global ranks only when the
    // group structure is arithmetic (constant stride), which covers
    // Megatron's tp/dp/pp groups; otherwise keep observed slots at their
    // positions and fill gaps by extrapolation failure -> error.
    let mut groups: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for (comm, slots) in &comm_slots {
        let size = comm_sizes[comm];
        if let Some(k) = known.get(comm) {
            if k.len() != size as usize {
                return Err(CollateError::CommSizeMismatch {
                    comm: *comm,
                    sizes: (k.len() as u32, size),
                });
            }
            for (&pos, &g) in slots {
                if k.get(pos as usize) != Some(&g) {
                    return Err(CollateError::ConflictingCommMembership {
                        comm: *comm,
                        rank_in_comm: pos,
                        first: k.get(pos as usize).copied().unwrap_or(u32::MAX),
                        second: g,
                    });
                }
            }
            groups.insert(*comm, k.clone());
            continue;
        }
        let mut members = vec![u32::MAX; size as usize];
        for (&pos, &g) in slots {
            if pos >= size {
                return Err(CollateError::Invalid(format!(
                    "comm {comm:#x}: rank_in_comm {pos} out of size {size}"
                )));
            }
            members[pos as usize] = g;
        }
        if members.contains(&u32::MAX) {
            infer_missing_members(&mut members, world).map_err(|seen| {
                CollateError::IncompleteComm {
                    comm: *comm,
                    seen,
                    declared: size,
                }
            })?;
        }
        groups.insert(*comm, members);
    }

    let job = JobTrace {
        nranks: world,
        workers,
        comm_groups: groups,
    };
    job.validate().map_err(CollateError::Invalid)?;
    validate_collectives(&job)?;
    Ok(job)
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
    if known.is_empty() {
        return Err(0);
    }
    if known.len() == 1 && members.len() > 1 {
        // A single observation cannot pin the stride unless the group has
        // stride deducible from position 0 == global rank pattern; assume
        // contiguous ranks starting at the observed anchor.
        let (pos, g) = known[0];
        let base = g as i64 - pos as i64;
        if base < 0 {
            return Err(seen);
        }
        for (i, m) in members.iter_mut().enumerate() {
            let v = base + i as i64;
            if v < 0 || v >= world as i64 {
                return Err(seen);
            }
            *m = v as u32;
        }
        return Ok(());
    }
    // Deduce stride from the first two known slots.
    let (i0, g0) = known[0];
    let (i1, g1) = known[1];
    let stride = (g1 as i64 - g0 as i64) / (i1 as i64 - i0 as i64).max(1);
    let base = g0 as i64 - stride * i0 as i64;
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

/// Verifies that every logical collective is issued consistently by all
/// *present* participants: same kind class, same payload, and matched
/// send/recv pairing.
pub fn validate_collectives(job: &JobTrace) -> Result<(), CollateError> {
    use std::collections::HashMap;
    /// Rendezvous identity: communicator, sequence, send/recv pair.
    type CollSite = (u64, u32, (u32, u32));
    /// What every participant must agree on: kind class, bytes, count.
    type CollShape = (u8, u64, u32);
    let mut seen: HashMap<CollSite, CollShape> = HashMap::new();
    for w in &job.workers {
        for e in &w.events {
            if let DeviceOp::Collective { desc } = e.op {
                let (class, pair) = match desc.kind {
                    CollectiveKind::Send { peer } | CollectiveKind::Recv { peer } => (
                        255u8,
                        (desc.rank_in_comm.min(peer), desc.rank_in_comm.max(peer)),
                    ),
                    k => (k.id(), (u32::MAX, u32::MAX)),
                };
                let key = (desc.comm_id, desc.seq, pair);
                match seen.get_mut(&key) {
                    None => {
                        seen.insert(key, (class, desc.bytes, 1));
                    }
                    Some((c, b, n)) => {
                        if *c != class {
                            return Err(CollateError::CollectiveMismatch {
                                comm: desc.comm_id,
                                seq: desc.seq,
                                detail: "kind mismatch between participants".into(),
                            });
                        }
                        if *b != desc.bytes {
                            return Err(CollateError::CollectiveMismatch {
                                comm: desc.comm_id,
                                seq: desc.seq,
                                detail: format!("payload mismatch: {} vs {}", b, desc.bytes),
                            });
                        }
                        *n += 1;
                    }
                }
            }
        }
    }
    // Full collectives must be joined by every present group member.
    for (&(comm, seq, pair), &(class, _, n)) in &seen {
        if pair == (u32::MAX, u32::MAX) && class != 255 {
            if let Some(members) = job.comm_groups.get(&comm) {
                let expected = job.present_count(members);
                if n != expected {
                    return Err(CollateError::CollectiveMismatch {
                        comm,
                        seq,
                        detail: format!("{n}/{expected} present participants joined"),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Structural rolling hash of a worker's operation sequence.
///
/// Invariant to identifiers that differ between otherwise-identical
/// workers (raw communicator ids, device pointers, host-delay jitter);
/// sensitive to everything that defines the workload structure: op kinds,
/// kernel shapes, payload sizes, stream assignment, communicator *roles*
/// (local index + size + rank-in-comm is excluded, since e.g. pipeline
/// neighbors differ only by rank) and sequence numbers.
pub fn signature(trace: &WorkerTrace) -> u64 {
    use maya_hw::noise::Key;
    use std::collections::HashMap;
    let mut comm_index: HashMap<u64, u64> = HashMap::new();
    let mut key = Key::new(0x5749_5245);
    for e in &trace.events {
        key = key.with(e.stream.0 as u64);
        match e.op {
            DeviceOp::KernelLaunch { kernel } => {
                key = key.with(1).with(kernel.family_id() as u64);
                key = key
                    .with(kernel.flops().to_bits())
                    .with(kernel.bytes_accessed().to_bits());
            }
            DeviceOp::MemcpyAsync { bytes, kind, sync } => {
                key = key.with(2).with(bytes).with(kind as u64).with(sync as u64);
            }
            DeviceOp::Malloc { bytes, .. } => {
                key = key.with(3).with(bytes);
            }
            DeviceOp::Free { .. } => {
                key = key.with(4);
            }
            DeviceOp::EventRecord { event, version } => {
                key = key.with(5).with(event).with(version as u64);
            }
            DeviceOp::StreamWaitEvent { event, version } => {
                key = key.with(6).with(event).with(version as u64);
            }
            DeviceOp::EventSynchronize { event, version } => {
                key = key.with(7).with(event).with(version as u64);
            }
            DeviceOp::StreamSynchronize => key = key.with(8),
            DeviceOp::DeviceSynchronize => key = key.with(9),
            DeviceOp::Collective { desc } => {
                let next = comm_index.len() as u64;
                let idx = *comm_index.entry(desc.comm_id).or_insert(next);
                key = key
                    .with(10)
                    .with(idx)
                    .with(desc.kind.id() as u64)
                    .with(desc.bytes)
                    .with(desc.nranks as u64)
                    .with(desc.seq as u64);
            }
        }
    }
    key.finish()
}

/// Groups workers into equivalence classes by signature. The lowest rank
/// of each class becomes its representative.
pub fn dedup_classes(workers: &[WorkerTrace]) -> Vec<DedupClass> {
    use std::collections::BTreeMap;
    let mut by_sig: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for w in workers {
        by_sig.entry(signature(w)).or_default().push(w.rank);
    }
    let mut classes: Vec<DedupClass> = by_sig
        .into_iter()
        .map(|(signature, mut members)| {
            members.sort_unstable();
            DedupClass {
                representative: members[0],
                members,
                signature,
            }
        })
        .collect();
    classes.sort_by_key(|c| c.representative);
    classes
}

/// Drops redundant workers from a job, keeping one representative per
/// class. Communicator groups are preserved in full, so downstream
/// consumers can still size collectives correctly.
pub fn reduce_job(job: &JobTrace, classes: &[DedupClass]) -> JobTrace {
    let keep: std::collections::BTreeSet<u32> = classes.iter().map(|c| c.representative).collect();
    JobTrace {
        nranks: job.nranks,
        workers: job
            .workers
            .iter()
            .filter(|w| keep.contains(&w.rank))
            .cloned()
            .collect(),
        comm_groups: job.comm_groups.clone(),
    }
}
