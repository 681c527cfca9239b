//! The streaming collator against the frozen three-pass one
//! (`reference/`): folding a worker away never loses a check, and every
//! error comes out as the batch path raised it.

mod reference;

use std::collections::BTreeMap;

use maya_collate::{
    collate, dedup_classes, reduce_job, signature, CollateError, CollateStats, Collator, DedupClass,
};
use maya_hw::{GpuSpec, GroundTruthKernelModel};
use maya_trace::CollectiveKind::{self, AllGather, AllReduce};
use maya_trace::{
    CollectiveDesc, DeviceOp, Dtype, JobTrace, KernelKind, SimTime, StreamId, TraceEvent,
    TraceMeta, WorkerTrace,
};

fn coll_event(kind: CollectiveKind, comm: u64, seq: u32, bytes: u64, n: u32, r: u32) -> TraceEvent {
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

/// Pushes `workers` (already in rank order) through a collator, each
/// with the metadata a scan of it gives, and keeps what it hands back.
fn stream(workers: &[WorkerTrace], world: u32, fold: bool) -> Result<JobTrace, CollateError> {
    let known = BTreeMap::new();
    let mut collator = Collator::new(world, &known, fold);
    let mut kept = Vec::new();
    for w in workers {
        kept.extend(
            collator
                .push(w.clone(), TraceMeta::scan(&w.events, fold))?
                .kept,
        );
    }
    Ok(JobTrace {
        nranks: world,
        workers: kept,
        comm_groups: collator.finish()?,
    })
}

/// One error fixture: the good workers of communicator 5, the
/// offending worker, and how many workers shaped like the offender
/// make a communicator that is consistent on its own.
struct Fault {
    name: &'static str,
    good: Vec<Vec<TraceEvent>>,
    /// The offender's events on `comm` as member `r`.
    bad: fn(comm: u64, r: u32) -> Vec<TraceEvent>,
    /// `rank_in_comm` the offender uses on communicator 5.
    bad_slot: u32,
    twins: u32,
    expect: fn(&CollateError) -> bool,
}

fn faults() -> Vec<Fault> {
    let ar = |seq, bytes, n, r| coll_event(AllReduce, 5, seq, bytes, n, r);
    vec![
        Fault {
            name: "conflicting membership",
            good: vec![vec![ar(0, 64, 2, 0)], vec![ar(0, 64, 2, 1)]],
            bad: |comm, r| vec![coll_event(AllReduce, comm, 0, 64, 2, r)],
            bad_slot: 0,
            twins: 2,
            expect: |e| matches!(e, CollateError::ConflictingCommMembership { comm: 5, .. }),
        },
        Fault {
            name: "size mismatch",
            good: vec![vec![ar(0, 64, 2, 0)]],
            bad: |comm, r| vec![coll_event(AllReduce, comm, 0, 64, 3, r)],
            bad_slot: 1,
            twins: 3,
            expect: |e| matches!(e, CollateError::CommSizeMismatch { comm: 5, .. }),
        },
        Fault {
            name: "payload mismatch",
            good: vec![vec![ar(0, 64, 2, 0)]],
            bad: |comm, r| vec![coll_event(AllReduce, comm, 0, 128, 2, r)],
            bad_slot: 1,
            twins: 2,
            expect: |e| matches!(e, CollateError::CollectiveMismatch { comm: 5, detail, .. } if detail.contains("payload")),
        },
        Fault {
            name: "kind mismatch",
            good: vec![vec![ar(0, 64, 2, 0)]],
            bad: |comm, r| vec![coll_event(AllGather, comm, 0, 64, 2, r)],
            bad_slot: 1,
            twins: 2,
            expect: |e| matches!(e, CollateError::CollectiveMismatch { comm: 5, detail, .. } if detail.contains("kind")),
        },
        Fault {
            name: "missing participant",
            good: vec![vec![ar(0, 64, 2, 0), ar(1, 64, 2, 0)]],
            bad: |comm, r| vec![coll_event(AllReduce, comm, 0, 64, 2, r)],
            bad_slot: 1,
            twins: 2,
            expect: |e| matches!(e, CollateError::CollectiveMismatch { comm: 5, seq: 1, detail } if detail.contains("1/2")),
        },
        Fault {
            name: "out-of-range slot",
            good: vec![vec![ar(0, 64, 2, 0)], vec![ar(0, 64, 2, 1)]],
            bad: |comm, r| vec![coll_event(AllReduce, comm, 0, 64, 2, r)],
            bad_slot: 7,
            twins: 2,
            expect: |e| matches!(e, CollateError::Invalid(m) if m.contains("out of size")),
        },
    ]
}

/// Ranks `traces` 0, 1, 2, … in the order given.
fn ranked(traces: Vec<Vec<TraceEvent>>) -> Vec<WorkerTrace> {
    traces
        .into_iter()
        .zip(0..)
        .map(|(events, rank)| worker(rank, events))
        .collect()
}

#[test]
fn every_fault_is_reported_wherever_the_offender_sits() {
    for f in faults() {
        let bad = (f.bad)(5, f.bad_slot);
        let twins: Vec<Vec<TraceEvent>> = (0..f.twins).map(|r| (f.bad)(6, r)).collect();
        let first = [vec![bad.clone()], f.good.clone()].concat();
        let last = [f.good.clone(), vec![bad.clone()]].concat();
        let duplicate = [twins.clone(), f.good.clone(), vec![bad.clone()]].concat();
        for (place, traces) in [("first", first), ("last", last), ("duplicate", duplicate)] {
            let workers = ranked(traces);
            let what = format!("{} with the offender {place}", f.name);
            let batch = reference::collate(workers.clone(), 8).expect_err(&what);
            assert!((f.expect)(&batch), "{what}: {batch}");
            assert_eq!(stream(&workers, 8, true).expect_err(&what), batch, "{what}");
            assert_eq!(
                stream(&workers, 8, false).expect_err(&what),
                batch,
                "{what}"
            );
            assert_eq!(collate(workers, 8).expect_err(&what), batch, "{what}");
        }
        // The third placement really is one the fold drops: a lower
        // rank has the offender's signature.
        assert_eq!(
            signature(&worker(0, twins[0].clone())),
            signature(&worker(1, bad)),
            "{}",
            f.name
        );
        // ... and the twins alone are a healthy job.
        stream(&ranked(twins), 8, true).expect(f.name);
    }
}

#[test]
fn rank_faults_are_reported_when_the_offender_is_folded_away() {
    let member = |r| vec![coll_event(AllReduce, 5, 0, 64, 2, r)];
    // Rank 0 twice, the copy first or last of the two; rank 5 of a
    // 2-rank job. All three offenders are signature duplicates.
    let duplicate = vec![
        worker(0, member(0)),
        worker(0, member(0)),
        worker(1, member(1)),
    ];
    let out_of_range = vec![worker(0, member(0)), worker(5, member(1))];
    for (workers, needle) in [
        (duplicate, "holds 3 worker traces"),
        (out_of_range, "rank 5 out of range"),
    ] {
        let batch = reference::collate(workers.clone(), 2).unwrap_err();
        assert!(
            matches!(&batch, CollateError::Invalid(m) if m.contains(needle)),
            "{batch}"
        );
        assert_eq!(stream(&workers, 2, true).unwrap_err(), batch);
    }
    let twice = vec![
        worker(0, member(0)),
        worker(1, member(1)),
        worker(1, member(1)),
    ];
    let err = stream(&twice, 4, true).unwrap_err();
    assert!(
        matches!(&err, CollateError::Invalid(m) if m.contains("not strictly increasing")),
        "{err}"
    );
    assert_eq!(reference::collate(twice, 4).unwrap_err(), err);
}

#[test]
fn several_faults_report_in_batch_precedence() {
    let ar = |seq, bytes, n, r| vec![coll_event(AllReduce, 5, seq, bytes, n, r)];
    // Payload mismatch at rank 1, size mismatch at rank 2: the size
    // check ran first over every worker, so it wins.
    let workers = ranked(vec![ar(0, 64, 3, 0), ar(0, 128, 3, 1), ar(0, 64, 2, 2)]);
    let err = stream(&workers, 4, true).unwrap_err();
    assert!(
        matches!(err, CollateError::CommSizeMismatch { .. }),
        "{err}"
    );
    assert_eq!(collate(workers.clone(), 4).unwrap_err(), err);
    assert_eq!(reference::collate(workers, 4).unwrap_err(), err);
    // Payload mismatch and a duplicated rank: structure outranks
    // collective agreement.
    let mut workers = ranked(vec![ar(0, 64, 2, 0), ar(0, 128, 2, 1)]);
    workers.push(worker(1, ar(0, 128, 2, 1)));
    let err = stream(&workers, 4, true).unwrap_err();
    assert!(
        matches!(&err, CollateError::Invalid(m) if m.contains("not strictly increasing")),
        "{err}"
    );
    assert_eq!(collate(workers.clone(), 4).unwrap_err(), err);
    assert_eq!(reference::collate(workers, 4).unwrap_err(), err);
    // Payload mismatch and a missing participant: the mismatch was
    // found while walking the events, the count after.
    let workers = ranked(vec![
        [ar(0, 64, 2, 0), ar(1, 64, 2, 0)].concat(),
        ar(0, 128, 2, 1),
    ]);
    let err = stream(&workers, 4, true).unwrap_err();
    assert!(
        matches!(&err, CollateError::CollectiveMismatch { seq: 0, .. }),
        "{err}"
    );
    assert_eq!(collate(workers.clone(), 4).unwrap_err(), err);
    assert_eq!(reference::collate(workers, 4).unwrap_err(), err);
}

#[test]
fn push_takes_ranks_in_order() {
    let known = BTreeMap::new();
    let mut collator = Collator::new(4, &known, true);
    let signed = || TraceMeta::scan(&[], true);
    collator.push(worker(2, vec![]), signed()).unwrap();
    let err = collator.push(worker(1, vec![]), signed()).unwrap_err();
    assert!(matches!(err, CollateError::Invalid(_)), "{err}");
}

#[test]
fn metadata_that_does_not_fit_the_trace_is_refused() {
    let known = BTreeMap::new();
    let events = vec![
        coll_event(AllReduce, 5, 0, 64, 1, 0),
        TraceEvent {
            op: DeviceOp::DeviceSynchronize,
            ..coll_event(AllReduce, 5, 0, 64, 1, 0)
        },
    ];
    // An index entry that names a non-collective, or no event at all.
    for at in [1, 2] {
        let meta = TraceMeta {
            signature: None,
            collectives: vec![0, at],
        };
        let err = Collator::new(1, &known, false)
            .push(worker(0, events.clone()), meta)
            .unwrap_err();
        assert!(
            matches!(&err, CollateError::Invalid(m) if m.contains("not one")),
            "{err}"
        );
    }
    // Folding needs the recorder's signature; not folding ignores it.
    let unsigned = || TraceMeta::scan(&events, false);
    let err = Collator::new(1, &known, true)
        .push(worker(0, events.clone()), unsigned())
        .unwrap_err();
    assert!(
        matches!(&err, CollateError::Invalid(m) if m.contains("unsigned")),
        "{err}"
    );
    let mut flat = Collator::new(1, &known, false);
    let pushed = flat.push(worker(0, events.clone()), unsigned()).unwrap();
    assert_eq!(pushed.kept, Some(worker(0, events)));
    assert_eq!(flat.finish().unwrap(), BTreeMap::from([(5, vec![0])]));
}

#[test]
fn sequence_numbers_that_skip_ahead_are_counted_once() {
    let ar = |seq, r| coll_event(AllReduce, 5, seq, 64, 2, r);
    // Rank 0 issues seq 1 before seq 0; rank 1 counts up. Both
    // collectives end with two participants.
    let workers = ranked(vec![vec![ar(1, 0), ar(0, 0)], vec![ar(0, 1), ar(1, 1)]]);
    stream(&workers, 2, false).unwrap();
    // A hostile sequence number costs one map entry, not a table
    // of four billion.
    let workers = ranked(vec![vec![ar(u32::MAX, 0)], vec![ar(u32::MAX, 1)]]);
    stream(&workers, 2, false).unwrap();
    let workers = ranked(vec![vec![ar(u32::MAX, 0)], vec![ar(0, 1)]]);
    let err = stream(&workers, 2, false).unwrap_err();
    assert!(
        matches!(err, CollateError::CollectiveMismatch { seq: 0, .. }),
        "{err}"
    );
}

/// Folding keeps the lowest rank of each class and hands it back to
/// the caller with the push that keeps it; a folded rank's buffers come
/// back for the next rank. The collator holds no trace, so its
/// counters no longer include `resident_high_water` (pinned at 3, the
/// two kept and the one pushed, while it held them).
#[test]
fn fold_keeps_the_lowest_rank_of_each_class_and_hands_buffers_back() {
    let ar = |comm, bytes, r| {
        let collective = coll_event(AllReduce, comm, 0, bytes, 2, r);
        let sync = TraceEvent {
            op: DeviceOp::DeviceSynchronize,
            ..collective
        };
        vec![sync, collective]
    };
    let workers = ranked(vec![
        ar(5, 64, 0),
        ar(6, 128, 0),
        ar(5, 64, 1),
        ar(6, 128, 1),
    ]);
    let known = BTreeMap::new();
    let mut collator = Collator::new(4, &known, true);
    let mut kept = Vec::new();
    let spare: Vec<(usize, bool)> = workers
        .iter()
        .map(|w| {
            let pushed = collator
                .push(w.clone(), TraceMeta::scan(&w.events, true))
                .unwrap();
            let spare = pushed.spare;
            assert!(spare.events.is_empty() && spare.collectives.is_empty());
            kept.extend(pushed.kept);
            (spare.events.capacity(), spare.collectives.capacity() > 0)
        })
        .collect();
    assert_eq!(
        spare,
        vec![(0, true), (0, true), (2, true), (2, true)],
        "only dropped traces free an event buffer; the index always comes back"
    );
    assert_eq!(
        collator.stats(),
        CollateStats {
            workers_in: 4,
            workers_kept: 2,
            // The four collectives of eight events.
            events_seen: 4,
        }
    );
    let job = JobTrace {
        nranks: 4,
        workers: kept,
        comm_groups: collator.finish().unwrap(),
    };
    assert_eq!(job.workers, workers[..2]);
    assert_eq!(job.comm_groups[&5], vec![0, 2]);
    assert_eq!(job.comm_groups[&6], vec![1, 3]);
    let all = reference::collate(workers.clone(), 4).unwrap();
    let classes = reference::dedup_classes(&all.workers);
    assert_eq!(job, reference::reduce_job(&all, &classes));
    assert_eq!(collate(workers, 4).unwrap(), all);
    // The oracle chains every word, so its signature values are not the
    // library's; the classes and who represents them are.
    let partition = |classes: &[DedupClass]| -> Vec<(u32, Vec<u32>)> {
        let members = |c: &DedupClass| (c.representative, c.members.clone());
        classes.iter().map(members).collect()
    };
    let scanned = dedup_classes(&all.workers);
    assert_eq!(partition(&scanned), partition(&classes));
    assert_eq!(partition(&scanned), [(0, vec![0, 2]), (1, vec![1, 3])]);
    assert_eq!(reduce_job(&all, &scanned), job);
}

#[test]
fn ranks_that_differ_only_by_a_transposed_gemm_are_not_folded() {
    let gemm = |m, n| KernelKind::Gemm {
        m,
        n,
        k: 512,
        dtype: Dtype::Bf16,
    };
    let (tall, wide) = (gemm(4096, 1024), gemm(1024, 4096));
    // What the signature used to hash cannot tell them apart ...
    assert_eq!(tall.flops().to_bits(), wide.flops().to_bits());
    assert_eq!(
        tall.bytes_accessed().to_bits(),
        wide.bytes_accessed().to_bits()
    );
    // ... and the hardware can: folding one into the other would
    // simulate the wrong kernel.
    let model = GroundTruthKernelModel::default();
    let gpu = GpuSpec::h100();
    assert_ne!(
        model.kernel_time(&tall, &gpu),
        model.kernel_time(&wide, &gpu)
    );

    let rank = |r, kernel| {
        let launch = TraceEvent {
            op: DeviceOp::KernelLaunch { kernel },
            ..coll_event(AllReduce, 5, 0, 64, 2, r)
        };
        worker(r, vec![launch, coll_event(AllReduce, 5, 0, 64, 2, r)])
    };
    let workers = [rank(0, tall), rank(1, wide)];
    assert_eq!(
        reference::signature(&workers[0]),
        reference::signature(&workers[1]),
        "the frozen oracle folds them"
    );
    assert_ne!(signature(&workers[0]), signature(&workers[1]));
    assert_eq!(stream(&workers, 2, true).unwrap().workers, workers);
    // Two ranks launching the same shape still fold.
    let twins = [rank(0, tall), rank(1, tall)];
    assert_eq!(stream(&twins, 2, true).unwrap().workers, twins[..1]);
}

/// splitmix64: the worker-set generator's stream.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }
}

/// One drawn worker set: up to eight ranks of a `world`-rank job over
/// up to four communicators of drawn members, each member issuing its
/// communicators' collectives in order, with a drawn subset of the
/// ranks present and a drawn share of the descriptors mutated (size,
/// slot, sequence number, payload, kind or communicator id). Half the
/// sets come with the communicator map as known groups, itself
/// sometimes mutated (a member dropped, or one replaced by a rank out
/// of range).
fn drawn_set(seed: u64) -> (Vec<WorkerTrace>, u32, BTreeMap<u64, Vec<u32>>) {
    let mut d = Draw(seed);
    let world = 1 + d.below(8) as u32;
    let mut comms: Vec<(u64, Vec<u32>)> = Vec::new();
    for c in 0..1 + d.below(4) {
        let mut members: Vec<u32> = (0..world).filter(|_| !d.one_in(3)).collect();
        if members.is_empty() {
            members.push(d.below(world.into()) as u32);
        }
        if d.one_in(4) {
            members.reverse();
        }
        comms.push((10 + c, members));
    }
    let calls = 1 + d.below(6) as u32;
    let kinds = [AllReduce, AllGather, CollectiveKind::Broadcast];
    let mut workers = Vec::new();
    for rank in 0..world {
        if world > 1 && d.one_in(4) {
            continue;
        }
        let mut events = Vec::new();
        for seq in 0..calls {
            for (c, (comm, members)) in comms.iter().enumerate() {
                let Some(slot) = members.iter().position(|&m| m == rank) else {
                    continue;
                };
                let kind = kinds[(seq as usize + c) % kinds.len()];
                let bytes = 64 << (seq % 3);
                let n = members.len() as u32;
                let mut e = coll_event(kind, *comm, seq, bytes, n, slot as u32);
                if d.one_in(12) {
                    let DeviceOp::Collective { desc } = &mut e.op else {
                        unreachable!("built as a collective")
                    };
                    match d.below(6) {
                        0 => desc.nranks = 1 + d.below(8) as u32,
                        1 => desc.rank_in_comm = d.below(9) as u32,
                        2 => desc.seq += 1,
                        3 => desc.bytes += 1,
                        4 => desc.kind = kinds[d.below(3) as usize],
                        _ => desc.comm_id = 10 + d.below(6),
                    }
                }
                events.push(e);
            }
        }
        workers.push(worker(rank, events));
    }
    let mut known = BTreeMap::new();
    if d.one_in(2) {
        for (comm, mut members) in comms {
            if d.one_in(8) {
                members.pop();
            } else if d.one_in(6) {
                let at = d.below(members.len() as u64) as usize;
                members[at] = world + d.below(2) as u32;
            }
            known.insert(comm, members);
        }
    }
    (workers, world, known)
}

/// `finish` no longer walks the kept traces' events: whenever the
/// collator accepts a worker set, the job it yields passes
/// `JobTrace::validate` all the same, because every collective a push
/// books was size-checked against a communicator the map then holds.
/// Held over drawn worker sets, mutated descriptors included, against
/// the frozen collator, which did validate: the two accept the same
/// sets and yield the same jobs.
#[test]
fn every_collated_job_validates() {
    let (mut accepted, mut refused) = (0, 0);
    for seed in 0..4000 {
        let (workers, world, known) = drawn_set(seed);
        let streamed = maya_collate::collate_with_known_groups(workers.clone(), world, &known);
        let frozen = reference::collate_with_known_groups(workers.clone(), world, &known);
        match streamed {
            Ok(job) => {
                assert_eq!(Ok(&job), frozen.as_ref(), "seed {seed}");
                accepted += 1;
                assert_eq!(job.validate(), Ok(()), "seed {seed}");
                if known.is_empty() {
                    let folded = stream(&workers, world, true).expect("folds what it collates");
                    assert_eq!(folded.validate(), Ok(()), "seed {seed}");
                }
            }
            // The frozen collator counts participants in hash order,
            // so of several such faults it may name another.
            Err(e) => {
                assert!(frozen.is_err(), "seed {seed}: {e}");
                refused += 1;
            }
        }
    }
    assert!(
        accepted > 1000 && refused > 1000,
        "{accepted} accepted, {refused} refused"
    );
}
