//! Property-based correctness proofs for the optimized sim core.
//!
//! Three properties over randomized multi-rank traces:
//!
//! 1. **Determinism** — `Simulator::run` twice on the same inputs yields
//!    byte-identical `SimReport`s (compared through the serialized
//!    wire form, not just `PartialEq`).
//! 2. **Scratch transparency** — a reused [`SimScratch`] arena, even
//!    one dirtied by differently-shaped prior runs, yields reports
//!    byte-identical to fresh-state runs.
//! 3. **Reference equivalence** — the dense-slot core matches the
//!    frozen pre-optimization core in `tests/reference` exactly,
//!    including `events_processed` (same event schedule, not just the
//!    same answer) and including error cases (deadlocks).
//!
//! Properties 1 and 2 also run on the imperfect-cluster path (link
//! topology × seed-drawn fault plan × seed-drawn hetero pool), which
//! the reference core, having no flow, fault or hetero model, cannot
//! check; there `events_processed` — popped events plus the issue
//! pumps and flow completions counted off unpopped — must repeat
//! exactly and equal what the observer is told.
//!
//! The hand-built traces at the end include the elision proof's three
//! cases: pumps of a stream that is blocked but idle (parked until the
//! release — held to the reference core, and so is a deadlock that
//! leaves pumps parked) and pumps overtaken by a fault's extension of
//! `busy_until` (elided — held to a hand-counted schedule) — and the
//! bounds of the per-job shape table lowering keeps in front of the
//! estimator: more shapes than it holds, shapes that all start at one
//! slot, and an arena handed from one estimator to another. One job
//! abandons its run-ahead replay at a tie it cannot order and is fed
//! again without run-ahead, still byte-identical to the reference.

mod common;
mod reference;

use std::collections::BTreeMap;

use maya_estimator::{OracleEstimator, RuntimeEstimator};
use maya_hw::ClusterSpec;
use maya_net::{FaultPlan, RankFailure};
use maya_sim::{SimError, SimObs, SimReport, SimScratch, Simulator};
use maya_trace::{
    shape_digest, CollectiveDesc, CollectiveKind, DeviceOp, Dtype, JobTrace, KernelKind,
    MemcpyKind, SimTime, StreamId, TraceEvent, WorkerTrace,
};
use proptest::prelude::*;
use reference::{simulate_reference, simulate_reference_counted};

/// One step of the trace generator, to be lowered per rank.
#[derive(Clone, Debug)]
enum Step {
    Kernel { stream: u8, m: u64 },
    Memcpy { stream: u8, bytes: u64, sync: bool },
    Record { stream: u8, event: u8, version: u8 },
    WaitEvent { stream: u8, event: u8, version: u8 },
    EventSync { event: u8, version: u8 },
    StreamSync { stream: u8 },
    DeviceSync,
    AllReduce { bytes: u64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (0u8..3, 256u64..4096).prop_map(|(stream, m)| Step::Kernel { stream, m }),
        2 => (0u8..3, 1024u64..(1 << 20), any::<bool>())
            .prop_map(|(stream, bytes, sync)| Step::Memcpy { stream, bytes, sync }),
        2 => (0u8..3, 0u8..4, 0u8..3)
            .prop_map(|(stream, event, version)| Step::Record { stream, event, version }),
        2 => (0u8..3, 0u8..4, 0u8..3)
            .prop_map(|(stream, event, version)| Step::WaitEvent { stream, event, version }),
        1 => (0u8..4, 0u8..3).prop_map(|(event, version)| Step::EventSync { event, version }),
        1 => (0u8..3).prop_map(|stream| Step::StreamSync { stream }),
        1 => Just(Step::DeviceSync),
        2 => (1024u64..(1 << 22)).prop_map(|bytes| Step::AllReduce { bytes }),
    ]
}

/// Lowers the shared step list into one worker's event stream.
///
/// Waits and event-syncs are made safe against deadlock by only ever
/// waiting on versions at-or-below the latest recorded version for the
/// event *earlier in the program* (CUDA's replay guarantee from the
/// emulator), falling back to the never-recorded `version == 0` no-op
/// otherwise. Collectives keep a per-rank shared sequence so all ranks
/// rendezvous.
fn lower(rank: u32, nranks: u32, steps: &[Step]) -> WorkerTrace {
    let mut w = WorkerTrace::new(rank);
    // Versions actually recorded per event (strictly increasing, may
    // have gaps); waits must target one of these or the v0 no-op.
    let mut recorded: BTreeMap<u8, Vec<u32>> = BTreeMap::new();
    let mut coll_seq = 0u32;
    let ev = |stream: u8, op: DeviceOp| TraceEvent {
        stream: StreamId(stream as u32),
        op,
        host_delay: SimTime::from_us(1.0),
    };
    for s in steps {
        match *s {
            Step::Kernel { stream, m } => {
                // Perturb work per rank so ranks finish at skewed times.
                let m = m + (rank as u64) * 128;
                w.events.push(ev(
                    stream,
                    DeviceOp::KernelLaunch {
                        kernel: KernelKind::Gemm {
                            m,
                            n: 512,
                            k: 512,
                            dtype: Dtype::Bf16,
                        },
                    },
                ));
            }
            Step::Memcpy {
                stream,
                bytes,
                sync,
            } => {
                w.events.push(ev(
                    stream,
                    DeviceOp::MemcpyAsync {
                        bytes,
                        kind: MemcpyKind::HostToDevice,
                        sync,
                    },
                ));
            }
            Step::Record {
                stream,
                event,
                version,
            } => {
                let last = recorded.get(&event).and_then(|v| v.last().copied());
                let next = version as u32 + 1 + last.unwrap_or(0);
                recorded.entry(event).or_default().push(next);
                w.events.push(ev(
                    stream,
                    DeviceOp::EventRecord {
                        event: event as u64,
                        version: next,
                    },
                ));
            }
            Step::WaitEvent {
                stream,
                event,
                version,
            } => {
                let version = match recorded.get(&event) {
                    Some(vs) if !vs.is_empty() => vs[version as usize % vs.len()],
                    _ => 0,
                };
                w.events.push(ev(
                    stream,
                    DeviceOp::StreamWaitEvent {
                        event: event as u64,
                        version,
                    },
                ));
            }
            Step::EventSync { event, version } => {
                let version = match recorded.get(&event) {
                    Some(vs) if !vs.is_empty() => vs[version as usize % vs.len()],
                    _ => 0,
                };
                w.events.push(ev(
                    0,
                    DeviceOp::EventSynchronize {
                        event: event as u64,
                        version,
                    },
                ));
            }
            Step::StreamSync { stream } => {
                w.events.push(ev(stream, DeviceOp::StreamSynchronize));
            }
            Step::DeviceSync => w.events.push(ev(0, DeviceOp::DeviceSynchronize)),
            Step::AllReduce { bytes } => {
                w.events.push(ev(
                    0,
                    DeviceOp::Collective {
                        desc: CollectiveDesc {
                            kind: CollectiveKind::AllReduce,
                            comm_id: 42,
                            seq: coll_seq,
                            bytes,
                            nranks,
                            rank_in_comm: rank,
                        },
                    },
                ));
                coll_seq += 1;
            }
        }
    }
    // Drain so collectives finish before the trace ends.
    w.events.push(ev(0, DeviceOp::DeviceSynchronize));
    w
}

fn job(nranks: u32, steps: &[Step]) -> JobTrace {
    let mut comm_groups = BTreeMap::new();
    comm_groups.insert(42u64, (0..nranks).collect());
    JobTrace {
        nranks,
        workers: (0..nranks).map(|r| lower(r, nranks, steps)).collect(),
        comm_groups,
    }
}

fn bytes_of(r: &SimReport) -> String {
    serde::to_string(r)
}

/// The validating, fresh-arena entry on a default simulator.
fn simulate(
    job: &JobTrace,
    cluster: &ClusterSpec,
    estimator: &dyn RuntimeEstimator,
) -> Result<SimReport, SimError> {
    Simulator::new(estimator, cluster).run(job)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Simulator::run` is a pure function: run twice, byte-identical.
    #[test]
    fn simulate_is_deterministic(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        nranks in 1u32..4,
        fault_seed in any::<u64>(),
    ) {
        let c = ClusterSpec::h100(1, 4);
        let oracle = OracleEstimator::new(&c);
        let j = job(nranks, &steps);
        let a = simulate(&j, &c, &oracle).unwrap();
        let b = simulate(&j, &c, &oracle).unwrap();
        prop_assert_eq!(bytes_of(&a), bytes_of(&b));

        let (topo, plan) = common::drawn_contended(&c, nranks, a.total_time, fault_seed);
        let obs = SimObs::default();
        let sim = Simulator::new(&oracle, &topo).with_faults(Some(&plan));
        let a = sim.run(&j).unwrap();
        let b = sim.with_obs(Some(&obs)).run(&j).unwrap();
        prop_assert_eq!(a.events_processed, b.events_processed);
        prop_assert_eq!(obs.events.get(), b.events_processed);
        prop_assert_eq!(bytes_of(&a), bytes_of(&b));
    }

    /// Fresh scratch vs a reused, dirtied scratch: byte-identical.
    #[test]
    fn scratch_reuse_is_transparent(
        steps_a in proptest::collection::vec(step_strategy(), 1..40),
        steps_b in proptest::collection::vec(step_strategy(), 1..40),
        nranks in 1u32..4,
        fault_seed in any::<u64>(),
    ) {
        let c = ClusterSpec::h100(1, 4);
        let oracle = OracleEstimator::new(&c);
        let sim = Simulator::new(&oracle, &c);
        let mut scratch = SimScratch::new();
        // Generated jobs are valid by construction (`run` on the fresh
        // side re-checks `j`), so the trusted-trace entry applies.
        // Dirty the arena with a differently-shaped job first.
        let _ = sim.run_prevalidated(&job(nranks, &steps_a), &mut scratch);
        let j = job(nranks, &steps_b);
        let reused = sim.run_prevalidated(&j, &mut scratch).unwrap();
        let fresh = sim.run(&j).unwrap();
        prop_assert_eq!(bytes_of(&reused), bytes_of(&fresh));

        // The same arena, now dirty from flat runs, on the contended
        // path — and then back on the flat one.
        let (topo, plan) = common::drawn_contended(&c, nranks, fresh.total_time, fault_seed);
        let net_sim = Simulator::new(&oracle, &topo).with_faults(Some(&plan));
        let _ = net_sim.run_prevalidated(&job(nranks, &steps_a), &mut scratch);
        let reused = net_sim.run_prevalidated(&j, &mut scratch).unwrap();
        let net_fresh = net_sim.run(&j).unwrap();
        prop_assert_eq!(reused.events_processed, net_fresh.events_processed);
        prop_assert_eq!(bytes_of(&reused), bytes_of(&net_fresh));
        let back = sim.run_prevalidated(&j, &mut scratch).unwrap();
        prop_assert_eq!(bytes_of(&back), bytes_of(&fresh));
    }

    /// The dense-slot core is event-for-event equivalent to the frozen
    /// pre-optimization core.
    #[test]
    fn dense_core_matches_reference(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        nranks in 1u32..4,
    ) {
        let c = ClusterSpec::h100(1, 4);
        let oracle = OracleEstimator::new(&c);
        let j = job(nranks, &steps);
        match (simulate(&j, &c, &oracle), simulate_reference(&j, &c, &oracle)) {
            (Ok(dense), Ok(reference)) => {
                prop_assert_eq!(dense.events_processed, reference.events_processed);
                prop_assert_eq!(bytes_of(&dense), bytes_of(&reference));
            }
            (dense, reference) => prop_assert_eq!(dense, reference),
        }
    }

    /// A default emulation setup — no topology, no hetero pool, no
    /// fault plan (explicitly absent *or* explicitly empty) — is still
    /// byte-identical to the frozen reference core. The net/fault
    /// subsystem must be invisible until opted into.
    #[test]
    fn default_spec_stays_byte_identical_to_reference(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        nranks in 1u32..4,
    ) {
        let c = ClusterSpec::h100(1, 4);
        let oracle = OracleEstimator::new(&c);
        let j = job(nranks, &steps);
        let empty = maya_net::FaultPlan::default();
        let none = Simulator::new(&oracle, &c).with_faults(None).run(&j);
        let empty_plan = Simulator::new(&oracle, &c).with_faults(Some(&empty)).run(&j);
        match simulate_reference(&j, &c, &oracle) {
            Ok(reference) => {
                let reference = bytes_of(&reference);
                prop_assert_eq!(bytes_of(&none.unwrap()), reference.clone());
                prop_assert_eq!(bytes_of(&empty_plan.unwrap()), reference);
            }
            Err(e) => {
                prop_assert_eq!(none, Err(e.clone()));
                prop_assert_eq!(empty_plan, Err(e));
            }
        }
    }
}

/// The seed-drawn jobs of `common::drawn` on their flat clusters: two
/// thousand schedules of three streams, pair, cross and world
/// collectives, copies and syncs, each held to the reference core,
/// `events_processed` included. The generated jobs above are smaller
/// and fewer; these reach schedules where a host wakes while its
/// device still has a long run of kernels queued.
#[test]
fn drawn_flat_jobs_match_the_reference() {
    for seed in 0..2000 {
        let (job, flat) = common::drawn(seed);
        let oracle = OracleEstimator::new(&flat);
        let dense = simulate(&job, &flat, &oracle);
        let reference = simulate_reference(&job, &flat, &oracle);
        match (&dense, &reference) {
            (Ok(d), Ok(r)) => {
                assert_eq!(d.events_processed, r.events_processed, "seed {seed}");
                assert_eq!(bytes_of(d), bytes_of(r), "seed {seed}");
            }
            _ => assert_eq!(dense, reference, "seed {seed}"),
        }
    }
}

// Hand-built traces, from the engine's unit tests.

fn kernel(m: u64) -> DeviceOp {
    DeviceOp::KernelLaunch {
        kernel: KernelKind::Gemm {
            m,
            n: 1024,
            k: 1024,
            dtype: Dtype::Fp32,
        },
    }
}

fn ev(stream: u32, op: DeviceOp, host_us: f64) -> TraceEvent {
    TraceEvent {
        stream: StreamId(stream),
        op,
        host_delay: SimTime::from_us(host_us),
    }
}

fn job1(events: Vec<TraceEvent>) -> JobTrace {
    let mut w = WorkerTrace::new(0);
    w.events = events;
    JobTrace {
        nranks: 1,
        workers: vec![w],
        comm_groups: BTreeMap::new(),
    }
}

fn cluster() -> ClusterSpec {
    ClusterSpec::h100(1, 2)
}

/// A small but feature-dense trace touching every op kind the
/// scratch arena has to reset: kernels on three streams, event
/// record/wait/sync, sync memcpy, device sync, and a collective.
fn busy_job(seed: u64) -> JobTrace {
    let m = 1024 + (seed % 7) * 512;
    let mk = |rank: u32| {
        let mut w = WorkerTrace::new(rank);
        w.events = vec![
            ev(0, kernel(m), 2.0),
            ev(
                0,
                DeviceOp::EventRecord {
                    event: 1,
                    version: 1,
                },
                1.0,
            ),
            ev(
                1,
                DeviceOp::StreamWaitEvent {
                    event: 1,
                    version: 1,
                },
                1.0,
            ),
            ev(1, kernel(2 * m), 1.0),
            ev(
                2,
                DeviceOp::MemcpyAsync {
                    bytes: 1 << 20,
                    kind: MemcpyKind::HostToDevice,
                    sync: false,
                },
                1.0,
            ),
            ev(
                1,
                DeviceOp::EventRecord {
                    event: 2,
                    version: 1,
                },
                1.0,
            ),
            ev(
                0,
                DeviceOp::EventSynchronize {
                    event: 2,
                    version: 1,
                },
                1.0,
            ),
            ev(
                0,
                DeviceOp::Collective {
                    desc: CollectiveDesc {
                        kind: CollectiveKind::AllReduce,
                        comm_id: 7,
                        seq: 0,
                        bytes: 1 << 22,
                        nranks: 2,
                        rank_in_comm: rank,
                    },
                },
                1.0,
            ),
            ev(0, DeviceOp::DeviceSynchronize, 1.0),
        ];
        w
    };
    let mut groups = BTreeMap::new();
    groups.insert(7u64, vec![0, 1]);
    JobTrace {
        nranks: 2,
        workers: vec![mk(0), mk(1)],
        comm_groups: groups,
    }
}

#[test]
fn dense_core_matches_reference_core() {
    let c = cluster();
    let oracle = OracleEstimator::new(&c);
    for seed in 0..6u64 {
        let job = busy_job(seed);
        let dense = simulate(&job, &c, &oracle).unwrap();
        let reference = crate::reference::simulate_reference(&job, &c, &oracle).unwrap();
        assert_eq!(dense, reference, "seed {seed}");
    }
}

#[test]
fn adversarial_version_zero_record_matches_reference() {
    // event_record never emits version 0, but the simulator is a
    // public API: a hand-built trace may record version 0 and then
    // wait on it. Both cores must agree on what that means.
    let c = cluster();
    let oracle = OracleEstimator::new(&c);
    let job = job1(vec![
        ev(1, kernel(4096), 1.0),
        ev(
            1,
            DeviceOp::EventRecord {
                event: 5,
                version: 0,
            },
            1.0,
        ),
        ev(
            0,
            DeviceOp::StreamWaitEvent {
                event: 5,
                version: 0,
            },
            1.0,
        ),
        ev(0, kernel(4096), 1.0),
        ev(
            0,
            DeviceOp::EventSynchronize {
                event: 5,
                version: 0,
            },
            1.0,
        ),
    ]);
    let dense = simulate(&job, &c, &oracle).unwrap();
    let reference = crate::reference::simulate_reference(&job, &c, &oracle).unwrap();
    assert_eq!(dense, reference);
}

// The elision proof. An issue pump is dropped only when its stream is
// busy past the pump's due time; the two tests below are the cases that
// rule leans on.

/// An all-reduce of a two-rank communicator.
fn pair_all_reduce(rank_in_comm: u32) -> DeviceOp {
    DeviceOp::Collective {
        desc: CollectiveDesc {
            kind: CollectiveKind::AllReduce,
            comm_id: 9,
            seq: 0,
            bytes: 1 << 22,
            nranks: 2,
            rank_in_comm,
        },
    }
}

#[test]
fn blocked_but_idle_streams_keep_their_pumps() {
    let c = cluster();
    let oracle = OracleEstimator::new(&c);

    // Event wait: stream 1 blocks on an event stream 0 records only
    // after a long kernel, while the host keeps issuing to stream 1.
    // Those issue pumps come due with the stream blocked and idle; the
    // record's wake-up, not they, restarts it. They are parked, and
    // counted when the record releases the stream.
    let (event, version) = (3, 1);
    let waiting = job1(vec![
        ev(0, kernel(8192), 1.0),
        ev(0, DeviceOp::EventRecord { event, version }, 1.0),
        ev(1, DeviceOp::StreamWaitEvent { event, version }, 1.0),
        ev(1, kernel(512), 1.0),
        ev(1, kernel(512), 1.0),
        ev(1, kernel(512), 1.0),
        ev(0, DeviceOp::DeviceSynchronize, 1.0),
    ]);

    // Rendezvous: rank 0 joins at once and queues kernels behind the
    // collective; rank 1 computes first, so rank 0's stream sits
    // blocked and idle while those kernels' pumps come due.
    let mut early = WorkerTrace::new(0);
    early.events = vec![
        ev(0, pair_all_reduce(0), 1.0),
        ev(0, kernel(512), 1.0),
        ev(0, kernel(512), 1.0),
        ev(0, DeviceOp::StreamSynchronize, 1.0),
    ];
    let mut late = WorkerTrace::new(1);
    late.events = vec![
        ev(0, kernel(8192), 1.0),
        ev(0, pair_all_reduce(1), 1.0),
        ev(0, DeviceOp::StreamSynchronize, 1.0),
    ];
    let rendezvous = JobTrace {
        nranks: 2,
        workers: vec![early, late],
        comm_groups: BTreeMap::from([(9, vec![0, 1])]),
    };

    for (name, job) in [("event wait", waiting), ("rendezvous", rendezvous)] {
        let dense = simulate(&job, &c, &oracle).unwrap();
        let reference = simulate_reference(&job, &c, &oracle).unwrap();
        assert_eq!(dense.events_processed, reference.events_processed, "{name}");
        assert_eq!(dense, reference, "{name}");
    }
}

/// A deadlock that leaves issue pumps parked on a stream blocked on a
/// rendezvous that never completes and on one blocked on an event that
/// never fires: the engine counts them when its heap drains, and tells
/// its observer what the reference core popped.
#[test]
fn a_deadlock_with_parked_pumps_counts_what_the_reference_pops() {
    let c = cluster();
    let oracle = OracleEstimator::new(&c);
    let wait = DeviceOp::StreamWaitEvent {
        event: 5,
        version: 1,
    };
    let mut stuck = WorkerTrace::new(0);
    stuck.events = vec![
        ev(0, pair_all_reduce(0), 1.0),
        ev(0, kernel(512), 1.0),
        ev(0, kernel(512), 1.0),
        ev(1, wait, 1.0),
        ev(1, kernel(512), 1.0),
        ev(1, kernel(512), 1.0),
        ev(0, DeviceOp::DeviceSynchronize, 1.0),
    ];
    let mut done = WorkerTrace::new(1);
    done.events = vec![ev(0, kernel(512), 1.0)];
    let job = JobTrace {
        nranks: 2,
        workers: vec![stuck, done],
        comm_groups: BTreeMap::from([(9, vec![0, 1])]),
    };
    let obs = SimObs::default();
    let dense = Simulator::new(&oracle, &c).with_obs(Some(&obs)).run(&job);
    let (reference, events) = simulate_reference_counted(&job, &c, &oracle);
    let deadlock = Err(SimError::Deadlock {
        stuck_ranks: vec![0],
    });
    assert_eq!((&dense, &reference), (&deadlock, &deadlock));
    assert_eq!(obs.events.get(), events);
    assert!(obs.heap_pops.get() + 4 <= events, "four pumps parked");
}

/// A host woken by a record on one stream while another stream still
/// runs a chain of kernels it issued earlier. Stream 0 gets three long
/// kernels, stream 1 a short one and a record; the host waits for the
/// record, then syncs on stream 0. When the record wakes it, stream 0
/// has started its second kernel and its third is still queued, so
/// each sync must park the host until stream 0 drains, even one made
/// long after the chain's end by the host's own clock. Held to the
/// reference core; 12 events each.
///
/// Heap pops: 9 before stream run-ahead, 7 with it. Stream 0's three
/// kernels are one chain, already issued when the first starts, so the
/// completions of the first two are counted off instead of popped.
#[test]
fn a_host_woken_mid_chain_sees_the_chain_queued() {
    let c = cluster();
    let oracle = OracleEstimator::new(&c);
    let (event, version) = (5, 1);
    let job = |sync: DeviceOp, host_us: f64| {
        job1(vec![
            ev(0, kernel(8192), 1.0),
            ev(0, kernel(8192), 1.0),
            ev(0, kernel(8192), 1.0),
            ev(1, kernel(4096), 1.0),
            ev(1, DeviceOp::EventRecord { event, version }, 1.0),
            ev(0, DeviceOp::EventSynchronize { event, version }, 1.0),
            ev(0, sync, host_us),
        ])
    };
    for (name, job) in [
        ("stream sync", job(DeviceOp::StreamSynchronize, 1.0)),
        ("device sync", job(DeviceOp::DeviceSynchronize, 1.0)),
        (
            "late device sync",
            job(DeviceOp::DeviceSynchronize, 10_000.0),
        ),
    ] {
        let obs = SimObs::default();
        let dense = Simulator::new(&oracle, &c).with_obs(Some(&obs)).run(&job);
        let reference = simulate_reference(&job, &c, &oracle);
        assert_eq!(dense, reference, "{name}");
        let events = dense.map(|r| r.events_processed);
        assert_eq!((events, obs.heap_pops.get()), (Ok(12), 7), "{name}");
    }
}

/// Every kernel takes 100 µs: durations a schedule can be counted with.
struct Fixed;

impl RuntimeEstimator for Fixed {
    fn kernel_time(&self, _: &KernelKind) -> SimTime {
        SimTime::from_us(100.0)
    }
    fn memcpy_time(&self, _: u64, _: MemcpyKind) -> SimTime {
        SimTime::from_us(10.0)
    }
    fn collective_time(&self, _: CollectiveKind, _: u64, _: &[u32], _: &ClusterSpec) -> SimTime {
        SimTime::from_us(50.0)
    }
    fn name(&self) -> &'static str {
        "fixed"
    }
}

/// A fault extends `busy_until` while an issue pump for that stream is
/// still parked in the lane; the pump is then judged — and dropped —
/// against the extended horizon. The reference core has no fault model,
/// so the oracle is the schedule, counted by hand (times in µs; the
/// host issues everything inside the first event, then parks on the
/// device sync with its clock at 1002):
///
/// ```text
///  1  host dispatch @0     issues s0 kernel @1, s1 kernel @1000,
///                          s0 kernel @1001; parks on both streams
///  2  issue pump s0 @1     first kernel runs until 101
///  3  pump s0 @101         next op is not ready: re-pump @1001
///  4  fault @500           cost 2000: host clock 3002, both streams
///                          (each has a queued op) busy until 2500
///  5  issue pump s1 @1000  in the heap since event 2; stream busy
///  6  issue pump s0 @1001  parked until event 5, when s0 is already
///                          busy until 2500 > 1001: elided, counted
///  7  pump s0 @1001        stream busy
///  8  pump s0 @2500        second s0 kernel runs until 2600
///  9  pump s1 @2500        s1 kernel runs until 2600
/// 10  pump s0 @2600        drained: one stream left for the host
/// 11  pump s1 @2600        drained: host wakes
/// 12  host dispatch @2600  trace done; host clock still 3002
/// ```
#[test]
fn fault_extension_elides_a_parked_pump() {
    let us = SimTime::from_us;
    let c = cluster();
    let job = job1(vec![
        ev(0, kernel(1024), 1.0),
        ev(1, kernel(1024), 999.0),
        ev(0, kernel(1024), 1.0),
        ev(0, DeviceOp::DeviceSynchronize, 1.0),
    ]);
    let plan = FaultPlan {
        seed: 0,
        stragglers: vec![],
        failures: vec![RankFailure {
            rank: 0,
            at: us(500.0),
            restart_cost: us(2000.0),
        }],
    };
    let report = Simulator::new(&Fixed, &c)
        .with_faults(Some(&plan))
        .run(&job)
        .unwrap();
    assert_eq!(
        report,
        SimReport {
            total_time: us(3002.0),
            rank_end_times: vec![us(3002.0)],
            comm_time: SimTime::ZERO,
            compute_time: us(300.0),
            host_time: us(3002.0),
            peak_mem_bytes: 0,
            events_processed: 12,
        }
    );
}

/// A tie at a run-ahead chain's end with an event stamped while the
/// chain ran. Times in µs, every kernel 100, every copy 10:
///
/// ```text
/// s0: kernels @1..101..201, one chain stamped @1; record B @201
/// s2: copy @3..13, record A @13 wakes the host from its event sync
/// host @13: records B on s0 @14, then waits on B on s1 @201
/// ```
///
/// At 201 the reference pops s1's wait, stamped at 13, before s0's
/// completion, stamped when its last kernel started at 101: the wait
/// blocks and B's record releases it, one event more than the other
/// order. The chain end's own stamp, from 1, would pop first.
#[test]
fn a_tie_at_a_chain_end_pops_in_the_references_order() {
    let c = cluster();
    let record = |event| DeviceOp::EventRecord { event, version: 1 };
    let copy = DeviceOp::MemcpyAsync {
        bytes: 1,
        kind: MemcpyKind::HostToDevice,
        sync: false,
    };
    let job = job1(vec![
        ev(0, kernel(1024), 1.0),
        ev(0, kernel(1024), 1.0),
        ev(2, copy, 1.0),
        ev(2, record(1), 1.0),
        ev(
            0,
            DeviceOp::EventSynchronize {
                event: 1,
                version: 1,
            },
            1.0,
        ),
        ev(0, record(2), 1.0),
        ev(
            1,
            DeviceOp::StreamWaitEvent {
                event: 2,
                version: 1,
            },
            187.0,
        ),
        ev(1, kernel(1024), 1.0),
        ev(0, DeviceOp::DeviceSynchronize, 1.0),
    ]);
    let dense = simulate(&job, &c, &Fixed).unwrap();
    assert_eq!(Ok(&dense), simulate_reference(&job, &c, &Fixed).as_ref());
    assert_eq!(dense.events_processed, 16);
}

/// Four ranks over one communicator: each round, an all-reduce and
/// three kernels, the host waiting `delay(rank)` µs before each call.
fn rounds_of_kernels(rounds: u32, delay: impl Fn(u32) -> f64) -> JobTrace {
    let worker = |rank| {
        let mut w = WorkerTrace::new(rank);
        let all_reduce = |seq| DeviceOp::Collective {
            desc: CollectiveDesc {
                kind: CollectiveKind::AllReduce,
                comm_id: 9,
                seq,
                bytes: 1 << 20,
                nranks: 4,
                rank_in_comm: rank,
            },
        };
        let us = delay(rank);
        w.events = vec![ev(0, all_reduce(0), us)];
        for seq in 1..=rounds {
            w.events.extend((0..3).map(|_| ev(0, kernel(1024), us)));
            w.events.push(ev(0, all_reduce(seq), us));
        }
        w.events.push(ev(0, DeviceOp::DeviceSynchronize, us));
        w
    };
    JobTrace {
        nranks: 4,
        workers: (0..4).map(worker).collect(),
        comm_groups: BTreeMap::from([(9, vec![0, 1, 2, 3])]),
    }
}

/// Identical ranks released by one rendezvous start identical chains
/// in one instant, and every chain end ties with its twins'. Under
/// `Fixed`, two rounds: per rank two chains of three, four completions
/// counted off. The twins pop in their stamps' order, as the reference
/// core's do, with no replay abandoned: 80 events, 48 heap pops
/// without run-ahead and 32 with it. Then 4 000 rounds, two ranks
/// issuing at another pace: more instants than the replay keeps in its
/// instant log, so the log folds while chains tie.
#[test]
fn twin_chains_of_identical_ranks_pop_in_the_references_order() {
    let c = ClusterSpec::h100(1, 4);
    let job = rounds_of_kernels(2, |_| 1.0);
    let obs = SimObs::default();
    let dense = Simulator::new(&Fixed, &c).with_obs(Some(&obs)).run(&job);
    let (reference, events) = simulate_reference_counted(&job, &c, &Fixed);
    assert_eq!(dense, reference);
    assert_eq!(dense.map(|r| r.events_processed), Ok(events));
    assert_eq!((events, obs.heap_pops.get()), (80, 32));
    assert_eq!(obs.abandoned_replays.get(), 0);

    let job = rounds_of_kernels(4_000, |rank| if rank < 2 { 1.3 } else { 29.7 });
    let dense = simulate(&job, &c, &Fixed);
    let (reference, events) = simulate_reference_counted(&job, &c, &Fixed);
    assert_eq!(dense, reference);
    assert_eq!(dense.map(|r| r.events_processed), Ok(events));
}

/// A GEMM of `m` rows takes `m` µs: chains of kernels whose starts
/// can be placed by hand.
struct RowsInUs;

impl RuntimeEstimator for RowsInUs {
    fn kernel_time(&self, kernel: &KernelKind) -> SimTime {
        match kernel {
            KernelKind::Gemm { m, .. } => SimTime::from_us(*m as f64),
            _ => SimTime::from_us(1.0),
        }
    }
    fn memcpy_time(&self, _: u64, _: MemcpyKind) -> SimTime {
        SimTime::from_us(1.0)
    }
    fn collective_time(&self, _: CollectiveKind, _: u64, _: &[u32], _: &ClusterSpec) -> SimTime {
        SimTime::from_us(1.0)
    }
    fn name(&self) -> &'static str {
        "rows in µs"
    }
}

/// Two chains that end in one instant with their last kernels started
/// in one instant, but started apart, so neither is the other's twin.
/// Times in µs:
///
/// ```text
/// s0: kernel 10 @1..11, kernel 20 @11..31   one chain from 1
/// s1: kernel 5 @6..11,  kernel 20 @11..31   one chain from 6
/// host: issues @1, 2, 6, 7, then waits on the device from 8
/// ```
///
/// Without run-ahead both last completions are stamped at 11, in an
/// order run-ahead does not record, so the chain end that pops first
/// at 31 abandons the replay, and the rerun without run-ahead gives
/// the reference core's report, `events_processed` included.
#[test]
fn chain_ends_that_tie_unordered_abandon_one_replay() {
    let c = cluster();
    let job = job1(vec![
        ev(0, kernel(10), 1.0),
        ev(0, kernel(20), 1.0),
        ev(1, kernel(5), 4.0),
        ev(1, kernel(20), 1.0),
        ev(0, DeviceOp::DeviceSynchronize, 1.0),
    ]);
    let (reference, events) = simulate_reference_counted(&job, &c, &RowsInUs);
    let reference = reference.unwrap();
    assert_eq!(reference.events_processed, events);
    assert_eq!(reference.total_time, SimTime::from_us(31.0));
    let obs = SimObs::default();
    let sim = Simulator::new(&RowsInUs, &c).with_obs(Some(&obs));
    assert_eq!(sim.run(&job), Ok(reference.clone()));
    assert_eq!(obs.abandoned_replays.get(), 1);
    assert_eq!(obs.events.get(), events, "only the finished replay counts");
    // A reused arena, dirtied by the abandoned replay, does the same.
    let mut scratch = SimScratch::new();
    for _ in 0..2 {
        assert_eq!(
            sim.run_prevalidated(&job, &mut scratch),
            Ok(reference.clone())
        );
    }
    assert_eq!(obs.abandoned_replays.get(), 3);
}

/// The oracle, counting the kernel and collective queries that reach it.
struct Counting {
    oracle: OracleEstimator,
    kernels: std::sync::atomic::AtomicU64,
    collectives: std::sync::atomic::AtomicU64,
}

impl Counting {
    fn new(oracle: OracleEstimator) -> Self {
        Counting {
            oracle,
            kernels: Default::default(),
            collectives: Default::default(),
        }
    }
}

impl RuntimeEstimator for Counting {
    fn kernel_time(&self, kernel: &KernelKind) -> SimTime {
        self.kernels
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.oracle.kernel_time(kernel)
    }
    fn memcpy_time(&self, bytes: u64, kind: MemcpyKind) -> SimTime {
        self.oracle.memcpy_time(bytes, kind)
    }
    fn collective_time(&self, k: CollectiveKind, b: u64, r: &[u32], c: &ClusterSpec) -> SimTime {
        self.collectives
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.oracle.collective_time(k, b, r, c)
    }
    fn name(&self) -> &'static str {
        "counting"
    }
}

/// The GEMMs of `ms`, launched in that order `rounds` times over, then
/// a device sync.
fn launches(ms: &[u64], rounds: usize) -> JobTrace {
    let mut events = Vec::new();
    for _ in 0..rounds {
        events.extend(ms.iter().map(|&m| ev(0, kernel(m), 1.0)));
    }
    events.push(ev(0, DeviceOp::DeviceSynchronize, 1.0));
    job1(events)
}

/// Lowers 1, 2 and 3 rounds of `ms` (all distinct), holds each report
/// to the reference core's, and returns how many of the shapes the
/// table had room for. A shape that fit is asked about once however
/// often it is launched, a shape that did not is asked about once per
/// launch and never more: the queries grow by the same number — the
/// shapes without room — with every round.
fn shapes_that_fit(ms: &[u64]) -> u64 {
    let c = cluster();
    let oracle = OracleEstimator::new(&c);
    let mut scratch = SimScratch::new();
    let queries: Vec<u64> = (1..=3)
        .map(|rounds| {
            let job = launches(ms, rounds);
            let counting = Counting::new(oracle);
            let dense = Simulator::new(&counting, &c).run_prevalidated(&job, &mut scratch);
            assert_eq!(
                dense,
                simulate_reference(&job, &c, &oracle),
                "{rounds} rounds"
            );
            counting.kernels.into_inner()
        })
        .collect();
    let shapes = ms.len() as u64;
    assert_eq!(queries[0], shapes, "one launch of each shape");
    let without_room = queries[1] - queries[0];
    assert_eq!(queries[2] - queries[1], without_room);
    shapes - without_room
}

#[test]
fn shapes_beyond_the_tables_slots_ask_the_estimator_per_launch() {
    let ms: Vec<u64> = (1..=3000).collect();
    let fit = shapes_that_fit(&ms);
    assert!(0 < fit && fit < 3000, "{fit} of 3000 shapes fit");
    // A job's worth of shapes all fit.
    assert_eq!(shapes_that_fit(&ms[..40]), 40);
}

#[test]
fn shapes_that_start_at_one_slot_fill_one_bounded_probe_run() {
    // The table indexes a power-of-two number of slots (far fewer than
    // 2^16) by the digest's low bits, so these all probe from one slot.
    // Were it indexed otherwise they would all fit, and this would say.
    let gemm = |m| match kernel(m) {
        DeviceOp::KernelLaunch { kernel } => kernel,
        _ => unreachable!(),
    };
    let low = |m| shape_digest(&gemm(m)) & 0xFFFF;
    let ms: Vec<u64> = (2..).filter(|&m| low(m) == low(1)).take(24).collect();
    let fit = shapes_that_fit(&ms);
    assert!(0 < fit && fit < 24, "{fit} of 24 colliding shapes fit");
}

#[test]
fn a_reused_arena_keeps_no_duration_of_the_previous_estimator() {
    let c = cluster();
    let oracle = OracleEstimator::new(&c);
    let job = launches(&[64, 128, 64, 4096], 2);
    let mut scratch = SimScratch::new();
    let mut run = |est: &dyn RuntimeEstimator| {
        Simulator::new(est, &c)
            .run_prevalidated(&job, &mut scratch)
            .unwrap()
    };
    let fixed = run(&Fixed);
    let modelled = run(&oracle);
    assert_eq!(fixed.compute_time, SimTime::from_us(800.0));
    assert_ne!(modelled.compute_time, fixed.compute_time);
    assert_eq!(modelled, simulate(&job, &c, &oracle).unwrap());
    assert_eq!(run(&Fixed), fixed);
}

/// Collective durations are remembered per shape: kind, bytes,
/// communicator and a point-to-point op's own end. Two senders to one
/// receiver send the same kind and bytes over one communicator, one
/// within a node and one across nodes; each pair meets twice. Four
/// rendezvous, two questions, and the reference core's answer.
#[test]
fn rendezvous_of_one_shape_ask_the_estimator_once() {
    let c = ClusterSpec::h100(2, 2);
    let oracle = OracleEstimator::new(&c);
    let p2p = |kind, rank_in_comm| DeviceOp::Collective {
        desc: CollectiveDesc {
            kind,
            comm_id: 9,
            seq: 0,
            bytes: 1 << 24,
            nranks: 3,
            rank_in_comm,
        },
    };
    let send = |from| p2p(CollectiveKind::Send { peer: 1 }, from);
    let recv = |from| p2p(CollectiveKind::Recv { peer: from }, 1);
    let worker = |rank, events| {
        let mut w = WorkerTrace::new(rank);
        w.events = events;
        w
    };
    let sync = || ev(0, DeviceOp::StreamSynchronize, 1.0);
    // The senders join first, so theirs are the sites each shape is
    // read from.
    let job = JobTrace {
        nranks: 3,
        workers: vec![
            worker(
                0,
                vec![ev(0, send(0), 1.0), sync(), ev(0, send(0), 1.0), sync()],
            ),
            worker(
                1,
                vec![
                    ev(0, recv(0), 5.0),
                    ev(0, recv(2), 5.0),
                    sync(),
                    ev(0, recv(0), 5.0),
                    ev(0, recv(2), 5.0),
                    sync(),
                ],
            ),
            worker(
                2,
                vec![ev(0, send(2), 1.0), sync(), ev(0, send(2), 1.0), sync()],
            ),
        ],
        comm_groups: BTreeMap::from([(9, vec![0, 1, 2])]),
    };
    let counting = Counting::new(oracle);
    let dense = Simulator::new(&counting, &c).run(&job).unwrap();
    assert_eq!(dense, simulate_reference(&job, &c, &oracle).unwrap());
    assert_eq!(counting.collectives.into_inner(), 2);
    let across = oracle.collective_time(CollectiveKind::Send { peer: 1 }, 1 << 24, &[2, 1], &c);
    let within = oracle.collective_time(CollectiveKind::Send { peer: 1 }, 1 << 24, &[0, 1], &c);
    assert_ne!(across, within, "the two ends are timed apart");
}
