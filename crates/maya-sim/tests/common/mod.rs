//! Fixed jobs shared by the golden and work-counter tests.
//!
//! `pinned_job` is a hand-built 8-rank, 2-node training-shaped trace:
//! per iteration every rank runs rank-skewed kernels on stream 0, a
//! tensor-parallel all-reduce inside its node pair, a data-parallel
//! all-reduce across nodes on a side stream (ordered by a CUDA event,
//! overlapping the next kernels), a pipeline send/recv to its
//! cross-node peer and, every other iteration, a world all-gather. On a
//! topology the intra-node pairs share their node's fabric link and the
//! cross-node traffic shares the uplinks, so flows start and finish
//! while others are in flight.
//!
//! `drawn` builds the same kind of job from a seed instead: rank and
//! node counts, step list, sizes, host delays, fault plan and hetero
//! pool all follow from it, so a table of seeds pins the contended
//! path over many schedules at once.

// Each test binary uses a different subset.
#![allow(dead_code)]

use std::collections::BTreeMap;

use maya_hw::{ClusterSpec, GpuSpec, HeteroPool, RankClass};
use maya_net::{FaultPlan, RankFailure, StragglerWindow};
use maya_trace::{
    CollectiveDesc, CollectiveKind, DeviceOp, Dtype, JobTrace, KernelKind, SimTime, StreamId,
    TraceEvent, WorkerTrace,
};

pub const RANKS: u32 = 8;
const ITERS: u32 = 6;
const WORLD: u64 = 1;

fn ev(stream: u32, op: DeviceOp) -> TraceEvent {
    TraceEvent {
        stream: StreamId(stream),
        op,
        host_delay: SimTime::from_us(2.0),
    }
}

fn kernel(m: u64) -> DeviceOp {
    DeviceOp::KernelLaunch {
        kernel: KernelKind::Gemm {
            m,
            n: 1024,
            k: 1024,
            dtype: Dtype::Bf16,
        },
    }
}

fn coll(kind: CollectiveKind, comm: u64, seq: u32, bytes: u64, nranks: u32, me: u32) -> DeviceOp {
    DeviceOp::Collective {
        desc: CollectiveDesc {
            kind,
            comm_id: comm,
            seq,
            bytes,
            nranks,
            rank_in_comm: me,
        },
    }
}

fn worker(rank: u32) -> WorkerTrace {
    let tp_comm = 10 + (rank / 2) as u64;
    let dp_comm = 20 + (rank % 4) as u64;
    let (tp_me, dp_me) = (rank % 2, rank / 4);
    let mut w = WorkerTrace::new(rank);
    for it in 0..ITERS {
        let m = 2048 + 256 * rank as u64 + 512 * it as u64;
        w.events.push(ev(0, kernel(m)));
        w.events.push(ev(
            0,
            coll(CollectiveKind::AllReduce, tp_comm, it, 8 << 20, 2, tp_me),
        ));
        w.events.push(ev(0, kernel(m / 2)));
        w.events.push(ev(
            0,
            DeviceOp::EventRecord {
                event: 7,
                version: it + 1,
            },
        ));
        w.events.push(ev(
            1,
            DeviceOp::StreamWaitEvent {
                event: 7,
                version: it + 1,
            },
        ));
        w.events.push(ev(
            1,
            coll(
                CollectiveKind::AllReduce,
                dp_comm,
                2 * it,
                32 << 20,
                2,
                dp_me,
            ),
        ));
        w.events.push(ev(0, kernel(m)));
        let p2p = if dp_me == 0 {
            CollectiveKind::Send { peer: 1 }
        } else {
            CollectiveKind::Recv { peer: 0 }
        };
        w.events
            .push(ev(2, coll(p2p, dp_comm, 2 * it + 1, 4 << 20, 2, dp_me)));
        if it % 2 == 1 {
            w.events.push(ev(
                0,
                coll(CollectiveKind::AllGather, WORLD, it, 16 << 20, RANKS, rank),
            ));
            w.events.push(ev(1, DeviceOp::StreamSynchronize));
        }
    }
    w.events.push(ev(0, DeviceOp::DeviceSynchronize));
    w
}

pub fn pinned_job() -> JobTrace {
    let mut comm_groups = BTreeMap::new();
    comm_groups.insert(WORLD, (0..RANKS).collect());
    for p in 0..RANKS / 2 {
        comm_groups.insert(10 + p as u64, vec![2 * p, 2 * p + 1]);
    }
    for d in 0..RANKS / 2 {
        comm_groups.insert(20 + d as u64, vec![d, d + RANKS / 2]);
    }
    JobTrace {
        nranks: RANKS,
        workers: (0..RANKS).map(worker).collect(),
        comm_groups,
    }
}

pub fn flat_cluster() -> ClusterSpec {
    ClusterSpec::h100(2, RANKS / 2)
}

pub fn contended_cluster() -> ClusterSpec {
    flat_cluster().with_default_topology()
}

/// Two straggler windows and two mid-run failures. Both failures strike
/// a rank whose host still has ops to issue, so the restart cost bumps
/// `host_time` between two of its enqueues.
pub fn pinned_faults() -> FaultPlan {
    FaultPlan {
        seed: 0,
        stragglers: vec![
            StragglerWindow {
                rank: 3,
                start: SimTime::from_us(10.0),
                end: SimTime::from_ms(2.0),
                slowdown: 2.5,
            },
            StragglerWindow {
                rank: 6,
                start: SimTime::ZERO,
                end: SimTime::from_us(400.0),
                slowdown: 1.75,
            },
        ],
        failures: vec![
            RankFailure {
                rank: 5,
                at: SimTime::from_us(30.0),
                restart_cost: SimTime::from_us(250.0),
            },
            RankFailure {
                rank: 0,
                at: SimTime::from_ms(1.5),
                restart_cost: SimTime::from_us(600.0),
            },
        ],
    }
}

/// splitmix64: the deterministic stream `drawn` takes its choices from.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One step of a drawn job, lowered identically on every rank.
#[derive(Clone, Copy)]
enum Step {
    Kernel {
        stream: u32,
        m: u64,
    },
    /// All-reduce inside the rank's pair (ranks `2p`, `2p + 1`) on
    /// stream 0; a rank without a pair skips it.
    PairAllReduce {
        bytes: u64,
    },
    /// Stream 1 waits for stream 0, then all-reduces with the rank half
    /// a world away (across nodes when there are two).
    CrossAllReduce {
        bytes: u64,
    },
    /// Send from the lower half to the upper on stream 2.
    CrossSendRecv {
        bytes: u64,
    },
    /// World all-gather on stream 0.
    WorldAllGather {
        bytes: u64,
    },
    Memcpy {
        bytes: u64,
        sync: bool,
    },
    StreamSync {
        stream: u32,
    },
}

fn draw_step(state: &mut u64) -> Step {
    let mib = |state: &mut u64, lo: u64, hi: u64| (lo + next(state) % (hi - lo)) << 20;
    match next(state) % 10 {
        0..=2 => Step::Kernel {
            stream: (next(state) % 3) as u32,
            m: 512 + 256 * (next(state) % 16),
        },
        3 => Step::PairAllReduce {
            bytes: mib(state, 1, 32),
        },
        4 => Step::CrossAllReduce {
            bytes: mib(state, 4, 64),
        },
        5 => Step::CrossSendRecv {
            bytes: mib(state, 1, 16),
        },
        6 => Step::WorldAllGather {
            bytes: mib(state, 1, 24),
        },
        7 => Step::Memcpy {
            bytes: mib(state, 1, 8),
            sync: next(state) % 4 == 0,
        },
        _ => Step::StreamSync {
            stream: (next(state) % 3) as u32,
        },
    }
}

/// Communicator ids of a drawn job, besides [`WORLD`].
const PAIR: u64 = 10;
const CROSS: u64 = 20;

/// One rank's events for the shared step list. Every communicator is
/// used from one stream, every member issues its collectives in step
/// order, and stream 1 only ever waits on stream 0, so a drawn job
/// never deadlocks.
fn drawn_worker(rank: u32, nranks: u32, steps: &[Step], delays: &[u32]) -> WorkerTrace {
    let half = nranks / 2;
    let pair = (rank / 2 < half).then_some((PAIR + (rank / 2) as u64, rank % 2));
    let cross = if rank < half {
        Some((CROSS + rank as u64, 0))
    } else if rank < 2 * half {
        Some((CROSS + (rank - half) as u64, 1))
    } else {
        None
    };
    let mut seq = BTreeMap::<u64, u32>::new();
    let mut take = |comm: u64| {
        let s = seq.entry(comm).or_default();
        *s += 1;
        *s - 1
    };
    let mut w = WorkerTrace::new(rank);
    let mut push = |stream: u32, op: DeviceOp| {
        let delay = delays[w.events.len() % delays.len()];
        w.events.push(TraceEvent {
            stream: StreamId(stream),
            op,
            host_delay: SimTime::from_us(f64::from(delay)),
        });
    };
    for (i, &step) in steps.iter().enumerate() {
        match step {
            Step::Kernel { stream, m } => push(stream, kernel(m + 128 * rank as u64)),
            Step::PairAllReduce { bytes } => {
                if let Some((comm, me)) = pair {
                    let s = take(comm);
                    push(0, coll(CollectiveKind::AllReduce, comm, s, bytes, 2, me));
                }
            }
            Step::CrossAllReduce { bytes } => {
                let version = i as u32 + 1;
                push(0, DeviceOp::EventRecord { event: 3, version });
                push(1, DeviceOp::StreamWaitEvent { event: 3, version });
                if let Some((comm, me)) = cross {
                    let s = take(comm);
                    push(1, coll(CollectiveKind::AllReduce, comm, s, bytes, 2, me));
                }
            }
            Step::CrossSendRecv { bytes } => {
                if let Some((comm, me)) = cross {
                    let kind = if me == 0 {
                        CollectiveKind::Send { peer: 1 }
                    } else {
                        CollectiveKind::Recv { peer: 0 }
                    };
                    let s = take(comm);
                    push(2, coll(kind, comm, s, bytes, 2, me));
                }
            }
            Step::WorldAllGather { bytes } => {
                let s = take(WORLD);
                push(
                    0,
                    coll(CollectiveKind::AllGather, WORLD, s, bytes, nranks, rank),
                );
            }
            Step::Memcpy { bytes, sync } => push(
                2,
                DeviceOp::MemcpyAsync {
                    bytes,
                    kind: maya_trace::MemcpyKind::HostToDevice,
                    sync,
                },
            ),
            Step::StreamSync { stream } => push(stream, DeviceOp::StreamSynchronize),
        }
    }
    push(0, DeviceOp::DeviceSynchronize);
    w
}

/// A seed-drawn job and its flat cluster: 2–8 ranks on 1–2 nodes and
/// 12–40 steps of kernels on three streams, pair, cross and world
/// collectives, point-to-point sends, copies and syncs.
pub fn drawn(seed: u64) -> (JobTrace, ClusterSpec) {
    let mut state = seed;
    let nranks = 2 + (next(&mut state) % 7) as u32;
    let nodes = 1 + (next(&mut state) % 2) as u32;
    let steps: Vec<Step> = (0..12 + next(&mut state) % 29)
        .map(|_| draw_step(&mut state))
        .collect();
    let delays: Vec<u32> = (0..7).map(|_| 1 + (next(&mut state) % 5) as u32).collect();
    let half = nranks / 2;
    let mut comm_groups = BTreeMap::new();
    comm_groups.insert(WORLD, (0..nranks).collect());
    for p in 0..half {
        comm_groups.insert(PAIR + p as u64, vec![2 * p, 2 * p + 1]);
        comm_groups.insert(CROSS + p as u64, vec![p, p + half]);
    }
    let job = JobTrace {
        nranks,
        workers: (0..nranks)
            .map(|r| drawn_worker(r, nranks, &steps, &delays))
            .collect(),
        comm_groups,
    };
    (job, ClusterSpec::h100(nodes, nranks.div_ceil(nodes)))
}

/// The imperfect twin of a drawn setup: [`drawn_topology`] under a
/// fault plan drawn from `seed` over the clean run's `horizon`.
pub fn drawn_contended(
    flat: &ClusterSpec,
    nranks: u32,
    horizon: SimTime,
    seed: u64,
) -> (ClusterSpec, FaultPlan) {
    let plan = FaultPlan::generate(seed, nranks, horizon);
    (drawn_topology(flat, nranks, seed), plan)
}

/// The flat cluster with its default link topology and, on odd seeds,
/// an older GPU generation under the first `seed`-drawn ranks.
pub fn drawn_topology(flat: &ClusterSpec, nranks: u32, seed: u64) -> ClusterSpec {
    let cluster = flat.clone().with_default_topology();
    if seed % 2 == 0 {
        return cluster;
    }
    cluster.with_hetero(HeteroPool::new(vec![RankClass {
        gpu: GpuSpec::v100(),
        count: 1 + (seed >> 1) as u32 % nranks,
    }]))
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A seed-drawn job of long run-ahead chains and its flat cluster: 2–4
/// ranks on one node, 2–5 rounds. A round is a world all-reduce on
/// stream 0 that records an event, on which streams 1 and 2 both wait
/// before each runs the same 32–256 kernels, issued alternately or one
/// run after the other. Then one of the two records a second event and
/// the other waits on it: the order in which their chains end decides
/// whether the wait blocks, and when both end in one instant a block
/// released then counts no wake-up, so the count is the same either
/// way (`engine.rs`'s module docs, "The order of an instant"). Every
/// other round ends in a device sync. Host delays of 0.25–1 µs keep the
/// host far ahead of its kernels, so each run is issued before it
/// starts and runs as one chain.
///
/// A kernel's GEMM has `u` rows, `u` drawn from 2–9, or on seeds with
/// bit 1 set `512 u`: whole microseconds under an estimator that times
/// `m` rows as `m` µs, so pumps land on chain starts, and the oracle's
/// durations on the others. Each rank's two runs start twin chains, and
/// every rank runs the same kernels, so the ranks one rendezvous
/// releases start twins too. On even seeds the ranks are identical; on
/// odd seeds rank `r` takes its host delays from the palette rotated by
/// `r`, so other pumps land on one twin's chain starts and not on the
/// other's.
pub fn long_chains(seed: u64) -> (JobTrace, ClusterSpec) {
    let mut state = seed ^ 0x10c4_a115;
    let nranks = 2 + (next(&mut state) % 3) as u32;
    let scale = if seed & 2 == 0 { 1 } else { 512 };
    let delays: Vec<u64> = (0..5).map(|_| 250 << (next(&mut state) % 3)).collect();
    let rounds: Vec<Round> = (0..2 + next(&mut state) % 4)
        .map(|round| Round {
            units: (0..32 + next(&mut state) % 225)
                .map(|_| 2 + next(&mut state) % 8)
                .collect(),
            alternate: next(&mut state) % 2 == 0,
            recorder: 1 + (next(&mut state) % 2) as u32,
            bytes: (1 + next(&mut state) % 16) << 20,
            sync: round % 2 == 1,
        })
        .collect();
    let worker = |rank: u32| {
        let skew = (seed % 2) as usize * rank as usize;
        let mut w = WorkerTrace::new(rank);
        let mut push = |stream: u32, op: DeviceOp| {
            let delay = delays[(w.events.len() + skew) % delays.len()];
            w.events.push(TraceEvent {
                stream: StreamId(stream),
                op,
                host_delay: SimTime::from_ns(delay),
            });
        };
        for (seq, round) in (0u32..).zip(&rounds) {
            let version = seq + 1;
            let all_reduce = coll(
                CollectiveKind::AllReduce,
                WORLD,
                seq,
                round.bytes,
                nranks,
                rank,
            );
            push(0, all_reduce);
            push(0, DeviceOp::EventRecord { event: 1, version });
            for stream in [1, 2] {
                push(stream, DeviceOp::StreamWaitEvent { event: 1, version });
            }
            let kernels = round.units.iter().map(|&u| kernel(scale * u));
            if round.alternate {
                for k in kernels {
                    push(1, k);
                    push(2, k);
                }
            } else {
                for stream in [1, 2] {
                    kernels.clone().for_each(|k| push(stream, k));
                }
            }
            push(round.recorder, DeviceOp::EventRecord { event: 2, version });
            push(
                3 - round.recorder,
                DeviceOp::StreamWaitEvent { event: 2, version },
            );
            if round.sync {
                push(0, DeviceOp::DeviceSynchronize);
            }
        }
        push(0, DeviceOp::DeviceSynchronize);
        w
    };
    let job = JobTrace {
        nranks,
        workers: (0..nranks).map(worker).collect(),
        comm_groups: BTreeMap::from([(WORLD, (0..nranks).collect())]),
    };
    (job, ClusterSpec::h100(1, nranks))
}

/// One round of a [`long_chains`] job.
struct Round {
    /// The kernels of each of the two runs, in units of rows.
    units: Vec<u64>,
    /// Whether the host issues the two runs' kernels alternately.
    alternate: bool,
    /// The stream that records the round's second event; the other
    /// waits on it.
    recorder: u32,
    bytes: u64,
    sync: bool,
}
