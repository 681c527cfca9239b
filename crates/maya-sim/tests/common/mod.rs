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

// Each test binary uses a different subset.
#![allow(dead_code)]

use std::collections::BTreeMap;

use maya_hw::ClusterSpec;
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
