//! The discrete-event simulation engine (Algorithms 1-3).
//!
//! A run is *lower, then replay*. Lowering reads each worker's trace
//! exactly once and writes a compact **replay program** into the
//! [`SimScratch`] arena: per worker a dense array of 32-byte ops, half
//! a cache line each, and a column of their host delays, each op
//! carrying its interned stream slot and a payload that is already
//! resolved — the estimated duration of a kernel or memcpy, the dense
//! slot of a CUDA event's `(event, version)` key, or the index of a
//! collective's call site in the worker's dense site table, which
//! names its communicator's members and present-participant count. It
//! goes worker by worker ([`Lowering::worker`], in rank order), so a
//! worker's trace can be dropped as soon as it is lowered: the
//! prediction engine lowers each trace the collator keeps as it is
//! kept. A call site is recorded with its descriptor only; once every
//! worker is lowered, [`Lowering::resolve`] makes one pass over the
//! sites against the job's communicator map, which the caller may only
//! then know, and raises [`JobTrace::validate`]'s two site errors in its
//! words. [`Simulator::lower`] runs these steps over a [`JobTrace`] in
//! hand. A kernel's duration is a fact about
//! its shape, and a job launches thousands of kernels over tens of
//! shapes: lowering keeps the job's shapes in a small table in the
//! arena (fixed size, keyed by [`maya_trace::shape_digest`], see
//! [`SimScratch`]) and asks the estimator once per distinct shape, not
//! once per launch.
//! [`Lowered::replay`] then runs the event loop over the program alone:
//! it never sees the trace, the estimator (except to time a collective
//! the first time a rendezvous of its shape completes; each
//! communicator remembers its shapes) or a hash of a stream, event or
//! rendezvous id.
//! [`Simulator::run`] and [`Simulator::run_prevalidated`] are the two
//! halves back to back; the prediction engine calls them apart to time
//! them apart. A replay never writes what lowering wrote — an op's host
//! delay, link and payload, a stream's first op, the sites — and
//! rewinds its own state before it starts, so one program replays any
//! number of times with the same report.
//!
//! Nothing is queued twice. A host thread runs far ahead of its device
//! — at the high-water mark nearly every op of the trace has been
//! issued and not yet run — so what is parked must be small, and here
//! it is nothing beyond the program: issuing an op writes its issue
//! instant and its sequence stamp *into the op*, a stream's queue is a
//! cursor (`StreamSim::head`) following the ops' `next` links up to
//! the host's cursor, and a rank's *issue lane* — its pending
//! `IssuePump`s, of which only the head sits in the binary
//! heap — is a second cursor (`RankSim::lane_next`) over the same
//! ops. The heap therefore holds about one entry per rank plus the
//! in-flight completions, and events still pop in exactly the `(at,
//! seq)` total order a single heap would give. A rendezvous takes its
//! participant list from a pool of emptied ones. Once the arena is
//! warm, a replay still allocates its report's `rank_end_times`, and a
//! pooled list can grow: the pool hands lists out in the order the last
//! replay's rendezvous returned them, so a list may go to a larger
//! rendezvous than it served before. A count of every allocation over
//! the second replays of 96 `drawn` lowerings (flat, topology and
//! contended) found the report in all 96 and a grown list in 31.
//!
//! **Elision invariant.** A stream's `busy_until` never decreases:
//! every write is `now + dur`, a `max(..)` or `+ cost`. An issue pump
//! due at `at` whose stream already has `busy_until > at` would
//! therefore return at `pump`'s first check whenever it ran; when such
//! a pump reaches the head of its lane it is counted
//! (`events_processed`, `pending`) and dropped instead of entering the
//! heap. Lanes advance *after* the popped pump is handled, so the pump
//! that starts a kernel elides the followers that kernel covers.
//!
//! **Parking.** A stream that is *blocked* (rendezvous, event wait) but
//! not busy says nothing about when it will be free, but it does say
//! that every pump due before its release is a no-op. So when a lane
//! reaches a pump of a blocked stream, the pump is *parked* on the
//! stream's sub-lane instead of entering the heap: a third cursor
//! (`StreamSim::lane`) over the stream's own `next` chain, holding
//! every pump of the stream the rank's lane has passed since the first
//! one parked — later pumps of the stream park behind it, blocked or
//! not, so the sub-lane is a contiguous run of the chain and needs no
//! mark on the op. A stream is unblocked in exactly three places: a
//! `Record` waking its waiters, a flat rendezvous resolving and a flow
//! finishing. Each releases the sub-lane: a parked pump due before the
//! releasing event in `(at, seq)` order, or before the stream's new
//! `busy_until`, is counted and dropped, and the next enters the heap
//! at its own `(at, seq)`. As in a rank's lane only the head is in the
//! heap, and handling it promotes the next — unless the stream is
//! blocked again, when the rest wait for the next release. Pumps still
//! parked when the heap drains are counted there. Every issued pump is
//! thus counted once, popped or not, and `events_processed` is what a
//! core without lanes pops.
//!
//! **Run-ahead.** A kernel's completion pops only to start the next op
//! on its stream, so when that op is a kernel the host has already
//! issued, nothing else observes the completion. `pump` therefore
//! starts a *chain*: the kernel it starts and the kernels behind it
//! back to back, one after another while the next op is an
//! `OpKind::Kernel`, is issued (below `RankSim::next_op`) and is due by
//! the chain's running end, and the kernel before it lasts longer than
//! zero (a zero-length completion pops after the other events of its
//! instant). Any other op ends the chain. Each kernel's time goes to
//! `busy_until` and `compute_busy` as it would one by one, each skipped
//! completion is counted into `events_processed`, and one pump is
//! pushed at the chain's end. A hetero pool's scale is a
//! rank's, applied as lowering reads a kernel's estimate, and a
//! straggler window's (`FaultPlan::slowdown` at a kernel's issue
//! instant) is applied as `pump` writes the chain, so a straggling
//! kernel chains like any other.
//! *Failures.* Under a fault plan a kernel joins a chain only if it
//! starts strictly before its rank's next failure after the clock. A
//! `Fault` is stamped as the replay starts, so it pops before every
//! pump at its instant: a kernel due to start at or after a failure is
//! started, as in a core without run-ahead, by a pump that sees the
//! stream the failure extended. A failure therefore lands only inside a
//! chain's last kernel, which has started in both cores by then.
//! `apply_fault` moves the stream's `busy_until` from the chain's end to
//! that end plus the restart cost, as it moves a lone kernel's end, and
//! the chain end pops at the old end as a no-op, as that kernel's
//! completion does.
//! *Hosts see the queue of a core without run-ahead.*
//! `StreamSim::ahead` is the start of the chain's last kernel, and
//! every host-side read of a stream's queue (`park_host_on_drain`,
//! `DeviceSync`) counts a chained kernel starting after the clock as
//! still queued. This is exact: a host dispatch pops after every other
//! event due in its instant (below), the completion that starts a
//! chained kernel then included.
//! Unlike dslab's `ordered_events` queue, a chain needs no queue beside
//! the heap: nobody reads the middle of a chain.
//!
//! **The order of an instant.** A run-ahead chain's end is stamped when
//! the chain starts, where a core without run-ahead stamps the last
//! completion at the last kernel's start, so the two cores can pop the
//! events due in one instant in different orders. Three rules, kept by
//! this core and by the reference core alike, make that order
//! irrelevant:
//! - (i) a rendezvous is timed by the descriptor of its earliest
//!   arrival, the lower rank's on a tie, so a point-to-point pair is
//!   timed by the same end whichever joins first;
//! - (ii) a stream or host block released in the instant it began
//!   counts no wake-up (`SimScratch::wake`), so a stream that blocks on
//!   an event recorded later in its instant counts what it counts when
//!   the record pops first;
//! - (iv) a host dispatch pops after every other event due in its
//!   instant: its stamp carries `HOST`, a class bit above every other
//!   stamp, so the heap's key stays one integer compare. A woken host
//!   reads its streams' queues, and a device sync counts its streams
//!   down, once the instant's completions have run.
//!
//! The law: any order of an instant's events within each class, host
//! dispatches and the rest, gives the same report, `events_processed`
//! included. `tests/props.rs` holds the reference core to it under
//! seeded within-class orders. (A rule (iii), counting a device sync
//! down once per stream it waits on, would mend a fault that the order
//! does not move, and is not part of the model.)
//!
//! **Flow completions.** On a topology every rendezvous becomes a flow
//! ([`FlowNet`]), and every flow start or finish re-converges the net
//! and moves every live flow's completion time. A completion that
//! fires finishes its flow, so of the completions one convergence
//! schedules — one per live flow — only the `(at, seq)`-earliest can
//! fire, and only if nothing re-converges first. That one waits in a
//! slot beside the heap (`SimScratch::flow_due`) and `pop` takes it
//! when it is due before the heap's top; the others, and the slot's
//! occupant when a convergence supersedes it, are counted off then,
//! each of which would have popped as a no-op. Each communicator
//! remembers its collective shapes' wire bytes, route and latency,
//! and the routes live in one arena buffer. The flow model keeps only
//! in-flight flows, so a topology run costs about what a flat one
//! does. All mutable state
//! lives in the reusable [`SimScratch`]; reuse skips the arena's
//! allocations, which on a large trace is a small share of a run (the
//! pages are touched either way). The pre-optimization core is kept as
//! a test oracle in `tests/reference` and equivalence is enforced by
//! test: both cores must produce byte-identical [`SimReport`]s,
//! `events_processed` included.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

use maya_estimator::RuntimeEstimator;
use maya_hw::{ClusterSpec, TopologySpec};
use maya_net::{FaultPlan, FlowNet};

use maya_trace::{
    shape_digest, validate_site, CollectiveDesc, CollectiveKind, DeviceOp, JobTrace, KernelKind,
    SimTime, StreamId, WorkerTrace,
};

use crate::report::SimReport;

/// Simulation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The trace was structurally invalid.
    InvalidTrace(String),
    /// Progress stopped with unfinished ranks (mismatched collectives or
    /// waits that can never fire).
    Deadlock {
        /// Ranks that never finished.
        stuck_ranks: Vec<u32>,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidTrace(m) => write!(f, "invalid trace: {m}"),
            SimError::Deadlock { stuck_ranks } => {
                write!(f, "simulation deadlocked; stuck ranks {stuck_ranks:?}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Key of a collective rendezvous.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct CollKey {
    comm: u64,
    seq: u32,
    pair: (u32, u32),
}

impl CollKey {
    fn from_desc(d: &CollectiveDesc) -> Self {
        let pair = match d.kind {
            CollectiveKind::Send { peer } | CollectiveKind::Recv { peer } => {
                (d.rank_in_comm.min(peer), d.rank_in_comm.max(peer))
            }
            _ => (u32::MAX, u32::MAX),
        };
        CollKey {
            comm: d.comm_id,
            seq: d.seq,
            pair,
        }
    }
}

/// "No op": compares above every index into a worker's ops.
const NONE: u32 = u32::MAX;

/// The class bit of a host dispatch's sequence stamp: above every
/// stamp, so that a host dispatch pops after every other event due in
/// its instant (module docs, "The order of an instant").
const HOST: u64 = 1 << 63;

/// What one lowered trace event does, with everything the replay would
/// otherwise look up already resolved.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum OpKind {
    /// `Malloc` / `Free`: only the host delay is replayed.
    HostOnly,
    /// Kernel launch with its estimated duration, scaled by the rank's
    /// GPU generation in a hetero pool. A straggler window depends on
    /// the issue instant and scales the kernel as it starts.
    Kernel {
        dur: SimTime,
    },
    /// Memcpy with its estimated duration; `sync` parks the host until
    /// the stream drains.
    Memcpy {
        dur: SimTime,
        sync: bool,
    },
    /// `cudaEventRecord` on the dense slot of its `(event, version)`.
    Record {
        slot: u32,
    },
    /// `cudaStreamWaitEvent`. `zero` is the CUDA never-recorded
    /// sentinel (`version == 0`): the wait is satisfied even if the
    /// slot never fires.
    Wait {
        slot: u32,
        zero: bool,
    },
    /// `cudaEventSynchronize`, with the same `zero` rule.
    EventSync {
        slot: u32,
        zero: bool,
    },
    StreamSync,
    DeviceSync,
    /// NCCL collective: index into the worker's [`RankSim::sites`].
    Join {
        site: u32,
    },
}

impl OpKind {
    /// Whether the host hands the op to its stream, scheduling an issue
    /// pump for it; the rest only move the host.
    fn enqueues(self) -> bool {
        matches!(
            self,
            OpKind::Kernel { .. }
                | OpKind::Memcpy { .. }
                | OpKind::Record { .. }
                | OpKind::Wait { .. }
                | OpKind::Join { .. }
        )
    }
}

/// [`OpKind`]'s variant, as an [`Op`] holds it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tag {
    HostOnly,
    Kernel,
    Memcpy,
    Record,
    Wait,
    EventSync,
    StreamSync,
    DeviceSync,
    Join,
}

/// One op of the replay program. Lowering writes `next`, `stream` and
/// the kind, and the op's host delay beside it ([`RankSim::delays`]),
/// which no replay changes; a replay writes `at` and `seq` when it
/// issues the op and reads them only after that, so a program replays
/// any number of times.
///
/// 32 bytes, half a cache line, and aligned to 32, so no op straddles
/// two lines (half of a 40-byte op array's ops do). An [`OpKind`]
/// takes 16 bytes, its one-byte tag padded to its 8-byte duration, so
/// the op holds it packed: [`Op::new`] encodes it into `tag`, `flag`
/// and `arg`, and [`Op::kind`] decodes the `OpKind` every `match`
/// reads. No payload is narrowed: a duration keeps all 64 bits in
/// `arg`. Only the stream slot is, to `u16`, and lowering refuses a
/// worker with more streams than that holds. What the size is worth:
/// [`RankSim::delays`].
#[derive(Clone, Copy, Debug)]
#[repr(align(32))]
struct Op {
    /// The issue instant, set when the host issues the op: when it
    /// becomes ready on its stream and when its issue pump is due.
    at: SimTime,
    /// Sequence stamp of the op's issue pump, set when it is issued.
    seq: u64,
    /// The kind's payload: a kernel's or memcpy's duration in ns, an
    /// event slot or a site index.
    arg: u64,
    /// The next op this worker enqueues on the same stream.
    next: u32,
    /// Dense per-worker slot of the op's stream.
    stream: u16,
    tag: Tag,
    /// A memcpy's `sync`, a wait's or event sync's `zero`.
    flag: bool,
}

const _: () = assert!(std::mem::size_of::<Op>() == 32 && std::mem::align_of::<Op>() == 32);
/// Issuing, elision, parking and `pump` read a [`StreamSim`] on every
/// event, so it holds only what they read: six words.
const _: () = assert!(std::mem::size_of::<StreamSim>() <= 48);

impl Op {
    /// A lowered op on stream slot `stream`, not yet issued or linked.
    fn new(stream: u16, kind: OpKind) -> Op {
        let (tag, flag, arg) = match kind {
            OpKind::HostOnly => (Tag::HostOnly, false, 0),
            OpKind::Kernel { dur } => (Tag::Kernel, false, dur.as_ns()),
            OpKind::Memcpy { dur, sync } => (Tag::Memcpy, sync, dur.as_ns()),
            OpKind::Record { slot } => (Tag::Record, false, slot.into()),
            OpKind::Wait { slot, zero } => (Tag::Wait, zero, slot.into()),
            OpKind::EventSync { slot, zero } => (Tag::EventSync, zero, slot.into()),
            OpKind::StreamSync => (Tag::StreamSync, false, 0),
            OpKind::DeviceSync => (Tag::DeviceSync, false, 0),
            OpKind::Join { site } => (Tag::Join, false, site.into()),
        };
        Op {
            at: SimTime::ZERO,
            seq: 0,
            arg,
            next: NONE,
            stream,
            tag,
            flag,
        }
    }

    /// What the op does: the [`OpKind`] [`Op::new`] encoded.
    #[inline]
    fn kind(&self) -> OpKind {
        // A slot or site was a `u32` when encoded.
        let (flag, arg, slot) = (self.flag, self.arg, self.arg as u32);
        match self.tag {
            Tag::HostOnly => OpKind::HostOnly,
            Tag::Kernel => OpKind::Kernel {
                dur: SimTime::from_ns(arg),
            },
            Tag::Memcpy => OpKind::Memcpy {
                dur: SimTime::from_ns(arg),
                sync: flag,
            },
            Tag::Record => OpKind::Record { slot },
            Tag::Wait => OpKind::Wait { slot, zero: flag },
            Tag::EventSync => OpKind::EventSync { slot, zero: flag },
            Tag::StreamSync => OpKind::StreamSync,
            Tag::DeviceSync => OpKind::DeviceSync,
            Tag::Join => OpKind::Join { site: slot },
        }
    }

    /// The op parked behind this one on its stream's sub-lane, given
    /// the rank's lane cursor: the stream's next op if the lane has
    /// passed it (module docs, "Parking"), else [`NONE`].
    fn parked_after(&self, lane_next: u32) -> u32 {
        if self.next < lane_next {
            self.next
        } else {
            NONE
        }
    }
}

/// A collective call site of one worker. Lowering a worker records the
/// descriptor; `group` and `required` wait for the communicator map
/// and are filled in by [`Lowering::resolve`].
#[derive(Clone, Copy, Debug)]
struct JoinSite {
    desc: CollectiveDesc,
    /// The communicator's index in [`Program::groups`].
    group: u32,
    /// How many participants the rendezvous waits for: the present
    /// ones, in a possibly-sparse job.
    required: u32,
}

/// A communicator: its members as a range of [`Program::members`].
#[derive(Clone, Copy, Debug)]
struct Group {
    start: usize,
    len: usize,
    /// Members that have a worker trace in this job.
    present: u32,
}

/// The job-wide part of a replay program (see the module docs): the
/// communicator map as dense tables. The ops themselves are per worker
/// ([`RankSim::ops`]).
#[derive(Default)]
struct Program {
    /// Communicator ids in the job's (sorted) order; a communicator's
    /// position is its index in `groups`.
    comm_ids: Vec<u64>,
    groups: Vec<Group>,
    members: Vec<u32>,
    /// The ranks of the workers lowered, in their (ascending) order.
    present: Vec<u32>,
    peak_mem_bytes: u64,
}

impl Program {
    /// Global ranks of communicator `group`, indexed by rank in the
    /// communicator.
    fn members_of(&self, group: u32) -> &[u32] {
        self.groups
            .get(group as usize)
            .and_then(|g| self.members.get(g.start..g.start + g.len))
            .unwrap_or(&[])
    }

    /// Whether `rank` has a worker in the job.
    fn is_present(&self, rank: u32) -> bool {
        self.present.binary_search(&rank).is_ok()
    }

    /// Copies the job's communicator map into dense tables, counting
    /// each communicator's members among `present`'s ranks.
    fn load_groups(&mut self, comm_groups: &BTreeMap<u64, Vec<u32>>) {
        self.comm_ids.clear();
        self.groups.clear();
        self.members.clear();
        for (&comm, members) in comm_groups {
            self.comm_ids.push(comm);
            self.groups.push(Group {
                start: self.members.len(),
                len: members.len(),
                present: members.iter().filter(|&&m| self.is_present(m)).count() as u32,
            });
            self.members.extend_from_slice(members);
        }
    }

    /// Resolves a collective call site of worker `rank` against the
    /// communicator map; `Err` in [`JobTrace::validate`]'s words if the
    /// map does not list the communicator or gives it another size.
    fn site(&self, rank: u32, desc: CollectiveDesc) -> Result<JoinSite, SimError> {
        let group = self.comm_ids.binary_search(&desc.comm_id);
        let members = group.ok().map(|g| self.members_of(g as u32));
        validate_site(rank, &desc, members).map_err(SimError::InvalidTrace)?;
        let group = group.unwrap_or_default() as u32;
        let required = match desc.kind {
            CollectiveKind::Send { peer } | CollectiveKind::Recv { peer } => {
                let members = self.members_of(group);
                let ends = [desc.rank_in_comm, peer];
                let present = ends
                    .iter()
                    .filter_map(|&i| members.get(i as usize))
                    .filter(|&&rank| self.is_present(rank));
                present.count() as u32
            }
            _ => self.groups.get(group as usize).map_or(0, |g| g.present),
        };
        Ok(JoinSite {
            desc,
            group,
            required: required.max(1),
        })
    }
}

/// Why a stream is not making progress.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum StreamBlock {
    Event { slot: u32 },
    Collective,
}

/// One stream of a worker: `first` is lowering's, and `tail` while it
/// lowers; the rest is a replay's and [`StreamSim::rewind`] resets it.
#[derive(Clone, Copy)]
struct StreamSim {
    /// The first op linked onto this stream.
    first: u32,
    /// Lowering only: the last op linked onto this stream.
    tail: u32,
    /// Queue cursor: the oldest op enqueued here that has not started.
    /// The queue is the chain of `Op::next` links from `head` up to the
    /// host's cursor — ops at or past `RankSim::next_op` are not issued
    /// yet.
    head: u32,
    busy_until: SimTime,
    /// The instant the last kernel of the stream's latest run-ahead
    /// chain starts (module docs, "Run-ahead"): until the clock passes
    /// it, the chained kernels starting later are still queued to a
    /// host.
    ahead: SimTime,
    blocked: Option<StreamBlock>,
    /// Sub-lane cursor: the oldest op here whose issue pump is parked
    /// (module docs, "Parking"), or [`NONE`]. The sub-lane is the chain
    /// of `Op::next` links from `lane` through the ops the rank's lane
    /// has passed (below `RankSim::lane_next`): once a stream has a
    /// parked pump, every later pump of the stream parks behind it.
    lane: u32,
    /// Whether the sub-lane's head sits in the heap.
    lane_queued: bool,
}

impl StreamSim {
    const IDLE: StreamSim = StreamSim {
        first: NONE,
        tail: NONE,
        head: NONE,
        busy_until: SimTime::ZERO,
        ahead: SimTime::ZERO,
        blocked: None,
        lane: NONE,
        lane_queued: false,
    };

    /// The stream as a replay starts: idle, its queue at its first op.
    fn rewind(&mut self) {
        *self = StreamSim {
            first: self.first,
            head: self.first,
            ..StreamSim::IDLE
        };
    }

    /// Whether no issued op waits here at the clock's `now`, given the
    /// host's cursor. A run-ahead kernel starting after `now` still
    /// waits: it is past `head`, but the core without run-ahead has
    /// not started it yet.
    fn queue_is_empty(&self, next_op: u32, now: SimTime) -> bool {
        self.head >= next_op && self.ahead <= now
    }

    /// Whether the stream is idle by `until`, as seen at the clock's
    /// `now`.
    fn drained(&self, until: SimTime, now: SimTime, next_op: u32) -> bool {
        self.queue_is_empty(next_op, now) && self.blocked.is_none() && self.busy_until <= until
    }
}

/// Why a host thread is parked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum HostBlock {
    Event { slot: u32 },
    StreamDrain { si: usize },
    DeviceDrain { remaining: u32 },
}

/// Per-rank simulation state.
///
/// Streams live in a dense `Vec` indexed by per-worker *slots*: raw
/// [`StreamId`]s are interned once at lowering (order of first
/// appearance) and every op carries its slot. CUDA-event
/// `(event, version)` keys get the same treatment, turning the event
/// wait map (`fired`) and waiter registry (`event_waiters`) into dense
/// `Vec`s — the dslab-style indexed event-core idiom.
///
/// `rank`, `ops`, `delays`, `sites`, the streams' first ops and the
/// sizes of the event tables are lowering's; the rest is a replay's, and
/// [`RankSim::rewind`] resets it.
#[derive(Default)]
struct RankSim {
    /// The worker's global rank.
    rank: u32,
    /// The worker's lowered trace, one op per event. One array per
    /// worker, not one per job: a job-sized block, once freed, raises
    /// glibc's mmap and trim thresholds for the rest of the process
    /// (+9 MB peak RSS on a search loop when tried).
    ops: Vec<Op>,
    /// The host delay before each op. A column of its own, read only
    /// as the host dispatches: in the op it would cost every issue,
    /// promotion and pump 8 more bytes. The op's size is the replay's
    /// lever (10 paired runs of `sim_flat_128` each, on a 2-core
    /// Xeon): a 48-byte op measured p50 15 % slower than a 40-byte one,
    /// and the 32-byte [`Op`] p50 9.7 % faster, `peak_rss_mb` 7.4 %
    /// lower.
    delays: Vec<SimTime>,
    /// The worker's collective call sites, in program order.
    sites: Vec<JoinSite>,
    /// Host cursor: the next op to dispatch.
    next_op: u32,
    /// Issue-lane cursor. The ops in `lane_next..next_op` that enqueue
    /// are this rank's pending issue pumps behind the one in the heap,
    /// already in `(at, seq)` order: `seq` only grows, and an op's
    /// issue instant is the host's clock, which only moves forward
    /// (host delays, sync waits and fault restarts all add to it) and
    /// is never behind the global clock when the host runs.
    lane_next: u32,
    /// Whether the lane's head currently sits in the heap.
    lane_head_queued: bool,
    host_time: SimTime,
    host_busy: SimTime,
    /// Dense stream states, one per interned stream slot.
    streams: Vec<StreamSim>,
    /// CUDA-event wait map by event slot: fire time once recorded.
    fired: Vec<Option<SimTime>>,
    /// Streams (by dense slot) waiting on each event slot, each with the
    /// instant it began to wait.
    event_waiters: Vec<Vec<(usize, SimTime)>>,
    blocked: Option<HostBlock>,
    /// The instant the host last parked.
    blocked_at: SimTime,
    done: bool,
    comm_busy: SimTime,
    compute_busy: SimTime,
}

impl RankSim {
    /// Empties this rank for lowering worker `rank`, keeping every
    /// buffer's capacity.
    fn reset(&mut self, rank: u32) {
        self.rank = rank;
        self.ops.clear();
        self.delays.clear();
        self.sites.clear();
        self.streams.clear();
    }

    /// The rank as a replay starts: its host before its first op, its
    /// streams idle, no CUDA event fired.
    fn rewind(&mut self) {
        self.next_op = 0;
        self.lane_next = 0;
        self.lane_head_queued = false;
        self.host_time = SimTime::ZERO;
        self.host_busy = SimTime::ZERO;
        self.streams.iter_mut().for_each(StreamSim::rewind);
        self.fired.fill(None);
        self.event_waiters.iter_mut().for_each(Vec::clear);
        self.blocked = None;
        self.blocked_at = SimTime::ZERO;
        self.done = false;
        self.comm_busy = SimTime::ZERO;
        self.compute_busy = SimTime::ZERO;
    }

    /// Parks the host on `block` in the clock's instant `now`.
    fn park(&mut self, block: HostBlock, now: SimTime) {
        self.blocked = Some(block);
        self.blocked_at = now;
    }
}

/// Heap event kinds (Algorithm 1's polymorphic events).
#[derive(Clone, Copy, Debug)]
enum EvKind {
    /// Host dispatch loop (re)starts for a rank.
    HostDispatch { wi: usize },
    /// A stream should attempt to make progress.
    Pump { wi: usize, si: usize },
    /// The same, scheduled by the host enqueuing an op: these travel
    /// through rank `wi`'s issue lane, so handling one promotes the
    /// lane's next entry into the heap.
    IssuePump { wi: usize, si: usize },
    /// An issue pump released from stream `si`'s sub-lane: handling
    /// one promotes the sub-lane's next entry.
    ParkedPump { wi: usize, si: usize },
    /// A network flow drained its bytes (flow model only). Never in
    /// the heap: the one that can fire waits in
    /// [`SimScratch::flow_due`].
    FlowDone { flow: u32 },
    /// Injected rank failure `fi` of the fault plan strikes worker `wi`.
    Fault { wi: usize, fi: usize },
}

#[derive(Clone, Copy, Debug)]
struct HeapEv {
    at: SimTime,
    seq: u64,
    kind: EvKind,
}

impl HeapEv {
    /// `(at, seq)` as one integer: compared without a branch on `at`.
    fn key(&self) -> u128 {
        u128::from(self.at.as_ns()) << 64 | u128::from(self.seq)
    }
}

impl PartialEq for HeapEv {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for HeapEv {}
impl PartialOrd for HeapEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
    /// The heap's sifts compare with `<=` alone; spelled out, it stays
    /// one integer comparison instead of going through an `Ordering`.
    fn le(&self, other: &Self) -> bool {
        self.key() <= other.key()
    }
}
impl Ord for HeapEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Observability hooks for the simulator (see [`Simulator::with_obs`]).
///
/// The hot loop never touches these: the per-run tallies live in
/// [`SimScratch`] (plain integers the loop maintains anyway), and
/// publishing into the shared handles happens exactly once, after the
/// run. With no hooks installed the simulator is byte-for-byte the
/// uninstrumented engine.
#[derive(Clone, Default)]
pub struct SimObs {
    /// Cumulative heap events processed across runs (the same tally
    /// reported per run in [`SimReport::events_processed`]).
    pub events: maya_obs::Counter,
    /// Cumulative pops of the event queue — the heap and the flow
    /// completion beside it — across runs: `events` less the events
    /// counted off without being popped, namely issue pumps elided or
    /// parked, the completions inside a run-ahead chain of kernels and
    /// flow completions a convergence superseded or never scheduled.
    pub heap_pops: maya_obs::Counter,
    /// High-water mark of the pending-event set — heap entries, the
    /// pending flow completion and pumps waiting in the per-rank issue
    /// lanes and per-stream sub-lanes — max over all runs.
    /// This is how far hosts run ahead of their devices, not the heap's
    /// size: the heap itself stays near one entry per rank.
    pub heap_depth_high_water: maya_obs::Gauge,
    /// Flow-solver invocations (max-min rate re-convergences),
    /// cumulative. Zero when no cluster topology is in play.
    pub flow_solves: maya_obs::Counter,
}

/// The event-driven simulator.
pub struct Simulator<'a> {
    estimator: &'a dyn RuntimeEstimator,
    cluster: &'a ClusterSpec,
    /// Fault-injection plan; `None` (the default) is the byte-identical
    /// happy path. Set via [`Simulator::with_faults`].
    faults: Option<&'a FaultPlan>,
    /// Post-run observability hooks; `None` (the default) publishes
    /// nothing.
    obs: Option<&'a SimObs>,
}

/// One distinct kernel shape of the job being lowered.
struct Shape {
    digest: u64,
    kernel: KernelKind,
    dur: SimTime,
}

/// The estimated duration of every distinct kernel shape of one job,
/// so that lowering asks the estimator about a shape once.
///
/// Open addressing over a fixed number of slots with a bounded probe
/// run, keyed by [`shape_digest`] and confirmed by `==` on the whole
/// [`KernelKind`]. A shape whose probe run is full is not remembered:
/// each of its launches asks the estimator, which is what every launch
/// did before the table, so a trace of colliding or unboundedly many
/// shapes costs what it cost then and no more. A rank's scale is
/// applied after the table, so one table serves every rank of the job.
#[derive(Default)]
struct ShapeTable {
    /// Per slot, one past the shape's position in `shapes`; 0 is empty.
    slots: Vec<u16>,
    shapes: Vec<Shape>,
}

impl ShapeTable {
    /// A power of two; every occupied slot holds a position below it.
    const SLOTS: usize = 512;
    /// Slots examined before a shape is declared not to fit.
    const PROBE: usize = 8;

    /// Empties the table: durations are one estimator's answers and
    /// must not outlive the lowering that asked.
    fn clear(&mut self) {
        self.slots.clear();
        self.slots.resize(Self::SLOTS, 0);
        self.shapes.clear();
    }

    /// The duration of `kernel`: remembered, or `ask`ed for — and
    /// remembered if its probe run has room.
    #[inline]
    fn time(&mut self, kernel: &KernelKind, ask: impl FnOnce() -> SimTime) -> SimTime {
        let digest = shape_digest(kernel);
        for probe in 0..Self::PROBE {
            let at = (digest as usize).wrapping_add(probe) & (Self::SLOTS - 1);
            let Some(slot) = self.slots.get_mut(at) else {
                break;
            };
            let Some(known) = self.shapes.get(usize::from(*slot).wrapping_sub(1)) else {
                let dur = ask();
                self.shapes.push(Shape {
                    digest,
                    kernel: *kernel,
                    dur,
                });
                *slot = self.shapes.len() as u16;
                return dur;
            };
            if known.digest == digest && known.kernel == *kernel {
                return known.dur;
            }
        }
        ask()
    }
}

/// What the estimator is asked about a rendezvous of a communicator on
/// the flat path, read off its first joiner's site: rendezvous of one
/// shape take one time.
#[derive(Clone, Copy, PartialEq, Eq)]
struct CollShape {
    kind: CollectiveKind,
    bytes: u64,
    /// A point-to-point op's own end, which with `kind`'s peer names
    /// the two ranks timed; [`NONE`] for a collective, timed over the
    /// whole communicator.
    end: u32,
}

impl CollShape {
    fn of(desc: &CollectiveDesc) -> Self {
        let end = match desc.kind {
            CollectiveKind::Send { .. } | CollectiveKind::Recv { .. } => desc.rank_in_comm,
            _ => NONE,
        };
        CollShape {
            kind: desc.kind,
            bytes: desc.bytes,
            end,
        }
    }
}

/// The topology path's view of a collective shape: the bytes its flow
/// moves and the route it takes, a range of [`SimScratch::routes`].
#[derive(Clone, Copy)]
struct FlowShape {
    bytes: f64,
    /// Summed propagation latency of the route.
    latency: SimTime,
    start: u32,
    end: u32,
}

/// A communicator's replay state.
#[derive(Default)]
struct Comm {
    /// Rendezvous some of whose participants have joined. A stream
    /// blocks at its join until the rendezvous resolves, so there is at
    /// most one per member stream: a scan finds one sooner than a hash.
    open: Vec<Rendezvous>,
    /// Flat-path durations of the shapes its collectives took this job.
    times: Vec<(CollShape, SimTime)>,
    /// Topology-path flows of the same shapes.
    flows: Vec<(CollShape, FlowShape)>,
}

impl Comm {
    /// Shapes remembered per communicator and job; a rendezvous of any
    /// further shape asks the estimator itself, as every rendezvous
    /// once did.
    const SHAPES: usize = 64;
}

/// Reusable simulation arena: the replay program, the heap, per-rank
/// state, wait tables, collective rendezvous buffers, flow routes, the
/// interner index maps and the job's shape tables — the estimated
/// duration of each distinct kernel shape, at most 512 of them (1 KB of
/// slots and 80 bytes a shape), and of each communicator's distinct
/// collective shapes (or their flows), at most 64 (`Comm::SHAPES`) —
/// emptied by every [`Simulator::lowering`] so that no estimator's
/// answer outlives the prediction that asked for it.
///
/// A fresh scratch and a reused one produce byte-identical
/// [`SimReport`]s (enforced by proptest); reuse only skips the
/// allocations. Keep one per thread (or a pooled set) and pass it to
/// [`Simulator::run_prevalidated`] when simulating in a loop.
#[derive(Default)]
pub struct SimScratch {
    program: Program,
    /// One per worker lowered (the first `lowered` while a lowering is
    /// under way; the rest keep their buffers for the next worker).
    ranks: Vec<RankSim>,
    lowered: usize,
    heap: BinaryHeap<Reverse<HeapEv>>,
    /// Communicators in [`Program::groups`] order.
    comms: Vec<Comm>,
    /// Emptied participant lists, handed to the next rendezvous.
    spare: Vec<Vec<Participant>>,
    stream_index: HashMap<StreamId, u16>,
    event_index: HashMap<(u64, u32), u32>,
    /// Kernel durations of the job being lowered, by shape.
    shapes: ShapeTable,
    seq: u64,
    now: SimTime,
    /// Sequence stamp of the event being handled: with `now`, its place
    /// in the `(at, seq)` order.
    now_seq: u64,
    events_processed: u64,
    /// Events popped off the heap.
    heap_pops: u64,
    /// Events scheduled and neither popped nor counted off: heap, flow
    /// completion slot, issue lanes and sub-lanes.
    pending: usize,
    /// Most events ever pending at once this run (one compare per
    /// stamp — the tally is kept unconditionally; only *publishing* is
    /// gated on [`Simulator::with_obs`]).
    pending_high_water: usize,
    /// Flow-solver invocations (rate re-convergences) this run.
    flow_solves: u64,
    /// Shared-bandwidth flow model state (used only when the cluster
    /// spec carries a topology; otherwise untouched).
    net: FlowNet,
    /// Bookkeeping of the in-flight flows (unordered; a handful).
    flow_meta: Vec<FlowMeta>,
    /// The one flow completion that can fire before the net next
    /// re-converges (module docs, "Flow completions"): the earliest in
    /// `(at, seq)` order of the last convergence, popped beside the
    /// heap.
    flow_due: Option<HeapEv>,
    /// The routes of every communicator's [`FlowShape`]s, back to back.
    routes: Vec<u32>,
    /// Participant nodes of the route being built.
    route_nodes: Vec<u32>,
}

/// One stream waiting at a collective rendezvous: `(worker, stream,
/// arrival time, the worker's call site)`.
type Participant = (usize, usize, SimTime, u32);

/// A rendezvous some of whose participants have joined.
struct Rendezvous {
    key: CollKey,
    participants: Vec<Participant>,
}

/// Simulator-side state of one in-flight collective flow.
struct FlowMeta {
    /// The net's id for this flow.
    flow: u32,
    /// The rendezvous' participant list, moved here whole; its streams
    /// are released on completion.
    participants: Vec<Participant>,
    /// Rendezvous completion time the collective started moving bytes.
    start: SimTime,
    /// Summed propagation latency of the flow's route, paid once on
    /// top of the bandwidth term.
    latency: SimTime,
}

impl SimScratch {
    /// Creates an empty scratch arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts a new pending event and returns its sequence number.
    fn stamp(&mut self) -> u64 {
        self.seq += 1;
        self.pending += 1;
        self.pending_high_water = self.pending_high_water.max(self.pending);
        self.seq
    }

    /// Pushes an event, its sequence stamp carrying [`HOST`] on a host
    /// dispatch.
    fn push(&mut self, at: SimTime, kind: EvKind) {
        let mut seq = self.stamp();
        if let EvKind::HostDispatch { .. } = kind {
            seq |= HOST;
        }
        self.heap.push(Reverse(HeapEv { at, seq, kind }));
    }

    /// Pushes the wake-up of a stream or host blocked since `since`. A
    /// block released in the instant it began counts no wake-up (module
    /// docs, "The order of an instant"): its pop's count is taken back
    /// here.
    fn wake(&mut self, at: SimTime, since: SimTime, kind: EvKind) {
        self.push(at, kind);
        if at == since {
            self.events_processed -= 1;
        }
    }

    /// The host of worker `wi` issues op `pc` at `at`: the op becomes
    /// ready on its stream then, and its issue pump — due then too —
    /// joins the rank's lane.
    fn issue(&mut self, wi: usize, pc: u32, at: SimTime) {
        debug_assert!(at >= self.now, "worker {wi} issued into the past");
        let seq = self.stamp();
        let r = &mut self.ranks[wi];
        let op = &mut r.ops[pc as usize];
        op.at = at;
        op.seq = seq;
        if !r.lane_head_queued {
            self.promote(wi);
        }
    }

    /// Moves rank `wi`'s next pending issue pump into the heap, first
    /// counting off every pump before it that the elision invariant
    /// proves a no-op and parking every pump of a blocked stream (module
    /// docs). A lane is in `(at, seq)` order and every lane's head is
    /// in the heap, so the heap's minimum is the global minimum.
    fn promote(&mut self, wi: usize) {
        let Some(r) = self.ranks.get_mut(wi) else {
            return;
        };
        while r.lane_next < r.next_op {
            let pc = r.lane_next;
            r.lane_next += 1;
            let Some(&op) = r.ops.get(pc as usize) else {
                break;
            };
            if !op.kind().enqueues() {
                continue;
            }
            let si = op.stream as usize;
            let Some(s) = r.streams.get_mut(si) else {
                continue;
            };
            if s.lane != NONE {
                // Behind a parked pump: the sub-lane's chain reaches it.
                continue;
            }
            if s.busy_until > op.at {
                self.events_processed += 1;
                self.pending -= 1;
                continue;
            }
            if s.blocked.is_some() {
                s.lane = pc;
                continue;
            }
            let kind = EvKind::IssuePump { wi, si };
            self.heap.push(Reverse(HeapEv {
                at: op.at,
                seq: op.seq,
                kind,
            }));
            r.lane_head_queued = true;
            return;
        }
        r.lane_head_queued = false;
    }

    /// Moves stream `si`'s next parked pump into the heap if the stream
    /// is free to run it, first counting off every parked pump that
    /// would have run as a no-op: due before the event being handled
    /// (the stream was blocked until now), or before the stream's
    /// `busy_until` (the elision invariant). A sub-lane is in `(at,
    /// seq)` order and its head is in the heap whenever its stream is
    /// not blocked, so the heap's minimum stays the global minimum.
    fn unpark(&mut self, wi: usize, si: usize) {
        let handled = (self.now, self.now_seq);
        let Some(r) = self.ranks.get_mut(wi) else {
            return;
        };
        let Some(s) = r.streams.get_mut(si) else {
            return;
        };
        if s.lane_queued || s.blocked.is_some() {
            return;
        }
        while let Some(&op) = r.ops.get(s.lane as usize) {
            if (op.at, op.seq) < handled || s.busy_until > op.at {
                self.events_processed += 1;
                self.pending -= 1;
                s.lane = op.parked_after(r.lane_next);
                continue;
            }
            let kind = EvKind::ParkedPump { wi, si };
            self.heap.push(Reverse(HeapEv {
                at: op.at,
                seq: op.seq,
                kind,
            }));
            s.lane_queued = true;
            return;
        }
    }

    /// Stream `si`'s sub-lane head was handled: the next parked pump
    /// becomes the head.
    fn advance(&mut self, wi: usize, si: usize) {
        let Some(r) = self.ranks.get_mut(wi) else {
            return;
        };
        let Some(s) = r.streams.get_mut(si) else {
            return;
        };
        s.lane = r
            .ops
            .get(s.lane as usize)
            .map_or(NONE, |op| op.parked_after(r.lane_next));
        s.lane_queued = false;
        self.unpark(wi, si);
    }

    /// Unblocks stream `si` of worker `wi`, busy until at least `until`,
    /// and releases its sub-lane. Returns the stream's `busy_until`.
    fn release(&mut self, wi: usize, si: usize, until: SimTime) -> SimTime {
        let Some(s) = self.ranks.get_mut(wi).and_then(|r| r.streams.get_mut(si)) else {
            return until;
        };
        s.blocked = None;
        s.busy_until = s.busy_until.max(until);
        let busy_until = s.busy_until;
        self.unpark(wi, si);
        busy_until
    }

    /// The heap drained: counts off the pumps still parked, each of
    /// which would have popped as a no-op on its blocked stream.
    fn count_parked(&mut self) {
        let mut parked = 0;
        for r in &self.ranks {
            for s in &r.streams {
                let mut at = s.lane;
                while let Some(op) = r.ops.get(at as usize) {
                    parked += 1;
                    at = op.parked_after(r.lane_next);
                }
            }
        }
        self.events_processed += parked as u64;
        self.pending -= parked;
    }

    /// `joiner` joins rendezvous `key` of communicator `group`, opening
    /// it if it is the first. Returns the rendezvous' place in the
    /// communicator's list and how many have joined it.
    fn join(&mut self, group: u32, key: CollKey, joiner: Participant) -> (usize, usize) {
        let Some(comm) = self.comms.get_mut(group as usize) else {
            return (0, 0);
        };
        let at = match comm.open.iter().position(|r| r.key == key) {
            Some(at) => at,
            None => {
                let participants = self.spare.pop().unwrap_or_default();
                comm.open.push(Rendezvous { key, participants });
                comm.open.len() - 1
            }
        };
        let Some(r) = comm.open.get_mut(at) else {
            return (at, 0);
        };
        r.participants.push(joiner);
        (at, r.participants.len())
    }

    /// Pops the earliest pending event: the heap's top or the pending
    /// flow completion, whichever is first in `(at, seq)` order.
    fn pop(&mut self) -> Option<HeapEv> {
        let ev = match self.flow_due {
            Some(due)
                if self
                    .heap
                    .peek()
                    .map_or(true, |Reverse(top)| due.key() < top.key()) =>
            {
                self.flow_due = None;
                due
            }
            _ => self.heap.pop()?.0,
        };
        self.pending -= 1;
        self.heap_pops += 1;
        Some(ev)
    }

    /// The net re-converged, voiding every completion time scheduled
    /// before. Schedules the only completion that can fire before the
    /// next convergence, the first flow to finish, and counts off the
    /// completion it supersedes and the rest of the one per live flow
    /// this convergence stands for: each would have popped as a no-op.
    /// Its one stamp orders it against every other event as the first
    /// of one stamp per live flow would.
    fn schedule_flow_done(&mut self) {
        self.flow_solves += 1;
        if self.flow_due.take().is_some() {
            self.events_processed += 1;
            self.pending -= 1;
        }
        let Some((flow, eta)) = self.net.first_to_finish() else {
            return;
        };
        self.events_processed += self.net.active_flows().count() as u64 - 1;
        let seq = self.stamp();
        self.flow_due = Some(HeapEv {
            at: SimTime::from_ns(eta),
            seq,
            kind: EvKind::FlowDone { flow },
        });
    }

    /// Empties the arena for a new job, keeping capacity: no worker is
    /// lowered and no kernel or collective shape is timed.
    fn reset(&mut self) {
        self.shapes.clear();
        self.program.peak_mem_bytes = 0;
        for comm in &mut self.comms {
            comm.times.clear();
            comm.flows.clear();
        }
        self.routes.clear();
        self.lowered = 0;
    }

    /// Rewinds the replay state for a replay of the program lowered:
    /// the heap, the clock, the stamps and the tallies, every rank,
    /// stream and CUDA event, the open rendezvous and the flows in
    /// flight. What the program holds, and the collective shapes a
    /// replay has timed, stay.
    fn rewind(&mut self) {
        self.heap.clear();
        self.flow_due = None;
        self.flow_meta.clear();
        for comm in &mut self.comms {
            for Rendezvous {
                mut participants, ..
            } in comm.open.drain(..)
            {
                participants.clear();
                self.spare.push(participants);
            }
        }
        self.ranks.iter_mut().for_each(RankSim::rewind);
        self.seq = 0;
        self.now = SimTime::ZERO;
        self.now_seq = 0;
        self.events_processed = 0;
        self.heap_pops = 0;
        self.pending = 0;
        self.pending_high_water = 0;
        self.flow_solves = 0;
    }
}

/// A job being lowered into a [`SimScratch`] one worker at a time
/// ([`Simulator::lowering`]): [`Lowering::worker`] for each worker in
/// rank order, then [`Lowering::resolve`] once the communicator map is
/// known.
pub struct Lowering<'s> {
    sim: &'s Simulator<'s>,
    st: &'s mut SimScratch,
}

impl<'s> Lowering<'s> {
    /// Lowers `worker`, the next worker of the job (ranks ascending),
    /// into its replay program: streams and CUDA events interned, the
    /// run's only estimator query per distinct kernel shape (a shape
    /// the arena's shape table has no room for is asked about per
    /// launch) and per memcpy, the op array sized once from its event
    /// count. The trace is not read again: the caller may recycle its
    /// buffers. Fails only on a worker too long to index.
    pub fn worker(&mut self, worker: &WorkerTrace) -> Result<(), SimError> {
        self.sim.lower_worker(self.st, worker)
    }

    /// Resolves the call sites of every worker lowered against the
    /// job's communicator map — each site's communicator and how many
    /// participants its rendezvous waits for — in one pass over the
    /// sites. Fails, in [`JobTrace::validate`]'s words, on a site whose
    /// communicator the map does not list or gives another size: the
    /// first such site in rank and program order, the one `validate`
    /// reports.
    pub fn resolve(self, comm_groups: &BTreeMap<u64, Vec<u32>>) -> Result<Lowered<'s>, SimError> {
        let Lowering { sim, st } = self;
        st.ranks.truncate(st.lowered);
        let SimScratch {
            program,
            ranks,
            comms,
            ..
        } = &mut *st;
        program.present.clear();
        program.present.extend(ranks.iter().map(|r| r.rank));
        program.load_groups(comm_groups);
        comms.resize_with(program.groups.len(), Comm::default);
        for r in ranks.iter_mut() {
            for site in &mut r.sites {
                *site = program.site(r.rank, site.desc)?;
            }
        }
        Ok(Lowered { sim, st })
    }
}

/// A job lowered into a [`SimScratch`]: a replay program that replays
/// any number of times, each replay giving the same report.
pub struct Lowered<'s> {
    sim: &'s Simulator<'s>,
    st: &'s mut SimScratch,
}

impl Lowered<'_> {
    /// Runs the event loop (Algorithm 1's main loop) over the program:
    /// the report, or the deadlock the replay ran into. Every replay
    /// runs ahead, under a fault plan too (module docs, "Run-ahead").
    pub fn replay(&mut self) -> Result<SimReport, SimError> {
        self.sim.replay(self.st)
    }
}

impl<'a> Simulator<'a> {
    /// Creates a simulator over a cluster with the given estimator.
    pub fn new(estimator: &'a dyn RuntimeEstimator, cluster: &'a ClusterSpec) -> Self {
        Simulator {
            estimator,
            cluster,
            faults: None,
            obs: None,
        }
    }

    /// Installs a fault-injection plan. Empty plans are normalized to
    /// `None` so they cannot perturb the default path: a `Some(plan)`
    /// that injects nothing is exactly the no-fault simulator.
    pub fn with_faults(mut self, faults: Option<&'a FaultPlan>) -> Self {
        self.faults = faults.filter(|p| !p.is_empty());
        self
    }

    /// Installs post-run observability sinks. The event loop itself is
    /// untouched either way — per-run tallies live in [`SimScratch`]
    /// and are published in one shot after the loop drains, so a
    /// `None` (the default) run is byte-identical to an instrumented
    /// one. The simulator reads no clock: a run's wall time is the
    /// caller's to measure (the engine's `simulation` stage).
    pub fn with_obs(mut self, obs: Option<&'a SimObs>) -> Self {
        self.obs = obs;
        self
    }

    /// Validates `job` ([`JobTrace::validate`]) and simulates it in a
    /// private scratch arena: the entry for a trace of unknown
    /// provenance simulated once.
    pub fn run(&self, job: &JobTrace) -> Result<SimReport, SimError> {
        job.validate().map_err(SimError::InvalidTrace)?;
        self.run_prevalidated(job, &mut SimScratch::new())
    }

    /// Simulates a trusted trace in the caller's arena: no
    /// [`JobTrace::validate`] beyond what lowering checks, and
    /// `scratch`'s buffers are reused instead of allocated. For callers
    /// that already validated the trace (or constructed it from a
    /// validated one) and simulate in a loop. On an *invalid* trace
    /// this is memory-safe but may return an arbitrary report or
    /// `Deadlock` instead of `InvalidTrace`; a collective site that does
    /// not fit the communicator map is still `InvalidTrace`
    /// ([`Lowering::resolve`]).
    pub fn run_prevalidated(
        &self,
        job: &JobTrace,
        scratch: &mut SimScratch,
    ) -> Result<SimReport, SimError> {
        self.lower(job, scratch)?.replay()
    }

    /// Lowers a trusted trace (see [`Simulator::run_prevalidated`])
    /// into `scratch` as a replay program: [`Simulator::lowering`], each
    /// worker through [`Lowering::worker`], then
    /// [`Lowering::resolve`].
    pub fn lower<'s>(
        &'s self,
        job: &JobTrace,
        scratch: &'s mut SimScratch,
    ) -> Result<Lowered<'s>, SimError> {
        let mut lowering = self.lowering(scratch);
        for w in &job.workers {
            lowering.worker(w)?;
        }
        lowering.resolve(&job.comm_groups)
    }

    /// Starts lowering a job into `scratch`, emptying it: the arena's
    /// shape tables keep no estimator's answer from an earlier job.
    pub fn lowering<'s>(&'s self, scratch: &'s mut SimScratch) -> Lowering<'s> {
        scratch.reset();
        Lowering {
            sim: self,
            st: scratch,
        }
    }

    /// [`Lowering::worker`]'s step, into `st`.
    fn lower_worker(&self, st: &mut SimScratch, w: &WorkerTrace) -> Result<(), SimError> {
        if w.events.len() >= NONE as usize {
            return Err(SimError::InvalidTrace(format!(
                "rank {} has {} events, above the simulator's limit of {NONE}",
                w.rank,
                w.events.len()
            )));
        }
        if st.ranks.len() == st.lowered {
            st.ranks.push(RankSim::default());
        }
        let SimScratch {
            program,
            ranks,
            lowered,
            stream_index,
            event_index,
            shapes,
            ..
        } = st;
        // Never `None`: a rank was pushed above if none was spare.
        let Some(r) = ranks.get_mut(*lowered) else {
            return Ok(());
        };
        *lowered += 1;
        program.peak_mem_bytes = program.peak_mem_bytes.max(w.summary.peak_mem_bytes);
        r.reset(w.rank);
        r.ops.reserve(w.events.len());
        r.delays.reserve(w.events.len());
        let generation = self.cluster.kernel_scale(w.rank);
        stream_index.clear();
        event_index.clear();
        // A worker issues long runs to one stream: remember the last id
        // and hash only when it changes.
        let mut last_stream = None;
        for e in &w.events {
            let stream = match last_stream {
                Some((id, slot)) if id == e.stream => slot,
                _ => {
                    let next = u16::try_from(stream_index.len()).unwrap_or(u16::MAX);
                    let slot = *stream_index.entry(e.stream).or_insert(next);
                    if slot == next {
                        if next == u16::MAX {
                            let streams = w.events.iter().map(|e| e.stream);
                            return Err(SimError::InvalidTrace(format!(
                                "rank {} has {} streams, above the simulator's limit of {}",
                                w.rank,
                                streams.collect::<HashSet<_>>().len(),
                                u16::MAX
                            )));
                        }
                        r.streams.push(StreamSim::IDLE);
                    }
                    last_stream = Some((e.stream, slot));
                    slot
                }
            };
            let mut event_slot = |event: u64, version: u32| {
                let next = event_index.len() as u32;
                *event_index.entry((event, version)).or_insert(next)
            };
            let kind = match e.op {
                DeviceOp::Malloc { .. } | DeviceOp::Free { .. } => OpKind::HostOnly,
                DeviceOp::KernelLaunch { kernel } => {
                    let dur = shapes.time(&kernel, || self.estimator.kernel_time(&kernel));
                    OpKind::Kernel {
                        dur: scaled(dur, generation),
                    }
                }
                DeviceOp::MemcpyAsync { bytes, kind, sync } => OpKind::Memcpy {
                    dur: self.estimator.memcpy_time(bytes, kind),
                    sync,
                },
                DeviceOp::EventRecord { event, version } => OpKind::Record {
                    slot: event_slot(event, version),
                },
                DeviceOp::StreamWaitEvent { event, version } => OpKind::Wait {
                    slot: event_slot(event, version),
                    zero: version == 0,
                },
                DeviceOp::EventSynchronize { event, version } => OpKind::EventSync {
                    slot: event_slot(event, version),
                    zero: version == 0,
                },
                DeviceOp::StreamSynchronize => OpKind::StreamSync,
                DeviceOp::DeviceSynchronize => OpKind::DeviceSync,
                DeviceOp::Collective { desc } => {
                    r.sites.push(JoinSite {
                        desc,
                        group: NONE,
                        required: 0,
                    });
                    OpKind::Join {
                        site: (r.sites.len() - 1) as u32,
                    }
                }
            };
            let pc = r.ops.len() as u32;
            if kind.enqueues() {
                let s = &mut r.streams[stream as usize];
                // `tail` is `NONE`, past every op, until the stream's
                // first.
                match r.ops.get_mut(s.tail as usize) {
                    Some(prev) => prev.next = pc,
                    None => s.first = pc,
                }
                s.tail = pc;
            }
            r.delays.push(e.host_delay);
            r.ops.push(Op::new(stream, kind));
        }
        r.fired.resize(event_index.len(), None);
        r.event_waiters.resize_with(event_index.len(), Vec::new);
        Ok(())
    }

    /// The event loop over `st`'s program, rewound first.
    fn replay(&self, st: &mut SimScratch) -> Result<SimReport, SimError> {
        st.rewind();
        if let Some(topo) = &self.cluster.topology {
            st.net.reset(topo.links.iter().map(|l| l.bytes_per_sec()));
        }
        for wi in 0..st.ranks.len() {
            st.push(SimTime::ZERO, EvKind::HostDispatch { wi });
        }
        if let Some(plan) = self.faults {
            // Failures on ranks absent from this (possibly deduped or
            // selectively launched) job are simply never scheduled.
            for (fi, f) in plan.failures.iter().enumerate() {
                if let Some(wi) = st.ranks.iter().position(|r| r.rank == f.rank) {
                    st.push(f.at, EvKind::Fault { wi, fi });
                }
            }
        }

        while let Some(ev) = st.pop() {
            (st.now, st.now_seq) = (ev.at, ev.seq);
            st.events_processed += 1;
            match ev.kind {
                EvKind::HostDispatch { wi } => self.host_dispatch(st, wi),
                EvKind::Pump { wi, si } => self.pump(st, wi, si),
                EvKind::IssuePump { wi, si } => {
                    self.pump(st, wi, si);
                    // After the pump, so that the kernel it may have
                    // started elides the lane entries it covers.
                    st.promote(wi);
                }
                EvKind::ParkedPump { wi, si } => {
                    self.pump(st, wi, si);
                    st.advance(wi, si);
                }
                EvKind::FlowDone { flow } => self.flow_done(st, flow),
                EvKind::Fault { wi, fi } => self.apply_fault(st, wi, fi),
            }
        }
        st.count_parked();

        debug_assert_eq!(st.pending, 0, "the heap drained with events still parked");

        // Publish before the deadlock check: events were processed
        // whether or not all ranks finished, and a deadlocked run is
        // exactly when the counters are most interesting.
        if let Some(obs) = self.obs {
            obs.events.add(st.events_processed);
            obs.heap_pops.add(st.heap_pops);
            obs.heap_depth_high_water
                .raise(st.pending_high_water as i64);
            obs.flow_solves.add(st.flow_solves);
        }

        let stuck: Vec<u32> = st
            .ranks
            .iter()
            .filter(|r| !r.done)
            .map(|r| r.rank)
            .collect();
        if !stuck.is_empty() {
            return Err(SimError::Deadlock { stuck_ranks: stuck });
        }

        let rank_end: Vec<SimTime> = st
            .ranks
            .iter()
            .map(|r| {
                let s = r
                    .streams
                    .iter()
                    .map(|s| s.busy_until)
                    .fold(SimTime::ZERO, SimTime::max);
                r.host_time.max(s)
            })
            .collect();
        Ok(SimReport {
            total_time: rank_end.iter().copied().fold(SimTime::ZERO, SimTime::max),
            rank_end_times: rank_end,
            comm_time: st
                .ranks
                .iter()
                .map(|r| r.comm_busy)
                .fold(SimTime::ZERO, SimTime::max),
            compute_time: st
                .ranks
                .iter()
                .map(|r| r.compute_busy)
                .fold(SimTime::ZERO, SimTime::max),
            host_time: st
                .ranks
                .iter()
                .map(|r| r.host_busy)
                .fold(SimTime::ZERO, SimTime::max),
            peak_mem_bytes: st.program.peak_mem_bytes,
            events_processed: st.events_processed,
        })
    }

    /// Host dispatch loop: replays recorded host delays and runs ahead,
    /// enqueuing async work onto streams, until it blocks or finishes.
    fn host_dispatch(&self, st: &mut SimScratch, wi: usize) {
        if st.ranks[wi].blocked.is_some() || st.ranks[wi].done {
            return;
        }
        loop {
            let r = &mut st.ranks[wi];
            let pc = r.next_op;
            let (Some(&op), Some(&delay)) = (r.ops.get(pc as usize), r.delays.get(pc as usize))
            else {
                r.done = true;
                return;
            };
            r.next_op += 1;
            r.host_time += delay;
            r.host_busy += delay;
            let issue = r.host_time;
            let si = op.stream as usize;

            match op.kind() {
                OpKind::HostOnly => {}
                OpKind::Memcpy { sync, .. } => {
                    st.issue(wi, pc, issue);
                    if sync && self.park_host_on_drain(st, wi, si) {
                        // Blocking copy: host waits for the stream.
                        return;
                    }
                }
                OpKind::Kernel { .. }
                | OpKind::Record { .. }
                | OpKind::Wait { .. }
                | OpKind::Join { .. } => {
                    st.issue(wi, pc, issue);
                }
                OpKind::EventSync { slot, zero } => match r.fired[slot as usize] {
                    Some(t) => r.host_time = r.host_time.max(t),
                    None if zero => {} // never-recorded: no-op
                    None => {
                        r.park(HostBlock::Event { slot }, st.now);
                        return;
                    }
                },
                OpKind::StreamSync => {
                    if self.park_host_on_drain(st, wi, si) {
                        return;
                    }
                }
                OpKind::DeviceSync => {
                    let (host, now) = (r.host_time, st.now);
                    let mut latest = host;
                    let mut remaining = 0u32;
                    for s in &r.streams {
                        if s.drained(host, now, r.next_op) {
                            continue;
                        }
                        if s.queue_is_empty(r.next_op, now) && s.blocked.is_none() {
                            latest = latest.max(s.busy_until);
                        } else {
                            remaining += 1;
                        }
                    }
                    r.host_time = latest;
                    if remaining > 0 {
                        r.park(HostBlock::DeviceDrain { remaining }, now);
                        return;
                    }
                }
            }
        }
    }

    /// Parks the host until a stream drains. Returns true if parked.
    fn park_host_on_drain(&self, st: &mut SimScratch, wi: usize, si: usize) -> bool {
        let r = &mut st.ranks[wi];
        let s = &r.streams[si];
        if s.queue_is_empty(r.next_op, st.now) && s.blocked.is_none() {
            r.host_time = r.host_time.max(s.busy_until);
            false
        } else {
            r.park(HostBlock::StreamDrain { si }, st.now);
            true
        }
    }

    /// Stream progress (Algorithm 2's scheduler tick for one stream).
    fn pump(&self, st: &mut SimScratch, wi: usize, si: usize) {
        loop {
            let now = st.now;
            let r = &mut st.ranks[wi];
            let Some(s) = r.streams.get_mut(si) else {
                return;
            };
            if s.blocked.is_some() || s.busy_until > now {
                return;
            }
            if s.queue_is_empty(r.next_op, now) {
                // Drained: wake a host parked on this stream/device.
                self.notify_drain(st, wi, si, now);
                return;
            }
            let pc = s.head;
            let front = r.ops[pc as usize];
            if front.at > now {
                st.push(front.at, EvKind::Pump { wi, si });
                return;
            }
            s.head = front.next;
            match front.kind() {
                OpKind::Kernel { dur } => {
                    // Run ahead (module docs): start the issued kernels
                    // behind this one back to back, each scaled by the
                    // straggler windows of its issue instant (its lowered
                    // duration carries its GPU generation's scale),
                    // counting off each completion in between, up to the
                    // rank's next failure.
                    let mut dur = scaled(dur, self.slowdown(r.rank, front.at));
                    let failure = self.next_failure(r.rank, now);
                    let mut end = now + dur;
                    r.compute_busy += dur;
                    while dur > SimTime::ZERO && s.head < r.next_op {
                        let Some(op) = r.ops.get(s.head as usize) else {
                            break;
                        };
                        let OpKind::Kernel { dur: d } = op.kind() else {
                            break;
                        };
                        if op.at > end || end >= failure {
                            break;
                        }
                        s.head = op.next;
                        s.ahead = end;
                        dur = scaled(d, self.slowdown(r.rank, op.at));
                        end += dur;
                        r.compute_busy += dur;
                        st.events_processed += 1;
                    }
                    s.busy_until = end;
                    st.push(end, EvKind::Pump { wi, si });
                    return;
                }
                OpKind::Memcpy { dur, .. } => {
                    s.busy_until = now + dur;
                    r.compute_busy += dur;
                    st.push(now + dur, EvKind::Pump { wi, si });
                    return;
                }
                OpKind::Record { slot } => {
                    r.fired[slot as usize] = Some(now);
                    // Wake streams waiting on this event. Take the
                    // waiter list to appease the borrow checker, then
                    // give the (cleared) buffer back for reuse.
                    let mut waiters = std::mem::take(&mut r.event_waiters[slot as usize]);
                    for &(w, since) in &waiters {
                        let ws = st.ranks.get(wi).and_then(|r| r.streams.get(w));
                        if ws.is_some_and(|ws| ws.blocked == Some(StreamBlock::Event { slot })) {
                            st.release(wi, w, now);
                            st.wake(now, since, EvKind::Pump { wi, si: w });
                        }
                    }
                    waiters.clear();
                    let r = &mut st.ranks[wi];
                    r.event_waiters[slot as usize] = waiters;
                    // Wake a host parked on EventSynchronize.
                    if r.blocked == Some(HostBlock::Event { slot }) {
                        r.blocked = None;
                        r.host_time = r.host_time.max(now);
                        let since = r.blocked_at;
                        st.wake(now, since, EvKind::HostDispatch { wi });
                    }
                }
                OpKind::Wait { slot, zero } => {
                    let fired = r.fired[slot as usize];
                    if zero || fired.is_some() {
                        // Already fired (or never-recorded no-op): the
                        // stream ordering itself enforces the constraint.
                        let fire = fired.unwrap_or(SimTime::ZERO);
                        s.busy_until = s.busy_until.max(fire);
                        if fire > now {
                            st.push(fire, EvKind::Pump { wi, si });
                            return;
                        }
                    } else {
                        s.blocked = Some(StreamBlock::Event { slot });
                        r.event_waiters[slot as usize].push((si, now));
                        return;
                    }
                }
                OpKind::Join { site } => {
                    s.blocked = Some(StreamBlock::Collective);
                    let JoinSite {
                        desc,
                        group,
                        required,
                    } = r.sites[site as usize];
                    let key = CollKey::from_desc(&desc);
                    let (at, joined) = st.join(group, key, (wi, si, now, site));
                    if joined >= required as usize {
                        self.resolve_collective(st, group, at);
                    }
                    return;
                }
                // Lowering links only ops that enqueue onto a stream.
                OpKind::HostOnly
                | OpKind::EventSync { .. }
                | OpKind::StreamSync
                | OpKind::DeviceSync => {}
            }
        }
    }

    /// All participants joined: release every stream in lockstep after
    /// the predicted wire time (Algorithm 3).
    fn resolve_collective(&self, st: &mut SimScratch, group: u32, at: usize) {
        let slot = group as usize;
        let Some(comm) = st.comms.get_mut(slot).filter(|c| at < c.open.len()) else {
            return;
        };
        let mut participants = comm.open.swap_remove(at).participants;
        // The earliest arrival's descriptor, the lower rank's on a tie
        // (module docs, "The order of an instant"; workers are lowered
        // in rank order).
        let first = participants.iter().min_by_key(|&&(wi, _, t, _)| (t, wi));
        let Some(&site) =
            first.and_then(|&(wi, _, _, site)| st.ranks.get(wi)?.sites.get(site as usize))
        else {
            return;
        };
        let desc = site.desc;
        let start = participants
            .iter()
            .map(|&(_, _, t, _)| t)
            .fold(SimTime::ZERO, SimTime::max);
        let members = st.program.members_of(group);
        let mut ends = [0u32; 2];
        let global_ranks: &[u32] = match desc.kind {
            CollectiveKind::Send { peer } | CollectiveKind::Recv { peer } => {
                let mut n = 0;
                for i in [desc.rank_in_comm, peer] {
                    if let Some(&rank) = members.get(i as usize) {
                        ends[n] = rank;
                        n += 1;
                    }
                }
                &ends[..n]
            }
            _ => members,
        };
        let shape = CollShape::of(&desc);
        if let Some(topo) = &self.cluster.topology {
            let known = st
                .comms
                .get(slot)
                .and_then(|c| c.flows.iter().find(|(s, _)| *s == shape))
                .map(|&(_, f)| f);
            let f = known.unwrap_or_else(|| {
                let (nodes, routes) = (&mut st.route_nodes, &mut st.routes);
                self.flow_of(topo, &desc, global_ranks, nodes, routes)
            });
            let route = st
                .routes
                .get(f.start as usize..f.end as usize)
                .unwrap_or(&[]);
            let flow = st.net.start(start.as_ns(), f.bytes, route);
            if known.is_none() {
                match st
                    .comms
                    .get_mut(slot)
                    .filter(|c| c.flows.len() < Comm::SHAPES)
                {
                    Some(c) => c.flows.push((shape, f)),
                    // Not remembered: its route goes with it.
                    None => st.routes.truncate(f.start as usize),
                }
            }
            st.flow_meta.push(FlowMeta {
                flow,
                participants,
                start,
                latency: f.latency,
            });
            st.schedule_flow_done();
            return;
        }
        let comm = st.comms.get_mut(slot);
        let dur = match comm
            .as_ref()
            .and_then(|c| c.times.iter().find(|(s, _)| *s == shape))
        {
            Some(&(_, dur)) => dur,
            None => {
                let dur = self.estimator.collective_time(
                    desc.kind,
                    desc.bytes,
                    global_ranks,
                    self.cluster,
                );
                if let Some(c) = comm.filter(|c| c.times.len() < Comm::SHAPES) {
                    c.times.push((shape, dur));
                }
                dur
            }
        };
        let end = start + dur;
        for &(wi, si, joined, _) in &participants {
            // `max` is the identity without faults (a stream blocked on
            // a rendezvous is never busy past it) but preserves an
            // injected restart penalty that outlives the collective.
            st.release(wi, si, end);
            if let Some(r) = st.ranks.get_mut(wi) {
                r.comm_busy += dur;
            }
            st.wake(end, joined, EvKind::Pump { wi, si });
        }
        participants.clear();
        st.spare.push(participants);
    }

    /// Flow-model view of a collective: it becomes a flow over the
    /// links its participant nodes touch, its byte count set by the
    /// algorithm's wire traffic. The route is appended to `routes`;
    /// `nodes` is scratch.
    fn flow_of(
        &self,
        topo: &TopologySpec,
        desc: &CollectiveDesc,
        global_ranks: &[u32],
        nodes: &mut Vec<u32>,
        routes: &mut Vec<u32>,
    ) -> FlowShape {
        let bytes = wire_bytes(desc.kind, desc.bytes, global_ranks.len());
        // Participant nodes, sorted and deduped for a deterministic
        // route; nodes outside the topology (a spec smaller than the
        // job) contribute no links rather than faulting.
        nodes.clear();
        nodes.extend(
            global_ranks
                .iter()
                .map(|&r| self.cluster.node_of(r))
                .filter(|&n| n < topo.num_nodes()),
        );
        nodes.sort_unstable();
        nodes.dedup();
        let start = routes.len();
        topo.collective_route(nodes, routes);
        let route = routes.get(start..).unwrap_or(&[]);
        FlowShape {
            bytes,
            latency: SimTime::from_us(topo.route_latency_us(route)),
            start: start as u32,
            end: routes.len() as u32,
        }
    }

    /// A flow's bytes drained: release its participant streams after
    /// the route latency, retire the flow and schedule the next
    /// completion at the survivors' new rates.
    fn flow_done(&self, st: &mut SimScratch, flow: u32) {
        // Only a live flow's completion is ever scheduled.
        let Some(pos) = st.flow_meta.iter().position(|m| m.flow == flow) else {
            return;
        };
        let mut meta = st.flow_meta.swap_remove(pos);
        let now = st.now;
        st.net.finish(now.as_ns(), flow);
        let end = now + meta.latency;
        let dur = end.saturating_sub(meta.start);
        for &(wi, si, joined, _) in &meta.participants {
            // `max`, not assignment: an injected fault may have pushed
            // the stream past the collective's own end.
            let wake = st.release(wi, si, end);
            if let Some(r) = st.ranks.get_mut(wi) {
                r.comm_busy += dur;
            }
            st.wake(wake, joined, EvKind::Pump { wi, si });
        }
        meta.participants.clear();
        st.spare.push(meta.participants);
        st.schedule_flow_done();
    }

    /// An injected rank failure strikes: the rank pays the
    /// checkpoint-restart cost on its host timeline and on every
    /// not-yet-drained stream. Other ranks feel the stall at their next
    /// rendezvous with this rank — exactly how a real NCCL job
    /// re-forms after a restart.
    fn apply_fault(&self, st: &mut SimScratch, wi: usize, fi: usize) {
        let Some(plan) = self.faults else { return };
        let Some(f) = plan.failures.get(fi) else {
            return;
        };
        let now = st.now;
        let cost = f.restart_cost;
        let r = &mut st.ranks[wi];
        if !r.done {
            r.host_time = r.host_time.max(now) + cost;
            r.host_busy += cost;
        }
        // Extend busy streams and re-pump them at their new horizons:
        // `pump` returns without rescheduling when `busy_until` is in
        // the future, so every extension needs its own wake-up event.
        for si in 0..st.ranks[wi].streams.len() {
            let r = &mut st.ranks[wi];
            let s = &mut r.streams[si];
            if s.drained(now, now, r.next_op) {
                continue;
            }
            s.busy_until = s.busy_until.max(now) + cost;
            let wake = s.busy_until;
            st.push(wake, EvKind::Pump { wi, si });
        }
        let r = &st.ranks[wi];
        if !r.done && r.blocked.is_none() {
            let at = r.host_time;
            st.push(at, EvKind::HostDispatch { wi });
        }
    }

    /// The straggler scale of a kernel `rank` issued at `at`: 1 outside
    /// every window of the fault plan.
    fn slowdown(&self, rank: u32, at: SimTime) -> f64 {
        self.faults.map_or(1.0, |plan| plan.slowdown(rank, at))
    }

    /// The first failure of `rank` after `now`, or [`SimTime::MAX`]: a
    /// run-ahead chain takes no kernel starting then or later (module
    /// docs, "Run-ahead").
    fn next_failure(&self, rank: u32, now: SimTime) -> SimTime {
        self.faults
            .iter()
            .flat_map(|plan| &plan.failures)
            .filter(|f| f.rank == rank && f.at > now)
            .map(|f| f.at)
            .fold(SimTime::MAX, SimTime::min)
    }

    /// A stream drained; wake hosts blocked on it.
    fn notify_drain(&self, st: &mut SimScratch, wi: usize, si: usize, now: SimTime) {
        let r = &mut st.ranks[wi];
        match r.blocked {
            Some(HostBlock::StreamDrain { si: want }) if want == si => {
                r.blocked = None;
                r.host_time = r.host_time.max(now);
                let since = r.blocked_at;
                st.wake(now, since, EvKind::HostDispatch { wi });
            }
            Some(HostBlock::DeviceDrain { remaining }) => {
                let left = remaining.saturating_sub(1);
                r.host_time = r.host_time.max(now);
                if left == 0 {
                    r.blocked = None;
                    let since = r.blocked_at;
                    st.wake(now, since, EvKind::HostDispatch { wi });
                } else {
                    r.blocked = Some(HostBlock::DeviceDrain { remaining: left });
                }
            }
            _ => {}
        }
    }
}

/// `dur` scaled by `factor`. The scales of a hetero pool and a
/// straggler window apply only when they are not 1, so that the
/// default (homogeneous, no-fault) path keeps every estimate bit for
/// bit; the estimator's shared memo stays rank-agnostic.
fn scaled(dur: SimTime, factor: f64) -> SimTime {
    if factor == 1.0 {
        dur
    } else {
        dur.scale(factor)
    }
}

/// Bytes a collective actually moves over the network for a payload of
/// `bytes` across `n` ranks — the standard ring-algorithm traffic:
/// all-reduce sends `2B(n-1)/n` (reduce-scatter + all-gather phases),
/// all-gather and reduce-scatter each send `B(n-1)/n`, everything else
/// (broadcast, reduce, point-to-point) moves the payload once.
fn wire_bytes(kind: CollectiveKind, bytes: u64, n: usize) -> f64 {
    let n = n.max(1) as f64;
    let b = bytes as f64;
    match kind {
        CollectiveKind::AllReduce => 2.0 * b * (n - 1.0) / n,
        CollectiveKind::AllGather | CollectiveKind::ReduceScatter => b * (n - 1.0) / n,
        _ => b,
    }
}

/// The integration tests' fixed jobs, for the arena checks below.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::*;
    use maya_estimator::OracleEstimator;
    use maya_trace::{Dtype, KernelKind, TraceEvent, WorkerTrace};
    use std::collections::BTreeMap;

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

    fn simulate(
        job: &JobTrace,
        cluster: &ClusterSpec,
        estimator: &dyn RuntimeEstimator,
    ) -> Result<SimReport, SimError> {
        Simulator::new(estimator, cluster).run(job)
    }

    #[test]
    fn empty_trace_finishes_at_zero() {
        let c = cluster();
        let oracle = OracleEstimator::new(&c);
        let r = simulate(&job1(vec![]), &c, &oracle).unwrap();
        assert_eq!(r.total_time, SimTime::ZERO);
    }

    #[test]
    fn single_kernel_time_is_host_plus_kernel() {
        let c = cluster();
        let oracle = OracleEstimator::new(&c);
        let r = simulate(&job1(vec![ev(0, kernel(4096), 10.0)]), &c, &oracle).unwrap();
        let kt = oracle.kernel_time(&KernelKind::Gemm {
            m: 4096,
            n: 1024,
            k: 1024,
            dtype: Dtype::Fp32,
        });
        let expect = SimTime::from_us(10.0) + kt;
        assert_eq!(r.total_time, expect);
        assert_eq!(r.compute_time, kt);
    }

    #[test]
    fn host_gap_larger_than_kernel_dominates() {
        // Many tiny kernels with huge host gaps: total ~= sum of gaps.
        let c = cluster();
        let oracle = OracleEstimator::new(&c);
        let evs: Vec<TraceEvent> = (0..10)
            .map(|_| {
                ev(
                    0,
                    DeviceOp::KernelLaunch {
                        kernel: KernelKind::Memset { bytes: 4 },
                    },
                    500.0,
                )
            })
            .collect();
        let r = simulate(&job1(evs), &c, &oracle).unwrap();
        assert!(r.total_time >= SimTime::from_us(5000.0));
        assert!(r.total_time < SimTime::from_us(5200.0), "{}", r.total_time);
    }

    #[test]
    fn two_streams_overlap() {
        let c = cluster();
        let oracle = OracleEstimator::new(&c);
        let serial = simulate(
            &job1(vec![ev(0, kernel(8192), 1.0), ev(0, kernel(8192), 1.0)]),
            &c,
            &oracle,
        )
        .unwrap();
        let parallel = simulate(
            &job1(vec![ev(0, kernel(8192), 1.0), ev(1, kernel(8192), 1.0)]),
            &c,
            &oracle,
        )
        .unwrap();
        assert!(parallel.total_time.as_secs_f64() < serial.total_time.as_secs_f64() * 0.62);
    }

    #[test]
    fn stream_wait_event_serializes() {
        let c = cluster();
        let oracle = OracleEstimator::new(&c);
        let dep = simulate(
            &job1(vec![
                ev(1, kernel(8192), 1.0),
                ev(
                    1,
                    DeviceOp::EventRecord {
                        event: 3,
                        version: 1,
                    },
                    1.0,
                ),
                ev(
                    0,
                    DeviceOp::StreamWaitEvent {
                        event: 3,
                        version: 1,
                    },
                    1.0,
                ),
                ev(0, kernel(8192), 1.0),
            ]),
            &c,
            &oracle,
        )
        .unwrap();
        let serial = simulate(
            &job1(vec![ev(0, kernel(8192), 1.0), ev(0, kernel(8192), 1.0)]),
            &c,
            &oracle,
        )
        .unwrap();
        let ratio = dep.total_time.as_secs_f64() / serial.total_time.as_secs_f64();
        assert!((0.99..1.01).contains(&ratio), "{ratio}");
    }

    #[test]
    fn wait_on_unrecorded_event_is_noop() {
        let c = cluster();
        let oracle = OracleEstimator::new(&c);
        let r = simulate(
            &job1(vec![
                ev(
                    0,
                    DeviceOp::StreamWaitEvent {
                        event: 9,
                        version: 0,
                    },
                    1.0,
                ),
                ev(0, kernel(1024), 1.0),
            ]),
            &c,
            &oracle,
        );
        assert!(r.is_ok());
    }

    #[test]
    fn device_synchronize_blocks_host() {
        let c = cluster();
        let oracle = OracleEstimator::new(&c);
        let r = simulate(
            &job1(vec![
                ev(0, kernel(8192), 1.0),
                ev(1, kernel(8192), 1.0),
                ev(0, DeviceOp::DeviceSynchronize, 1.0),
                ev(0, kernel(8192), 1.0),
            ]),
            &c,
            &oracle,
        )
        .unwrap();
        // After sync, the third kernel cannot overlap: total >= 2 kernels.
        let kt = oracle
            .kernel_time(&KernelKind::Gemm {
                m: 8192,
                n: 1024,
                k: 1024,
                dtype: Dtype::Fp32,
            })
            .as_secs_f64();
        assert!(r.total_time.as_secs_f64() > 1.99 * kt, "{}", r.total_time);
    }

    #[test]
    fn collective_lockstep_and_pipeline_bubble() {
        let c = cluster();
        let oracle = OracleEstimator::new(&c);
        let coll = |rank: u32| DeviceOp::Collective {
            desc: CollectiveDesc {
                kind: CollectiveKind::AllReduce,
                comm_id: 11,
                seq: 0,
                bytes: 1 << 24,
                nranks: 2,
                rank_in_comm: rank,
            },
        };
        // Rank 1 computes first -> rank 0 stalls at the rendezvous.
        let mut w0 = WorkerTrace::new(0);
        w0.events = vec![ev(0, coll(0), 1.0), ev(0, DeviceOp::StreamSynchronize, 1.0)];
        let mut w1 = WorkerTrace::new(1);
        w1.events = vec![
            ev(0, kernel(8192), 1.0),
            ev(0, coll(1), 1.0),
            ev(0, DeviceOp::StreamSynchronize, 1.0),
        ];
        let mut groups = BTreeMap::new();
        groups.insert(11u64, vec![0, 1]);
        let job = JobTrace {
            nranks: 2,
            workers: vec![w0, w1],
            comm_groups: groups,
        };
        let r = simulate(&job, &c, &oracle).unwrap();
        let kt = oracle.kernel_time(&KernelKind::Gemm {
            m: 8192,
            n: 1024,
            k: 1024,
            dtype: Dtype::Fp32,
        });
        let wire = oracle.collective_time(CollectiveKind::AllReduce, 1 << 24, &[0, 1], &c);
        // Lockstep: both ranks end at ~ compute + wire.
        assert!(r.rank_end_times[0] >= kt + wire, "{:?}", r.rank_end_times);
        let d = r.rank_end_times[0].as_secs_f64() - r.rank_end_times[1].as_secs_f64();
        assert!(d.abs() < 1e-4, "lockstep completion, delta {d}");
        assert!(r.comm_time >= wire);
    }

    #[test]
    fn mismatched_collective_deadlocks() {
        let c = cluster();
        let oracle = OracleEstimator::new(&c);
        let coll = DeviceOp::Collective {
            desc: CollectiveDesc {
                kind: CollectiveKind::AllReduce,
                comm_id: 11,
                seq: 0,
                bytes: 64,
                nranks: 2,
                rank_in_comm: 0,
            },
        };
        let mut w0 = WorkerTrace::new(0);
        w0.events = vec![ev(0, coll, 1.0), ev(0, DeviceOp::StreamSynchronize, 1.0)];
        let mut w1 = WorkerTrace::new(1);
        w1.events = vec![ev(0, kernel(64), 1.0)];
        let mut groups = BTreeMap::new();
        groups.insert(11u64, vec![0, 1]);
        let job = JobTrace {
            nranks: 2,
            workers: vec![w0, w1],
            comm_groups: groups,
        };
        match simulate(&job, &c, &oracle) {
            Err(SimError::Deadlock { stuck_ranks }) => assert_eq!(stuck_ranks, vec![0]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn sync_memcpy_blocks_host() {
        let c = cluster();
        let oracle = OracleEstimator::new(&c);
        let r = simulate(
            &job1(vec![
                ev(0, kernel(8192), 1.0),
                ev(
                    0,
                    DeviceOp::MemcpyAsync {
                        bytes: 1 << 28,
                        kind: maya_trace::MemcpyKind::DeviceToHost,
                        sync: true,
                    },
                    1.0,
                ),
                ev(0, kernel(8192), 1.0),
            ]),
            &c,
            &oracle,
        )
        .unwrap();
        let kt = oracle.kernel_time(&KernelKind::Gemm {
            m: 8192,
            n: 1024,
            k: 1024,
            dtype: Dtype::Fp32,
        });
        let ct = oracle.memcpy_time(1 << 28, maya_trace::MemcpyKind::DeviceToHost);
        assert!(r.total_time >= kt + ct + kt, "{}", r.total_time);
    }

    #[test]
    fn sparse_collective_rendezvous() {
        let c = cluster();
        let oracle = OracleEstimator::new(&c);
        let coll = DeviceOp::Collective {
            desc: CollectiveDesc {
                kind: CollectiveKind::AllReduce,
                comm_id: 11,
                seq: 0,
                bytes: 1 << 20,
                nranks: 2,
                rank_in_comm: 0,
            },
        };
        let mut w0 = WorkerTrace::new(0);
        w0.events = vec![ev(0, coll, 1.0), ev(0, DeviceOp::StreamSynchronize, 1.0)];
        let mut groups = BTreeMap::new();
        groups.insert(11u64, vec![0, 1]);
        // Rank 1 deduplicated away; rendezvous completes with rank 0 only.
        let job = JobTrace {
            nranks: 2,
            workers: vec![w0],
            comm_groups: groups,
        };
        let r = simulate(&job, &c, &oracle).unwrap();
        let wire = oracle.collective_time(CollectiveKind::AllReduce, 1 << 20, &[0, 1], &c);
        assert!(r.total_time >= wire);
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
                        kind: maya_trace::MemcpyKind::HostToDevice,
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

    /// At the pending high-water mark nearly every op of the trace is
    /// issued and not yet run, and the op is all that is parked for it:
    /// its size is most of a run's footprint. It is half a cache line
    /// and aligned to its size, so no op straddles two lines.
    #[test]
    fn an_op_is_half_a_cache_line() {
        let op = (std::mem::size_of::<Op>(), std::mem::align_of::<Op>());
        assert_eq!(op, (32, 32));
    }

    /// Every kind decodes to what was encoded, at the extremes of its
    /// payload: no duration, slot or site is narrowed to fit the op.
    #[test]
    fn a_packed_op_decodes_to_its_kind() {
        let durs = [SimTime::ZERO, SimTime::from_ns((1 << 32) + 1), SimTime::MAX];
        let mut kinds = vec![OpKind::HostOnly, OpKind::StreamSync, OpKind::DeviceSync];
        for dur in durs {
            kinds.push(OpKind::Kernel { dur });
            for sync in [false, true] {
                kinds.push(OpKind::Memcpy { dur, sync });
            }
        }
        for slot in [0, u32::MAX - 1] {
            kinds.push(OpKind::Record { slot });
            kinds.push(OpKind::Join { site: slot });
            for zero in [false, true] {
                kinds.push(OpKind::Wait { slot, zero });
                kinds.push(OpKind::EventSync { slot, zero });
            }
        }
        for stream in [0, u16::MAX - 1] {
            for &kind in &kinds {
                let op = Op::new(stream, kind);
                let lowered = (op.kind(), op.stream, op.next, op.at, op.seq);
                assert_eq!(lowered, (kind, stream, NONE, SimTime::ZERO, 0));
            }
        }
    }

    /// A stream slot is a `u16`: a worker with 65 535 streams lowers,
    /// its last in slot 65 534, and one with a stream more is refused
    /// by rank and count instead of having a slot truncated.
    #[test]
    fn lowering_refuses_more_streams_than_a_slot_holds() {
        let c = cluster();
        let oracle = OracleEstimator::new(&c);
        let sim = Simulator::new(&oracle, &c);
        let mut st = SimScratch::new();
        let streams = |n: u32| job1((0..n).map(|s| ev(s, kernel(64), 0.0)).collect());
        let limit = u32::from(u16::MAX);
        assert_eq!(sim.lower(&streams(limit), &mut st).map(|_| ()), Ok(()));
        let last = st.ranks[0].ops.last().map(|op| op.stream);
        assert_eq!(last, Some(u16::MAX - 1));
        let refused = sim.lower(&streams(limit + 1), &mut st).map(|_| ());
        let why = "rank 0 has 65536 streams, above the simulator's limit of 65535";
        assert_eq!(refused, Err(SimError::InvalidTrace(why.into())));
    }

    #[test]
    fn issue_lanes_pop_in_at_seq_order() {
        // Random interleaving of host-issued pumps (per-rank monotone
        // times, many ties), plain heap events and pops, against the
        // definition: always the smallest `(at, seq)` still pending.
        // Every third op only moves the host, so the lane cursor has
        // ops to step over; no stream is ever busy, so none is elided.
        const RANKS: usize = 5;
        const OPS_PER_RANK: usize = 20_000;
        let mut st = SimScratch::new();
        st.ranks.resize_with(RANKS, RankSim::default);
        for (rank, r) in st.ranks.iter_mut().enumerate() {
            r.reset(rank as u32);
            r.streams.push(StreamSim::IDLE);
            let kernel = OpKind::Kernel { dur: SimTime::ZERO };
            r.ops.extend(
                (0..OPS_PER_RANK)
                    .map(|i| Op::new(0, if i % 3 == 2 { OpKind::HostOnly } else { kernel })),
            );
        }
        st.rewind();
        let mut host_time = [0u64; RANKS];
        let mut pending: Vec<(SimTime, u64)> = Vec::new();
        let mut rng = 0x5eed_u64;
        let mut draw = move |n: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % n
        };
        // The event loop's pop: an issue pump promotes its lane's next.
        let pop_and_check = |st: &mut SimScratch, pending: &mut Vec<(SimTime, u64)>| {
            let want = pending.iter().copied().min();
            let got = st.pop();
            assert_eq!(got.map(|ev| (ev.at, ev.seq)), want);
            if let Some(ev) = got {
                pending.retain(|&k| k != (ev.at, ev.seq));
                st.now = ev.at;
                if let EvKind::IssuePump { wi, .. } = ev.kind {
                    st.promote(wi);
                }
            }
        };
        for _ in 0..20_000 {
            match draw(5) {
                0..=2 => {
                    let wi = draw(RANKS as u64) as usize;
                    host_time[wi] += draw(3);
                    let at = SimTime::from_ns(host_time[wi]).max(st.now);
                    host_time[wi] = at.as_ns();
                    let r = &mut st.ranks[wi];
                    while !r.ops[r.next_op as usize].kind().enqueues() {
                        r.next_op += 1;
                    }
                    let pc = r.next_op;
                    r.next_op += 1;
                    st.issue(wi, pc, at);
                    pending.push((at, st.seq));
                }
                3 => {
                    let at = st.now + SimTime::from_ns(draw(4));
                    st.push(at, EvKind::Pump { wi: 0, si: 0 });
                    pending.push((at, st.seq));
                }
                _ => pop_and_check(&mut st, &mut pending),
            }
            assert_eq!(st.pending, pending.len());
        }
        while !pending.is_empty() {
            pop_and_check(&mut st, &mut pending);
        }
        assert!(st.pop().is_none());
        assert!(st
            .ranks
            .iter()
            .all(|r| r.lane_next == r.next_op && !r.lane_head_queued));
        assert!(st.pending_high_water > 1000, "the lanes ran deep");
    }

    /// Rank 0 of a fresh arena: `streams` idle streams and one
    /// zero-length kernel per `(stream, _)` of `ops`, each linked onto
    /// its stream's queue as lowering links them; none issued yet.
    fn one_rank(streams: usize, ops: &[(u16, SimTime)]) -> SimScratch {
        let mut st = SimScratch::new();
        st.ranks.push(RankSim::default());
        let r = &mut st.ranks[0];
        r.reset(0);
        r.streams.extend(vec![StreamSim::IDLE; streams]);
        for (pc, &(stream, _)) in ops.iter().enumerate() {
            let s = &mut r.streams[stream as usize];
            match r.ops.get_mut(s.tail as usize) {
                Some(prev) => prev.next = pc as u32,
                None => s.first = pc as u32,
            }
            s.tail = pc as u32;
            r.ops
                .push(Op::new(stream, OpKind::Kernel { dur: SimTime::ZERO }));
        }
        st.rewind();
        st
    }

    /// The host of rank 0 issues its next op at `at`.
    fn issue_next(st: &mut SimScratch, at: SimTime) {
        let pc = st.ranks[0].next_op;
        st.ranks[0].next_op += 1;
        st.issue(0, pc, at);
    }

    /// The promotion rule: a pending issue pump is counted off when its
    /// stream is busy past the pump's due time; a stream that is
    /// blocked (rendezvous, event wait) but idle parks it on its
    /// sub-lane, and so does a stream that already has a parked pump;
    /// busy *until* the due time is not past it, and the pump is queued.
    #[test]
    fn promotion_elides_pumps_of_busy_streams_only() {
        let us = SimTime::from_us;
        let ops = [(0, us(50.0)), (1, us(60.0)), (0, us(100.0)), (1, us(110.0))];
        let mut st = one_rank(2, &ops);
        st.ranks[0].streams[0].busy_until = us(100.0);
        st.ranks[0].streams[1].blocked = Some(StreamBlock::Collective);
        for (_, at) in ops {
            issue_next(&mut st, at);
        }
        // Stream 0 is busy past 50 us: that pump is gone, and counted.
        assert_eq!((st.events_processed, st.pending), (1, 3));
        // Stream 1 is blocked, not busy: its pump is parked, not queued.
        let s1 = st.ranks[0].streams[1];
        assert_eq!((s1.lane, s1.lane_queued), (1, false));
        // Busy until exactly the due time: the pump would run.
        let head = st
            .pop()
            .expect("a pump due as its stream frees up is queued");
        assert_eq!((head.at, head.seq), (us(100.0), 3));
        assert!(matches!(head.kind, EvKind::IssuePump { wi: 0, si: 0 }));
        // The fourth parks behind the second; the lane is spent.
        st.promote(0);
        assert!(st.heap.is_empty() && !st.ranks[0].lane_head_queued);
        assert_eq!((st.events_processed, st.pending), (1, 2));
        // Were the heap to drain now, both would be counted there.
        st.count_parked();
        assert_eq!((st.events_processed, st.pending), (3, 0));
    }

    /// A parked pump released before it is due re-enters the heap at
    /// its own `(at, seq)`, and only a sub-lane's head is ever in the
    /// heap — a pump issued while the head is queued parks behind it.
    #[test]
    fn a_released_pump_keeps_its_place_in_the_order() {
        let us = SimTime::from_us;
        let ops = [(1, us(60.0)), (1, us(80.0)), (1, us(90.0))];
        let mut st = one_rank(2, &ops);
        st.ranks[0].streams[1].blocked = Some(StreamBlock::Event { slot: 0 });
        // The event that will record at 30 us is already scheduled.
        st.push(us(30.0), EvKind::Pump { wi: 0, si: 0 });
        issue_next(&mut st, us(60.0));
        issue_next(&mut st, us(80.0));
        assert_eq!(st.heap.len(), 1, "both pumps are parked");
        let fire = st.pop().expect("the recording pump");
        (st.now, st.now_seq) = (fire.at, fire.seq);
        assert_eq!(st.release(0, 1, st.now), us(30.0));
        issue_next(&mut st, us(90.0));
        let mut order = Vec::new();
        while let Some(ev) = st.pop() {
            assert!(matches!(ev.kind, EvKind::ParkedPump { wi: 0, si: 1 }));
            assert!(st.heap.is_empty(), "one head in the heap at a time");
            order.push((ev.at, ev.seq));
            (st.now, st.now_seq) = (ev.at, ev.seq);
            st.advance(0, 1);
        }
        assert_eq!(order, [(us(60.0), 2), (us(80.0), 3), (us(90.0), 4)]);
        assert_eq!((st.events_processed, st.pending), (0, 0));
        assert_eq!(st.ranks[0].streams[1].lane, NONE);
    }

    /// Kernels take 100 µs, copies 10 µs and collectives `coll_us`:
    /// durations a schedule can be counted with.
    struct Fixed {
        coll_us: f64,
    }

    impl RuntimeEstimator for Fixed {
        fn kernel_time(&self, _: &KernelKind) -> SimTime {
            SimTime::from_us(100.0)
        }
        fn memcpy_time(&self, _: u64, _: maya_trace::MemcpyKind) -> SimTime {
            SimTime::from_us(10.0)
        }
        fn collective_time(
            &self,
            _: CollectiveKind,
            _: u64,
            _: &[u32],
            _: &ClusterSpec,
        ) -> SimTime {
            SimTime::from_us(self.coll_us)
        }
        fn name(&self) -> &'static str {
            "fixed"
        }
    }

    /// `(report, heap pops)` of one run of `job` under `Fixed`.
    fn counted(job: &JobTrace, coll_us: f64, faults: Option<&FaultPlan>) -> (SimReport, u64) {
        let c = cluster();
        let obs = SimObs::default();
        let report = Simulator::new(&Fixed { coll_us }, &c)
            .with_faults(faults)
            .with_obs(Some(&obs))
            .run(job)
            .expect("the job finishes");
        assert_eq!(obs.events.get(), report.events_processed);
        (report, obs.heap_pops.get())
    }

    /// Two workers over communicator 11, one op list each.
    fn job2(w0: Vec<TraceEvent>, w1: Vec<TraceEvent>) -> JobTrace {
        let (mut a, mut b) = (WorkerTrace::new(0), WorkerTrace::new(1));
        (a.events, b.events) = (w0, w1);
        JobTrace {
            nranks: 2,
            workers: vec![a, b],
            comm_groups: BTreeMap::from([(11, vec![0, 1])]),
        }
    }

    fn all_reduce(rank_in_comm: u32) -> DeviceOp {
        pair_collective(11, rank_in_comm, 64)
    }

    /// A zero-length rendezvous releases a stream at the very instant
    /// a pump parked on it is due: the pump runs iff it comes after the
    /// releasing event in `(at, seq)` order. Times in µs; each host
    /// dispatches all its ops in its first event.
    ///
    /// ```text
    /// early parks:  w0 joins @1, issues a kernel @2 (seq 4): parked
    ///               w1 joins @2 (seq 5): resolves @2, after the kernel's
    ///               pump — dropped, counted; 9 pops + 1 = 10 events,
    ///               less w1's wake-up @2: 9
    /// late parks:   w0 joins @2 (seq 3); w1 joins @1, issues a kernel @2
    ///               (seq 5): parked; w0's join resolves @2 before it —
    ///               it re-enters the heap and starts the kernel; 10 pops,
    ///               less w0's wake-up @2: 9 events
    /// ```
    ///
    /// The stream that joins last blocks and is released in one
    /// instant, so its wake-up is not counted (module docs, "The order of
    /// an instant"): 10 events each before that rule, 9 with it.
    #[test]
    fn a_zero_length_rendezvous_releases_parked_pumps_in_at_seq_order() {
        let tail = |join: DeviceOp, host_us: f64, launch: bool| {
            let mut evs = vec![ev(0, join, host_us)];
            if launch {
                evs.push(ev(0, kernel(1024), 1.0));
            }
            evs.push(ev(0, DeviceOp::StreamSynchronize, 1.0));
            evs
        };
        let us = SimTime::from_us;
        let early = job2(
            tail(all_reduce(0), 1.0, true),
            tail(all_reduce(1), 2.0, false),
        );
        let (report, pops) = counted(&early, 0.0, None);
        assert_eq!((report.events_processed, pops), (9, 9));
        assert_eq!(report.rank_end_times, [us(102.0), us(3.0)]);
        let late = job2(
            tail(all_reduce(0), 2.0, false),
            tail(all_reduce(1), 1.0, true),
        );
        let (report, pops) = counted(&late, 0.0, None);
        assert_eq!((report.events_processed, pops), (9, 10));
        assert_eq!(report.rank_end_times, [us(3.0), us(102.0)]);
    }

    /// A fault extends a blocked stream's `busy_until` while two pumps
    /// sit parked on it; the release judges them against the extended
    /// horizon. Times in µs:
    ///
    /// ```text
    /// w0: joins @1, kernels issued @201, @202 park behind the join
    /// w1: kernel @1..101, joins @2 (that pump elided: busy to 101)
    /// fault @50 on w0, cost 1000: w0's stream busy until 1050
    /// @101 the rendezvous resolves, 50 long: the two parked pumps are
    ///      due after it but before 1050 — elided, counted
    /// w0's kernels run 1050..1150..1250 as one run-ahead chain, the
    ///      completion @1150 counted off; 12 pops + 4 = 16 events
    /// ```
    ///
    /// Heap pops were 13 before run-ahead under a fault plan: the
    /// completion at 1150 popped only to start the second kernel.
    #[test]
    fn a_fault_extends_a_stream_while_its_pumps_are_parked() {
        let us = SimTime::from_us;
        let job = job2(
            vec![
                ev(0, all_reduce(0), 1.0),
                ev(0, kernel(1024), 200.0),
                ev(0, kernel(1024), 1.0),
                ev(0, DeviceOp::StreamSynchronize, 1.0),
            ],
            vec![
                ev(0, kernel(1024), 1.0),
                ev(0, all_reduce(1), 1.0),
                ev(0, DeviceOp::StreamSynchronize, 1.0),
            ],
        );
        let plan = FaultPlan {
            seed: 0,
            stragglers: vec![],
            failures: vec![maya_net::RankFailure {
                rank: 0,
                at: us(50.0),
                restart_cost: us(1000.0),
            }],
        };
        let (report, pops) = counted(&job, 50.0, Some(&plan));
        assert_eq!(
            report,
            SimReport {
                total_time: us(1250.0),
                rank_end_times: vec![us(1250.0), us(151.0)],
                comm_time: us(50.0),
                compute_time: us(200.0),
                host_time: us(1203.0),
                peak_mem_bytes: 0,
                events_processed: 16,
            }
        );
        assert_eq!(pops, 12);
    }

    /// A stream released with a parked pump due later is blocked again
    /// — by an op the release's own pump reaches — before that pump,
    /// now its sub-lane's queued head, pops. The head pops as a no-op
    /// and the pump behind it stays parked until the next release.
    /// Times in µs, one worker:
    ///
    /// ```text
    /// s0: kernel @1..101, record A @101, kernel @101..201, record B @201
    /// s1: wait A @5 blocks; wait B @50, kernels @160, @170 park
    /// @101 A releases s1: wait B's pump is stale (dropped), @160's is
    ///      queued; the release's pump reaches wait B: blocked again
    /// @160 the head pops as a no-op; @170's stays parked
    /// @201 B releases s1: @170's is stale (dropped); kernels run
    ///      201..301..401 as one run-ahead chain, the completion @301
    ///      counted off; 10 pops + 3 elided on s0 + 2 + 1 = 16 events
    /// ```
    ///
    /// Heap pops were 11 before run-ahead: the completion at 301 popped
    /// only to start the second kernel.
    #[test]
    fn a_stream_blocked_again_under_a_queued_head_keeps_parking() {
        let us = SimTime::from_us;
        let record = |event| DeviceOp::EventRecord { event, version: 1 };
        let wait = |event| DeviceOp::StreamWaitEvent { event, version: 1 };
        let job = job1(vec![
            ev(0, kernel(1024), 1.0),
            ev(0, record(1), 1.0),
            ev(0, kernel(1024), 1.0),
            ev(0, record(2), 1.0),
            ev(1, wait(1), 1.0),
            ev(1, wait(2), 45.0),
            ev(1, kernel(1024), 110.0),
            ev(1, kernel(1024), 10.0),
            ev(0, DeviceOp::DeviceSynchronize, 1.0),
        ]);
        let (report, pops) = counted(&job, 0.0, None);
        assert_eq!(
            (report.total_time, report.compute_time, report.host_time),
            (us(401.0), us(400.0), us(171.0))
        );
        assert_eq!((report.events_processed, pops), (16, 10));
    }

    /// Pumps still parked when the heap drains are counted there, so a
    /// deadlocked run ends with nothing pending. Rank 0 joins a
    /// rendezvous rank 1 never joins and waits on an event never
    /// recorded, with two kernels parked behind each: 6 pops + 4 = 10
    /// events, what the reference core pops (held in `tests/props.rs`).
    #[test]
    fn a_deadlock_counts_the_pumps_still_parked() {
        let c = cluster();
        let obs = SimObs::default();
        let sim = Simulator::new(&Fixed { coll_us: 0.0 }, &c).with_obs(Some(&obs));
        let wait = DeviceOp::StreamWaitEvent {
            event: 5,
            version: 1,
        };
        let job = job2(
            vec![
                ev(0, all_reduce(0), 1.0),
                ev(0, kernel(1024), 1.0),
                ev(0, kernel(1024), 1.0),
                ev(1, wait, 1.0),
                ev(1, kernel(1024), 1.0),
                ev(1, kernel(1024), 1.0),
                ev(0, DeviceOp::DeviceSynchronize, 1.0),
            ],
            vec![ev(0, kernel(1024), 1.0)],
        );
        let mut st = SimScratch::new();
        assert_eq!(
            sim.run_prevalidated(&job, &mut st),
            Err(SimError::Deadlock {
                stuck_ranks: vec![0]
            })
        );
        assert_eq!(st.pending, 0);
        assert_eq!((obs.events.get(), obs.heap_pops.get()), (10, 6));
    }

    /// A plan of one failure of `rank` at `at_us`, restarting in
    /// `cost_us`.
    fn failure(rank: u32, at_us: f64, cost_us: f64) -> FaultPlan {
        FaultPlan {
            seed: 0,
            stragglers: vec![],
            failures: vec![maya_net::RankFailure {
                rank,
                at: SimTime::from_us(at_us),
                restart_cost: SimTime::from_us(cost_us),
            }],
        }
    }

    /// A failure strikes at the very instant an issued kernel would
    /// start back to back, while the host waits on another stream that
    /// drains then; the woken host reads the first stream's queue at
    /// that instant. Times in µs, one worker:
    ///
    /// ```text
    /// s0: kernel @1..101, kernel issued @2 (that pump elided: busy to 101)
    /// s1: kernel @1..101; the host syncs on s1 @3 and parks
    /// fault @101, cost 1000: it pops first at 101. s0's second kernel
    ///     has not started, so s0 is busy until 1101; s1 is drained and
    ///     keeps 101; the parked host's clock moves to 1101
    /// @101 s0's completion is a no-op; s1's wakes the host, which syncs
    ///      on s0 @1102 and parks: the second kernel is still queued
    /// s0's second kernel runs 1101..1201; its completion wakes the
    /// host; 10 pops + 1 = 11 events
    /// ```
    ///
    /// The second kernel cannot join the first's chain: it would start
    /// at the failure, not before it. Had it joined, it would have left
    /// the queue at 1, and the woken host would find s0's queue empty
    /// and not park: 10 events. No chain forms, so the pops are what
    /// they were before run-ahead under a fault plan.
    #[test]
    fn a_failure_where_a_kernel_would_start_back_to_back_ends_the_chain() {
        let us = SimTime::from_us;
        let job = job1(vec![
            ev(0, kernel(1024), 1.0),
            ev(1, kernel(1024), 0.0),
            ev(0, kernel(1024), 1.0),
            ev(1, DeviceOp::StreamSynchronize, 1.0),
            ev(0, DeviceOp::StreamSynchronize, 1.0),
        ]);
        let (report, pops) = counted(&job, 0.0, Some(&failure(0, 101.0, 1000.0)));
        assert_eq!(
            report,
            SimReport {
                total_time: us(1201.0),
                rank_end_times: vec![us(1201.0)],
                comm_time: SimTime::ZERO,
                compute_time: us(300.0),
                host_time: us(1004.0),
                peak_mem_bytes: 0,
                events_processed: 11,
            }
        );
        assert_eq!(pops, 10);
    }

    /// A failure lands inside a kernel that follows another back to
    /// back, with a third issued behind them, and the host reads the
    /// stream's queue after the failure. Times in µs, one worker:
    ///
    /// ```text
    /// s0: kernels issued @1, @2, @3 (the pumps @2 and @3 elided); the
    ///     first two run 1..101..201 as one chain, busy to 201, the
    ///     completion @101 counted off
    /// s1: kernel @60..160; the host syncs on s1 @61 and parks
    /// fault @150, cost 1000: s0 is busy until 201 + 1000 = 1201, s1
    ///     until 160 + 1000 = 1160, the parked host's clock 1150
    /// @160, @201 the completions are no-ops
    /// @1160 s1 drains and wakes the host, which syncs on s0 @1161 and
    ///       parks: the third kernel is still queued
    /// the third kernel runs 1201..1301; its completion wakes the host;
    /// 11 pops + 3 = 14 events
    /// ```
    ///
    /// The third kernel would start after the failure, so it does not
    /// join the chain. Had it joined, the woken host would find s0's
    /// queue empty at 1160 and not park: 13 events. Heap pops were 12
    /// before run-ahead under a fault plan.
    #[test]
    fn a_failure_inside_a_chain_leaves_the_rest_queued() {
        let us = SimTime::from_us;
        let job = job1(vec![
            ev(0, kernel(1024), 1.0),
            ev(0, kernel(1024), 1.0),
            ev(0, kernel(1024), 1.0),
            ev(1, kernel(1024), 57.0),
            ev(1, DeviceOp::StreamSynchronize, 1.0),
            ev(0, DeviceOp::StreamSynchronize, 1.0),
        ]);
        let (report, pops) = counted(&job, 0.0, Some(&failure(0, 150.0, 1000.0)));
        assert_eq!(
            report,
            SimReport {
                total_time: us(1301.0),
                rank_end_times: vec![us(1301.0)],
                comm_time: SimTime::ZERO,
                compute_time: us(400.0),
                host_time: us(1062.0),
                peak_mem_bytes: 0,
                events_processed: 14,
            }
        );
        assert_eq!(pops, 11);
    }

    /// A straggler window, 2x over [3, 10), opens between the issue
    /// instants of two kernels on one stream. The slowdown is judged at
    /// each kernel's issue instant. Times in µs, one worker:
    ///
    /// ```text
    /// s0: kernels issued @1, @5 (in the window), @11, @12; the host
    ///     syncs @13 and parks (the pumps @5, @11, @12 elided)
    /// they run 1..101..301 (scaled)..401..501 as one chain, the
    /// completions @101, @301 and @401 counted off; the last completion
    /// wakes the host; 4 pops + 6 = 10 events
    /// ```
    ///
    /// The scaled kernel joins the first kernel's chain. Heap pops were 7
    /// before run-ahead under a fault plan, and 6 while a scaled kernel
    /// ran alone.
    #[test]
    fn a_straggler_window_opening_between_two_kernels_scales_the_second() {
        let us = SimTime::from_us;
        let job = job1(vec![
            ev(0, kernel(1024), 1.0),
            ev(0, kernel(1024), 4.0),
            ev(0, kernel(1024), 6.0),
            ev(0, kernel(1024), 1.0),
            ev(0, DeviceOp::StreamSynchronize, 1.0),
        ]);
        let plan = FaultPlan {
            seed: 0,
            stragglers: vec![maya_net::StragglerWindow {
                rank: 0,
                start: us(3.0),
                end: us(10.0),
                slowdown: 2.0,
            }],
            failures: vec![],
        };
        let (report, pops) = counted(&job, 0.0, Some(&plan));
        assert_eq!(
            report,
            SimReport {
                total_time: us(501.0),
                rank_end_times: vec![us(501.0)],
                comm_time: SimTime::ZERO,
                compute_time: us(500.0),
                host_time: us(13.0),
                peak_mem_bytes: 0,
                events_processed: 10,
            }
        );
        assert_eq!(pops, 4);
    }

    /// A failure on one rank of a pair while the other runs three
    /// kernels back to back, then both all-reduce, 50 µs long. Times in
    /// µs; each worker issues three kernels @1, @2, @3 and the
    /// all-reduce @4 (those pumps elided: busy to 101), syncs @5 and
    /// parks:
    ///
    /// ```text
    /// w0: kernels 1..101..201..301 as one chain, joins @301
    /// w1: kernels 1..101..201 as one chain; fault @150, cost 1000: busy
    ///     until 1201, the parked host's clock 1150; the chain end @201
    ///     is a no-op
    /// w1: third kernel 1201..1301, joins @1301: the all-reduce runs
    ///     1301..1351 on both; each drained stream wakes its host;
    ///     13 pops + 6 elided + 3 counted off = 22 events
    /// ```
    ///
    /// w1's failure does not end w0's chain; w1's chain ends before
    /// the kernel that would start after its failure. Heap pops were 16
    /// before run-ahead under a fault plan: w0's completions @101 and
    /// @201 and w1's @101 each popped only to start the next kernel.
    #[test]
    fn a_failure_on_one_rank_stalls_its_peer_at_the_all_reduce() {
        let us = SimTime::from_us;
        let worker = |rank_in_comm| {
            vec![
                ev(0, kernel(1024), 1.0),
                ev(0, kernel(1024), 1.0),
                ev(0, kernel(1024), 1.0),
                ev(0, all_reduce(rank_in_comm), 1.0),
                ev(0, DeviceOp::StreamSynchronize, 1.0),
            ]
        };
        let job = job2(worker(0), worker(1));
        let (report, pops) = counted(&job, 50.0, Some(&failure(1, 150.0, 1000.0)));
        assert_eq!(
            report,
            SimReport {
                total_time: us(1351.0),
                rank_end_times: vec![us(1351.0), us(1351.0)],
                comm_time: us(50.0),
                compute_time: us(300.0),
                host_time: us(1005.0),
                peak_mem_bytes: 0,
                events_processed: 22,
            }
        );
        assert_eq!(pops, 13);
    }

    /// Capacity of every buffer the arena owns.
    fn capacities(st: &SimScratch) -> Vec<usize> {
        let p = &st.program;
        let mut caps = vec![
            p.comm_ids.capacity(),
            p.groups.capacity(),
            p.members.capacity(),
            st.ranks.capacity(),
            st.heap.capacity(),
            st.comms.capacity(),
            st.spare.capacity(),
            st.stream_index.capacity(),
            st.event_index.capacity(),
            st.flow_meta.capacity(),
            st.routes.capacity(),
            st.route_nodes.capacity(),
        ];
        for c in &st.comms {
            caps.extend([c.open.capacity(), c.times.capacity(), c.flows.capacity()]);
        }
        for r in &st.ranks {
            caps.extend([
                r.ops.capacity(),
                r.delays.capacity(),
                r.sites.capacity(),
                r.streams.capacity(),
                r.fired.capacity(),
                r.event_waiters.capacity(),
            ]);
            caps.extend(r.event_waiters.iter().map(Vec::capacity));
        }
        caps
    }

    #[test]
    fn scratch_reuse_is_byte_identical_across_different_jobs() {
        let c = cluster();
        let oracle = OracleEstimator::new(&c);
        let sim = Simulator::new(&oracle, &c);
        let mut scratch = SimScratch::new();
        // Interleave different-shaped jobs through one scratch arena;
        // every run must match a fresh-state run exactly.
        for seed in 0..6u64 {
            let job = busy_job(seed);
            job.validate().unwrap();
            let reused = sim.run_prevalidated(&job, &mut scratch).unwrap();
            let fresh = sim.run(&job).unwrap();
            assert_eq!(reused, fresh, "seed {seed}");
            // The same job again finds every buffer already sized.
            let sized = capacities(&scratch);
            let again = sim.run_prevalidated(&job, &mut scratch).unwrap();
            assert_eq!(again, fresh, "seed {seed}, second run");
            assert_eq!(capacities(&scratch), sized, "seed {seed}: the arena grew");
            // And a shrunken job right after a bigger one.
            let small = job1(vec![ev(0, kernel(512), 1.0)]);
            small.validate().unwrap();
            let reused = sim.run_prevalidated(&small, &mut scratch).unwrap();
            let fresh = sim.run(&small).unwrap();
            assert_eq!(reused, fresh, "small after seed {seed}");
        }
        // The topology path through the same arena: a warm replay finds
        // its routes, flow table and participant lists already sized.
        let contended = common::contended_cluster();
        let oracle = OracleEstimator::new(&contended);
        let faults = common::pinned_faults();
        let sim = Simulator::new(&oracle, &contended).with_faults(Some(&faults));
        let job = common::pinned_job();
        let fresh = sim.run(&job).unwrap();
        assert_eq!(sim.run_prevalidated(&job, &mut scratch).unwrap(), fresh);
        let sized = capacities(&scratch);
        assert_eq!(sim.run_prevalidated(&job, &mut scratch).unwrap(), fresh);
        assert_eq!(capacities(&scratch), sized, "contended: the arena grew");
    }

    /// Three pairs all-reduce the same bytes over one node's fabric
    /// link, which all three flows cross: pairs A and B join at 1 µs,
    /// pair C at 10 µs while A and B are in flight. A and B finish
    /// together, A first (started first), then C. Each rank pops four
    /// events: its dispatch, its join's issue pump, the pump its
    /// release schedules and the dispatch that ends it. The six
    /// convergences stand for one completion per live flow each, of
    /// which only the first to finish is scheduled:
    ///
    /// ```text
    /// start A   live A         A due
    /// start B   live A B       A's superseded; A due, B counted off
    /// start C   live A B C     A's superseded; A due, B C counted off
    /// A fires   live B C       B due, C counted off
    /// B fires   live C         C due
    /// C fires   live -
    /// ```
    ///
    /// 24 + 9 = 33 events; 9 completions, 3 fired and 6 counted off
    /// without reaching the heap: 27 pops. Pushing one completion per
    /// live flow popped all 33.
    #[test]
    fn only_the_first_flow_to_finish_is_scheduled() {
        let c = ClusterSpec::h100(1, 6).with_default_topology();
        let mut workers = Vec::new();
        let mut comm_groups = BTreeMap::new();
        for (pair, join_us) in [1.0, 1.0, 10.0].into_iter().enumerate() {
            let comm = 100 + pair as u64;
            let ranks = [2 * pair as u32, 2 * pair as u32 + 1];
            comm_groups.insert(comm, ranks.to_vec());
            for (me, rank) in ranks.into_iter().enumerate() {
                let mut w = WorkerTrace::new(rank);
                w.events = vec![
                    ev(0, pair_collective(comm, me as u32, 1 << 26), join_us),
                    ev(0, DeviceOp::StreamSynchronize, 1.0),
                ];
                workers.push(w);
            }
        }
        let job = JobTrace {
            nranks: 6,
            workers,
            comm_groups,
        };
        let obs = SimObs::default();
        let report = Simulator::new(&Fixed { coll_us: 0.0 }, &c)
            .with_obs(Some(&obs))
            .run(&job)
            .unwrap();
        assert_eq!(
            (
                report.events_processed,
                obs.heap_pops.get(),
                obs.flow_solves.get()
            ),
            (33, 27, 6),
            "a superseded completion reached the heap"
        );
        let end = &report.rank_end_times;
        assert!(end[0] == end[3] && end[3] < end[4], "{end:?}");
    }

    /// A communicator remembers the flows of [`Comm::SHAPES`] shapes; a
    /// rendezvous of any further shape builds its route, uses it and
    /// drops it. 70 all-reduces of distinct sizes over one cross-node
    /// pair time exactly as the same 70 each on a communicator of its
    /// own, where every shape is remembered, and the arena keeps 64
    /// routes of 4 links.
    #[test]
    fn flows_beyond_the_shape_cap_drop_their_routes() {
        const COLLECTIVES: u32 = 70;
        let c = ClusterSpec::h100(2, 1).with_default_topology();
        let job = |own_comm: bool| {
            let mut comm_groups = BTreeMap::new();
            let mut workers = Vec::new();
            for rank in 0..2 {
                let mut w = WorkerTrace::new(rank);
                for i in 0..COLLECTIVES {
                    let comm = 100 + if own_comm { u64::from(i) } else { 0 };
                    comm_groups.insert(comm, vec![0, 1]);
                    let desc = CollectiveDesc {
                        kind: CollectiveKind::AllReduce,
                        comm_id: comm,
                        seq: if own_comm { 0 } else { i },
                        bytes: u64::from(i + 1) << 20,
                        nranks: 2,
                        rank_in_comm: rank,
                    };
                    w.events.push(ev(0, DeviceOp::Collective { desc }, 1.0));
                }
                w.events.push(ev(0, DeviceOp::DeviceSynchronize, 1.0));
                workers.push(w);
            }
            JobTrace {
                nranks: 2,
                workers,
                comm_groups,
            }
        };
        let sim = Simulator::new(&Fixed { coll_us: 0.0 }, &c);
        let mut st = SimScratch::new();
        let shared = job(false);
        shared.validate().unwrap();
        let shared = sim.run_prevalidated(&shared, &mut st).unwrap();
        assert_eq!(st.routes.len(), Comm::SHAPES * 4);
        assert_eq!(shared, sim.run(&job(true)).unwrap());
    }

    #[test]
    fn scratch_reuse_after_deadlock_recovers() {
        let c = cluster();
        let oracle = OracleEstimator::new(&c);
        let sim = Simulator::new(&oracle, &c);
        let mut scratch = SimScratch::new();
        // A deadlocked run leaves the arena dirty mid-flight...
        let coll = DeviceOp::Collective {
            desc: CollectiveDesc {
                kind: CollectiveKind::AllReduce,
                comm_id: 11,
                seq: 0,
                bytes: 64,
                nranks: 2,
                rank_in_comm: 0,
            },
        };
        let mut w0 = WorkerTrace::new(0);
        w0.events = vec![ev(0, coll, 1.0), ev(0, DeviceOp::StreamSynchronize, 1.0)];
        let mut w1 = WorkerTrace::new(1);
        w1.events = vec![ev(0, kernel(64), 1.0)];
        let mut groups = BTreeMap::new();
        groups.insert(11u64, vec![0, 1]);
        let bad = JobTrace {
            nranks: 2,
            workers: vec![w0, w1],
            comm_groups: groups,
        };
        bad.validate().unwrap();
        assert!(matches!(
            sim.run_prevalidated(&bad, &mut scratch),
            Err(SimError::Deadlock { .. })
        ));
        // ...and the next run through the same arena is still exact.
        let job = busy_job(3);
        job.validate().unwrap();
        let reused = sim.run_prevalidated(&job, &mut scratch).unwrap();
        let fresh = sim.run(&job).unwrap();
        assert_eq!(reused, fresh);
    }

    fn pair_collective(comm: u64, rank_in_comm: u32, bytes: u64) -> DeviceOp {
        DeviceOp::Collective {
            desc: CollectiveDesc {
                kind: CollectiveKind::AllReduce,
                comm_id: comm,
                seq: 0,
                bytes,
                nranks: 2,
                rank_in_comm,
            },
        }
    }

    /// Two disjoint rank pairs, each running one all-reduce. Both pairs
    /// live on one node, so under the flow model their flows share the
    /// node's intra-node fabric link.
    fn two_pair_job(pairs: u32) -> JobTrace {
        let mut workers = Vec::new();
        let mut groups = BTreeMap::new();
        for p in 0..pairs {
            let comm = 100 + p as u64;
            groups.insert(comm, vec![2 * p, 2 * p + 1]);
            for r in 0..2u32 {
                let rank = 2 * p + r;
                let mut w = WorkerTrace::new(rank);
                w.events = vec![
                    ev(0, pair_collective(comm, r, 1 << 26), 1.0),
                    ev(0, DeviceOp::StreamSynchronize, 1.0),
                ];
                workers.push(w);
            }
        }
        workers.sort_by_key(|w| w.rank);
        JobTrace {
            nranks: 2 * pairs,
            workers,
            comm_groups: groups,
        }
    }

    #[test]
    fn contended_collectives_are_strictly_slower() {
        // The tentpole acceptance check: two concurrent collectives
        // sharing a link must each finish strictly later than the same
        // collective running alone on the identical topology.
        let c = ClusterSpec::h100(1, 4).with_default_topology();
        let oracle = OracleEstimator::new(&c);
        let solo = simulate(&two_pair_job(1), &c, &oracle).unwrap();
        let contended = simulate(&two_pair_job(2), &c, &oracle).unwrap();
        assert!(
            contended.total_time > solo.total_time,
            "contended {} vs solo {}",
            contended.total_time,
            solo.total_time
        );
        assert!(contended.comm_time > solo.comm_time);
        // Max-min fairness halves each flow's rate: the shared phase
        // should be close to 2x the solo bandwidth term.
        let ratio = contended.total_time.as_secs_f64() / solo.total_time.as_secs_f64();
        assert!((1.5..2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn uncontended_topology_pairs_overlap_freely() {
        // The same two pairs spread across two nodes use distinct
        // intra links: no contention, so both finish like the solo run
        // (plus nothing — they never cross the inter-node uplinks).
        let c = ClusterSpec::h100(2, 2).with_default_topology();
        let oracle = OracleEstimator::new(&c);
        let solo = simulate(&two_pair_job(1), &c, &oracle).unwrap();
        let spread = simulate(&two_pair_job(2), &c, &oracle).unwrap();
        let ratio = spread.total_time.as_secs_f64() / solo.total_time.as_secs_f64();
        assert!((0.99..1.01).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn injected_failure_adds_exactly_the_restart_cost() {
        let c = cluster();
        let oracle = OracleEstimator::new(&c);
        let job = job1(vec![ev(0, kernel(8192), 1.0), ev(0, kernel(8192), 1.0)]);
        let base = simulate(&job, &c, &oracle).unwrap();
        let cost = SimTime::from_ms(5.0);
        let plan = FaultPlan {
            seed: 0,
            stragglers: vec![],
            failures: vec![maya_net::RankFailure {
                rank: 0,
                at: SimTime::from_us(5.0),
                restart_cost: cost,
            }],
        };
        let sim = Simulator::new(&oracle, &c).with_faults(Some(&plan));
        let faulted = sim.run(&job).unwrap();
        assert_eq!(faulted.total_time, base.total_time + cost);
    }

    #[test]
    fn failure_after_completion_is_a_noop() {
        let c = cluster();
        let oracle = OracleEstimator::new(&c);
        let job = job1(vec![ev(0, kernel(1024), 1.0)]);
        let base = simulate(&job, &c, &oracle).unwrap();
        let plan = FaultPlan {
            seed: 0,
            stragglers: vec![],
            failures: vec![maya_net::RankFailure {
                rank: 0,
                at: base.total_time + SimTime::from_ms(1.0),
                restart_cost: SimTime::from_ms(50.0),
            }],
        };
        let sim = Simulator::new(&oracle, &c).with_faults(Some(&plan));
        let late = sim.run(&job).unwrap();
        // The fault event itself is processed, but changes nothing.
        assert_eq!(late.total_time, base.total_time);
        assert_eq!(late.rank_end_times, base.rank_end_times);
        assert_eq!(late.compute_time, base.compute_time);
        assert_eq!(late.events_processed, base.events_processed + 1);
    }

    #[test]
    fn straggler_window_slows_covered_kernels() {
        let c = cluster();
        let oracle = OracleEstimator::new(&c);
        let job = busy_job(0);
        let base = simulate(&job, &c, &oracle).unwrap();
        let plan = FaultPlan {
            seed: 0,
            stragglers: vec![maya_net::StragglerWindow {
                rank: 0,
                start: SimTime::ZERO,
                end: SimTime::MAX,
                slowdown: 2.0,
            }],
            failures: vec![],
        };
        let sim = Simulator::new(&oracle, &c).with_faults(Some(&plan));
        let straggled = sim.run(&job).unwrap();
        assert!(straggled.total_time > base.total_time);
        assert!(straggled.compute_time > base.compute_time);
    }

    #[test]
    fn hetero_pool_slows_old_generation_ranks() {
        let oracle_cluster = cluster();
        let oracle = OracleEstimator::new(&oracle_cluster);
        let base = simulate(&busy_job(0), &oracle_cluster, &oracle).unwrap();
        let hetero = cluster().with_hetero(maya_hw::HeteroPool::new(vec![maya_hw::RankClass {
            gpu: maya_hw::GpuSpec::v100(),
            count: 1,
        }]));
        let mixed = simulate(&busy_job(0), &hetero, &oracle).unwrap();
        assert!(
            mixed.total_time > base.total_time,
            "a V100 rank 0 must drag the iteration"
        );
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_no_plan() {
        let c = cluster();
        let oracle = OracleEstimator::new(&c);
        let job = busy_job(2);
        let base = simulate(&job, &c, &oracle).unwrap();
        let empty = FaultPlan::default();
        let sim = Simulator::new(&oracle, &c).with_faults(Some(&empty));
        let report = sim.run(&job).unwrap();
        assert_eq!(report, base);
        assert_eq!(serde::to_string(&report), serde::to_string(&base));
    }

    #[test]
    fn obs_hooks_publish_per_run_tallies() {
        let c = ClusterSpec::h100(1, 4).with_default_topology();
        let oracle = OracleEstimator::new(&c);
        let job = two_pair_job(2);
        let obs = SimObs::default();
        let sim = Simulator::new(&oracle, &c).with_obs(Some(&obs));
        let report = sim.run(&job).unwrap();
        assert_eq!(obs.events.get(), report.events_processed);
        assert!(
            obs.flow_solves.get() > 0,
            "a topology run must re-converge flow rates at least once"
        );
        assert!(obs.heap_depth_high_water.get() > 0);
        // Counters accumulate across runs; the gauge is a high-water.
        let prev_hw = obs.heap_depth_high_water.get();
        sim.run(&job).unwrap();
        assert_eq!(obs.events.get(), 2 * report.events_processed);
        assert_eq!(obs.heap_depth_high_water.get(), prev_hw);
    }

    #[test]
    fn instrumented_run_is_byte_identical_to_default() {
        let c = cluster();
        let oracle = OracleEstimator::new(&c);
        for seed in 0..4u64 {
            let job = busy_job(seed);
            let base = simulate(&job, &c, &oracle).unwrap();
            let obs = SimObs::default();
            let instrumented = Simulator::new(&oracle, &c)
                .with_obs(Some(&obs))
                .run(&job)
                .unwrap();
            assert_eq!(instrumented, base, "seed {seed}");
            assert_eq!(serde::to_string(&instrumented), serde::to_string(&base));
        }
    }
}
