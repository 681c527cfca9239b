//! The discrete-event simulation engine (Algorithms 1-3).
//!
//! A run is *lower, then replay*. Lowering reads each worker's trace
//! exactly once and writes a compact **replay program** into the
//! [`SimScratch`] arena: per worker a dense array of 40-byte ops, each
//! carrying its host delay, its interned stream slot and a payload that
//! is already resolved — the estimated duration of a kernel or memcpy,
//! the dense slot of a CUDA event's `(event, version)` key, or the
//! index of a collective's call site in the worker's dense site table,
//! which names its communicator's members and present-participant
//! count. It goes worker by worker ([`Lowering::worker`], in rank
//! order), so a worker's trace can be dropped as soon as it is lowered:
//! the prediction engine lowers each trace the collator keeps as it is
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
//! them apart.
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
//! participant list from a pool of emptied ones, so a replay
//! allocates nothing once the arena is warm.
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
//! completion is counted into `events_processed`, and one `ChainEnd`
//! pump is pushed at the chain's end. Under a fault plan there is no
//! run-ahead: a rank failure pushes dispatches at future instants and
//! extends a busy stream mid-chain. A hetero pool scales kernels at
//! issue, so it keeps run-ahead.
//! *Hosts see the queue of a core without run-ahead.*
//! `StreamSim::ahead` is the start of the chain's last kernel, and
//! every host-side read of a stream's queue (`park_host_on_drain`,
//! `DeviceSync`) counts a chained kernel starting after the clock as
//! still queued. This is exact: a host resumes only through an event
//! pushed at its own instant, and the completion that starts a chained
//! kernel at that instant was pushed at an earlier one, so it pops
//! first.
//! *The `(at, seq)` order.* The chain end is stamped when the chain
//! starts. A core without run-ahead stamps the last completion later:
//! at the last kernel's start `L`, in the first of the stream's pumps
//! popped then. Events at other instants keep their order, so only a
//! tie with another event at the chain's end instant can pop in the
//! other order. When a chain end pops, it is held against the next
//! pending event at its instant (`SimScratch::tie`). An event stamped
//! before `L` pops first, and one stamped after it pops after. A chain
//! end whose last kernel starts earlier pops first, and one whose last
//! kernel starts later pops after. A *twin* chain started in the same
//! instant with the same starts. For a twin,
//! `SimScratch::twins_in_order` replays the two chains' stamps start by
//! start. Each start's completion is stamped by the first of the
//! stream's pumps due there. That is either the completion before it,
//! itself stamped at the previous start, or another pump that came due
//! at the start (`StreamSim::pumped`). The other pump comes first if it
//! was stamped at an earlier instant. A chain end that must pop later
//! goes back into the heap right behind the event that comes first.
//! Stamps step by `STAMP`, which leaves room there. A tie none of this
//! orders abandons the replay ([`Replay::Abandoned`], counted in
//! [`SimObs::abandoned_replays`]). The program was consumed and the
//! replay holds no trace, so it hands back an empty lowering without
//! run-ahead, and whoever fed the first lowering feeds it again:
//! [`Simulator::run_prevalidated`] from the trace in hand, the
//! prediction engine by emulating the job again. That costs only time.
//! Checking the next
//! event suffices. Anything pushed later carries a larger stamp in both
//! orders, and a chain end only ever moves behind an event that comes
//! before it. So an event handled out of the reference order would
//! leave an adjacent pair out of order, with a chain end as its first
//! member, which is caught when it pops. Unlike dslab's
//! `ordered_events` queue, a chain needs no queue beside the heap:
//! nobody reads the middle of a chain.
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
use std::collections::{BTreeMap, BinaryHeap, HashMap};

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

/// The step between consecutive sequence stamps: the room behind each
/// event for the run-ahead chain ends moved there (module docs,
/// "Run-ahead").
const STAMP: u64 = 1 << 16;

/// What one lowered trace event does, with everything the replay would
/// otherwise look up already resolved.
#[derive(Clone, Copy, Debug)]
enum OpKind {
    /// `Malloc` / `Free`: only the host delay is replayed.
    HostOnly,
    /// Kernel launch with its estimated duration. Per-rank scaling
    /// (hetero pool, straggler windows) depends on the issue instant
    /// and is applied in place when the host issues the op.
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

/// One op of the replay program. The program is consumed by its
/// replay: issuing an op overwrites `t` and stamps `seq`.
#[derive(Clone, Copy, Debug)]
struct Op {
    /// The host delay before the op until the host issues it; from then
    /// on the issue instant — when the op becomes ready on its stream
    /// and when its issue pump is due.
    t: SimTime,
    /// Sequence stamp of the op's issue pump, set when it is issued.
    seq: u64,
    /// The next op this worker enqueues on the same stream.
    next: u32,
    /// Dense per-worker slot of the op's stream.
    stream: u32,
    kind: OpKind,
}

impl Op {
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

#[derive(Clone, Copy)]
struct StreamSim {
    /// Queue cursor: the oldest op enqueued here that has not started.
    /// The queue is the chain of `Op::next` links from `head` up to the
    /// host's cursor — ops at or past `RankSim::next_op` are not issued
    /// yet.
    head: u32,
    /// Lowering only: the last op linked onto this stream.
    tail: u32,
    busy_until: SimTime,
    /// The instant the last kernel of the stream's latest run-ahead
    /// chain starts (module docs, "Run-ahead"): until the clock passes
    /// it, the chained kernels starting later are still queued to a
    /// host.
    ahead: SimTime,
    /// The instant that chain started, its first kernel and the stamp
    /// its end was pushed with.
    chain_from: SimTime,
    chain_op: u32,
    chain_seq: u64,
    /// Other pumps of the stream that came due at the chain's
    /// [`chain_starts`].
    pumped: Pumped,
    /// The `(worker, stream)` of the chain built just before this one
    /// if that chain has the same starts and end.
    twin_of: Option<(usize, usize)>,
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
        head: NONE,
        tail: NONE,
        busy_until: SimTime::ZERO,
        ahead: SimTime::ZERO,
        chain_from: SimTime::ZERO,
        chain_op: NONE,
        chain_seq: 0,
        pumped: Pumped::None,
        twin_of: None,
        blocked: None,
        lane: NONE,
        lane_queued: false,
    };

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

    /// A pump of this stream stamped `seq` came due at `at` and found it
    /// busy: if `at` is one of its chain's starts, a core without
    /// run-ahead may have started that kernel from this pump instead of
    /// from the completion before it.
    fn note_pump(&mut self, ops: &[Op], at: SimTime, seq: u64) {
        if self.pumped != Pumped::Many
            && self.chain_from < at
            && at <= self.ahead
            && chain_starts(ops, self).any(|start| start == at)
        {
            self.pumped = match self.pumped {
                Pumped::None => Pumped::At(at, seq),
                Pumped::At(first, earliest) if first == at => Pumped::At(at, earliest.min(seq)),
                _ => Pumped::Many,
            };
        }
    }

    /// The stamp of the first other pump due at chain start `at`, if any.
    fn pumped_at(&self, at: SimTime) -> Option<u64> {
        match self.pumped {
            Pumped::At(first, seq) if first == at => Some(seq),
            _ => None,
        }
    }
}

/// Pumps of a stream, besides its chain's own completions, that came
/// due at one of the chain's starts (module docs, "Run-ahead").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Pumped {
    None,
    /// All at one start; the stamp of the earliest.
    At(SimTime, u64),
    /// At more than one start.
    Many,
}

/// Where a popped run-ahead chain end stands against the next pending
/// event at its instant (module docs, "Run-ahead").
enum Tie {
    /// It pops first.
    First,
    /// The event stamped this pops first: the chain end goes behind it.
    Behind(u64),
    /// The replay cannot tell.
    Open,
}

/// A stamp in the replay of a pair of twin chains: a real event's, or
/// the virtual completion of chain `a` (`true`) or `b` (`false`)
/// stamped at the previous start.
#[derive(Clone, Copy)]
enum Stamp {
    Real(u64),
    Virtual(bool),
}

/// The start instants of the second through last kernels of stream
/// `s`'s run-ahead chain: the instants a core without run-ahead pops a
/// completion of the chain at.
fn chain_starts<'a>(ops: &'a [Op], s: &StreamSim) -> impl Iterator<Item = SimTime> + 'a {
    let (last, mut at, mut pc) = (s.ahead, s.chain_from, s.chain_op);
    std::iter::from_fn(move || {
        let op = ops.get(pc as usize).filter(|_| at < last)?;
        let OpKind::Kernel { dur } = op.kind else {
            return None;
        };
        at += dur;
        pc = op.next;
        Some(at)
    })
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
#[derive(Default)]
struct RankSim {
    /// The worker's global rank.
    rank: u32,
    /// The worker's lowered trace, one op per event. One array per
    /// worker, not one per job: a job-sized block, once freed, raises
    /// glibc's mmap and trim thresholds for the rest of the process
    /// (+9 MB peak RSS on a search loop when tried).
    ops: Vec<Op>,
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
    /// Streams (by dense slot) waiting on each event slot.
    event_waiters: Vec<Vec<usize>>,
    blocked: Option<HostBlock>,
    done: bool,
    comm_busy: SimTime,
    compute_busy: SimTime,
}

impl RankSim {
    /// Resets this rank for worker `rank`, keeping every buffer's
    /// capacity.
    fn reset(&mut self, rank: u32) {
        self.rank = rank;
        self.ops.clear();
        self.sites.clear();
        self.next_op = 0;
        self.lane_next = 0;
        self.lane_head_queued = false;
        self.host_time = SimTime::ZERO;
        self.host_busy = SimTime::ZERO;
        self.streams.clear();
        self.blocked = None;
        self.done = false;
        self.comm_busy = SimTime::ZERO;
        self.compute_busy = SimTime::ZERO;
    }

    /// Sizes the event tables for `nevents` interned event slots.
    fn reset_events(&mut self, nevents: usize) {
        self.fired.clear();
        self.fired.resize(nevents, None);
        self.event_waiters.truncate(nevents);
        for v in &mut self.event_waiters {
            v.clear();
        }
        self.event_waiters.resize_with(nevents, Vec::new);
    }
}

/// Heap event kinds (Algorithm 1's polymorphic events).
#[derive(Clone, Copy, Debug)]
enum EvKind {
    /// Host dispatch loop (re)starts for a rank.
    HostDispatch { wi: usize },
    /// A stream should attempt to make progress.
    Pump { wi: usize, si: usize },
    /// The same, at the end of a run-ahead chain (module docs).
    ChainEnd { wi: usize, si: usize },
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
    /// Replays abandoned at a run-ahead chain end's tie that the
    /// replay cannot order (module docs, "Run-ahead"), cumulative. Each
    /// is followed by a replay without run-ahead; the counters above
    /// tally only the replay that finished.
    pub abandoned_replays: maya_obs::Counter,
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
/// shapes costs what it cost then and no more. Per-rank scaling is
/// applied at replay, so one table serves every rank of the job.
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
    stream_index: HashMap<StreamId, u32>,
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
    /// Whether the replay runs ahead (module docs, "Run-ahead").
    run_ahead: bool,
    /// The starts and end of the chain being built, and of the last
    /// one built, with its `(worker, stream)` and the instant it
    /// started.
    starts: Vec<SimTime>,
    last_starts: Vec<SimTime>,
    last_chain: Option<(usize, usize, SimTime)>,
    /// Each instant the clock has reached and the last sequence stamp
    /// taken before it: the instant an event was stamped at, for the
    /// ties a chain end meets. Only a replay that runs ahead keeps it.
    instants: Vec<(SimTime, u64)>,
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
    /// Instant-log entries kept before [`SimScratch::log_instant`] folds
    /// the old ones.
    const INSTANTS: usize = 4096;

    /// Creates an empty scratch arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts a new pending event and returns its sequence number.
    fn stamp(&mut self) -> u64 {
        self.seq += STAMP;
        self.pending += 1;
        self.pending_high_water = self.pending_high_water.max(self.pending);
        self.seq
    }

    fn push(&mut self, at: SimTime, kind: EvKind) {
        let seq = self.stamp();
        self.heap.push(Reverse(HeapEv { at, seq, kind }));
    }

    /// The host of worker `wi` issues op `pc` at `at`: the op becomes
    /// ready on its stream then, and its issue pump — due then too —
    /// joins the rank's lane.
    fn issue(&mut self, wi: usize, pc: u32, at: SimTime) {
        debug_assert!(at >= self.now, "worker {wi} issued into the past");
        let seq = self.stamp();
        let r = &mut self.ranks[wi];
        let op = &mut r.ops[pc as usize];
        op.t = at;
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
            if !op.kind.enqueues() {
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
            if s.busy_until > op.t {
                self.events_processed += 1;
                self.pending -= 1;
                s.note_pump(&r.ops, op.t, op.seq);
                continue;
            }
            if s.blocked.is_some() {
                s.lane = pc;
                continue;
            }
            let kind = EvKind::IssuePump { wi, si };
            self.heap.push(Reverse(HeapEv {
                at: op.t,
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
            if (op.t, op.seq) < handled || s.busy_until > op.t {
                self.events_processed += 1;
                self.pending -= 1;
                s.note_pump(&r.ops, op.t, op.seq);
                s.lane = op.parked_after(r.lane_next);
                continue;
            }
            let kind = EvKind::ParkedPump { wi, si };
            self.heap.push(Reverse(HeapEv {
                at: op.t,
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

    /// Stream `si` of worker `wi` built a chain at the clock's instant,
    /// its starts and end in `starts`: it is the twin of the chain built
    /// just before it if that one started then too, with the same
    /// starts and end.
    fn note_chain(&mut self, wi: usize, si: usize) {
        let twin = self
            .last_chain
            .filter(|&(_, _, from)| from == self.now && self.starts == self.last_starts)
            .map(|(w, s, _)| (w, s));
        std::mem::swap(&mut self.starts, &mut self.last_starts);
        self.last_chain = Some((wi, si, self.now));
        let seq = self.seq;
        if let Some(s) = self.ranks.get_mut(wi).and_then(|r| r.streams.get_mut(si)) {
            (s.twin_of, s.chain_seq) = (twin, seq);
        }
    }

    /// Worker `wi` and its stream `si`.
    fn stream(&self, wi: usize, si: usize) -> Option<(&RankSim, &StreamSim)> {
        let r = self.ranks.get(wi)?;
        Some((r, r.streams.get(si)?))
    }

    /// The clock reaches `at`. Entries from before the start of every
    /// chain still in flight fold into the first: an instant is only
    /// ever compared with such a chain's starts.
    fn log_instant(&mut self, at: SimTime) {
        self.instants.push((at, self.seq));
        if self.instants.len() < Self::INSTANTS {
            return;
        }
        let oldest = self.ranks.iter().flat_map(|r| &r.streams);
        let oldest = oldest
            .filter(|s| s.busy_until >= at)
            .map(|s| s.chain_from)
            .fold(at, SimTime::min);
        let before = self.instants.partition_point(|&(t, _)| t < oldest);
        if before > 1 {
            self.instants.drain(1..before);
        }
    }

    /// The instant the event stamped `seq` was stamped at.
    fn stamped_at(&self, seq: u64) -> SimTime {
        let i = self.instants.partition_point(|&(_, before)| before < seq);
        self.instants
            .get(i.wrapping_sub(1))
            .map_or(SimTime::ZERO, |&(at, _)| at)
    }

    /// Where the chain end of stream `si` of worker `wi`, just popped,
    /// stands against the next pending event at its instant in the
    /// order a core without run-ahead pops them (module docs,
    /// "Run-ahead").
    fn tie(&self, wi: usize, si: usize) -> Tie {
        let next = match (self.heap.peek(), self.flow_due) {
            (Some(Reverse(top)), Some(due)) if top.key() < due.key() => *top,
            (_, Some(due)) => due,
            (Some(Reverse(top)), None) => *top,
            (None, None) => return Tie::First,
        };
        if next.at != self.now {
            return Tie::First;
        }
        let Some((r, s)) = self.stream(wi, si) else {
            return Tie::Open;
        };
        let first = match next.kind {
            EvKind::ChainEnd { wi: w2, si: s2 } => {
                let Some((r2, d)) = self.stream(w2, s2) else {
                    return Tie::Open;
                };
                let twins = d.twin_of == Some((wi, si))
                    || s.chain_from == d.chain_from
                        && chain_starts(&r.ops, s).eq(chain_starts(&r2.ops, d));
                match s.ahead.cmp(&d.ahead) {
                    std::cmp::Ordering::Equal if twins => {
                        self.twins_in_order(&r.ops, (s, s.chain_seq), (d, d.chain_seq))
                    }
                    std::cmp::Ordering::Equal => None,
                    order => Some(order.is_lt()),
                }
            }
            _ => {
                let stamped = self.stamped_at(next.seq);
                (stamped != s.ahead).then_some(stamped > s.ahead)
            }
        };
        match first {
            Some(true) => Tie::First,
            Some(false) => Tie::Behind(next.seq),
            None => Tie::Open,
        }
    }

    /// Whether a core without run-ahead stamps the end of twin chain `a`
    /// before that of `b`, each with the stamp its chain started under
    /// (module docs, "Run-ahead"); `None` if the other pumps at their
    /// starts leave it open. Start by start, each chain's next
    /// completion is stamped by the first of its stream's pumps due
    /// there: the virtual completion, stamped at the previous start, or
    /// another pump, which comes before it if stamped at an earlier
    /// instant and after it if stamped at a later one.
    fn twins_in_order(
        &self,
        ops: &[Op],
        (a, sa): (&StreamSim, u64),
        (b, sb): (&StreamSim, u64),
    ) -> Option<bool> {
        match (a.pumped, b.pumped) {
            (Pumped::None, Pumped::None) => return Some(sa < sb),
            (Pumped::Many, _) | (_, Pumped::Many) => return None,
            _ => {}
        }
        let (mut va, mut vb) = (Stamp::Real(sa), Stamp::Real(sb));
        let (mut a_first, mut prev) = (sa < sb, a.chain_from);
        for at in chain_starts(ops, a) {
            let earlier = |x: Stamp, y: Stamp| match (x, y) {
                (Stamp::Real(x), Stamp::Real(y)) => Some(x < y),
                (Stamp::Virtual(x), Stamp::Virtual(_)) => Some(x == a_first),
                (Stamp::Real(x), Stamp::Virtual(_)) => {
                    let stamped = self.stamped_at(x);
                    (stamped != prev).then_some(stamped < prev)
                }
                (Stamp::Virtual(_), Stamp::Real(y)) => {
                    let stamped = self.stamped_at(y);
                    (stamped != prev).then_some(stamped > prev)
                }
            };
            let first = |v: Stamp, pumped: Option<u64>| match pumped {
                Some(y) if earlier(Stamp::Real(y), v)? => Some(Stamp::Real(y)),
                _ => Some(v),
            };
            let (ka, kb) = (first(va, a.pumped_at(at))?, first(vb, b.pumped_at(at))?);
            a_first = earlier(ka, kb)?;
            (va, vb, prev) = (Stamp::Virtual(true), Stamp::Virtual(false), at);
        }
        Some(a_first)
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
    /// lowered and no kernel shape is timed.
    fn reset(&mut self) {
        self.shapes.clear();
        self.program.peak_mem_bytes = 0;
        self.heap.clear();
        self.flow_due = None;
        for comm in &mut self.comms {
            for Rendezvous {
                mut participants, ..
            } in comm.open.drain(..)
            {
                participants.clear();
                self.spare.push(participants);
            }
            comm.times.clear();
            comm.flows.clear();
        }
        self.routes.clear();
        self.seq = 0;
        self.now = SimTime::ZERO;
        self.now_seq = 0;
        self.events_processed = 0;
        self.heap_pops = 0;
        self.pending = 0;
        self.pending_high_water = 0;
        self.flow_solves = 0;
        self.instants.clear();
        self.instants.push((SimTime::ZERO, 0));
        self.last_chain = None;
        self.lowered = 0;
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

    /// Lowers every worker of `job` and resolves their sites:
    /// [`Simulator::lower`]'s steps, on this lowering.
    pub fn job(mut self, job: &JobTrace) -> Result<Lowered<'s>, SimError> {
        for w in &job.workers {
            self.worker(w)?;
        }
        self.resolve(&job.comm_groups)
    }
}

/// A job lowered into a [`SimScratch`], ready for its one replay.
pub struct Lowered<'s> {
    sim: &'s Simulator<'s>,
    st: &'s mut SimScratch,
}

/// What one replay of a lowered job came to.
pub enum Replay<'s> {
    /// The replay finished: the report, or the deadlock it ran into.
    Done(Result<SimReport, SimError>),
    /// A run-ahead chain end met a tie the replay cannot order as a
    /// core without run-ahead would (module docs, "Run-ahead"). The
    /// program was consumed; this is an empty lowering of the same
    /// arena with run-ahead off. Feed it the job's workers again and
    /// replay that: it always finishes.
    Abandoned(Lowering<'s>),
}

impl<'s> Lowered<'s> {
    /// Runs the event loop (Algorithm 1's main loop) over the program.
    pub fn replay(self) -> Replay<'s> {
        let Lowered { sim, st } = self;
        match sim.replay(st) {
            Some(report) => Replay::Done(report),
            None => {
                let again = sim.lowering(st);
                again.st.run_ahead = false;
                Replay::Abandoned(again)
            }
        }
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
        let mut lowered = self.lower(job, scratch)?;
        loop {
            match lowered.replay() {
                Replay::Done(report) => return report,
                Replay::Abandoned(again) => lowered = again.job(job)?,
            }
        }
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
        self.lowering(scratch).job(job)
    }

    /// Starts lowering a job into `scratch`, emptying it: the arena's
    /// shape tables keep no estimator's answer from an earlier job.
    pub fn lowering<'s>(&'s self, scratch: &'s mut SimScratch) -> Lowering<'s> {
        scratch.reset();
        scratch.run_ahead = self.faults.is_none();
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
        stream_index.clear();
        event_index.clear();
        // A worker issues long runs to one stream: remember the last id
        // and hash only when it changes.
        let mut last_stream = None;
        for e in &w.events {
            let stream = match last_stream {
                Some((id, slot)) if id == e.stream => slot,
                _ => {
                    let next = stream_index.len() as u32;
                    let slot = *stream_index.entry(e.stream).or_insert(next);
                    if slot == next {
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
                DeviceOp::KernelLaunch { kernel } => OpKind::Kernel {
                    dur: shapes.time(&kernel, || self.estimator.kernel_time(&kernel)),
                },
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
                    None => s.head = pc,
                }
                s.tail = pc;
            }
            r.ops.push(Op {
                t: e.host_delay,
                seq: 0,
                next: NONE,
                stream,
                kind,
            });
        }
        r.reset_events(event_index.len());
        Ok(())
    }

    /// The event loop over `st`'s freshly lowered program; `None` if a
    /// run-ahead chain end met a tie it cannot order (module docs).
    fn replay(&self, st: &mut SimScratch) -> Option<Result<SimReport, SimError>> {
        if let Some(topo) = &self.cluster.topology {
            st.net.reset(topo.links.iter().map(|l| l.bytes_per_sec()));
            st.flow_meta.clear();
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
            if ev.at != st.now {
                if st.run_ahead {
                    st.log_instant(ev.at);
                }
                st.now = ev.at;
            }
            if let EvKind::ChainEnd { wi, si } = ev.kind {
                match st.tie(wi, si) {
                    Tie::First => {}
                    Tie::Behind(seq) => {
                        st.pending += 1;
                        st.heap.push(Reverse(HeapEv { seq: seq + 1, ..ev }));
                        continue;
                    }
                    Tie::Open => {
                        if let Some(obs) = self.obs {
                            obs.abandoned_replays.inc();
                        }
                        return None;
                    }
                }
            }
            st.now_seq = ev.seq;
            st.events_processed += 1;
            match ev.kind {
                EvKind::HostDispatch { wi } => self.host_dispatch(st, wi),
                EvKind::Pump { wi, si } | EvKind::ChainEnd { wi, si } => self.pump(st, wi, si),
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
            return Some(Err(SimError::Deadlock { stuck_ranks: stuck }));
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
        Some(Ok(SimReport {
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
        }))
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
            let Some(op) = r.ops.get_mut(pc as usize) else {
                r.done = true;
                return;
            };
            r.next_op += 1;
            r.host_time += op.t;
            r.host_busy += op.t;
            let issue = r.host_time;
            let si = op.stream as usize;

            match op.kind {
                OpKind::HostOnly => {}
                OpKind::Kernel { dur } => {
                    op.kind = OpKind::Kernel {
                        dur: self.scaled_kernel_time(r.rank, issue, dur),
                    };
                    st.issue(wi, pc, issue);
                }
                OpKind::Memcpy { sync, .. } => {
                    st.issue(wi, pc, issue);
                    if sync && self.park_host_on_drain(st, wi, si) {
                        // Blocking copy: host waits for the stream.
                        return;
                    }
                }
                OpKind::Record { .. } | OpKind::Wait { .. } | OpKind::Join { .. } => {
                    st.issue(wi, pc, issue);
                }
                OpKind::EventSync { slot, zero } => match r.fired[slot as usize] {
                    Some(t) => r.host_time = r.host_time.max(t),
                    None if zero => {} // never-recorded: no-op
                    None => {
                        r.blocked = Some(HostBlock::Event { slot });
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
                        r.blocked = Some(HostBlock::DeviceDrain { remaining });
                        return;
                    }
                }
            }
        }
    }

    /// Applies per-rank condition state to an estimated kernel time:
    /// heterogeneous-pool generation scaling and straggler windows
    /// covering the issue instant. The estimator's shared memo stays
    /// rank-agnostic — scaling happens after the cache, per issue.
    /// Every scale is gated on `factor != 1.0` so the default
    /// (homogeneous, no-fault) path returns `dur` untouched, bit for
    /// bit.
    #[inline]
    fn scaled_kernel_time(&self, rank: u32, issue: SimTime, mut dur: SimTime) -> SimTime {
        if self.cluster.hetero.is_none() && self.faults.is_none() {
            return dur;
        }
        let gen_scale = self.cluster.kernel_scale(rank);
        if gen_scale != 1.0 {
            dur = dur.scale(gen_scale);
        }
        if let Some(plan) = self.faults {
            let slow = plan.slowdown(rank, issue);
            if slow != 1.0 {
                dur = dur.scale(slow);
            }
        }
        dur
    }

    /// Parks the host until a stream drains. Returns true if parked.
    fn park_host_on_drain(&self, st: &mut SimScratch, wi: usize, si: usize) -> bool {
        let r = &mut st.ranks[wi];
        let s = &r.streams[si];
        if s.queue_is_empty(r.next_op, st.now) && s.blocked.is_none() {
            r.host_time = r.host_time.max(s.busy_until);
            false
        } else {
            r.blocked = Some(HostBlock::StreamDrain { si });
            true
        }
    }

    /// Stream progress (Algorithm 2's scheduler tick for one stream).
    fn pump(&self, st: &mut SimScratch, wi: usize, si: usize) {
        loop {
            let (now, now_seq) = (st.now, st.now_seq);
            let r = &mut st.ranks[wi];
            let s = &mut r.streams[si];
            if s.blocked.is_some() || s.busy_until > now {
                s.note_pump(&r.ops, now, now_seq);
                return;
            }
            if s.queue_is_empty(r.next_op, now) {
                // Drained: wake a host parked on this stream/device.
                self.notify_drain(st, wi, si, now);
                return;
            }
            let pc = s.head;
            let front = r.ops[pc as usize];
            if front.t > now {
                st.push(front.t, EvKind::Pump { wi, si });
                return;
            }
            s.head = front.next;
            match front.kind {
                OpKind::Kernel { mut dur } if st.run_ahead => {
                    // Run ahead (module docs): start the issued kernels
                    // behind this one back to back, counting off each
                    // completion in between.
                    let mut end = now + dur;
                    r.compute_busy += dur;
                    (s.chain_from, s.chain_op, s.pumped) = (now, pc, Pumped::None);
                    let mut kind = EvKind::Pump { wi, si };
                    st.starts.clear();
                    while dur > SimTime::ZERO && s.head < r.next_op {
                        let Some(&Op {
                            t,
                            next,
                            kind: OpKind::Kernel { dur: d },
                            ..
                        }) = r.ops.get(s.head as usize)
                        else {
                            break;
                        };
                        if t > end {
                            break;
                        }
                        s.head = next;
                        s.ahead = end;
                        st.starts.push(end);
                        dur = d;
                        end += d;
                        r.compute_busy += d;
                        st.events_processed += 1;
                        kind = EvKind::ChainEnd { wi, si };
                    }
                    s.busy_until = end;
                    st.starts.push(end);
                    st.push(end, kind);
                    if let EvKind::ChainEnd { .. } = kind {
                        st.note_chain(wi, si);
                    }
                    return;
                }
                OpKind::Kernel { dur } | OpKind::Memcpy { dur, .. } => {
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
                    for &w in &waiters {
                        let ws = st.ranks.get(wi).and_then(|r| r.streams.get(w));
                        if ws.is_some_and(|ws| ws.blocked == Some(StreamBlock::Event { slot })) {
                            st.release(wi, w, now);
                            st.push(now, EvKind::Pump { wi, si: w });
                        }
                    }
                    waiters.clear();
                    let r = &mut st.ranks[wi];
                    r.event_waiters[slot as usize] = waiters;
                    // Wake a host parked on EventSynchronize.
                    if r.blocked == Some(HostBlock::Event { slot }) {
                        r.blocked = None;
                        r.host_time = r.host_time.max(now);
                        st.push(now, EvKind::HostDispatch { wi });
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
                        r.event_waiters[slot as usize].push(si);
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
        let first = participants.first();
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
        for &(wi, si, _, _) in &participants {
            // `max` is the identity without faults (a stream blocked on
            // a rendezvous is never busy past it) but preserves an
            // injected restart penalty that outlives the collective.
            st.release(wi, si, end);
            if let Some(r) = st.ranks.get_mut(wi) {
                r.comm_busy += dur;
            }
            st.push(end, EvKind::Pump { wi, si });
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
        for &(wi, si, _, _) in &meta.participants {
            // `max`, not assignment: an injected fault may have pushed
            // the stream past the collective's own end.
            let wake = st.release(wi, si, end);
            if let Some(r) = st.ranks.get_mut(wi) {
                r.comm_busy += dur;
            }
            st.push(wake, EvKind::Pump { wi, si });
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

    /// A stream drained; wake hosts blocked on it.
    fn notify_drain(&self, st: &mut SimScratch, wi: usize, si: usize, now: SimTime) {
        let r = &mut st.ranks[wi];
        match r.blocked {
            Some(HostBlock::StreamDrain { si: want }) if want == si => {
                r.blocked = None;
                r.host_time = r.host_time.max(now);
                st.push(now, EvKind::HostDispatch { wi });
            }
            Some(HostBlock::DeviceDrain { remaining }) => {
                let left = remaining.saturating_sub(1);
                r.host_time = r.host_time.max(now);
                if left == 0 {
                    r.blocked = None;
                    st.push(now, EvKind::HostDispatch { wi });
                } else {
                    r.blocked = Some(HostBlock::DeviceDrain { remaining: left });
                }
            }
            _ => {}
        }
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
    /// its size is most of a run's footprint.
    #[test]
    fn parked_entries_stay_small() {
        assert_eq!(std::mem::size_of::<Op>(), 40);
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
        st.reset();
        st.ranks.resize_with(RANKS, RankSim::default);
        for (rank, r) in st.ranks.iter_mut().enumerate() {
            r.reset(rank as u32);
            r.streams.push(StreamSim::IDLE);
            r.ops.extend((0..OPS_PER_RANK).map(|i| Op {
                t: SimTime::ZERO,
                seq: 0,
                next: NONE,
                stream: 0,
                kind: if i % 3 == 2 {
                    OpKind::HostOnly
                } else {
                    OpKind::Kernel { dur: SimTime::ZERO }
                },
            }));
        }
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
                    while !r.ops[r.next_op as usize].kind.enqueues() {
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
    fn one_rank(streams: usize, ops: &[(u32, SimTime)]) -> SimScratch {
        let mut st = SimScratch::new();
        st.reset();
        st.ranks.push(RankSim::default());
        let r = &mut st.ranks[0];
        r.reset(0);
        r.streams.extend(vec![StreamSim::IDLE; streams]);
        for (pc, &(stream, _)) in ops.iter().enumerate() {
            let s = &mut r.streams[stream as usize];
            match r.ops.get_mut(s.tail as usize) {
                Some(prev) => prev.next = pc as u32,
                None => s.head = pc as u32,
            }
            s.tail = pc as u32;
            r.ops.push(Op {
                t: SimTime::ZERO,
                seq: 0,
                next: NONE,
                stream,
                kind: OpKind::Kernel { dur: SimTime::ZERO },
            });
        }
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
        assert_eq!((head.at, head.seq), (us(100.0), 3 * STAMP));
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
        assert_eq!(
            order,
            [
                (us(60.0), 2 * STAMP),
                (us(80.0), 3 * STAMP),
                (us(90.0), 4 * STAMP)
            ]
        );
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
    ///               pump — dropped, counted; 9 pops + 1 = 10 events
    /// late parks:   w0 joins @2 (seq 3); w1 joins @1, issues a kernel @2
    ///               (seq 5): parked; w0's join resolves @2 before it —
    ///               it re-enters the heap and starts the kernel; 10 pops
    /// ```
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
        assert_eq!((report.events_processed, pops), (10, 9));
        assert_eq!(report.rank_end_times, [us(102.0), us(3.0)]);
        let late = job2(
            tail(all_reduce(0), 2.0, false),
            tail(all_reduce(1), 1.0, true),
        );
        let (report, pops) = counted(&late, 0.0, None);
        assert_eq!((report.events_processed, pops), (10, 10));
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
    /// w0's kernels run 1050..1150..1250; 13 pops + 3 = 16 events
    /// ```
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
        assert_eq!(pops, 13);
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
