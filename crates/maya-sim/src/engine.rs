//! The discrete-event simulation engine (Algorithms 1-3).
//!
//! Per *kernel, memcpy or CUDA-event* op the hot loop neither
//! allocates nor hashes: raw [`StreamId`]s *and* CUDA-event
//! `(event, version)` keys are interned to dense `u32` slots once at
//! trace load, so that work in `Simulator::pump` and the host dispatch
//! loop is pure `Vec` indexing. A *collective* is dearer: each joining
//! stream makes one hash probe (the rendezvous table is a `HashMap`
//! keyed by communicator and sequence), and each rendezvous allocates
//! its participant list and one small `Vec` of global ranks (plus a
//! route on the topology path). All mutable state lives in a reusable
//! [`SimScratch`] arena ([`Simulator::run_prevalidated`]) so repeated
//! runs — a config search replaying thousands of near-identical
//! traces, or a serving worker — amortize every other allocation. The
//! pre-optimization core is kept as a test oracle in `tests/reference`
//! and equivalence is enforced by test: both cores must produce
//! byte-identical [`SimReport`]s.
//!
//! Per-event cost follows what is *live*, not what was ever scheduled.
//! A host thread runs far ahead of its device, so at any instant about
//! half the run's pumps are pending; they wait in per-rank FIFO *issue
//! lanes* (see `SimScratch::push_issued`) and only each lane's head sits in
//! the binary heap, which therefore holds about one entry per rank
//! plus the in-flight completions instead of half the trace. Events
//! still pop in exactly the `(at, seq)` total order a single heap would
//! give. What is parked — a lane entry per pending pump, a queued op
//! per stream — is 24 bytes each, because at the high-water mark
//! nearly every op of the trace is parked. The flow model likewise
//! keeps only in-flight flows ([`FlowNet`]), so a topology run costs
//! about what a flat one does.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use maya_estimator::RuntimeEstimator;
use maya_hw::{ClusterSpec, TopologySpec};
use maya_net::{FaultPlan, FlowNet};
use maya_trace::{
    CollectiveDesc, CollectiveKind, DeviceOp, JobTrace, SimTime, StreamId, WorkerTrace,
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

/// Key of a collective rendezvous in the network wait map.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
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

/// An operation queued on a simulated stream.
///
/// Event markers carry the dense per-worker slot of their
/// `(event, version)` key, not the raw key — see [`RankSim::load`].
#[derive(Clone, Copy, Debug)]
enum StreamOp {
    /// Kernel / memcpy with a pre-predicted duration.
    Timed { dur: SimTime, is_comm: bool },
    /// `cudaEventRecord` marker.
    Record { slot: u32 },
    /// `cudaStreamWaitEvent` marker. `zero` is the CUDA never-recorded
    /// sentinel (`version == 0`): the wait is satisfied even if the
    /// slot never fires.
    Wait { slot: u32, zero: bool },
    /// NCCL collective join: index of the worker's trace event that
    /// holds the descriptor. Queued ops stay small this way — a host
    /// runs far ahead, so nearly the whole trace sits in these queues.
    Join { pc: u32 },
}

#[derive(Clone, Copy, Debug)]
struct QueuedOp {
    ready_at: SimTime,
    op: StreamOp,
}

/// Why a stream is not making progress.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum StreamBlock {
    Event { slot: u32 },
    Collective,
}

#[derive(Default)]
struct StreamSim {
    queue: VecDeque<QueuedOp>,
    busy_until: SimTime,
    blocked: Option<StreamBlock>,
}

impl StreamSim {
    fn drained(&self, now: SimTime) -> bool {
        self.queue.is_empty() && self.blocked.is_none() && self.busy_until <= now
    }

    fn reset(&mut self) {
        self.queue.clear();
        self.busy_until = SimTime::ZERO;
        self.blocked = None;
    }
}

/// Why a host thread is parked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum HostBlock {
    Event { slot: u32 },
    StreamDrain { si: usize },
    DeviceDrain { remaining: u32 },
}

/// Sentinel slot for trace events that carry no CUDA-event key.
const NO_EVENT: u32 = u32::MAX;

/// Per-rank simulation state.
///
/// Streams live in a dense `Vec` indexed by per-worker *slots*: raw
/// [`StreamId`]s are interned once at trace load (order of first
/// appearance), and every event carries its precomputed slot in
/// `ev_slot`. CUDA-event `(event, version)` keys get the same
/// treatment into `ev_eslot`, turning the event wait map (`fired`) and
/// waiter registry (`event_waiters`) into dense `Vec`s. The hot paths
/// — host dispatch and `Simulator::pump` — then index instead of
/// hashing, the dslab-style indexed event-core idiom.
#[derive(Default)]
struct RankSim {
    next_op: usize,
    host_time: SimTime,
    host_busy: SimTime,
    /// Dense stream states, one per interned stream slot.
    streams: Vec<StreamSim>,
    /// Dense stream slot of each trace event (parallel to the worker's
    /// `events`).
    ev_slot: Vec<u32>,
    /// Dense `(event, version)` slot of each trace event; [`NO_EVENT`]
    /// for ops without a CUDA-event key.
    ev_eslot: Vec<u32>,
    /// CUDA-event wait map by event slot: fire time once recorded.
    fired: Vec<Option<SimTime>>,
    /// Streams (by dense slot) waiting on each event slot.
    event_waiters: Vec<Vec<usize>>,
    blocked: Option<HostBlock>,
    done: bool,
    comm_busy: SimTime,
    compute_busy: SimTime,
    /// Issue lane: this rank's pending [`EvKind::IssuePump`]s behind
    /// the one in the heap, in `(at, seq)` order (host issue times
    /// never decrease, so push order is pop order).
    lane: VecDeque<LaneEv>,
    /// Whether the lane's head currently sits in the heap.
    lane_head_queued: bool,
}

impl RankSim {
    /// Resets this rank for a new run and interns the worker's stream
    /// ids and CUDA-event keys into dense slots, reusing the scratch
    /// index maps and every per-rank buffer's capacity.
    fn load(
        &mut self,
        w: &WorkerTrace,
        stream_index: &mut HashMap<StreamId, u32>,
        event_index: &mut HashMap<(u64, u32), u32>,
    ) {
        self.next_op = 0;
        self.host_time = SimTime::ZERO;
        self.host_busy = SimTime::ZERO;
        self.blocked = None;
        self.done = false;
        self.comm_busy = SimTime::ZERO;
        self.compute_busy = SimTime::ZERO;
        self.lane.clear();
        self.lane_head_queued = false;

        stream_index.clear();
        event_index.clear();
        self.ev_slot.clear();
        self.ev_eslot.clear();
        self.ev_slot.reserve(w.events.len());
        self.ev_eslot.reserve(w.events.len());
        for e in &w.events {
            let next = stream_index.len() as u32;
            self.ev_slot
                .push(*stream_index.entry(e.stream).or_insert(next));
            let eslot = match e.op {
                DeviceOp::EventRecord { event, version }
                | DeviceOp::StreamWaitEvent { event, version }
                | DeviceOp::EventSynchronize { event, version } => {
                    let next = event_index.len() as u32;
                    *event_index.entry((event, version)).or_insert(next)
                }
                _ => NO_EVENT,
            };
            self.ev_eslot.push(eslot);
        }

        let nstreams = stream_index.len();
        self.streams.truncate(nstreams);
        for s in &mut self.streams {
            s.reset();
        }
        self.streams.resize_with(nstreams, StreamSim::default);

        let nevents = event_index.len();
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
    /// The same, scheduled by the host enqueuing an op: these travel
    /// through rank `wi`'s issue lane, so popping one promotes the
    /// lane's next entry into the heap.
    IssuePump { wi: usize, si: usize },
    /// A network flow drained its bytes (flow model only). Stale if
    /// `epoch` no longer matches the flow net's convergence epoch —
    /// every flow start/finish re-schedules fresh completions.
    FlowDone { flow: u32, epoch: u32 },
    /// Injected rank failure `fi` of the fault plan strikes worker `wi`.
    Fault { wi: usize, fi: usize },
}

#[derive(Clone, Copy, Debug)]
struct HeapEv {
    at: SimTime,
    seq: u64,
    kind: EvKind,
}

/// An [`EvKind::IssuePump`] parked in its rank's issue lane: the heap
/// event minus what the lane already knows (the rank).
#[derive(Clone, Copy, Debug)]
struct LaneEv {
    at: SimTime,
    seq: u64,
    si: u32,
}

impl PartialEq for HeapEv {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapEv {}
impl PartialOrd for HeapEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
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
    /// High-water mark of the pending-event set — heap entries plus
    /// pumps parked in the per-rank issue lanes — max over all runs.
    /// This is how far hosts run ahead of their devices, not the heap's
    /// size: the heap itself stays near one entry per rank.
    pub heap_depth_high_water: maya_obs::Gauge,
    /// Flow-solver invocations (max-min rate re-convergences),
    /// cumulative. Zero when no cluster topology is in play.
    pub flow_solves: maya_obs::Counter,
    /// Flight recorder for the `sim.run` phase span; a disabled
    /// recorder makes the record call a no-op.
    pub recorder: maya_obs::FlightRecorder,
}

/// The event-driven simulator.
pub struct Simulator<'a> {
    estimator: &'a dyn RuntimeEstimator,
    cluster: &'a ClusterSpec,
    /// Fault-injection plan; `None` (the default) is the byte-identical
    /// happy path. Set via [`Simulator::with_faults`].
    faults: Option<&'a FaultPlan>,
    /// Post-run observability hooks; `None` (the default) publishes
    /// nothing and skips even the wall-clock read.
    obs: Option<&'a SimObs>,
}

/// Reusable simulation arena: the heap, per-rank state, wait tables,
/// collective rendezvous buffers, and the interner index maps.
///
/// A fresh scratch and a reused one produce byte-identical
/// [`SimReport`]s (enforced by proptest); reuse only skips the
/// allocations. Keep one per thread (or a pooled set) and pass it to
/// [`Simulator::run_prevalidated`] when simulating in a loop.
#[derive(Default)]
pub struct SimScratch {
    ranks: Vec<RankSim>,
    heap: BinaryHeap<Reverse<HeapEv>>,
    /// Network collective wait map.
    collectives: HashMap<CollKey, Vec<Participant>>,
    stream_index: HashMap<StreamId, u32>,
    event_index: HashMap<(u64, u32), u32>,
    seq: u64,
    now: SimTime,
    events_processed: u64,
    /// Events scheduled and not yet popped: heap plus issue lanes.
    pending: usize,
    /// Most events ever pending at once this run (one compare per
    /// push — the tally is kept unconditionally; only *publishing* is
    /// gated on [`Simulator::with_obs`]).
    pending_high_water: usize,
    /// Flow-solver invocations (rate re-convergences) this run.
    flow_solves: u64,
    /// Shared-bandwidth flow model state (used only when the cluster
    /// spec carries a topology; otherwise untouched).
    net: FlowNet,
    /// Bookkeeping of the in-flight flows (unordered; a handful).
    flow_meta: Vec<FlowMeta>,
    /// Reusable buffer for re-scheduling flow completions.
    flow_tmp: Vec<(u32, u64)>,
}

/// One stream waiting at a collective rendezvous: `(worker, stream,
/// arrival time, descriptor)`.
type Participant = (usize, usize, SimTime, CollectiveDesc);

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

    /// Stamps a new pending event with the next sequence number.
    fn stamp(&mut self, at: SimTime, kind: EvKind) -> HeapEv {
        self.seq += 1;
        self.pending += 1;
        self.pending_high_water = self.pending_high_water.max(self.pending);
        HeapEv {
            at,
            seq: self.seq,
            kind,
        }
    }

    fn push(&mut self, at: SimTime, kind: EvKind) {
        let ev = self.stamp(at, kind);
        self.heap.push(Reverse(ev));
    }

    /// Schedules the pump for an op the host of worker `wi` just issued.
    ///
    /// It goes through the rank's issue lane, not straight into the
    /// heap. Lane invariant: entries are in `(at, seq)` order. It holds
    /// by construction — `seq` only grows, and `at` is the later of the
    /// host's issue time (`host_time` only moves forward: host delays,
    /// sync waits and fault restarts all add to it) and the global
    /// clock (events pop in time order) — so a lane never needs sorting
    /// and only its head competes in the heap.
    fn push_issued(&mut self, at: SimTime, wi: usize, si: usize) {
        let ev = self.stamp(at, EvKind::IssuePump { wi, si });
        let r = &mut self.ranks[wi];
        debug_assert!(
            r.lane.back().map_or(true, |prev| prev.at <= at),
            "issue lane of worker {wi} went backwards"
        );
        if r.lane_head_queued {
            r.lane.push_back(LaneEv {
                at,
                seq: ev.seq,
                si: si as u32,
            });
        } else {
            r.lane_head_queued = true;
            self.heap.push(Reverse(ev));
        }
    }

    /// Pops the earliest pending event. Every lane's head is in the
    /// heap and a lane is sorted, so the heap's minimum is the global
    /// `(at, seq)` minimum.
    fn pop(&mut self) -> Option<HeapEv> {
        let Reverse(ev) = self.heap.pop()?;
        self.pending -= 1;
        if let EvKind::IssuePump { wi, .. } = ev.kind {
            let r = &mut self.ranks[wi];
            match r.lane.pop_front() {
                Some(LaneEv { at, seq, si }) => {
                    let kind = EvKind::IssuePump {
                        wi,
                        si: si as usize,
                    };
                    self.heap.push(Reverse(HeapEv { at, seq, kind }));
                }
                None => r.lane_head_queued = false,
            }
        }
        Some(ev)
    }

    /// Resets for a new run over `job`, keeping buffer capacity.
    fn reset(&mut self, job: &JobTrace) {
        let n = job.workers.len();
        self.heap.clear();
        self.collectives.clear();
        self.seq = 0;
        self.now = SimTime::ZERO;
        self.events_processed = 0;
        self.pending = 0;
        self.pending_high_water = 0;
        self.flow_solves = 0;
        self.ranks.truncate(n);
        self.ranks.resize_with(n, RankSim::default);
        // Split borrows: each rank's loader shares the two index maps.
        let (ranks, stream_index, event_index) = (
            &mut self.ranks,
            &mut self.stream_index,
            &mut self.event_index,
        );
        for (r, w) in ranks.iter_mut().zip(&job.workers) {
            r.load(w, stream_index, event_index);
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
    /// one and never even reads the wall clock.
    pub fn with_obs(mut self, obs: Option<&'a SimObs>) -> Self {
        self.obs = obs;
        self
    }

    /// Validates `job` ([`JobTrace::validate`]) and runs the simulation
    /// (Algorithm 1's main loop) in a private scratch arena: the entry
    /// for a trace of unknown provenance simulated once.
    pub fn run(&self, job: &JobTrace) -> Result<SimReport, SimError> {
        job.validate().map_err(SimError::InvalidTrace)?;
        self.run_prevalidated(job, &mut SimScratch::new())
    }

    /// Runs a trusted trace in the caller's arena: no
    /// [`JobTrace::validate`], and `scratch`'s buffers are reused
    /// instead of allocated. For callers that already validated the
    /// trace (or constructed it from a validated one, e.g. the predict
    /// pipeline's collate step) and simulate in a loop. On an
    /// *invalid* trace this is memory-safe but may return an arbitrary
    /// report or `Deadlock` instead of `InvalidTrace`.
    pub fn run_prevalidated(
        &self,
        job: &JobTrace,
        scratch: &mut SimScratch,
    ) -> Result<SimReport, SimError> {
        // lint:allow(wall-clock-in-output): obs stage timing, only taken when an observer is attached — SimReport itself is wall-clock-free
        let run_started = self.obs.map(|_| std::time::Instant::now());
        let st = scratch;
        st.reset(job);
        if let Some(topo) = &self.cluster.topology {
            st.net.reset(topo.links.iter().map(|l| l.bytes_per_sec()));
            st.flow_meta.clear();
        }
        let n = job.workers.len();
        for wi in 0..n {
            st.push(SimTime::ZERO, EvKind::HostDispatch { wi });
        }
        if let Some(plan) = self.faults {
            // Failures on ranks absent from this (possibly deduped or
            // selectively launched) job are simply never scheduled.
            for (fi, f) in plan.failures.iter().enumerate() {
                if let Some(wi) = job.workers.iter().position(|w| w.rank == f.rank) {
                    st.push(f.at, EvKind::Fault { wi, fi });
                }
            }
        }

        while let Some(ev) = st.pop() {
            st.now = ev.at;
            st.events_processed += 1;
            match ev.kind {
                EvKind::HostDispatch { wi } => self.host_dispatch(job, st, wi),
                EvKind::Pump { wi, si } | EvKind::IssuePump { wi, si } => {
                    self.pump(job, st, wi, si)
                }
                EvKind::FlowDone { flow, epoch } => self.flow_done(st, flow, epoch),
                EvKind::Fault { wi, fi } => self.apply_fault(st, wi, fi),
            }
        }

        debug_assert_eq!(st.pending, 0, "the heap drained with events still parked");

        // Publish before the deadlock check: events were processed and
        // a wall-clock interval elapsed whether or not all ranks
        // finished, and a deadlocked run is exactly when the counters
        // are most interesting.
        if let (Some(obs), Some(started)) = (self.obs, run_started) {
            obs.events.add(st.events_processed);
            obs.heap_depth_high_water
                .raise(st.pending_high_water as i64);
            obs.flow_solves.add(st.flow_solves);
            obs.recorder.record("sim.run", started, started.elapsed());
        }

        let stuck: Vec<u32> = st
            .ranks
            .iter()
            .zip(&job.workers)
            .filter(|(r, _)| !r.done)
            .map(|(_, w)| w.rank)
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
            peak_mem_bytes: job.peak_mem_bytes(),
            events_processed: st.events_processed,
        })
    }

    /// Host dispatch loop: replays recorded host delays and runs ahead,
    /// enqueuing async work onto streams, until it blocks or finishes.
    fn host_dispatch(&self, job: &JobTrace, st: &mut SimScratch, wi: usize) {
        if st.ranks[wi].blocked.is_some() || st.ranks[wi].done {
            return;
        }
        let events = &job.workers[wi].events;
        loop {
            let pc = st.ranks[wi].next_op;
            if pc >= events.len() {
                st.ranks[wi].done = true;
                return;
            }
            let ev = &events[pc];
            let si = st.ranks[wi].ev_slot[pc] as usize;
            let eslot = st.ranks[wi].ev_eslot[pc];
            st.ranks[wi].next_op += 1;
            st.ranks[wi].host_time += ev.host_delay;
            st.ranks[wi].host_busy += ev.host_delay;
            let issue = st.ranks[wi].host_time;

            match ev.op {
                DeviceOp::Malloc { .. } | DeviceOp::Free { .. } => {}
                DeviceOp::KernelLaunch { kernel } => {
                    let dur = self.estimator.kernel_time(&kernel);
                    let dur = self.scaled_kernel_time(job, wi, issue, dur);
                    self.enqueue(
                        st,
                        wi,
                        si,
                        issue,
                        StreamOp::Timed {
                            dur,
                            is_comm: false,
                        },
                    );
                }
                DeviceOp::MemcpyAsync { bytes, kind, sync } => {
                    let dur = self.estimator.memcpy_time(bytes, kind);
                    self.enqueue(
                        st,
                        wi,
                        si,
                        issue,
                        StreamOp::Timed {
                            dur,
                            is_comm: false,
                        },
                    );
                    if sync && self.park_host_on_drain(st, wi, si) {
                        // Blocking copy: host waits for the stream.
                        return;
                    }
                }
                DeviceOp::EventRecord { .. } => {
                    self.enqueue(st, wi, si, issue, StreamOp::Record { slot: eslot });
                }
                DeviceOp::StreamWaitEvent { version, .. } => {
                    let zero = version == 0;
                    self.enqueue(st, wi, si, issue, StreamOp::Wait { slot: eslot, zero });
                }
                DeviceOp::EventSynchronize { version, .. } => {
                    match st.ranks[wi].fired[eslot as usize] {
                        Some(t) => {
                            st.ranks[wi].host_time = st.ranks[wi].host_time.max(t);
                        }
                        None if version == 0 => {} // never-recorded: no-op
                        None => {
                            st.ranks[wi].blocked = Some(HostBlock::Event { slot: eslot });
                            return;
                        }
                    }
                }
                DeviceOp::StreamSynchronize => {
                    if self.park_host_on_drain(st, wi, si) {
                        return;
                    }
                }
                DeviceOp::DeviceSynchronize => {
                    let now = st.ranks[wi].host_time;
                    let mut latest = now;
                    let mut remaining = 0u32;
                    for s in &st.ranks[wi].streams {
                        if s.drained(now) {
                            continue;
                        }
                        if s.queue.is_empty() && s.blocked.is_none() {
                            latest = latest.max(s.busy_until);
                        } else {
                            remaining += 1;
                        }
                    }
                    st.ranks[wi].host_time = latest;
                    if remaining > 0 {
                        st.ranks[wi].blocked = Some(HostBlock::DeviceDrain { remaining });
                        return;
                    }
                }
                DeviceOp::Collective { .. } => {
                    self.enqueue(st, wi, si, issue, StreamOp::Join { pc: pc as u32 });
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
    fn scaled_kernel_time(
        &self,
        job: &JobTrace,
        wi: usize,
        issue: SimTime,
        mut dur: SimTime,
    ) -> SimTime {
        if self.cluster.hetero.is_none() && self.faults.is_none() {
            return dur;
        }
        let rank = job.workers[wi].rank;
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

    /// Enqueues a stream op and pumps the stream at its issue time
    /// (through the rank's issue lane — see [`SimScratch::push_issued`]).
    fn enqueue(&self, st: &mut SimScratch, wi: usize, si: usize, ready_at: SimTime, op: StreamOp) {
        st.ranks[wi].streams[si]
            .queue
            .push_back(QueuedOp { ready_at, op });
        st.push_issued(ready_at.max(st.now), wi, si);
    }

    /// Parks the host until a stream drains. Returns true if parked.
    fn park_host_on_drain(&self, st: &mut SimScratch, wi: usize, si: usize) -> bool {
        let now = st.ranks[wi].host_time;
        let s = &st.ranks[wi].streams[si];
        if s.queue.is_empty() && s.blocked.is_none() {
            st.ranks[wi].host_time = now.max(s.busy_until);
            false
        } else {
            st.ranks[wi].blocked = Some(HostBlock::StreamDrain { si });
            true
        }
    }

    /// Stream progress (Algorithm 2's scheduler tick for one stream).
    fn pump(&self, job: &JobTrace, st: &mut SimScratch, wi: usize, si: usize) {
        loop {
            let now = st.now;
            let s = &mut st.ranks[wi].streams[si];
            if s.blocked.is_some() || s.busy_until > now {
                return;
            }
            let front = match s.queue.front().copied() {
                None => {
                    // Drained: wake a host parked on this stream/device.
                    self.notify_drain(st, wi, si, now);
                    return;
                }
                Some(f) => f,
            };
            if front.ready_at > now {
                st.push(front.ready_at, EvKind::Pump { wi, si });
                return;
            }
            s.queue.pop_front();
            match front.op {
                StreamOp::Timed { dur, is_comm } => {
                    s.busy_until = now + dur;
                    if is_comm {
                        st.ranks[wi].comm_busy += dur;
                    } else {
                        st.ranks[wi].compute_busy += dur;
                    }
                    st.push(now + dur, EvKind::Pump { wi, si });
                    return;
                }
                StreamOp::Record { slot } => {
                    st.ranks[wi].fired[slot as usize] = Some(now);
                    // Wake streams waiting on this event. Take the
                    // waiter list to appease the borrow checker, then
                    // give the (cleared) buffer back for reuse.
                    let mut waiters =
                        std::mem::take(&mut st.ranks[wi].event_waiters[slot as usize]);
                    for &w in &waiters {
                        let ws = &mut st.ranks[wi].streams[w];
                        if ws.blocked == Some(StreamBlock::Event { slot }) {
                            ws.blocked = None;
                            ws.busy_until = ws.busy_until.max(now);
                            st.push(now, EvKind::Pump { wi, si: w });
                        }
                    }
                    waiters.clear();
                    st.ranks[wi].event_waiters[slot as usize] = waiters;
                    // Wake a host parked on EventSynchronize.
                    if st.ranks[wi].blocked == Some(HostBlock::Event { slot }) {
                        st.ranks[wi].blocked = None;
                        st.ranks[wi].host_time = st.ranks[wi].host_time.max(now);
                        st.push(now, EvKind::HostDispatch { wi });
                    }
                }
                StreamOp::Wait { slot, zero } => {
                    let fired = st.ranks[wi].fired[slot as usize];
                    if zero || fired.is_some() {
                        // Already fired (or never-recorded no-op): the
                        // stream ordering itself enforces the constraint.
                        let fire = fired.unwrap_or(SimTime::ZERO);
                        let s = &mut st.ranks[wi].streams[si];
                        s.busy_until = s.busy_until.max(fire);
                        if fire > now {
                            st.push(fire, EvKind::Pump { wi, si });
                            return;
                        }
                    } else {
                        st.ranks[wi].streams[si].blocked = Some(StreamBlock::Event { slot });
                        st.ranks[wi].event_waiters[slot as usize].push(si);
                        return;
                    }
                }
                StreamOp::Join { pc } => {
                    let op = job.workers.get(wi).and_then(|w| w.events.get(pc as usize));
                    let Some(&DeviceOp::Collective { desc }) = op.map(|e| &e.op) else {
                        continue; // `Join` is only queued for a collective
                    };
                    let key = CollKey::from_desc(&desc);
                    st.ranks[wi].streams[si].blocked = Some(StreamBlock::Collective);
                    let waiting = st.collectives.entry(key).or_default();
                    waiting.push((wi, si, now, desc));
                    if waiting.len() >= required_participants(job, &desc) {
                        self.resolve_collective(job, st, key);
                    }
                    return;
                }
            }
        }
    }

    /// All participants joined: release every stream in lockstep after
    /// the predicted wire time (Algorithm 3).
    fn resolve_collective(&self, job: &JobTrace, st: &mut SimScratch, key: CollKey) {
        let participants = st.collectives.remove(&key).unwrap_or_default();
        let Some(&(_, _, _, desc)) = participants.first() else {
            return;
        };
        let start = participants
            .iter()
            .map(|&(_, _, t, _)| t)
            .fold(SimTime::ZERO, SimTime::max);
        let global_ranks: Vec<u32> = match desc.kind {
            CollectiveKind::Send { peer } | CollectiveKind::Recv { peer } => {
                match job.comm_groups.get(&desc.comm_id) {
                    Some(members) => [desc.rank_in_comm, peer]
                        .iter()
                        .filter_map(|&i| members.get(i as usize).copied())
                        .collect(),
                    None => participants
                        .iter()
                        .map(|&(wi, ..)| job.workers[wi].rank)
                        .collect(),
                }
            }
            _ => job
                .comm_groups
                .get(&desc.comm_id)
                .cloned()
                .unwrap_or_default(),
        };
        if let Some(topo) = &self.cluster.topology {
            self.start_flow(st, topo, &desc, participants, start, &global_ranks);
            return;
        }
        let dur =
            self.estimator
                .collective_time(desc.kind, desc.bytes, &global_ranks, self.cluster);
        let end = start + dur;
        for (wi, si, _, _) in participants {
            let s = &mut st.ranks[wi].streams[si];
            s.blocked = None;
            // `max` is the identity without faults (a stream blocked on
            // a rendezvous is never busy past it) but preserves an
            // injected restart penalty that outlives the collective.
            s.busy_until = s.busy_until.max(end);
            st.ranks[wi].comm_busy += dur;
            st.push(end, EvKind::Pump { wi, si });
        }
    }

    /// Flow-model path of [`Self::resolve_collective`]: the collective
    /// becomes a flow over the links its participant nodes touch, its
    /// byte count set by the algorithm's wire traffic. Starting the
    /// flow re-converges every active rate, so completion events for
    /// *all* flows are re-scheduled under the new epoch.
    fn start_flow(
        &self,
        st: &mut SimScratch,
        topo: &TopologySpec,
        desc: &CollectiveDesc,
        participants: Vec<Participant>,
        start: SimTime,
        global_ranks: &[u32],
    ) {
        let bytes = wire_bytes(desc.kind, desc.bytes, global_ranks.len());
        // Participant nodes, sorted and deduped for a deterministic
        // route; nodes outside the topology (a spec smaller than the
        // job) contribute no links rather than faulting.
        let mut nodes: Vec<u32> = global_ranks
            .iter()
            .map(|&r| self.cluster.node_of(r))
            .filter(|&n| n < topo.num_nodes())
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        let route = topo.collective_route(&nodes);
        let latency = SimTime::from_us(topo.route_latency_us(&route));

        let flow = st.net.start(start.as_ns(), bytes, &route);
        st.flow_meta.push(FlowMeta {
            flow,
            participants,
            start,
            latency,
        });
        self.schedule_flow_completions(st);
    }

    /// A flow's bytes drained (if the event is still current): release
    /// its participant streams after the route latency, retire the flow
    /// and re-schedule the survivors' completions at their new rates.
    fn flow_done(&self, st: &mut SimScratch, flow: u32, epoch: u32) {
        if st.net.epoch() != epoch {
            return; // stale: a later convergence re-scheduled this flow
        }
        let Some(pos) = st.flow_meta.iter().position(|m| m.flow == flow) else {
            return; // stale: the flow already finished
        };
        let meta = st.flow_meta.swap_remove(pos);
        let now = st.now;
        st.net.finish(now.as_ns(), flow);
        let end = now + meta.latency;
        let dur = end.saturating_sub(meta.start);
        for &(wi, si, _, _) in &meta.participants {
            let s = &mut st.ranks[wi].streams[si];
            s.blocked = None;
            // `max`, not assignment: an injected fault may have pushed
            // the stream past the collective's own end.
            s.busy_until = s.busy_until.max(end);
            let wake = s.busy_until;
            st.ranks[wi].comm_busy += dur;
            st.push(wake, EvKind::Pump { wi, si });
        }
        self.schedule_flow_completions(st);
    }

    /// Re-schedules one completion event per active flow, tagged with
    /// the current convergence epoch (older events become stale).
    fn schedule_flow_completions(&self, st: &mut SimScratch) {
        st.flow_solves += 1;
        let epoch = st.net.epoch();
        let mut tmp = std::mem::take(&mut st.flow_tmp);
        tmp.clear();
        tmp.extend(st.net.active_flows().map(|f| (f, st.net.eta_ns(f))));
        for &(flow, eta) in &tmp {
            st.push(SimTime::from_ns(eta), EvKind::FlowDone { flow, epoch });
        }
        st.flow_tmp = tmp;
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
            let s = &mut st.ranks[wi].streams[si];
            if s.drained(now) {
                continue;
            }
            s.busy_until = s.busy_until.max(now) + cost;
            let wake = s.busy_until;
            st.push(wake, EvKind::Pump { wi, si });
        }
        if !st.ranks[wi].done && st.ranks[wi].blocked.is_none() {
            let at = st.ranks[wi].host_time;
            st.push(at, EvKind::HostDispatch { wi });
        }
    }

    /// A stream drained; wake hosts blocked on it.
    fn notify_drain(&self, st: &mut SimScratch, wi: usize, si: usize, now: SimTime) {
        match st.ranks[wi].blocked {
            Some(HostBlock::StreamDrain { si: want }) if want == si => {
                st.ranks[wi].blocked = None;
                st.ranks[wi].host_time = st.ranks[wi].host_time.max(now);
                st.push(now, EvKind::HostDispatch { wi });
            }
            Some(HostBlock::DeviceDrain { remaining }) => {
                let left = remaining.saturating_sub(1);
                st.ranks[wi].host_time = st.ranks[wi].host_time.max(now);
                if left == 0 {
                    st.ranks[wi].blocked = None;
                    st.push(now, EvKind::HostDispatch { wi });
                } else {
                    st.ranks[wi].blocked = Some(HostBlock::DeviceDrain { remaining: left });
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

/// Present-participant count for a collective in a possibly-sparse job.
fn required_participants(job: &JobTrace, desc: &CollectiveDesc) -> usize {
    let members = match job.comm_groups.get(&desc.comm_id) {
        Some(m) => m,
        None => return desc.kind.required_participants(desc.nranks) as usize,
    };
    match desc.kind {
        CollectiveKind::Send { peer } | CollectiveKind::Recv { peer } => {
            let mut req = 0usize;
            for idx in [desc.rank_in_comm, peer] {
                if let Some(&g) = members.get(idx as usize) {
                    if job.is_present(g) {
                        req += 1;
                    }
                }
            }
            req.max(1)
        }
        _ => (job.present_count(members) as usize).max(1),
    }
}

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

    /// At the pending high-water mark nearly every trace op has one
    /// entry in a lane and one in a stream queue, so their sizes are
    /// most of a run's footprint.
    #[test]
    fn parked_entries_stay_small() {
        assert_eq!(std::mem::size_of::<LaneEv>(), 24);
        assert_eq!(std::mem::size_of::<QueuedOp>(), 24);
    }

    #[test]
    fn issue_lanes_pop_in_at_seq_order() {
        // Random interleaving of host-issued pumps (per-rank monotone
        // times, many ties), plain heap events and pops, against the
        // definition: always the smallest `(at, seq)` still pending.
        const RANKS: usize = 5;
        let mut st = SimScratch::new();
        st.ranks.resize_with(RANKS, RankSim::default);
        let mut host_time = [0u64; RANKS];
        let mut pending: Vec<(SimTime, u64)> = Vec::new();
        let mut rng = 0x5eed_u64;
        let mut draw = move |n: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % n
        };
        let pop_and_check = |st: &mut SimScratch, pending: &mut Vec<(SimTime, u64)>| {
            let want = pending.iter().copied().min();
            let got = st.pop().map(|ev| (ev.at, ev.seq));
            assert_eq!(got, want);
            if let Some(key) = got {
                pending.retain(|&k| k != key);
                st.now = key.0;
            }
        };
        for _ in 0..20_000 {
            match draw(5) {
                0..=2 => {
                    let wi = draw(RANKS as u64) as usize;
                    host_time[wi] += draw(3);
                    let at = SimTime::from_ns(host_time[wi]).max(st.now);
                    st.push_issued(at, wi, 0);
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
            .all(|r| r.lane.is_empty() && !r.lane_head_queued));
        assert!(st.pending_high_water > 1000, "the lanes ran deep");
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
            // And a shrunken job right after a bigger one.
            let small = job1(vec![ev(0, kernel(512), 1.0)]);
            small.validate().unwrap();
            let reused = sim.run_prevalidated(&small, &mut scratch).unwrap();
            let fresh = sim.run(&small).unwrap();
            assert_eq!(reused, fresh, "small after seed {seed}");
        }
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
        let spans = obs.recorder.drain_sorted();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "sim.run");
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
