//! The pre-optimization simulator core, kept as a differential-testing
//! oracle.
//!
//! This is the engine exactly as it stood before the dense event-slot
//! and scratch-arena optimization (PR 6): CUDA-event keys are looked up
//! through per-rank `HashMap<(u64, u32), _>` wait maps and the whole
//! mutable state is allocated fresh on every run. It is deliberately
//! *not* maintained for speed — its only job is to stay semantically
//! frozen so tests can prove the optimized [`maya_sim::engine`] produces
//! byte-identical [`SimReport`]s. Do not optimize this module; fix
//! behavior bugs in both cores (and extend the equivalence proptests in
//! `tests/props.rs` to cover the fix).
//!
//! Three rules make a report independent of the order in which the
//! events of one instant pop:
//! - (i) a rendezvous is timed by the descriptor of its earliest
//!   arrival, a tie going to the lower rank, so a point-to-point pair is
//!   timed by the same end whichever joins first;
//! - (ii) a stream or host block released in the instant it began counts
//!   no wake-up, so a stream that blocks on an event recorded in the
//!   same instant counts what it counts when the record pops first;
//! - (iv) a host dispatch pops after every other event due in its
//!   instant, so a woken host reads its streams' queues once the
//!   instant's completions have run.
//!
//! Within each class, host dispatches and the rest, events of one
//! instant pop first in, first out. [`simulate_reference_shuffled`]
//! breaks those ties by a seeded hash instead, so that tests can ask
//! whether a report depends on the order of an instant's events: under
//! the rules it does not.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use maya_estimator::RuntimeEstimator;
use maya_hw::ClusterSpec;
use maya_trace::{
    CollectiveDesc, CollectiveKind, DeviceOp, JobTrace, SimTime, StreamId, TraceEvent,
};

use maya_sim::{SimError, SimReport};

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

#[derive(Clone, Copy, Debug)]
enum StreamOp {
    Timed { dur: SimTime, is_comm: bool },
    Record { event: u64, version: u32 },
    Wait { event: u64, version: u32 },
    Join { key: CollKey, desc: CollectiveDesc },
}

#[derive(Clone, Copy, Debug)]
struct QueuedOp {
    ready_at: SimTime,
    op: StreamOp,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum StreamBlock {
    Event { event: u64, version: u32 },
    Collective,
}

#[derive(Default)]
struct StreamSim {
    queue: VecDeque<QueuedOp>,
    busy_until: SimTime,
    blocked: Option<StreamBlock>,
    /// The instant `blocked` was last set.
    blocked_at: SimTime,
}

impl StreamSim {
    fn drained(&self, now: SimTime) -> bool {
        self.queue.is_empty() && self.blocked.is_none() && self.busy_until <= now
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum HostBlock {
    Event { event: u64, version: u32 },
    StreamDrain { si: usize },
    DeviceDrain { remaining: u32 },
}

struct RankSim {
    next_op: usize,
    host_time: SimTime,
    host_busy: SimTime,
    streams: Vec<StreamSim>,
    ev_slot: Vec<u32>,
    blocked: Option<HostBlock>,
    /// The instant `blocked` was last set.
    blocked_at: SimTime,
    done: bool,
    comm_busy: SimTime,
    compute_busy: SimTime,
}

fn intern_streams(events: &[TraceEvent]) -> (Vec<u32>, usize) {
    let mut index: HashMap<StreamId, u32> = HashMap::new();
    let mut slots = Vec::with_capacity(events.len());
    for e in events {
        let next = index.len() as u32;
        slots.push(*index.entry(e.stream).or_insert(next));
    }
    (slots, index.len())
}

#[derive(Clone, Copy, Debug)]
enum EvKind {
    HostDispatch { wi: usize },
    Pump { wi: usize, si: usize },
}

#[derive(Clone, Copy, Debug)]
struct HeapEv {
    at: SimTime,
    /// Orders events of one instant: its top bit is set on a host
    /// dispatch (rule (iv)), the rest are 0 unless the run is shuffled.
    tie: u64,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for HeapEv {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.tie == other.tie && self.seq == other.seq
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
        (self.at, self.tie, self.seq).cmp(&(other.at, other.tie, other.seq))
    }
}

/// The frozen reference simulator.
struct Reference<'a> {
    estimator: &'a dyn RuntimeEstimator,
    cluster: &'a ClusterSpec,
    /// Key of the same-instant tie-break; `None` pops ties in order.
    shuffle: Option<u64>,
}

/// Runs the pre-optimization core. Semantics must match
/// [`maya_sim::Simulator::run`] exactly — see the module docs.
pub fn simulate_reference(
    job: &JobTrace,
    cluster: &ClusterSpec,
    estimator: &dyn RuntimeEstimator,
) -> Result<SimReport, SimError> {
    simulate_reference_counted(job, cluster, estimator).0
}

/// [`simulate_reference`] with the events the run processed, which a
/// deadlocked run's error does not carry (0 for an invalid trace).
pub fn simulate_reference_counted(
    job: &JobTrace,
    cluster: &ClusterSpec,
    estimator: &dyn RuntimeEstimator,
) -> (Result<SimReport, SimError>, u64) {
    Reference {
        estimator,
        cluster,
        shuffle: None,
    }
    .run(job)
}

/// [`simulate_reference_counted`] with the events of each instant
/// popped in an order drawn from `seed` instead of first in, first out.
pub fn simulate_reference_shuffled(
    job: &JobTrace,
    cluster: &ClusterSpec,
    estimator: &dyn RuntimeEstimator,
    seed: u64,
) -> (Result<SimReport, SimError>, u64) {
    Reference {
        estimator,
        cluster,
        shuffle: Some(splitmix64(seed)),
    }
    .run(job)
}

struct State {
    ranks: Vec<RankSim>,
    heap: BinaryHeap<Reverse<HeapEv>>,
    shuffle: Option<u64>,
    seq: u64,
    now: SimTime,
    events_processed: u64,
    fired: Vec<HashMap<(u64, u32), SimTime>>,
    event_stream_waiters: Vec<HashMap<(u64, u32), Vec<usize>>>,
    collectives: HashMap<CollKey, Vec<(usize, usize, SimTime, CollectiveDesc)>>,
}

impl State {
    fn push(&mut self, at: SimTime, kind: EvKind) {
        self.seq += 1;
        let shuffled = self
            .shuffle
            .map_or(0, |key| splitmix64(key ^ self.seq) >> 1);
        let host = matches!(kind, EvKind::HostDispatch { .. });
        let tie = u64::from(host) << 63 | shuffled;
        self.heap.push(Reverse(HeapEv {
            at,
            tie,
            seq: self.seq,
            kind,
        }));
    }

    /// Pushes the wake-up of a stream or host blocked since `since`. A
    /// block released in the instant it began counts no wake-up (rule
    /// (ii)): its pop's count is taken back here.
    fn wake(&mut self, at: SimTime, since: SimTime, kind: EvKind) {
        self.push(at, kind);
        if at == since {
            self.events_processed -= 1;
        }
    }
}

/// splitmix64's output function: a seeded same-instant tie-break.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl<'a> Reference<'a> {
    fn run(&self, job: &JobTrace) -> (Result<SimReport, SimError>, u64) {
        if let Err(e) = job.validate() {
            return (Err(SimError::InvalidTrace(e)), 0);
        }
        let n = job.workers.len();
        let mut st = State {
            ranks: job
                .workers
                .iter()
                .map(|w| {
                    let (ev_slot, nstreams) = intern_streams(&w.events);
                    RankSim {
                        next_op: 0,
                        host_time: SimTime::ZERO,
                        host_busy: SimTime::ZERO,
                        streams: (0..nstreams).map(|_| StreamSim::default()).collect(),
                        ev_slot,
                        blocked: None,
                        blocked_at: SimTime::ZERO,
                        done: false,
                        comm_busy: SimTime::ZERO,
                        compute_busy: SimTime::ZERO,
                    }
                })
                .collect(),
            heap: BinaryHeap::new(),
            shuffle: self.shuffle,
            seq: 0,
            now: SimTime::ZERO,
            events_processed: 0,
            fired: vec![HashMap::new(); n],
            event_stream_waiters: vec![HashMap::new(); n],
            collectives: HashMap::new(),
        };
        for wi in 0..n {
            st.push(SimTime::ZERO, EvKind::HostDispatch { wi });
        }

        while let Some(Reverse(ev)) = st.heap.pop() {
            st.now = ev.at;
            st.events_processed += 1;
            match ev.kind {
                EvKind::HostDispatch { wi } => self.host_dispatch(job, &mut st, wi),
                EvKind::Pump { wi, si } => self.pump(job, &mut st, wi, si),
            }
        }

        let stuck: Vec<u32> = st
            .ranks
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.done)
            .map(|(i, _)| job.workers[i].rank)
            .collect();
        if !stuck.is_empty() {
            return (
                Err(SimError::Deadlock { stuck_ranks: stuck }),
                st.events_processed,
            );
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
        let report = SimReport {
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
        };
        (Ok(report), st.events_processed)
    }

    fn host_dispatch(&self, job: &JobTrace, st: &mut State, wi: usize) {
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
            st.ranks[wi].next_op += 1;
            st.ranks[wi].host_time += ev.host_delay;
            st.ranks[wi].host_busy += ev.host_delay;
            let issue = st.ranks[wi].host_time;

            match ev.op {
                DeviceOp::Malloc { .. } | DeviceOp::Free { .. } => {}
                DeviceOp::KernelLaunch { kernel } => {
                    let dur = self.estimator.kernel_time(&kernel);
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
                        return;
                    }
                }
                DeviceOp::EventRecord { event, version } => {
                    self.enqueue(st, wi, si, issue, StreamOp::Record { event, version });
                }
                DeviceOp::StreamWaitEvent { event, version } => {
                    self.enqueue(st, wi, si, issue, StreamOp::Wait { event, version });
                }
                DeviceOp::EventSynchronize { event, version } => {
                    match st.fired[wi].get(&(event, version)).copied() {
                        Some(t) => {
                            st.ranks[wi].host_time = st.ranks[wi].host_time.max(t);
                        }
                        None if version == 0 => {}
                        None => {
                            st.ranks[wi].blocked = Some(HostBlock::Event { event, version });
                            st.ranks[wi].blocked_at = st.now;
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
                        st.ranks[wi].blocked_at = st.now;
                        return;
                    }
                }
                DeviceOp::Collective { desc } => {
                    let key = CollKey::from_desc(&desc);
                    self.enqueue(st, wi, si, issue, StreamOp::Join { key, desc });
                }
            }
        }
    }

    fn enqueue(&self, st: &mut State, wi: usize, si: usize, ready_at: SimTime, op: StreamOp) {
        st.ranks[wi].streams[si]
            .queue
            .push_back(QueuedOp { ready_at, op });
        st.push(ready_at.max(st.now), EvKind::Pump { wi, si });
    }

    fn park_host_on_drain(&self, st: &mut State, wi: usize, si: usize) -> bool {
        let now = st.ranks[wi].host_time;
        let s = &st.ranks[wi].streams[si];
        if s.queue.is_empty() && s.blocked.is_none() {
            st.ranks[wi].host_time = now.max(s.busy_until);
            false
        } else {
            st.ranks[wi].blocked = Some(HostBlock::StreamDrain { si });
            st.ranks[wi].blocked_at = st.now;
            true
        }
    }

    fn pump(&self, job: &JobTrace, st: &mut State, wi: usize, si: usize) {
        loop {
            let now = st.now;
            let s = &mut st.ranks[wi].streams[si];
            if s.blocked.is_some() || s.busy_until > now {
                return;
            }
            let front = match s.queue.front().copied() {
                None => {
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
                StreamOp::Record { event, version } => {
                    st.fired[wi].insert((event, version), now);
                    if let Some(waiters) = st.event_stream_waiters[wi].remove(&(event, version)) {
                        for w in waiters {
                            let ws = &mut st.ranks[wi].streams[w];
                            if ws.blocked == Some(StreamBlock::Event { event, version }) {
                                ws.blocked = None;
                                ws.busy_until = ws.busy_until.max(now);
                                let since = ws.blocked_at;
                                st.wake(now, since, EvKind::Pump { wi, si: w });
                            }
                        }
                    }
                    if st.ranks[wi].blocked == Some(HostBlock::Event { event, version }) {
                        st.ranks[wi].blocked = None;
                        st.ranks[wi].host_time = st.ranks[wi].host_time.max(now);
                        let since = st.ranks[wi].blocked_at;
                        st.wake(now, since, EvKind::HostDispatch { wi });
                    }
                }
                StreamOp::Wait { event, version } => {
                    if version == 0 || st.fired[wi].contains_key(&(event, version)) {
                        let fire = st.fired[wi]
                            .get(&(event, version))
                            .copied()
                            .unwrap_or(SimTime::ZERO);
                        let s = &mut st.ranks[wi].streams[si];
                        s.busy_until = s.busy_until.max(fire);
                        if fire > now {
                            st.push(fire, EvKind::Pump { wi, si });
                            return;
                        }
                    } else {
                        let s = &mut st.ranks[wi].streams[si];
                        s.blocked = Some(StreamBlock::Event { event, version });
                        s.blocked_at = now;
                        st.event_stream_waiters[wi]
                            .entry((event, version))
                            .or_default()
                            .push(si);
                        return;
                    }
                }
                StreamOp::Join { key, desc } => {
                    let s = &mut st.ranks[wi].streams[si];
                    s.blocked = Some(StreamBlock::Collective);
                    s.blocked_at = now;
                    st.collectives
                        .entry(key)
                        .or_default()
                        .push((wi, si, now, desc));
                    let required = required_participants(job, &desc);
                    let arrived = st.collectives[&key].len();
                    if arrived >= required {
                        self.resolve_collective(job, st, key);
                    }
                    return;
                }
            }
        }
    }

    fn resolve_collective(&self, job: &JobTrace, st: &mut State, key: CollKey) {
        let participants = st.collectives.remove(&key).unwrap_or_default();
        let start = participants
            .iter()
            .map(|&(_, _, t, _)| t)
            .fold(SimTime::ZERO, SimTime::max);
        // Rule (i): the earliest arrival's descriptor, the lower rank's
        // on a tie (workers are in rank order).
        let first = participants.iter().min_by_key(|&&(wi, _, t, _)| (t, wi));
        let desc = first.expect("a rendezvous has a participant").3;
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
        let dur =
            self.estimator
                .collective_time(desc.kind, desc.bytes, &global_ranks, self.cluster);
        let end = start + dur;
        for (wi, si, joined, _) in participants {
            let s = &mut st.ranks[wi].streams[si];
            s.blocked = None;
            s.busy_until = end;
            st.ranks[wi].comm_busy += dur;
            st.wake(end, joined, EvKind::Pump { wi, si });
        }
    }

    fn notify_drain(&self, st: &mut State, wi: usize, si: usize, now: SimTime) {
        match st.ranks[wi].blocked {
            Some(HostBlock::StreamDrain { si: want }) if want == si => {
                st.ranks[wi].blocked = None;
                st.ranks[wi].host_time = st.ranks[wi].host_time.max(now);
                let since = st.ranks[wi].blocked_at;
                st.wake(now, since, EvKind::HostDispatch { wi });
            }
            Some(HostBlock::DeviceDrain { remaining }) => {
                let left = remaining.saturating_sub(1);
                st.ranks[wi].host_time = st.ranks[wi].host_time.max(now);
                if left == 0 {
                    st.ranks[wi].blocked = None;
                    let since = st.ranks[wi].blocked_at;
                    st.wake(now, since, EvKind::HostDispatch { wi });
                } else {
                    st.ranks[wi].blocked = Some(HostBlock::DeviceDrain { remaining: left });
                }
            }
            _ => {}
        }
    }
}

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
