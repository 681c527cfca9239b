//! Ground-truth cluster executor — the "real hardware" stand-in.
//!
//! Replays a collated [`JobTrace`] with full fidelity, *including* the
//! effects Maya's discrete-event simulator deliberately abstracts away
//! (§8 "SM Contention", Appendix A's lockstep-collective simplification):
//!
//! - per-instance kernel jitter and host-delay jitter;
//! - SM contention: compute kernels that overlap in-flight collectives on
//!   the same device run slower, and vice versa (modeled with a two-pass
//!   schedule: pass 1 discovers overlap intervals, pass 2 inflates);
//! - NCCL setup/teardown overhead per collective and non-lockstep,
//!   per-rank-skewed collective completion.
//!
//! This executor is an independent implementation from `maya-sim`; the
//! difference between its measurements and Maya's predictions is exactly
//! the "loss of detail in the emulation and simulation phases" that the
//! paper's Table 3 quantifies.
//!
//! Sparse (worker-deduplicated) jobs are supported: collective rendezvous
//! waits only for *present* participants, while wire times still reflect
//! the full communicator.

use std::collections::{HashMap, VecDeque};

use maya_trace::{
    CollectiveDesc, CollectiveKind, DeviceOp, JobTrace, KernelKind, SimTime, StreamId,
};

use crate::kernel_model::GroundTruthKernelModel;
use crate::net_model::GroundTruthNetModel;
use crate::noise::{gaussian_factor, Key};
use crate::specs::ClusterSpec;

/// Errors surfaced by the executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The job deadlocked: some ranks are parked on collectives that can
    /// never complete (e.g. mismatched send/recv ordering).
    Deadlock {
        /// Ranks that were still blocked when progress stopped.
        parked_ranks: Vec<u32>,
    },
    /// The trace was internally inconsistent.
    InvalidTrace(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Deadlock { parked_ranks } => {
                write!(f, "execution deadlocked; parked ranks: {parked_ranks:?}")
            }
            ExecError::InvalidTrace(msg) => write!(f, "invalid trace: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// What the "testbed" reports after running a job.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Wall time of the traced region (max over ranks).
    pub iteration_time: SimTime,
    /// Per-present-worker completion times.
    pub rank_end_times: Vec<SimTime>,
    /// Communication-busy wall time on the busiest rank.
    pub comm_time: SimTime,
    /// Compute-busy wall time on the busiest rank.
    pub compute_time: SimTime,
    /// Peak device memory across ranks (from emulation summaries).
    pub peak_mem_bytes: u64,
    /// Observed per-kernel durations (profiling mode's training data).
    pub kernel_samples: Vec<(KernelKind, SimTime)>,
}

serde::codec! {
    struct Measurement {
        iteration_time,
        rank_end_times,
        comm_time,
        compute_time,
        peak_mem_bytes,
        kernel_samples,
    }
}

/// High-fidelity replayer configuration.
#[derive(Debug, Clone, Copy)]
pub struct GroundTruthExecutor {
    /// Kernel timing model.
    pub kernel_model: GroundTruthKernelModel,
    /// Collective timing model.
    pub net_model: GroundTruthNetModel,
    /// Std-dev of per-call host-delay jitter (fraction).
    pub host_jitter: f64,
    /// Std-dev of per-instance kernel jitter (fraction).
    pub kernel_jitter: f64,
    /// NCCL collective setup overhead in microseconds.
    pub nccl_setup_us: f64,
    /// Fractional slowdown of compute fully overlapped with comm.
    pub contention_compute: f64,
    /// Fractional slowdown of comm fully overlapped with compute.
    pub contention_comm: f64,
    /// Std-dev of per-rank collective completion skew (fraction).
    pub collective_skew: f64,
    /// Seed for all jitter.
    pub seed: u64,
    /// Whether to collect per-kernel duration samples.
    pub collect_samples: bool,
}

impl Default for GroundTruthExecutor {
    fn default() -> Self {
        GroundTruthExecutor {
            kernel_model: GroundTruthKernelModel::default(),
            net_model: GroundTruthNetModel::default(),
            host_jitter: 0.015,
            kernel_jitter: 0.008,
            nccl_setup_us: 7.5,
            contention_compute: 0.07,
            contention_comm: 0.045,
            collective_skew: 0.006,
            seed: 0x7E57_BED5,
            collect_samples: false,
        }
    }
}

/// Key identifying one logical collective rendezvous.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct CollKey {
    comm: u64,
    seq: u32,
    /// For point-to-point ops: the (min, max) comm-rank pair; otherwise
    /// `(u32::MAX, u32::MAX)`.
    pair: (u32, u32),
}

impl CollKey {
    fn from_desc(desc: &CollectiveDesc) -> Self {
        let pair = match desc.kind {
            CollectiveKind::Send { peer } | CollectiveKind::Recv { peer } => {
                (desc.rank_in_comm.min(peer), desc.rank_in_comm.max(peer))
            }
            _ => (u32::MAX, u32::MAX),
        };
        CollKey {
            comm: desc.comm_id,
            seq: desc.seq,
            pair,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct StreamState {
    ready: SimTime,
    pending: Option<CollKey>,
}

struct RankState {
    pc: usize,
    host: SimTime,
    streams: HashMap<StreamId, StreamState>,
    parked_on: Option<CollKey>,
    done: bool,
}

/// Per-rank busy windows (start, end) used for contention lookups.
type BusyIntervals = [Vec<(SimTime, SimTime)>];

struct Arrival {
    /// Worker index within the (possibly sparse) job.
    widx: usize,
    /// Global rank.
    rank: u32,
    stream: StreamId,
    time: SimTime,
    desc: CollectiveDesc,
}

/// Per-rank busy-interval log from one scheduling pass.
#[derive(Default, Clone)]
struct IntervalLog {
    compute: Vec<(SimTime, SimTime)>,
    comm: Vec<(SimTime, SimTime)>,
}

/// Merges intervals into a disjoint sorted union.
fn union(mut v: Vec<(SimTime, SimTime)>) -> Vec<(SimTime, SimTime)> {
    v.sort_unstable();
    let mut out: Vec<(SimTime, SimTime)> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Length of the overlap between `[s, e)` and a disjoint sorted union.
fn overlap(s: SimTime, e: SimTime, u: &[(SimTime, SimTime)]) -> SimTime {
    if e <= s || u.is_empty() {
        return SimTime::ZERO;
    }
    let idx = u.partition_point(|&(_, ie)| ie <= s);
    let mut acc = SimTime::ZERO;
    for &(is, ie) in &u[idx..] {
        if is >= e {
            break;
        }
        acc += ie.min(e).saturating_sub(is.max(s));
    }
    acc
}

/// Total length of a disjoint union.
fn total_len(u: &[(SimTime, SimTime)]) -> SimTime {
    u.iter().map(|&(s, e)| e.saturating_sub(s)).sum()
}

struct PassResult {
    rank_end: Vec<SimTime>,
    logs: Vec<IntervalLog>,
    samples: Vec<(KernelKind, SimTime)>,
}

impl GroundTruthExecutor {
    /// Runs a collated job and reports what the hardware would measure.
    pub fn run(&self, job: &JobTrace, cluster: &ClusterSpec) -> Result<Measurement, ExecError> {
        job.validate().map_err(ExecError::InvalidTrace)?;
        // Pass 1: discover busy intervals without contention.
        let pass1 = self.schedule(job, cluster, None, false)?;
        let comm_unions: Vec<Vec<(SimTime, SimTime)>> =
            pass1.logs.iter().map(|l| union(l.comm.clone())).collect();
        let compute_unions: Vec<Vec<(SimTime, SimTime)>> = pass1
            .logs
            .iter()
            .map(|l| union(l.compute.clone()))
            .collect();
        // Pass 2: replay with contention inflation.
        let pass2 = self.schedule(
            job,
            cluster,
            Some((&comm_unions, &compute_unions)),
            self.collect_samples,
        )?;

        let iteration_time = pass2
            .rank_end
            .iter()
            .copied()
            .fold(SimTime::ZERO, SimTime::max);
        let comm_time = pass2
            .logs
            .iter()
            .map(|l| total_len(&union(l.comm.clone())))
            .fold(SimTime::ZERO, SimTime::max);
        let compute_time = pass2
            .logs
            .iter()
            .map(|l| total_len(&union(l.compute.clone())))
            .fold(SimTime::ZERO, SimTime::max);
        Ok(Measurement {
            iteration_time,
            rank_end_times: pass2.rank_end,
            comm_time,
            compute_time,
            peak_mem_bytes: job.peak_mem_bytes(),
            kernel_samples: pass2.samples,
        })
    }

    /// One scheduling pass. When `contention` carries pass-1 interval
    /// unions, timed ops are inflated by their overlap fraction.
    #[allow(clippy::type_complexity)]
    fn schedule(
        &self,
        job: &JobTrace,
        cluster: &ClusterSpec,
        contention: Option<(&[Vec<(SimTime, SimTime)>], &[Vec<(SimTime, SimTime)>])>,
        collect_samples: bool,
    ) -> Result<PassResult, ExecError> {
        let n = job.workers.len();
        let mut ranks: Vec<RankState> = (0..n)
            .map(|_| RankState {
                pc: 0,
                host: SimTime::ZERO,
                streams: HashMap::new(),
                parked_on: None,
                done: false,
            })
            .collect();
        let mut logs: Vec<IntervalLog> = vec![IntervalLog::default(); n];
        let mut fired: Vec<HashMap<(u64, u32), SimTime>> = vec![HashMap::new(); n];
        let mut inflight: HashMap<CollKey, Vec<Arrival>> = HashMap::new();
        let mut waiters: HashMap<CollKey, Vec<usize>> = HashMap::new();
        let mut samples: Vec<(KernelKind, SimTime)> = Vec::new();

        let mut runnable: VecDeque<usize> = (0..n).collect();
        while let Some(wi) = runnable.pop_front() {
            if ranks[wi].done || ranks[wi].parked_on.is_some() {
                continue;
            }
            self.advance(
                wi,
                job,
                cluster,
                &mut ranks,
                &mut logs,
                &mut fired,
                &mut inflight,
                &mut waiters,
                &mut runnable,
                contention,
                collect_samples,
                &mut samples,
            );
        }

        let parked: Vec<u32> = ranks
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.done)
            .map(|(i, _)| job.workers[i].rank)
            .collect();
        if !parked.is_empty() {
            for (i, s) in ranks.iter().enumerate().filter(|(_, s)| !s.done) {
                let ev = job.workers[i].events.get(s.pc);
                eprintln!(
                    "executor deadlock: rank {} pc {} parked_on {:?} next_op {:?}",
                    job.workers[i].rank,
                    s.pc,
                    s.parked_on,
                    ev.map(|e| (e.stream, e.op.name()))
                );
            }
            return Err(ExecError::Deadlock {
                parked_ranks: parked,
            });
        }

        let rank_end = ranks
            .iter()
            .map(|s| {
                let stream_max = s
                    .streams
                    .values()
                    .map(|st| st.ready)
                    .fold(SimTime::ZERO, SimTime::max);
                s.host.max(stream_max)
            })
            .collect();
        Ok(PassResult {
            rank_end,
            logs,
            samples,
        })
    }

    /// How many participants of this collective will actually arrive in a
    /// (possibly sparse) job.
    fn required_participants(&self, job: &JobTrace, desc: &CollectiveDesc) -> usize {
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

    /// Advances one rank until it parks or finishes. Collective
    /// resolutions performed here push unparked ranks back to `runnable`.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &self,
        wi: usize,
        job: &JobTrace,
        cluster: &ClusterSpec,
        ranks: &mut [RankState],
        logs: &mut [IntervalLog],
        fired: &mut [HashMap<(u64, u32), SimTime>],
        inflight: &mut HashMap<CollKey, Vec<Arrival>>,
        waiters: &mut HashMap<CollKey, Vec<usize>>,
        runnable: &mut VecDeque<usize>,
        contention: Option<(&BusyIntervals, &BusyIntervals)>,
        collect_samples: bool,
        samples: &mut Vec<(KernelKind, SimTime)>,
    ) {
        let worker = &job.workers[wi];
        let rank = worker.rank;
        let events = &worker.events;
        loop {
            let pc = ranks[wi].pc;
            if pc >= events.len() {
                ranks[wi].done = true;
                return;
            }
            let ev = &events[pc];

            // Park (without consuming) if the op touches a stream whose
            // tail is an unresolved collective.
            let needs_stream = matches!(
                ev.op,
                DeviceOp::KernelLaunch { .. }
                    | DeviceOp::MemcpyAsync { .. }
                    | DeviceOp::EventRecord { .. }
                    | DeviceOp::StreamWaitEvent { .. }
                    | DeviceOp::StreamSynchronize
                    | DeviceOp::Collective { .. }
            );
            if needs_stream {
                if let Some(key) = ranks[wi].streams.get(&ev.stream).and_then(|s| s.pending) {
                    ranks[wi].parked_on = Some(key);
                    waiters.entry(key).or_default().push(wi);
                    return;
                }
            }
            if matches!(ev.op, DeviceOp::DeviceSynchronize) {
                if let Some(key) = ranks[wi].streams.values().find_map(|s| s.pending) {
                    ranks[wi].parked_on = Some(key);
                    waiters.entry(key).or_default().push(wi);
                    return;
                }
            }

            // Consume the event: host runs its dispatch-gap first.
            ranks[wi].pc += 1;
            let hj = gaussian_factor(
                Key::new(self.seed)
                    .with(1)
                    .with(rank as u64)
                    .with(pc as u64)
                    .finish(),
                self.host_jitter,
            );
            ranks[wi].host += ev.host_delay.scale(hj);
            let host_now = ranks[wi].host;

            match ev.op {
                DeviceOp::Malloc { .. } | DeviceOp::Free { .. } => {}
                DeviceOp::KernelLaunch { kernel } => {
                    let stream = ranks[wi].streams.entry(ev.stream).or_default();
                    let start = stream.ready.max(host_now);
                    let base = self.kernel_model.kernel_time(&kernel, &cluster.gpu);
                    let jit = gaussian_factor(
                        Key::new(self.seed)
                            .with(2)
                            .with(rank as u64)
                            .with(pc as u64)
                            .finish(),
                        self.kernel_jitter,
                    );
                    let mut dur = base.scale(jit);
                    if let Some((comm_u, _)) = contention {
                        let ov = overlap(start, start + dur, &comm_u[wi]);
                        let frac = ov.as_secs_f64() / dur.as_secs_f64().max(1e-12);
                        dur = dur.scale(1.0 + self.contention_compute * frac.min(1.0));
                    }
                    stream.ready = start + dur;
                    logs[wi].compute.push((start, start + dur));
                    if collect_samples {
                        samples.push((kernel, dur));
                    }
                }
                DeviceOp::MemcpyAsync { bytes, kind, sync } => {
                    let stream = ranks[wi].streams.entry(ev.stream).or_default();
                    let start = stream.ready.max(host_now);
                    let dur = self.kernel_model.memcpy_time(bytes, kind, &cluster.gpu);
                    stream.ready = start + dur;
                    logs[wi].compute.push((start, start + dur));
                    if sync {
                        ranks[wi].host = ranks[wi].host.max(start + dur);
                    }
                }
                DeviceOp::EventRecord { event, version } => {
                    let ready = ranks[wi].streams.entry(ev.stream).or_default().ready;
                    fired[wi].insert((event, version), ready.max(host_now));
                }
                DeviceOp::StreamWaitEvent { event, version } => {
                    let fire = fired[wi]
                        .get(&(event, version))
                        .copied()
                        .unwrap_or(SimTime::ZERO);
                    let stream = ranks[wi].streams.entry(ev.stream).or_default();
                    stream.ready = stream.ready.max(fire);
                }
                DeviceOp::EventSynchronize { event, version } => {
                    let fire = fired[wi]
                        .get(&(event, version))
                        .copied()
                        .unwrap_or(SimTime::ZERO);
                    ranks[wi].host = ranks[wi].host.max(fire);
                }
                DeviceOp::StreamSynchronize => {
                    let ready = ranks[wi].streams.entry(ev.stream).or_default().ready;
                    ranks[wi].host = ranks[wi].host.max(ready);
                }
                DeviceOp::DeviceSynchronize => {
                    let ready = ranks[wi]
                        .streams
                        .values()
                        .map(|s| s.ready)
                        .fold(SimTime::ZERO, SimTime::max);
                    ranks[wi].host = ranks[wi].host.max(ready);
                }
                DeviceOp::Collective { desc } => {
                    let key = CollKey::from_desc(&desc);
                    let arrival_time = {
                        let stream = ranks[wi].streams.entry(ev.stream).or_default();
                        let t = stream.ready.max(host_now);
                        stream.pending = Some(key);
                        t
                    };
                    let arrivals = inflight.entry(key).or_default();
                    arrivals.push(Arrival {
                        widx: wi,
                        rank,
                        stream: ev.stream,
                        time: arrival_time,
                        desc,
                    });
                    let required = self.required_participants(job, &desc);
                    if arrivals.len() >= required {
                        let done_arrivals = inflight.remove(&key).unwrap_or_default();
                        self.resolve_collective(key, &done_arrivals, job, cluster, ranks, logs);
                        if let Some(ws) = waiters.remove(&key) {
                            for w in ws {
                                ranks[w].parked_on = None;
                                runnable.push_back(w);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Completes a collective whose (present) participants have arrived.
    fn resolve_collective(
        &self,
        key: CollKey,
        arrivals: &[Arrival],
        job: &JobTrace,
        cluster: &ClusterSpec,
        ranks: &mut [RankState],
        logs: &mut [IntervalLog],
    ) {
        let last = arrivals
            .iter()
            .map(|a| a.time)
            .fold(SimTime::ZERO, SimTime::max);
        // The earliest arrival's descriptor, the lower rank's on a tie,
        // as the simulator times a point-to-point pair.
        let Some(desc) = arrivals
            .iter()
            .min_by_key(|a| (a.time, a.rank))
            .map(|a| a.desc)
        else {
            return;
        };
        let n = desc.nranks.max(1);
        let setup = SimTime::from_us(self.nccl_setup_us * (1.0 + (n as f64).log2().max(0.0) / 8.0));
        let start = last + setup;

        // Global ranks participating: for p2p, resolve the endpoint pair
        // from the group; for full collectives, the communicator group.
        let global_ranks: Vec<u32> = match desc.kind {
            CollectiveKind::Send { peer } | CollectiveKind::Recv { peer } => {
                match job.comm_groups.get(&desc.comm_id) {
                    Some(members) => [desc.rank_in_comm, peer]
                        .iter()
                        .filter_map(|&i| members.get(i as usize).copied())
                        .collect(),
                    None => arrivals.iter().map(|a| a.rank).collect(),
                }
            }
            _ => job
                .comm_groups
                .get(&desc.comm_id)
                .cloned()
                .unwrap_or_default(),
        };
        let wire = self
            .net_model
            .collective_time(desc.kind, desc.bytes, &global_ranks, cluster);

        for a in arrivals {
            let skew = gaussian_factor(
                Key::new(self.seed)
                    .with(3)
                    .with(key.comm)
                    .with(key.seq as u64)
                    .with(a.rank as u64)
                    .finish(),
                self.collective_skew,
            );
            let dur = wire.scale(skew);
            let stream = ranks[a.widx].streams.entry(a.stream).or_default();
            stream.ready = start + dur;
            stream.pending = None;
            logs[a.widx].comm.push((a.time, start + dur));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_trace::{Dtype, TraceEvent, WorkerTrace};
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

    fn single_rank_job(events: Vec<TraceEvent>) -> JobTrace {
        let mut w = WorkerTrace::new(0);
        w.events = events;
        JobTrace {
            nranks: 1,
            workers: vec![w],
            comm_groups: BTreeMap::new(),
        }
    }

    fn allreduce(comm: u64, seq: u32, bytes: u64, nranks: u32, rank: u32) -> DeviceOp {
        DeviceOp::Collective {
            desc: CollectiveDesc {
                kind: CollectiveKind::AllReduce,
                comm_id: comm,
                seq,
                bytes,
                nranks,
                rank_in_comm: rank,
            },
        }
    }

    #[test]
    fn sequential_kernels_accumulate() {
        let exec = GroundTruthExecutor::default();
        let cluster = ClusterSpec::h100(1, 1);
        let one = single_rank_job(vec![ev(0, kernel(1024), 5.0)]);
        let two = single_rank_job(vec![ev(0, kernel(1024), 5.0), ev(0, kernel(1024), 5.0)]);
        let m1 = exec.run(&one, &cluster).unwrap();
        let m2 = exec.run(&two, &cluster).unwrap();
        assert!(m2.iteration_time > m1.iteration_time);
        assert!(m2.iteration_time < m1.iteration_time * 3);
    }

    #[test]
    fn parallel_streams_overlap() {
        let exec = GroundTruthExecutor::default();
        let cluster = ClusterSpec::h100(1, 1);
        // Two big kernels on the same stream vs. on two streams.
        let serial = single_rank_job(vec![ev(0, kernel(4096), 1.0), ev(0, kernel(4096), 1.0)]);
        let overlap = single_rank_job(vec![ev(0, kernel(4096), 1.0), ev(1, kernel(4096), 1.0)]);
        let ts = exec.run(&serial, &cluster).unwrap().iteration_time;
        let to = exec.run(&overlap, &cluster).unwrap().iteration_time;
        assert!(
            to.as_secs_f64() < ts.as_secs_f64() * 0.7,
            "serial {ts} overlap {to}"
        );
    }

    #[test]
    fn event_sync_orders_streams() {
        let exec = GroundTruthExecutor::default();
        let cluster = ClusterSpec::h100(1, 1);
        // Kernel A on stream 1; record event; stream 0 waits; kernel B on
        // stream 0 must start after A.
        let job = single_rank_job(vec![
            ev(1, kernel(4096), 1.0),
            ev(
                1,
                DeviceOp::EventRecord {
                    event: 7,
                    version: 0,
                },
                1.0,
            ),
            ev(
                0,
                DeviceOp::StreamWaitEvent {
                    event: 7,
                    version: 0,
                },
                1.0,
            ),
            ev(0, kernel(4096), 1.0),
        ]);
        let serial = single_rank_job(vec![ev(0, kernel(4096), 1.0), ev(0, kernel(4096), 1.0)]);
        let t_dep = exec.run(&job, &cluster).unwrap().iteration_time;
        let t_serial = exec.run(&serial, &cluster).unwrap().iteration_time;
        // With the dependency the two kernels serialize (within jitter).
        let ratio = t_dep.as_secs_f64() / t_serial.as_secs_f64();
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn collective_rendezvous_waits_for_slowest() {
        let exec = GroundTruthExecutor::default();
        let cluster = ClusterSpec::h100(1, 2);
        // Rank 1 computes before joining; rank 0 joins immediately.
        let mut w0 = WorkerTrace::new(0);
        w0.events = vec![ev(0, allreduce(1, 0, 1 << 20, 2, 0), 2.0)];
        let mut w1 = WorkerTrace::new(1);
        w1.events = vec![
            ev(0, kernel(8192), 2.0),
            ev(0, allreduce(1, 0, 1 << 20, 2, 1), 2.0),
        ];
        let mut groups = BTreeMap::new();
        groups.insert(1u64, vec![0u32, 1u32]);
        let job = JobTrace {
            nranks: 2,
            workers: vec![w0, w1],
            comm_groups: groups,
        };
        let m = exec.run(&job, &cluster).unwrap();
        // Rank 0's end time includes rank 1's compute (it waited).
        let k = exec.kernel_model.kernel_time(
            &KernelKind::Gemm {
                m: 8192,
                n: 1024,
                k: 1024,
                dtype: Dtype::Fp32,
            },
            &cluster.gpu,
        );
        assert!(
            m.rank_end_times[0] > k,
            "rank0 {} kernel {}",
            m.rank_end_times[0],
            k
        );
        assert!(m.comm_time > SimTime::ZERO);
    }

    #[test]
    fn mismatched_collective_deadlocks() {
        let exec = GroundTruthExecutor::default();
        let cluster = ClusterSpec::h100(1, 2);
        // Rank 0 joins; rank 1 never does; a follower op on the same
        // stream parks rank 0 forever.
        let mut w0 = WorkerTrace::new(0);
        w0.events = vec![
            ev(0, allreduce(1, 0, 1024, 2, 0), 1.0),
            ev(0, kernel(512), 1.0),
        ];
        let mut w1 = WorkerTrace::new(1);
        w1.events = vec![ev(0, kernel(512), 1.0)];
        let mut groups = BTreeMap::new();
        groups.insert(1u64, vec![0u32, 1u32]);
        let job = JobTrace {
            nranks: 2,
            workers: vec![w0, w1],
            comm_groups: groups,
        };
        match exec.run(&job, &cluster) {
            Err(ExecError::Deadlock { parked_ranks }) => assert_eq!(parked_ranks, vec![0]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn sparse_job_rendezvous_counts_present_only() {
        let exec = GroundTruthExecutor::default();
        let cluster = ClusterSpec::h100(1, 8);
        // 8-rank communicator, but only rank 0 was emulated (dedup).
        let mut w0 = WorkerTrace::new(0);
        w0.events = vec![
            ev(0, allreduce(1, 0, 1 << 26, 8, 0), 1.0),
            ev(0, DeviceOp::StreamSynchronize, 1.0),
        ];
        let mut groups = BTreeMap::new();
        groups.insert(1u64, (0..8u32).collect::<Vec<_>>());
        let job = JobTrace {
            nranks: 8,
            workers: vec![w0],
            comm_groups: groups,
        };
        let m = exec.run(&job, &cluster).unwrap();
        // The wire time must still reflect an 8-rank ring.
        let wire = exec.net_model.collective_time(
            CollectiveKind::AllReduce,
            1 << 26,
            &(0..8u32).collect::<Vec<_>>(),
            &cluster,
        );
        assert!(m.iteration_time >= wire, "{} vs {}", m.iteration_time, wire);
    }

    #[test]
    fn send_recv_pair_matches() {
        let exec = GroundTruthExecutor::default();
        let cluster = ClusterSpec::h100(1, 2);
        let send = DeviceOp::Collective {
            desc: CollectiveDesc {
                kind: CollectiveKind::Send { peer: 1 },
                comm_id: 9,
                seq: 0,
                bytes: 1 << 20,
                nranks: 2,
                rank_in_comm: 0,
            },
        };
        let recv = DeviceOp::Collective {
            desc: CollectiveDesc {
                kind: CollectiveKind::Recv { peer: 0 },
                comm_id: 9,
                seq: 0,
                bytes: 1 << 20,
                nranks: 2,
                rank_in_comm: 1,
            },
        };
        let mut w0 = WorkerTrace::new(0);
        w0.events = vec![ev(2, send, 1.0), ev(2, DeviceOp::StreamSynchronize, 1.0)];
        let mut w1 = WorkerTrace::new(1);
        w1.events = vec![ev(2, recv, 1.0), ev(2, DeviceOp::StreamSynchronize, 1.0)];
        let mut groups = BTreeMap::new();
        groups.insert(9u64, vec![0u32, 1u32]);
        let job = JobTrace {
            nranks: 2,
            workers: vec![w0, w1],
            comm_groups: groups,
        };
        let m = exec.run(&job, &cluster).unwrap();
        assert!(m.iteration_time > SimTime::ZERO);
        assert!(m.comm_time > SimTime::ZERO);
    }

    /// A point-to-point pair is timed by its earliest arrival's
    /// descriptor, the lower rank's on a tie, as the simulator times it.
    /// Rank 1's Recv arrives at 1 µs, rank 0's Send at 50 µs, and the
    /// Recv declares far more bytes: the pair takes the Recv's wire
    /// time, not the Send's.
    #[test]
    fn a_pair_whose_recv_arrives_first_is_timed_by_the_recv() {
        let exec = GroundTruthExecutor::default();
        let cluster = ClusterSpec::h100(1, 2);
        let p2p = |kind, bytes, rank_in_comm| DeviceOp::Collective {
            desc: CollectiveDesc {
                kind,
                comm_id: 9,
                seq: 0,
                bytes,
                nranks: 2,
                rank_in_comm,
            },
        };
        let (send, recv) = (
            CollectiveKind::Send { peer: 1 },
            CollectiveKind::Recv { peer: 0 },
        );
        let mut w0 = WorkerTrace::new(0);
        w0.events = vec![
            ev(2, p2p(send, 1 << 10, 0), 50.0),
            ev(2, DeviceOp::StreamSynchronize, 1.0),
        ];
        let mut w1 = WorkerTrace::new(1);
        w1.events = vec![
            ev(2, p2p(recv, 1 << 28, 1), 1.0),
            ev(2, DeviceOp::StreamSynchronize, 1.0),
        ];
        let job = JobTrace {
            nranks: 2,
            workers: vec![w0, w1],
            comm_groups: BTreeMap::from([(9, vec![0, 1])]),
        };
        let m = exec.run(&job, &cluster).unwrap();
        let wire = exec
            .net_model
            .collective_time(recv, 1 << 28, &[1, 0], &cluster);
        assert!(
            m.iteration_time >= wire.scale(0.9),
            "{} vs the Recv's {}",
            m.iteration_time,
            wire
        );
    }

    #[test]
    fn contention_inflates_overlapped_compute() {
        let cluster = ClusterSpec::h100(1, 2);
        // Both ranks: a long collective on stream 1 overlapping compute on
        // stream 0.
        let build = |rank: u32| {
            let mut w = WorkerTrace::new(rank);
            w.events = vec![
                ev(1, allreduce(1, 0, 1 << 28, 2, rank), 1.0),
                ev(0, kernel(8192), 1.0),
                ev(0, kernel(8192), 1.0),
            ];
            w
        };
        let mut groups = BTreeMap::new();
        groups.insert(1u64, vec![0u32, 1u32]);
        let job = JobTrace {
            nranks: 2,
            workers: vec![build(0), build(1)],
            comm_groups: groups,
        };
        let with = GroundTruthExecutor::default();
        let without = GroundTruthExecutor {
            contention_compute: 0.0,
            ..with
        };
        let tw = with.run(&job, &cluster).unwrap().compute_time;
        let to = without.run(&job, &cluster).unwrap().compute_time;
        assert!(tw > to, "with contention {tw} vs without {to}");
    }

    #[test]
    fn sample_collection_records_kernels() {
        let exec = GroundTruthExecutor {
            collect_samples: true,
            ..Default::default()
        };
        let cluster = ClusterSpec::h100(1, 1);
        let job = single_rank_job(vec![ev(0, kernel(1024), 1.0), ev(0, kernel(2048), 1.0)]);
        let m = exec.run(&job, &cluster).unwrap();
        assert_eq!(m.kernel_samples.len(), 2);
    }

    #[test]
    fn interval_helpers() {
        let u = union(vec![
            (SimTime(10), SimTime(20)),
            (SimTime(15), SimTime(30)),
            (SimTime(40), SimTime(50)),
        ]);
        assert_eq!(
            u,
            vec![(SimTime(10), SimTime(30)), (SimTime(40), SimTime(50))]
        );
        assert_eq!(overlap(SimTime(0), SimTime(100), &u), SimTime(30));
        assert_eq!(overlap(SimTime(25), SimTime(45), &u), SimTime(10));
        assert_eq!(overlap(SimTime(30), SimTime(40), &u), SimTime::ZERO);
        assert_eq!(total_len(&u), SimTime(30));
    }
}
