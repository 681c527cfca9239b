//! Per-worker and job-level trace containers.

use std::collections::BTreeMap;

use crate::ops::{DeviceOp, StreamId};
use crate::time::SimTime;

/// One entry in a worker's emulation trace.
///
/// `host_delay` is the CPU-side gap between the previous API call and this
/// one — the paper measures these as "wall-clock deltas between API calls
/// during emulation" (§4.2) and replays them as blocking host dispatch
/// work in the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub struct TraceEvent {
    /// Stream the operation targets (ignored for host-blocking ops).
    pub stream: StreamId,
    /// The recorded operation.
    pub op: DeviceOp,
    /// Host time spent since the previous API call (dispatch overhead,
    /// Python/framework work, etc.).
    pub host_delay: SimTime,
}

/// Summary statistics the emulator computes while tracing one worker.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct WorkerTraceSummary {
    /// Peak bytes simultaneously allocated on the device.
    pub peak_mem_bytes: u64,
    /// Bytes allocated at the end of the trace (steady-state footprint).
    pub final_mem_bytes: u64,
    /// Number of allocations performed.
    pub num_allocs: u64,
    /// Number of kernel launches recorded.
    pub num_kernels: u64,
    /// Number of collective operations recorded.
    pub num_collectives: u64,
    /// Whether the worker ran out of device memory during emulation.
    pub oom: bool,
}

/// The complete trace of one emulated worker (one GPU rank).
#[derive(Clone, PartialEq, Debug, serde::Serialize, serde::Deserialize)]
pub struct WorkerTrace {
    /// Global rank of this worker within the job.
    pub rank: u32,
    /// Ordered API-call records.
    pub events: Vec<TraceEvent>,
    /// Emulator-computed summary.
    pub summary: WorkerTraceSummary,
}

impl WorkerTrace {
    /// Creates an empty trace for `rank`.
    pub fn new(rank: u32) -> Self {
        WorkerTrace {
            rank,
            events: Vec::new(),
            summary: WorkerTraceSummary::default(),
        }
    }

    /// Total host-side time recorded across all events.
    pub fn total_host_time(&self) -> SimTime {
        self.events.iter().map(|e| e.host_delay).sum()
    }

    /// Iterator over kernel launches only.
    pub fn kernels(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.op, DeviceOp::KernelLaunch { .. }))
    }

    /// Distinct stream ids used by this worker.
    pub fn streams_used(&self) -> Vec<StreamId> {
        let mut s: Vec<StreamId> = self.events.iter().map(|e| e.stream).collect();
        s.sort_unstable();
        s.dedup();
        s
    }
}

/// A collated, job-level trace: worker traces plus the
/// communicator-group structure the collator reconstructed.
///
/// A job may be *sparse*: after worker deduplication (§4.2) only one
/// representative per equivalence class remains, while `nranks` and
/// `comm_groups` still describe the full job. Consumers use
/// [`JobTrace::is_present`] to adjust collective rendezvous counts.
#[derive(Clone, PartialEq, Debug, serde::Serialize, serde::Deserialize)]
pub struct JobTrace {
    /// Number of ranks in the full job.
    pub nranks: u32,
    /// Per-rank traces, sorted by rank; possibly a subset of all ranks.
    pub workers: Vec<WorkerTrace>,
    /// Communicator membership: `comm_id -> global ranks`, indexed by the
    /// rank's position *within* the communicator (`members[i]` is the
    /// global rank whose `rank_in_comm == i`).
    pub comm_groups: BTreeMap<u64, Vec<u32>>,
}

impl JobTrace {
    /// Total kernel launches across the job.
    pub fn total_kernels(&self) -> u64 {
        self.workers.iter().map(|w| w.summary.num_kernels).sum()
    }

    /// Total events across the job.
    pub fn total_events(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }

    /// Peak device memory across ranks.
    pub fn peak_mem_bytes(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.summary.peak_mem_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Whether any rank hit an out-of-memory condition during emulation.
    pub fn any_oom(&self) -> bool {
        self.workers.iter().any(|w| w.summary.oom)
    }

    /// Index of the worker trace for `rank`, if it is present.
    pub fn worker_index(&self, rank: u32) -> Option<usize> {
        self.workers.binary_search_by_key(&rank, |w| w.rank).ok()
    }

    /// Whether `rank` was emulated (false for deduplicated ranks).
    pub fn is_present(&self, rank: u32) -> bool {
        self.worker_index(rank).is_some()
    }

    /// How many of `members` are present in this (possibly sparse) job.
    pub fn present_count(&self, members: &[u32]) -> u32 {
        members.iter().filter(|&&m| self.is_present(m)).count() as u32
    }

    /// Whether every rank of the job was emulated.
    pub fn is_dense(&self) -> bool {
        self.workers.len() == self.nranks as usize
    }

    /// Validates internal consistency: sorted unique ranks in range,
    /// communicator members in range, and collective descriptors that
    /// agree with the group map.
    pub fn validate(&self) -> Result<(), String> {
        validate_ranks(self.nranks, self.workers.iter().map(|w| w.rank))?;
        for (comm, members) in &self.comm_groups {
            for &m in members {
                if m >= self.nranks {
                    return Err(format!("comm {comm:#x} references out-of-range rank {m}"));
                }
            }
        }
        for w in &self.workers {
            for e in &w.events {
                if let DeviceOp::Collective { desc } = e.op {
                    match self.comm_groups.get(&desc.comm_id) {
                        None => {
                            return Err(format!(
                                "rank {} uses unknown communicator {:#x}",
                                w.rank, desc.comm_id
                            ))
                        }
                        Some(members) => {
                            if members.len() != desc.nranks as usize {
                                return Err(format!(
                                    "comm {:#x} has {} members but desc says {}",
                                    desc.comm_id,
                                    members.len(),
                                    desc.nranks
                                ));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// The rank half of [`JobTrace::validate`]: at most `nranks` workers,
/// strictly increasing, all in range. The streaming collator runs it over
/// every rank it was handed, including those whose traces it folded away.
pub fn validate_ranks(
    nranks: u32,
    ranks: impl ExactSizeIterator<Item = u32> + Clone,
) -> Result<(), String> {
    if ranks.len() > nranks as usize {
        return Err(format!(
            "job declares {nranks} ranks but holds {} worker traces",
            ranks.len()
        ));
    }
    for (a, b) in ranks.clone().zip(ranks.clone().skip(1)) {
        if a >= b {
            return Err(format!(
                "worker ranks not strictly increasing: {a} then {b}"
            ));
        }
    }
    for rank in ranks {
        if rank >= nranks {
            return Err(format!("worker rank {rank} out of range {nranks}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelKind;
    use crate::ops::{CollectiveDesc, CollectiveKind};
    use crate::Dtype;

    fn kernel_event() -> TraceEvent {
        TraceEvent {
            stream: StreamId::DEFAULT,
            op: DeviceOp::KernelLaunch {
                kernel: KernelKind::Gemm {
                    m: 2,
                    n: 2,
                    k: 2,
                    dtype: Dtype::Fp32,
                },
            },
            host_delay: SimTime::from_us(1.0),
        }
    }

    #[test]
    fn worker_trace_accessors() {
        let mut w = WorkerTrace::new(3);
        w.events.push(kernel_event());
        w.events.push(TraceEvent {
            stream: StreamId(2),
            op: DeviceOp::DeviceSynchronize,
            host_delay: SimTime::from_us(2.0),
        });
        assert_eq!(w.rank, 3);
        assert_eq!(w.total_host_time(), SimTime::from_us(3.0));
        assert_eq!(w.kernels().count(), 1);
        assert_eq!(w.streams_used(), vec![StreamId(0), StreamId(2)]);
    }

    #[test]
    fn job_trace_validation_catches_bad_ranks() {
        // Sparse jobs are fine...
        let sparse = JobTrace {
            nranks: 2,
            workers: vec![WorkerTrace::new(0)],
            comm_groups: BTreeMap::new(),
        };
        assert!(sparse.validate().is_ok());
        assert!(!sparse.is_dense());
        assert!(sparse.is_present(0) && !sparse.is_present(1));
        assert_eq!(sparse.present_count(&[0, 1]), 1);
        // ...but out-of-range or duplicate ranks are not.
        let out_of_range = JobTrace {
            nranks: 2,
            workers: vec![WorkerTrace::new(5)],
            comm_groups: BTreeMap::new(),
        };
        assert!(out_of_range.validate().is_err());
        let dup = JobTrace {
            nranks: 2,
            workers: vec![WorkerTrace::new(0), WorkerTrace::new(0)],
            comm_groups: BTreeMap::new(),
        };
        assert!(dup.validate().is_err());
    }

    #[test]
    fn job_trace_validation_catches_unknown_comm() {
        let mut w = WorkerTrace::new(0);
        w.events.push(TraceEvent {
            stream: StreamId::DEFAULT,
            op: DeviceOp::Collective {
                desc: CollectiveDesc {
                    kind: CollectiveKind::AllReduce,
                    comm_id: 99,
                    seq: 0,
                    bytes: 8,
                    nranks: 1,
                    rank_in_comm: 0,
                },
            },
            host_delay: SimTime::ZERO,
        });
        let job = JobTrace {
            nranks: 1,
            workers: vec![w],
            comm_groups: BTreeMap::new(),
        };
        let err = job.validate().unwrap_err();
        assert!(err.contains("unknown communicator"), "{err}");
    }

    #[test]
    fn job_trace_validation_accepts_consistent_job() {
        let mut w = WorkerTrace::new(0);
        w.summary.num_kernels = 1;
        w.events.push(kernel_event());
        let mut groups = BTreeMap::new();
        groups.insert(1u64, vec![0u32]);
        let job = JobTrace {
            nranks: 1,
            workers: vec![w],
            comm_groups: groups,
        };
        assert!(job.validate().is_ok());
        assert_eq!(job.total_kernels(), 1);
        assert_eq!(job.total_events(), 1);
        assert!(!job.any_oom());
    }
}
