//! Per-worker and job-level trace containers.

use std::collections::BTreeMap;

use crate::ops::{CollectiveDesc, DeviceOp, StreamId};
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

    /// Iterator over kernel launches only.
    pub fn kernels(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.op, DeviceOp::KernelLaunch { .. }))
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

    /// Validates internal consistency: sorted unique ranks in range,
    /// communicator members in range, and collective descriptors that
    /// agree with the group map.
    pub fn validate(&self) -> Result<(), String> {
        validate_ranks(self.nranks, self.workers.iter().map(|w| w.rank))?;
        validate_groups(self.nranks, &self.comm_groups)?;
        for w in &self.workers {
            for e in &w.events {
                if let DeviceOp::Collective { desc } = &e.op {
                    let members = self.comm_groups.get(&desc.comm_id);
                    validate_site(w.rank, desc, members.map(Vec::as_slice))?;
                }
            }
        }
        Ok(())
    }
}

/// The communicator-map part of [`JobTrace::validate`]: every member of
/// every group is a rank of the `nranks`-rank job. The streaming
/// collator runs it over the map it builds.
pub fn validate_groups(nranks: u32, groups: &BTreeMap<u64, Vec<u32>>) -> Result<(), String> {
    for (comm, members) in groups {
        if let Some(m) = members.iter().find(|&&m| m >= nranks) {
            return Err(format!("comm {comm:#x} references out-of-range rank {m}"));
        }
    }
    Ok(())
}

/// The per-event half of [`JobTrace::validate`]: a collective `desc`
/// issued by `rank` names a communicator of the job's map — whose
/// `members` are `None` if the map does not list it — and declares its
/// size. The simulator runs it once per call site while it resolves
/// them.
pub fn validate_site(
    rank: u32,
    desc: &CollectiveDesc,
    members: Option<&[u32]>,
) -> Result<(), String> {
    let Some(members) = members else {
        return Err(format!(
            "rank {rank} uses unknown communicator {:#x}",
            desc.comm_id
        ));
    };
    if members.len() != desc.nranks as usize {
        return Err(format!(
            "comm {:#x} has {} members but desc says {}",
            desc.comm_id,
            members.len(),
            desc.nranks
        ));
    }
    Ok(())
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
        let host_time: SimTime = w.events.iter().map(|e| e.host_delay).sum();
        assert_eq!(host_time, SimTime::from_us(3.0));
        assert_eq!(w.kernels().count(), 1);
        let mut streams: Vec<StreamId> = w.events.iter().map(|e| e.stream).collect();
        streams.sort_unstable();
        streams.dedup();
        assert_eq!(streams, vec![StreamId(0), StreamId(2)]);
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
        assert_ne!(sparse.workers.len(), sparse.nranks as usize);
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
        let kernels: u64 = job.workers.iter().map(|w| w.summary.num_kernels).sum();
        assert_eq!(kernels, 1);
        assert_eq!(job.total_events(), 1);
        assert!(!job.workers.iter().any(|w| w.summary.oom));
    }
}
