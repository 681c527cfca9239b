//! NCCL surface: communicators and collective operations.
//!
//! Each worker initializes communicators with `ncclCommInitRank`, which
//! assigns ranks and defines the communication topology (§4.1
//! "Inter-Device Dependencies"). The emulator gives every communicator a
//! per-rank sequence counter; the `(comm_id, seq)` pair is what the trace
//! collator later uses to match the same logical collective across
//! workers. No data moves and no IPC happens — exactly as in the paper.

use maya_trace::{CollectiveDesc, CollectiveKind, DeviceOp};

use crate::clock::HostOpClass;
use crate::context::{CudaContext, CudaStream};
use crate::error::{CudaError, CudaResult};

/// The out-of-band unique id rank 0 would broadcast before communicator
/// setup. In this harness the launcher derives it deterministically from
/// the logical group (e.g. a hash of the member list).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NcclUniqueId(pub u64);

impl NcclUniqueId {
    /// Derives a unique id from a logical group's member ranks.
    pub fn from_members(members: &[u32]) -> Self {
        Self::from_members_tagged(members, 0)
    }

    /// Derives a unique id from members plus a tag, for jobs that build
    /// several communicators over the same rank set (e.g. separate
    /// forward- and backward-direction pipeline links).
    pub fn from_members_tagged(members: &[u32], tag: u64) -> Self {
        let mut h = maya_hw::noise::Key::new(0x4E43_434C_5549_4421).with(tag);
        h = h.with(members.len() as u64);
        for &m in members {
            h = h.with(m as u64);
        }
        NcclUniqueId(h.finish())
    }
}

/// Opaque communicator handle (per rank).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NcclComm(pub(crate) u64);

/// Emulator-side communicator state.
#[derive(Clone, Copy, Debug)]
pub struct CommState {
    /// Global communicator identity (shared by all members).
    pub comm_id: u64,
    /// Communicator size.
    pub nranks: u32,
    /// This rank's position in the communicator.
    pub rank: u32,
    /// Next collective sequence number on this communicator.
    pub seq: u32,
}

impl CudaContext {
    /// `ncclCommInitRank`.
    pub fn nccl_comm_init_rank(
        &mut self,
        unique_id: NcclUniqueId,
        nranks: u32,
        rank: u32,
    ) -> CudaResult<NcclComm> {
        if nranks == 0 || rank >= nranks {
            return Err(CudaError::NcclInvalidUsage);
        }
        let handle = self.fresh_handle();
        self.comms.insert(
            handle,
            CommState {
                comm_id: unique_id.0,
                nranks,
                rank,
                seq: 0,
            },
        );
        Ok(NcclComm(handle))
    }

    /// `ncclCommDestroy`.
    pub fn nccl_comm_destroy(&mut self, comm: NcclComm) -> CudaResult<()> {
        self.comms
            .remove(comm.0)
            .map(|_| ())
            .ok_or(CudaError::NcclInvalidUsage)
    }

    /// Size of a communicator.
    pub fn nccl_comm_count(&self, comm: NcclComm) -> CudaResult<u32> {
        self.comms
            .get(comm.0)
            .map(|c| c.nranks)
            .ok_or(CudaError::NcclInvalidUsage)
    }

    /// This rank's position within the communicator.
    pub fn nccl_comm_user_rank(&self, comm: NcclComm) -> CudaResult<u32> {
        self.comms
            .get(comm.0)
            .map(|c| c.rank)
            .ok_or(CudaError::NcclInvalidUsage)
    }

    /// `ncclGroupStart` (host bookkeeping only in the emulator).
    pub fn nccl_group_start(&mut self) {
        self.host_work(maya_trace::SimTime::from_us(1.0));
    }

    /// `ncclGroupEnd`.
    pub fn nccl_group_end(&mut self) {
        self.host_work(maya_trace::SimTime::from_us(1.5));
    }

    fn collective_common(
        &mut self,
        comm: NcclComm,
        kind: CollectiveKind,
        bytes: u64,
        stream: CudaStream,
    ) -> CudaResult<()> {
        let s = self.check_stream(stream)?;
        let state = self
            .comms
            .get_mut(comm.0)
            .ok_or(CudaError::NcclInvalidUsage)?;
        if let CollectiveKind::Send { peer } | CollectiveKind::Recv { peer } = kind {
            if peer >= state.nranks {
                return Err(CudaError::NcclInvalidUsage);
            }
        }
        let desc = CollectiveDesc {
            kind,
            comm_id: state.comm_id,
            seq: state.seq,
            bytes,
            nranks: state.nranks,
            rank_in_comm: state.rank,
        };
        state.seq += 1;
        self.record(s, &DeviceOp::Collective { desc }, HostOpClass::Nccl);
        Ok(())
    }

    /// `ncclAllReduce`.
    pub fn nccl_all_reduce(
        &mut self,
        comm: NcclComm,
        bytes: u64,
        stream: CudaStream,
    ) -> CudaResult<()> {
        self.collective_common(comm, CollectiveKind::AllReduce, bytes, stream)
    }

    /// `ncclAllGather`.
    pub fn nccl_all_gather(
        &mut self,
        comm: NcclComm,
        bytes: u64,
        stream: CudaStream,
    ) -> CudaResult<()> {
        self.collective_common(comm, CollectiveKind::AllGather, bytes, stream)
    }

    /// `ncclReduceScatter`.
    pub fn nccl_reduce_scatter(
        &mut self,
        comm: NcclComm,
        bytes: u64,
        stream: CudaStream,
    ) -> CudaResult<()> {
        self.collective_common(comm, CollectiveKind::ReduceScatter, bytes, stream)
    }

    /// `ncclBroadcast`.
    pub fn nccl_broadcast(
        &mut self,
        comm: NcclComm,
        bytes: u64,
        stream: CudaStream,
    ) -> CudaResult<()> {
        self.collective_common(comm, CollectiveKind::Broadcast, bytes, stream)
    }

    /// `ncclReduce`.
    pub fn nccl_reduce(
        &mut self,
        comm: NcclComm,
        bytes: u64,
        stream: CudaStream,
    ) -> CudaResult<()> {
        self.collective_common(comm, CollectiveKind::Reduce, bytes, stream)
    }

    /// `ncclAllToAll` (expert parallelism).
    pub fn nccl_all_to_all(
        &mut self,
        comm: NcclComm,
        bytes: u64,
        stream: CudaStream,
    ) -> CudaResult<()> {
        self.collective_common(comm, CollectiveKind::AllToAll, bytes, stream)
    }

    /// `ncclSend` to `peer` (a rank within the communicator).
    pub fn nccl_send(
        &mut self,
        comm: NcclComm,
        peer: u32,
        bytes: u64,
        stream: CudaStream,
    ) -> CudaResult<()> {
        self.collective_common(comm, CollectiveKind::Send { peer }, bytes, stream)
    }

    /// `ncclRecv` from `peer`.
    pub fn nccl_recv(
        &mut self,
        comm: NcclComm,
        peer: u32,
        bytes: u64,
        stream: CudaStream,
    ) -> CudaResult<()> {
        self.collective_common(comm, CollectiveKind::Recv { peer }, bytes, stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_hw::GpuSpec;

    #[test]
    fn unique_id_deterministic_and_order_sensitive() {
        assert_eq!(
            NcclUniqueId::from_members(&[0, 1, 2]),
            NcclUniqueId::from_members(&[0, 1, 2])
        );
        assert_ne!(
            NcclUniqueId::from_members(&[0, 1, 2]),
            NcclUniqueId::from_members(&[0, 2, 1])
        );
    }

    #[test]
    fn sequence_numbers_increment_per_comm() {
        let mut c = CudaContext::new(0, GpuSpec::h100());
        let uid_a = NcclUniqueId::from_members(&[0, 1]);
        let uid_b = NcclUniqueId::from_members(&[0, 1, 2, 3]);
        let a = c.nccl_comm_init_rank(uid_a, 2, 0).unwrap();
        let b = c.nccl_comm_init_rank(uid_b, 4, 0).unwrap();
        c.nccl_all_reduce(a, 100, CudaStream::DEFAULT).unwrap();
        c.nccl_all_reduce(b, 100, CudaStream::DEFAULT).unwrap();
        c.nccl_all_reduce(a, 100, CudaStream::DEFAULT).unwrap();
        let t = c.into_trace();
        let descs: Vec<CollectiveDesc> = t
            .events
            .iter()
            .filter_map(|e| e.op.as_collective().copied())
            .collect();
        assert_eq!(descs.len(), 3);
        assert_eq!(descs[0].seq, 0);
        assert_eq!(descs[1].seq, 0, "independent comm counts separately");
        assert_eq!(descs[2].seq, 1);
        assert_eq!(descs[0].comm_id, descs[2].comm_id);
        assert_ne!(descs[0].comm_id, descs[1].comm_id);
    }

    #[test]
    fn invalid_rank_rejected() {
        let mut c = CudaContext::new(0, GpuSpec::h100());
        let uid = NcclUniqueId::from_members(&[0, 1]);
        assert_eq!(
            c.nccl_comm_init_rank(uid, 2, 2),
            Err(CudaError::NcclInvalidUsage)
        );
        assert_eq!(
            c.nccl_comm_init_rank(uid, 0, 0),
            Err(CudaError::NcclInvalidUsage)
        );
    }

    #[test]
    fn send_to_out_of_range_peer_rejected() {
        let mut c = CudaContext::new(0, GpuSpec::h100());
        let uid = NcclUniqueId::from_members(&[0, 1]);
        let comm = c.nccl_comm_init_rank(uid, 2, 0).unwrap();
        assert_eq!(
            c.nccl_send(comm, 5, 128, CudaStream::DEFAULT),
            Err(CudaError::NcclInvalidUsage)
        );
    }

    #[test]
    fn comm_queries() {
        let mut c = CudaContext::new(0, GpuSpec::h100());
        let uid = NcclUniqueId::from_members(&[0, 1, 2, 3]);
        let comm = c.nccl_comm_init_rank(uid, 4, 2).unwrap();
        assert_eq!(c.nccl_comm_count(comm).unwrap(), 4);
        assert_eq!(c.nccl_comm_user_rank(comm).unwrap(), 2);
        c.nccl_comm_destroy(comm).unwrap();
        assert_eq!(c.nccl_comm_count(comm), Err(CudaError::NcclInvalidUsage));
    }

    #[test]
    fn collective_counts_in_summary() {
        let mut c = CudaContext::new(0, GpuSpec::h100());
        let uid = NcclUniqueId::from_members(&[0]);
        let comm = c.nccl_comm_init_rank(uid, 1, 0).unwrap();
        c.nccl_all_gather(comm, 64, CudaStream::DEFAULT).unwrap();
        c.nccl_reduce_scatter(comm, 64, CudaStream::DEFAULT)
            .unwrap();
        let t = c.into_trace();
        assert_eq!(t.summary.num_collectives, 2);
    }
}
