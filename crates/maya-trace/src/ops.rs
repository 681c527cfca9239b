//! Device operations recorded at the CUDA API boundary.

use crate::kernel::KernelKind;

/// Identifier of a CUDA stream within one device context.
///
/// Stream 0 is the default (legacy) stream.
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct StreamId(pub u32);

impl StreamId {
    /// The default CUDA stream.
    pub const DEFAULT: StreamId = StreamId(0);
}

/// Direction of a `cudaMemcpy` operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub enum MemcpyKind {
    /// Host to device (`cudaMemcpyHostToDevice`).
    HostToDevice,
    /// Device to host (`cudaMemcpyDeviceToHost`).
    DeviceToHost,
    /// Device to device (`cudaMemcpyDeviceToDevice`).
    DeviceToDevice,
    /// Host to host (pageable staging; the emulator may actually copy
    /// small buffers here to satisfy framework verification checks, §7.2).
    HostToHost,
}

impl MemcpyKind {
    /// Trace-export name matching real CUPTI activity names.
    pub const fn name(self) -> &'static str {
        match self {
            MemcpyKind::HostToDevice => "MemcpyHtoD",
            MemcpyKind::DeviceToHost => "MemcpyDtoH",
            MemcpyKind::DeviceToDevice => "MemcpyDtoD",
            MemcpyKind::HostToHost => "MemcpyHtoH",
        }
    }
}

/// The collective-communication primitives NCCL exposes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub enum CollectiveKind {
    /// `ncclAllReduce`.
    AllReduce,
    /// `ncclAllGather`.
    AllGather,
    /// `ncclReduceScatter`.
    ReduceScatter,
    /// `ncclBroadcast`.
    Broadcast,
    /// `ncclReduce` (to root).
    Reduce,
    /// Point-to-point send (`ncclSend`); pairs with a matching `Recv`.
    Send {
        /// Peer rank *within the communicator*.
        peer: u32,
    },
    /// Point-to-point receive (`ncclRecv`).
    Recv {
        /// Peer rank within the communicator.
        peer: u32,
    },
    /// `ncclAllToAll` (expert parallelism).
    AllToAll,
}

impl CollectiveKind {
    /// NCCL API name for trace export.
    pub const fn name(self) -> &'static str {
        match self {
            CollectiveKind::AllReduce => "ncclAllReduce",
            CollectiveKind::AllGather => "ncclAllGather",
            CollectiveKind::ReduceScatter => "ncclReduceScatter",
            CollectiveKind::Broadcast => "ncclBroadcast",
            CollectiveKind::Reduce => "ncclReduce",
            CollectiveKind::Send { .. } => "ncclSend",
            CollectiveKind::Recv { .. } => "ncclRecv",
            CollectiveKind::AllToAll => "ncclAllToAll",
        }
    }

    /// Number of participants required before the operation can proceed.
    ///
    /// Point-to-point operations involve exactly two ranks; all other
    /// collectives require every communicator member.
    pub fn required_participants(self, comm_size: u32) -> u32 {
        match self {
            CollectiveKind::Send { .. } | CollectiveKind::Recv { .. } => 2,
            _ => comm_size,
        }
    }

    /// Stable small id: what folding compares of a kind, a Send/Recv
    /// peer left out, and the class a collective's participants must
    /// agree on.
    pub const fn id(self) -> u8 {
        match self {
            CollectiveKind::AllReduce => 0,
            CollectiveKind::AllGather => 1,
            CollectiveKind::ReduceScatter => 2,
            CollectiveKind::Broadcast => 3,
            CollectiveKind::Reduce => 4,
            CollectiveKind::Send { .. } => 5,
            CollectiveKind::Recv { .. } => 6,
            CollectiveKind::AllToAll => 7,
        }
    }
}

/// Fully-resolved description of one rank's participation in a collective.
///
/// The `(comm_id, seq)` pair is the key the trace collator uses to match
/// the same logical collective across workers (§4.2), and the key the
/// simulator's network wait-map blocks on (Algorithm 3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub struct CollectiveDesc {
    /// Which primitive this is.
    pub kind: CollectiveKind,
    /// Globally-unique communicator id (from `ncclCommInitRank`'s unique id).
    pub comm_id: u64,
    /// Per-communicator call sequence number.
    pub seq: u32,
    /// Payload bytes contributed by this rank.
    pub bytes: u64,
    /// Communicator size.
    pub nranks: u32,
    /// This rank's position within the communicator.
    pub rank_in_comm: u32,
}

/// One operation recorded at the device-API boundary.
///
/// Compute kernels carry full [`KernelKind`] metadata; management calls
/// (`cudaMalloc`, event APIs, synchronization) are recorded so that the
/// simulator can reproduce the dependency structure the training framework
/// created.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub enum DeviceOp {
    /// A compute-kernel launch (async on its stream).
    KernelLaunch {
        /// Kernel metadata.
        kernel: KernelKind,
    },
    /// `cudaMemcpyAsync`.
    MemcpyAsync {
        /// Bytes transferred.
        bytes: u64,
        /// Transfer direction.
        kind: MemcpyKind,
        /// Whether the call is synchronous w.r.t. the host
        /// (`cudaMemcpy` rather than `cudaMemcpyAsync`).
        sync: bool,
    },
    /// `cudaMalloc`; the emulator's allocator assigned `ptr`.
    Malloc {
        /// Bytes requested.
        bytes: u64,
        /// Virtual device pointer returned.
        ptr: u64,
    },
    /// `cudaFree`.
    Free {
        /// Pointer being released.
        ptr: u64,
    },
    /// `cudaEventRecord` on this stream.
    EventRecord {
        /// Event handle.
        event: u64,
        /// Re-use version of the handle (paper Algorithm 3 keys the wait
        /// map on `(event, version)` pairs).
        version: u32,
    },
    /// `cudaStreamWaitEvent`: this stream blocks until the event fires.
    StreamWaitEvent {
        /// Event handle.
        event: u64,
        /// Handle version.
        version: u32,
    },
    /// `cudaEventSynchronize`: the *host* blocks until the event fires.
    EventSynchronize {
        /// Event handle.
        event: u64,
        /// Handle version.
        version: u32,
    },
    /// `cudaStreamSynchronize`: host blocks until this stream drains.
    StreamSynchronize,
    /// `cudaDeviceSynchronize`: host blocks until all streams drain.
    DeviceSynchronize,
    /// An NCCL collective kernel enqueued on this stream.
    Collective {
        /// Matched collective descriptor.
        desc: CollectiveDesc,
    },
}

impl DeviceOp {
    /// Trace-export operation name.
    pub fn name(&self) -> &'static str {
        match self {
            DeviceOp::KernelLaunch { kernel } => kernel.name(),
            DeviceOp::MemcpyAsync { kind, .. } => kind.name(),
            DeviceOp::Malloc { .. } => "cudaMalloc",
            DeviceOp::Free { .. } => "cudaFree",
            DeviceOp::EventRecord { .. } => "cudaEventRecord",
            DeviceOp::StreamWaitEvent { .. } => "cudaStreamWaitEvent",
            DeviceOp::EventSynchronize { .. } => "cudaEventSynchronize",
            DeviceOp::StreamSynchronize => "cudaStreamSynchronize",
            DeviceOp::DeviceSynchronize => "cudaDeviceSynchronize",
            DeviceOp::Collective { desc } => desc.kind.name(),
        }
    }

    /// Kernel metadata if this is a compute launch.
    pub fn as_kernel(&self) -> Option<&KernelKind> {
        match self {
            DeviceOp::KernelLaunch { kernel } => Some(kernel),
            _ => None,
        }
    }

    /// Collective descriptor if this is a collective.
    pub fn as_collective(&self) -> Option<&CollectiveDesc> {
        match self {
            DeviceOp::Collective { desc } => Some(desc),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::Dtype;

    #[test]
    fn op_names() {
        let k = DeviceOp::KernelLaunch {
            kernel: KernelKind::Gemm {
                m: 1,
                n: 1,
                k: 1,
                dtype: Dtype::Fp32,
            },
        };
        assert_eq!(k.name(), "cublasSgemm_v2");
        assert_eq!(DeviceOp::DeviceSynchronize.name(), "cudaDeviceSynchronize");
        assert_eq!(
            DeviceOp::MemcpyAsync {
                bytes: 1,
                kind: MemcpyKind::HostToDevice,
                sync: false
            }
            .name(),
            "MemcpyHtoD"
        );
    }

    #[test]
    fn collective_participants() {
        assert_eq!(CollectiveKind::AllReduce.required_participants(8), 8);
        assert_eq!(CollectiveKind::Send { peer: 3 }.required_participants(8), 2);
        assert_eq!(
            CollectiveKind::Recv { peer: 1 }.required_participants(16),
            2
        );
    }

    #[test]
    fn accessors() {
        let desc = CollectiveDesc {
            kind: CollectiveKind::AllReduce,
            comm_id: 7,
            seq: 0,
            bytes: 1024,
            nranks: 4,
            rank_in_comm: 2,
        };
        let op = DeviceOp::Collective { desc };
        assert_eq!(op.as_collective().unwrap().comm_id, 7);
        assert!(op.as_kernel().is_none());
    }
}
