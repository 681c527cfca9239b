//! The per-rank virtual device: CUDA runtime API + emulator state.
//!
//! Every API call funnels into `CudaContext::record`, which is also
//! where the paper's "fold while emulating" (§4.2) happens. It takes
//! the call by reference and hands it on as its parts (stream, op, host
//! delay): a rank that folds writes no event, so none is built for it.
//! The paper hashes each call; this repo compares it, with the same
//! partition of ranks: a context whose trace may be folded records
//! against the [`Templates`] of the classes kept so far
//! (`recording.rs`). While its calls still equal some template's it
//! writes only their collective descriptors and what the template
//! cannot reproduce; once they differ from every template it writes out
//! the matched prefix and records on.
//! The finished context hands out the trace — no event at all if it
//! matched a template whole — together with its [`TraceMeta`], so the
//! collator reads collective descriptors only and never re-reads an
//! event to fold a rank the recorder already matched. A context whose
//! trace will not be folded is given no templates
//! ([`CudaContext::recording_into`]).
//!
//! Host time follows the same split. A context whose trace will not be
//! folded charges every call as it records it; one whose trace may be,
//! and is dropped unread more often than not, writes only the framework
//! work injected before the call and notes the call's number and class
//! in its [`HostCharges`]. [`CudaContext::into_trace`] and
//! [`CudaContext::into_recorded`] settle those charges before they
//! return; [`CudaContext::into_unsettled`] hands them out beside the
//! trace, for the engine to settle once the collator is known to keep
//! it.
//!
//! Handles are small sequential ids the context mints itself, so the
//! registries behind them are dense tables, not hash maps. Nor are
//! live allocations hashed: a training script holds a handful at a
//! time, so they are `(ptr, bytes)` pairs searched newest first.

use maya_hw::GpuSpec;
use maya_trace::{
    DeviceOp, KernelKind, MemcpyKind, SimTime, StreamId, Templates, TraceBuffers, TraceMeta,
    WorkerTrace,
};

use crate::clock::{HostCharges, HostOpClass, ModelClock};
use crate::cublas::CublasState;
use crate::cudnn::{ConvDescState, CudnnState};
use crate::error::{CudaError, CudaResult};
use crate::nccl::CommState;
use crate::recording::Recording;

/// An opaque CUDA stream handle. Stream 0 is the default stream.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CudaStream(pub(crate) u64);

impl CudaStream {
    /// The default (legacy) stream, always valid.
    pub const DEFAULT: CudaStream = CudaStream(0);

    /// Raw handle value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// An opaque CUDA event handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CudaEvent(pub(crate) u64);

/// A virtual device pointer returned by the emulator's allocator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DevicePtr(pub(crate) u64);

impl DevicePtr {
    /// Raw pointer value (non-zero for valid allocations).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A registry of live resources keyed by the sequential ids the context
/// mints: a dense table, `None` where an id was never this kind of
/// resource or has been destroyed.
#[derive(Debug)]
pub(crate) struct Table<T>(Vec<Option<T>>);

impl<T> Table<T> {
    pub(crate) fn new() -> Self {
        Table(Vec::new())
    }

    fn at(id: u64) -> Option<usize> {
        usize::try_from(id).ok()
    }

    /// Registers `value` under a freshly minted `id`.
    pub(crate) fn insert(&mut self, id: u64, value: T) {
        let Some(at) = Self::at(id) else { return };
        if self.0.len() <= at {
            self.0.resize_with(at + 1, || None);
        }
        if let Some(slot) = self.0.get_mut(at) {
            *slot = Some(value);
        }
    }

    pub(crate) fn get(&self, id: u64) -> Option<&T> {
        self.0.get(Self::at(id)?)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        self.0.get_mut(Self::at(id)?)?.as_mut()
    }

    pub(crate) fn remove(&mut self, id: u64) -> Option<T> {
        self.0.get_mut(Self::at(id)?)?.take()
    }
}

/// Bytes the emulator reserves for the CUDA context itself, mirroring the
/// context/cuBLAS workspace overhead a real process pays before the first
/// user allocation.
const CONTEXT_RESERVED_BYTES: u64 = 700 * 1024 * 1024;

/// The per-rank virtual device.
///
/// One `CudaContext` emulates one GPU for one worker process. All API
/// calls validate handles and resource state the way a real driver would,
/// record trace events, and return immediately — compute is a no-op.
pub struct CudaContext {
    /// Global rank of the worker owning this device.
    pub rank: u32,
    gpu: GpuSpec,
    host: HostCharges,

    // Memory allocator state.
    capacity: u64,
    used: u64,
    peak: u64,
    /// Live allocations as `(ptr, bytes)`, oldest first.
    allocations: Vec<(u64, u64)>,
    next_ptr: u64,
    num_allocs: u64,
    oom: bool,

    // Stream / event registries; an event's entry is its re-use version.
    streams: Table<()>,
    next_stream: u64,
    events: Table<u32>,
    next_event: u64,

    // Library handle registries (populated by the cublas/cudnn/nccl
    // modules in this crate).
    pub(crate) cublas: Table<CublasState>,
    pub(crate) cudnn: Table<CudnnState>,
    pub(crate) conv_descs: Table<ConvDescState>,
    pub(crate) comms: Table<CommState>,
    pub(crate) next_handle: u64,

    // Trace.
    trace: Recording,
    num_kernels: u64,
    num_collectives: u64,
    pending_host: SimTime,
}

impl CudaContext {
    /// [`CudaContext::new`] that records into `buffers` (cleared first)
    /// instead of fresh ones, against the classes in `against` if the
    /// trace may be folded (`None` if it will not be). A caller
    /// emulating many ranks hands back the buffers of a trace it has
    /// discarded, so the next rank writes over pages that are already
    /// mapped; one that will not fold the trace spares every call the
    /// comparison and charges its host time as it goes.
    pub fn recording_into(
        rank: u32,
        gpu: GpuSpec,
        mut buffers: TraceBuffers,
        against: Option<Templates>,
    ) -> Self {
        let host_notes = std::mem::take(&mut buffers.host_notes);
        let clock = ModelClock::new(0x636C_6F63 ^ rank as u64);
        CudaContext {
            rank,
            gpu,
            host: HostCharges::new(clock, against.is_some(), host_notes),
            capacity: gpu.mem_bytes().saturating_sub(CONTEXT_RESERVED_BYTES),
            used: 0,
            peak: 0,
            allocations: Vec::new(),
            next_ptr: 0x7f00_0000_0000,
            num_allocs: 0,
            oom: false,
            streams: Table::new(),
            next_stream: 1,
            events: Table::new(),
            next_event: 1,
            cublas: Table::new(),
            cudnn: Table::new(),
            conv_descs: Table::new(),
            comms: Table::new(),
            next_handle: 1,
            trace: Recording::new(buffers, against.unwrap_or_default()),
            num_kernels: 0,
            num_collectives: 0,
            pending_host: SimTime::ZERO,
        }
    }

    /// Creates a virtual device of the given spec for `rank`, recording
    /// every call into fresh buffers; its host clock is the
    /// deterministic model clock, seeded by rank.
    pub fn new(rank: u32, gpu: GpuSpec) -> Self {
        Self::recording_into(rank, gpu, TraceBuffers::default(), None)
    }

    /// The GPU this context emulates.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Whether the allocator has hit an out-of-memory condition.
    pub fn oom(&self) -> bool {
        self.oom
    }

    /// Current / peak allocated bytes.
    pub fn mem_used(&self) -> u64 {
        self.used
    }

    /// Peak allocated bytes over the context lifetime.
    pub fn mem_peak(&self) -> u64 {
        self.peak
    }

    /// Injects framework-level host work (Python dispatch, optimizer
    /// bookkeeping) that will be attached to the next recorded API call.
    pub fn host_work(&mut self, t: SimTime) {
        self.pending_host += t;
    }

    /// Records one call, charging or noting host time for it, into the
    /// recording, which compares it against the templates it follows.
    pub(crate) fn record(&mut self, stream: StreamId, op: &DeviceOp, class: HostOpClass) {
        let host = self.host.charge(class) + std::mem::take(&mut self.pending_host);
        match op {
            DeviceOp::KernelLaunch { .. } | DeviceOp::MemcpyAsync { .. } => self.num_kernels += 1,
            DeviceOp::Collective { .. } => self.num_collectives += 1,
            _ => {}
        }
        self.trace.push(stream, op, host);
    }

    /// Validates a stream handle.
    pub(crate) fn check_stream(&self, stream: CudaStream) -> CudaResult<StreamId> {
        if stream.0 == 0 || self.streams.get(stream.0).is_some() {
            Ok(StreamId(stream.0 as u32))
        } else {
            Err(CudaError::InvalidResourceHandle)
        }
    }

    /// Allocates a fresh opaque handle id (shared across libraries).
    pub(crate) fn fresh_handle(&mut self) -> u64 {
        let h = self.next_handle;
        self.next_handle += 1;
        h
    }

    // ----- CUDA runtime: memory -----

    /// `cudaMemGetInfo`: (free, total) bytes, mimicking device behavior
    /// so frameworks can make allocator decisions (§4.1).
    pub fn mem_get_info(&mut self) -> (u64, u64) {
        self.host.pass();
        (self.capacity - self.used, self.gpu.mem_bytes())
    }

    /// `cudaMalloc`.
    pub fn malloc(&mut self, bytes: u64) -> CudaResult<DevicePtr> {
        if bytes == 0 {
            return Err(CudaError::InvalidValue);
        }
        // Real allocators round to 512-byte granules. A size whose
        // rounding or sum does not fit in a `u64` does not fit on the
        // device either.
        let rounded = bytes.div_ceil(512).checked_mul(512);
        let fits = |r: &u64| {
            let total = self.used.checked_add(*r);
            total.is_some_and(|total| total <= self.capacity)
        };
        let Some(rounded) = rounded.filter(fits) else {
            self.oom = true;
            return Err(CudaError::MemoryAllocation {
                requested: rounded.unwrap_or(bytes),
                free: self.capacity - self.used,
            });
        };
        let ptr = self.next_ptr;
        self.next_ptr += rounded;
        self.used += rounded;
        self.peak = self.peak.max(self.used);
        self.num_allocs += 1;
        self.allocations.push((ptr, rounded));
        self.record(
            StreamId::DEFAULT,
            &DeviceOp::Malloc {
                bytes: rounded,
                ptr,
            },
            HostOpClass::Memory,
        );
        Ok(DevicePtr(ptr))
    }

    /// Where `ptr`'s live allocation sits in the registry, searched
    /// newest first: a free costs O(live allocations), a handful for a
    /// training script.
    fn live(&self, ptr: DevicePtr) -> Option<usize> {
        self.allocations.iter().rposition(|&(p, _)| p == ptr.0)
    }

    /// `cudaFree`. Double frees and unknown pointers are flagged.
    pub fn free(&mut self, ptr: DevicePtr) -> CudaResult<()> {
        let at = self.live(ptr).ok_or(CudaError::InvalidDevicePointer)?;
        let (_, bytes) = self.allocations.remove(at);
        self.used -= bytes;
        self.record(
            StreamId::DEFAULT,
            &DeviceOp::Free { ptr: ptr.0 },
            HostOpClass::Memory,
        );
        Ok(())
    }

    /// `cudaMemsetAsync`.
    pub fn memset_async(
        &mut self,
        ptr: DevicePtr,
        bytes: u64,
        stream: CudaStream,
    ) -> CudaResult<()> {
        if self.live(ptr).is_none() {
            return Err(CudaError::InvalidDevicePointer);
        }
        let s = self.check_stream(stream)?;
        self.record(
            s,
            &DeviceOp::KernelLaunch {
                kernel: KernelKind::Memset { bytes },
            },
            HostOpClass::KernelLaunch,
        );
        Ok(())
    }

    /// `cudaMemcpyAsync`.
    pub fn memcpy_async(
        &mut self,
        bytes: u64,
        kind: MemcpyKind,
        stream: CudaStream,
    ) -> CudaResult<()> {
        let s = self.check_stream(stream)?;
        self.record(
            s,
            &DeviceOp::MemcpyAsync {
                bytes,
                kind,
                sync: false,
            },
            HostOpClass::KernelLaunch,
        );
        Ok(())
    }

    /// Synchronous `cudaMemcpy` (blocks the host).
    pub fn memcpy(&mut self, bytes: u64, kind: MemcpyKind) -> CudaResult<()> {
        self.record(
            StreamId::DEFAULT,
            &DeviceOp::MemcpyAsync {
                bytes,
                kind,
                sync: true,
            },
            HostOpClass::KernelLaunch,
        );
        Ok(())
    }

    // ----- CUDA runtime: streams & events -----

    /// `cudaStreamCreate`.
    pub fn stream_create(&mut self) -> CudaStream {
        let s = self.next_stream;
        self.next_stream += 1;
        self.streams.insert(s, ());
        self.host.pass();
        CudaStream(s)
    }

    /// `cudaStreamDestroy`.
    pub fn stream_destroy(&mut self, stream: CudaStream) -> CudaResult<()> {
        self.streams
            .remove(stream.0)
            .ok_or(CudaError::InvalidResourceHandle)
    }

    /// `cudaEventCreate`.
    pub fn event_create(&mut self) -> CudaEvent {
        let e = self.next_event;
        self.next_event += 1;
        self.events.insert(e, 0);
        self.host.pass();
        CudaEvent(e)
    }

    /// `cudaEventDestroy`.
    pub fn event_destroy(&mut self, event: CudaEvent) -> CudaResult<()> {
        self.events
            .remove(event.0)
            .map(|_| ())
            .ok_or(CudaError::InvalidResourceHandle)
    }

    /// `cudaEventRecord`: bumps the event's re-use version and records it
    /// on `stream`.
    pub fn event_record(&mut self, event: CudaEvent, stream: CudaStream) -> CudaResult<()> {
        let s = self.check_stream(stream)?;
        let v = self
            .events
            .get_mut(event.0)
            .ok_or(CudaError::InvalidResourceHandle)?;
        *v += 1;
        let version = *v;
        self.record(
            s,
            &DeviceOp::EventRecord {
                event: event.0,
                version,
            },
            HostOpClass::Sync,
        );
        Ok(())
    }

    /// `cudaStreamWaitEvent`: `stream` blocks until the event's current
    /// version fires. Waiting on a never-recorded event is a no-op, as in
    /// CUDA.
    pub fn stream_wait_event(&mut self, stream: CudaStream, event: CudaEvent) -> CudaResult<()> {
        let s = self.check_stream(stream)?;
        let version = *self
            .events
            .get(event.0)
            .ok_or(CudaError::InvalidResourceHandle)?;
        self.record(
            s,
            &DeviceOp::StreamWaitEvent {
                event: event.0,
                version,
            },
            HostOpClass::Sync,
        );
        Ok(())
    }

    /// `cudaEventSynchronize`: host blocks until the event fires.
    pub fn event_synchronize(&mut self, event: CudaEvent) -> CudaResult<()> {
        let version = *self
            .events
            .get(event.0)
            .ok_or(CudaError::InvalidResourceHandle)?;
        self.record(
            StreamId::DEFAULT,
            &DeviceOp::EventSynchronize {
                event: event.0,
                version,
            },
            HostOpClass::Sync,
        );
        Ok(())
    }

    /// `cudaStreamSynchronize`.
    pub fn stream_synchronize(&mut self, stream: CudaStream) -> CudaResult<()> {
        let s = self.check_stream(stream)?;
        self.record(s, &DeviceOp::StreamSynchronize, HostOpClass::Sync);
        Ok(())
    }

    /// `cudaDeviceSynchronize`.
    pub fn device_synchronize(&mut self) {
        self.record(
            StreamId::DEFAULT,
            &DeviceOp::DeviceSynchronize,
            HostOpClass::Sync,
        );
    }

    // ----- Kernel launch -----

    /// `cudaLaunchKernel`: generic entry point for framework kernels that
    /// do not go through an opaque library (elementwise ops, softmax,
    /// layernorm, optimizers, fused Triton kernels, ...).
    ///
    /// Inlined into the framework's call, as are `cublas_gemm_ex` and
    /// the GEMM path it shares: left out of line, each read slower in
    /// paired benchmark runs (ROADMAP, Settled "Emulation").
    #[inline(always)]
    pub fn launch_kernel(&mut self, kernel: KernelKind, stream: CudaStream) -> CudaResult<()> {
        let s = self.check_stream(stream)?;
        self.record(
            s,
            &DeviceOp::KernelLaunch { kernel },
            HostOpClass::KernelLaunch,
        );
        Ok(())
    }

    /// Finishes emulation, yielding the recorded worker trace.
    pub fn into_trace(self) -> WorkerTrace {
        self.into_recorded().0
    }

    /// Finishes emulation, yielding the recorded worker trace and what
    /// the recorder learned writing it: the collective descriptors, and
    /// the template the calls equal if they matched one whole — then
    /// the trace holds no event, and owes no host time.
    pub fn into_recorded(self) -> (WorkerTrace, TraceMeta) {
        let (mut trace, meta, charges) = self.into_unsettled();
        let _ = match meta.matched {
            Some(_) => charges.forgo(),
            None => charges.settle(&mut trace),
        };
        (trace, meta)
    }

    /// [`CudaContext::into_recorded`] before the host time a context
    /// that may be folded deferred is computed: the trace's
    /// `host_delay`s are short by what `charges` holds until
    /// [`HostCharges::settle`] adds it. For a caller that drops most
    /// traces unread.
    pub fn into_unsettled(self) -> (WorkerTrace, TraceMeta, HostCharges) {
        let mut w = WorkerTrace::new(self.rank);
        w.summary.peak_mem_bytes = self.peak;
        w.summary.final_mem_bytes = self.used;
        w.summary.num_allocs = self.num_allocs;
        w.summary.num_kernels = self.num_kernels;
        w.summary.num_collectives = self.num_collectives;
        w.summary.oom = self.oom;
        let (events, meta) = self.trace.finish();
        w.events = events;
        (w, meta, self.host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_trace::Dtype;

    fn ctx() -> CudaContext {
        CudaContext::new(0, GpuSpec::h100())
    }

    #[test]
    fn malloc_free_roundtrip() {
        let mut c = ctx();
        let (free0, total) = c.mem_get_info();
        assert!(total > free0);
        let p = c.malloc(1 << 20).unwrap();
        assert_eq!(c.mem_used(), 1 << 20);
        let (free1, _) = c.mem_get_info();
        assert_eq!(free0 - free1, 1 << 20);
        c.free(p).unwrap();
        assert_eq!(c.mem_used(), 0);
        assert_eq!(c.mem_peak(), 1 << 20);
    }

    #[test]
    fn malloc_rounds_to_granule() {
        let mut c = ctx();
        c.malloc(1).unwrap();
        assert_eq!(c.mem_used(), 512);
    }

    #[test]
    fn double_free_flagged() {
        let mut c = ctx();
        let p = c.malloc(4096).unwrap();
        c.free(p).unwrap();
        assert_eq!(c.free(p), Err(CudaError::InvalidDevicePointer));
    }

    /// The pointers of a trace's `Free` events, in order.
    fn freed(trace: &WorkerTrace) -> Vec<u64> {
        let frees = trace.events.iter().filter_map(|e| match e.op {
            DeviceOp::Free { ptr } => Some(ptr),
            _ => None,
        });
        frees.collect()
    }

    #[test]
    fn frees_out_of_allocation_order_each_return_their_own_bytes() {
        let mut c = ctx();
        let sizes = [4096, 1 << 20, 512, 8192];
        let ptrs: Vec<DevicePtr> = sizes.iter().map(|&b| c.malloc(b).unwrap()).collect();
        let total: u64 = sizes.iter().sum();
        assert_eq!((c.mem_used(), c.mem_peak()), (total, total));
        // Oldest first, as 1F1B frees activations, then from the middle.
        let mut used = total;
        for at in [0, 2, 3, 1] {
            c.free(ptrs[at]).unwrap();
            used -= sizes[at];
            assert_eq!(c.mem_used(), used, "after freeing allocation {at}");
            assert_eq!(c.free(ptrs[at]), Err(CudaError::InvalidDevicePointer));
        }
        assert_eq!((c.mem_used(), c.mem_peak()), (0, total));
        let order = [ptrs[0], ptrs[2], ptrs[3], ptrs[1]].map(DevicePtr::raw);
        assert_eq!(freed(&c.into_trace()), order);
    }

    #[test]
    fn memset_on_a_freed_pointer_is_refused_and_records_nothing() {
        let mut c = ctx();
        let (p, q) = (c.malloc(4096).unwrap(), c.malloc(4096).unwrap());
        c.memset_async(p, 4096, CudaStream::DEFAULT).unwrap();
        c.free(p).unwrap();
        assert_eq!(
            c.memset_async(p, 4096, CudaStream::DEFAULT),
            Err(CudaError::InvalidDevicePointer)
        );
        c.memset_async(q, 4096, CudaStream::DEFAULT).unwrap();
        let t = c.into_trace();
        assert_eq!(t.events.len(), 5, "two mallocs, two memsets, one free");
        assert_eq!(t.summary.num_kernels, 2);
    }

    #[test]
    fn a_free_after_an_oom_finds_the_registry_as_it_was() {
        let mut c = ctx();
        let (p, q) = (c.malloc(4096).unwrap(), c.malloc(1 << 20).unwrap());
        c.free(q).unwrap();
        let (used, peak) = (c.mem_used(), c.mem_peak());
        let too_big = c.gpu().mem_bytes();
        assert!(c.malloc(too_big).is_err());
        assert!(c.oom());
        assert_eq!((c.mem_used(), c.mem_peak()), (used, peak));
        // The refused request left no entry: the pointer it would have
        // had, and the one freed before it, are unknown.
        let next = DevicePtr(q.raw() + (1 << 20));
        for ptr in [next, q] {
            assert_eq!(c.free(ptr), Err(CudaError::InvalidDevicePointer));
        }
        c.free(p).unwrap();
        assert_eq!((c.mem_used(), c.mem_peak()), (0, peak));
        assert_eq!(freed(&c.into_trace()), [q.raw(), p.raw()]);
    }

    #[test]
    fn oom_detected_and_sticky() {
        let mut c = ctx();
        let too_big = c.gpu().mem_bytes();
        match c.malloc(too_big) {
            Err(CudaError::MemoryAllocation { requested, .. }) => {
                assert!(requested >= too_big)
            }
            other => panic!("expected OOM, got {other:?}"),
        }
        assert!(c.oom());
        // Smaller allocations still succeed after an OOM report.
        assert!(c.malloc(1024).is_ok());
        assert!(c.oom(), "oom flag is sticky for the trace summary");
    }

    #[test]
    fn a_size_that_cannot_be_rounded_or_summed_is_out_of_memory() {
        let mut c = ctx();
        c.malloc(4096).unwrap();
        let free = c.mem_get_info().0;
        // The rounding overflows, then the sum with what is in use.
        for (bytes, requested) in [
            (u64::MAX - 100, u64::MAX - 100),
            (u64::MAX - 1023, u64::MAX - 1023),
        ] {
            assert_eq!(
                c.malloc(bytes),
                Err(CudaError::MemoryAllocation { requested, free })
            );
        }
        assert!(c.oom());
        assert_eq!(c.mem_used(), 4096);
        assert!(c.malloc(1024).is_ok(), "a request that fits still does");
        let t = c.into_trace();
        assert_eq!(t.events.len(), 2, "a refused request records nothing");
        assert!(t.summary.oom);
    }

    #[test]
    fn invalid_stream_rejected() {
        let mut c = ctx();
        let bogus = CudaStream(999);
        assert_eq!(
            c.launch_kernel(KernelKind::Memset { bytes: 4 }, bogus),
            Err(CudaError::InvalidResourceHandle)
        );
        let s = c.stream_create();
        assert!(c.launch_kernel(KernelKind::Memset { bytes: 4 }, s).is_ok());
        c.stream_destroy(s).unwrap();
        assert_eq!(
            c.launch_kernel(KernelKind::Memset { bytes: 4 }, s),
            Err(CudaError::InvalidResourceHandle)
        );
    }

    #[test]
    fn event_versioning() {
        let mut c = ctx();
        let e = c.event_create();
        let s = c.stream_create();
        c.event_record(e, s).unwrap();
        c.event_record(e, s).unwrap();
        c.stream_wait_event(CudaStream::DEFAULT, e).unwrap();
        let trace = c.into_trace();
        let versions: Vec<u32> = trace
            .events
            .iter()
            .filter_map(|ev| match ev.op {
                DeviceOp::EventRecord { version, .. } => Some(version),
                _ => None,
            })
            .collect();
        assert_eq!(versions, vec![1, 2]);
        let wait_version = trace
            .events
            .iter()
            .find_map(|ev| match ev.op {
                DeviceOp::StreamWaitEvent { version, .. } => Some(version),
                _ => None,
            })
            .unwrap();
        assert_eq!(wait_version, 2, "wait binds to the latest recorded version");
    }

    #[test]
    fn trace_records_kernels_with_host_delays() {
        let mut c = ctx();
        c.launch_kernel(
            KernelKind::Gemm {
                m: 128,
                n: 128,
                k: 128,
                dtype: Dtype::Bf16,
            },
            CudaStream::DEFAULT,
        )
        .unwrap();
        c.host_work(SimTime::from_us(100.0));
        c.launch_kernel(
            KernelKind::Gemm {
                m: 128,
                n: 128,
                k: 128,
                dtype: Dtype::Bf16,
            },
            CudaStream::DEFAULT,
        )
        .unwrap();
        let t = c.into_trace();
        assert_eq!(t.summary.num_kernels, 2);
        assert!(t.events[0].host_delay > SimTime::ZERO);
        assert!(
            t.events[1].host_delay >= SimTime::from_us(100.0),
            "injected framework work is attached to the next call"
        );
    }

    /// Templates of the given traces, kept in order.
    fn templates(traces: &[&WorkerTrace]) -> Templates {
        let each = traces.iter().map(|&t| t.clone());
        each.fold(Templates::default(), |kept, trace| kept.kept(trace))
    }

    #[test]
    fn recording_into_reuses_the_buffer_and_changes_nothing_else() {
        let script = |c: &mut CudaContext| {
            let p = c.malloc(4096).unwrap();
            c.launch_kernel(KernelKind::Memset { bytes: 4096 }, CudaStream::DEFAULT)
                .unwrap();
            let comm = c.nccl_comm_init_rank(crate::NcclUniqueId(9), 2, 1).unwrap();
            c.nccl_all_reduce(comm, 4096, CudaStream::DEFAULT).unwrap();
            c.free(p).unwrap();
        };
        let mut fresh = CudaContext::new(3, GpuSpec::h100());
        script(&mut fresh);
        let (fresh, fresh_meta) = fresh.into_recorded();
        assert_eq!(fresh_meta, TraceMeta::scan(&fresh.events));
        assert_eq!(fresh_meta.collectives.len(), 1);

        // Buffers a longer, different rank left behind.
        let mut stale = TraceBuffers {
            events: [fresh.events.clone(), fresh.events.clone()].concat(),
            collectives: [
                fresh_meta.collectives.clone(),
                fresh_meta.collectives.clone(),
            ]
            .concat(),
            residue: Vec::new(),
            host_notes: vec![u64::MAX; 3],
        };
        stale.events.reserve(64);
        let (ptr, cap) = (stale.events.as_ptr(), stale.events.capacity());
        let index = stale.collectives.as_ptr();
        let against = Some(Templates::default());
        let mut reused = CudaContext::recording_into(3, GpuSpec::h100(), stale, against);
        script(&mut reused);
        let (reused, reused_meta) = reused.into_recorded();
        assert_eq!(reused, fresh, "stale contents must not leak into the trace");
        assert_eq!(reused_meta, fresh_meta, "... nor into its metadata");
        assert_eq!(
            (reused.events.as_ptr(), reused.events.capacity()),
            (ptr, cap)
        );
        assert_eq!(reused_meta.collectives.as_ptr(), index);

        // Against its own class, a rank writes no event: another rank's
        // pointers, communicator and host clock are not part of a call.
        let mut twin = CudaContext::recording_into(
            7,
            GpuSpec::h100(),
            TraceBuffers::default(),
            Some(templates(&[&fresh])),
        );
        script(&mut twin);
        let (twin, twin_meta) = twin.into_recorded();
        assert!(twin.events.is_empty());
        assert_eq!(twin.summary, fresh.summary);
        assert_eq!(
            (twin_meta.matched, twin_meta.calls),
            (Some(0), fresh.events.len())
        );
        assert_eq!(twin_meta.collectives, fresh_meta.collectives);
    }

    #[test]
    fn a_rank_that_diverges_after_k_calls_settles_to_what_charging_each_call_writes() {
        const STEPS: usize = 12;
        // Every step records one call (two for a malloc and its free)
        // sized by `bytes`, which is off at step `k` only.
        let script = |c: &mut CudaContext, k: usize| {
            let s = c.stream_create();
            let comm = c.nccl_comm_init_rank(crate::NcclUniqueId(4), 2, 0).unwrap();
            for step in 0..STEPS {
                let bytes = if step == k { 1024 } else { 4096 };
                c.host_work(SimTime::from_us(step as f64));
                match step % 3 {
                    0 => c.launch_kernel(KernelKind::Memset { bytes }, s).unwrap(),
                    1 => c.nccl_all_reduce(comm, bytes, s).unwrap(),
                    _ => {
                        let p = c.malloc(bytes).unwrap();
                        c.free(p).unwrap();
                    }
                }
            }
        };
        let record = |rank, k, against| {
            let mut c = CudaContext::recording_into(
                rank,
                GpuSpec::h100(),
                TraceBuffers::default(),
                against,
            );
            script(&mut c, k);
            c.into_recorded()
        };
        let (class, _) = record(4, STEPS, None);
        let against = templates(&[&class]);
        for k in 0..STEPS {
            let (alone, alone_meta) = record(5, k, None);
            let (written, meta) = record(5, k, Some(against.clone()));
            // Events, settled host time and summary, bit for bit.
            assert_eq!(written, alone, "k = {k}");
            assert_eq!((meta.matched, meta.seen), (None, 1), "k = {k}");
            assert_eq!(
                (meta.collectives, meta.calls),
                (alone_meta.collectives, alone_meta.calls),
                "k = {k}"
            );
        }
        let (folded, meta) = record(5, STEPS, Some(against));
        assert!(folded.events.is_empty());
        assert_eq!((meta.matched, meta.calls), (Some(0), class.events.len()));
    }

    #[test]
    fn noted_host_time_settles_to_what_charging_each_call_writes() {
        let us = SimTime::from_us;
        // Calls that cost host time and record nothing (`mem_get_info`,
        // `stream_create`, `event_create`) between ones that record, and
        // framework work waiting for the next recorded call.
        let script = |c: &mut CudaContext| {
            c.mem_get_info();
            let p = c.malloc(4096).unwrap();
            let s = c.stream_create();
            c.host_work(us(30.0));
            c.launch_kernel(KernelKind::Memset { bytes: 4096 }, s)
                .unwrap();
            let e = c.event_create();
            c.event_record(e, s).unwrap();
            c.mem_get_info();
            c.host_work(us(2.0));
            c.event_create();
            c.host_work(us(5.0));
            c.stream_wait_event(CudaStream::DEFAULT, e).unwrap();
            let blas = c.cublas_create();
            c.cublas_sgemm(blas, 64, 64, 64).unwrap();
            let comm = c.nccl_comm_init_rank(crate::NcclUniqueId(9), 2, 1).unwrap();
            c.stream_create();
            c.nccl_all_reduce(comm, 4096, s).unwrap();
            c.free(p).unwrap();
            c.host_work(us(1.0));
        };
        let record = |against| {
            let mut c =
                CudaContext::recording_into(5, GpuSpec::h100(), TraceBuffers::default(), against);
            script(&mut c);
            c.into_unsettled()
        };
        let (charged, _, nothing) = record(None);
        assert_eq!(nothing.owed(), 0, "charged call by call as it recorded");
        let _ = nothing.forgo();

        let (mut noted, _, charges) = record(Some(Templates::default()));
        assert_eq!(charges.owed(), noted.events.len());
        // Until it is settled a trace that may be folded carries the
        // injected framework work and nothing else.
        let injected: Vec<SimTime> = noted.events.iter().map(|e| e.host_delay).collect();
        let z = SimTime::ZERO;
        assert_eq!(injected, [z, us(30.0), z, us(7.0), z, z, z]);
        let _ = charges.settle(&mut noted);
        assert_eq!(noted, charged);
        for e in &charged.events {
            assert!(e.host_delay > z);
        }

        // The public finishers settle before they return.
        let mut c = CudaContext::new(5, GpuSpec::h100());
        script(&mut c);
        assert_eq!(c.into_trace(), charged);
    }

    #[test]
    fn unknown_and_destroyed_handles_get_the_driver_answers() {
        let mut c = ctx();
        // Ids the context never minted, far past any table.
        let (far, never) = (u64::MAX, 999);
        for id in [far, never] {
            assert_eq!(
                c.stream_destroy(CudaStream(id)),
                Err(CudaError::InvalidResourceHandle)
            );
            assert_eq!(
                c.event_record(CudaEvent(id), CudaStream::DEFAULT),
                Err(CudaError::InvalidResourceHandle)
            );
            assert_eq!(
                c.event_destroy(CudaEvent(id)),
                Err(CudaError::InvalidResourceHandle)
            );
            assert_eq!(
                c.cublas_sgemm(crate::CublasHandle(id), 8, 8, 8),
                Err(CudaError::NotInitialized)
            );
            assert_eq!(
                c.cudnn_destroy(crate::CudnnHandle(id)),
                Err(CudaError::NotInitialized)
            );
            assert_eq!(
                c.cudnn_destroy_conv_descriptor(crate::CudnnConvDesc(id)),
                Err(CudaError::InvalidResourceHandle)
            );
            assert_eq!(
                c.nccl_all_reduce(crate::NcclComm(id), 64, CudaStream::DEFAULT),
                Err(CudaError::NcclInvalidUsage)
            );
        }
        // Handles share one id space: a live id of another kind is
        // still unknown to this kind's calls.
        let blas = c.cublas_create();
        let comm = c.nccl_comm_init_rank(crate::NcclUniqueId(1), 1, 0).unwrap();
        assert_eq!(
            c.nccl_comm_count(crate::NcclComm(blas.0)),
            Err(CudaError::NcclInvalidUsage)
        );
        assert_eq!(
            c.cublas_destroy(crate::CublasHandle(comm.0)),
            Err(CudaError::NotInitialized)
        );
        // Destroyed: once fine, twice refused, and unusable after.
        let e = c.event_create();
        c.event_destroy(e).unwrap();
        assert_eq!(c.event_destroy(e), Err(CudaError::InvalidResourceHandle));
        assert_eq!(
            c.event_synchronize(e),
            Err(CudaError::InvalidResourceHandle)
        );
        c.cublas_destroy(blas).unwrap();
        assert_eq!(c.cublas_destroy(blas), Err(CudaError::NotInitialized));
        assert_eq!(
            c.cublas_sgemm(blas, 8, 8, 8),
            Err(CudaError::NotInitialized)
        );
        c.nccl_comm_destroy(comm).unwrap();
        assert_eq!(c.nccl_comm_destroy(comm), Err(CudaError::NcclInvalidUsage));
        assert!(
            c.into_trace().events.is_empty(),
            "refused calls record nothing"
        );
    }

    #[test]
    fn zero_byte_malloc_invalid() {
        let mut c = ctx();
        assert_eq!(c.malloc(0).unwrap_err(), CudaError::InvalidValue);
    }
}
