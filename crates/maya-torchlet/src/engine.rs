//! The Megatron-style distributed training engine.
//!
//! `run_megatron_worker` plays the role of one rank's unmodified training
//! script: it sets up communicators, allocates parameter/gradient/
//! optimizer state, then walks the pipeline schedule issuing every device
//! API call a real Megatron-LM iteration would — forward/backward kernel
//! sequences, tensor-parallel collectives, pipeline p2p transfers with
//! event-based stream synchronization, data-parallel gradient reduction,
//! the distributed-optimizer gather, and the optimizer step. Activation
//! buffers are `cudaMalloc`ed at each microbatch's forward and freed at
//! its backward, so the emulator's live-byte tracking reproduces 1F1B
//! in-flight memory (and OOM behavior) without any closed-form model.

use std::collections::HashMap;

use maya_cuda::{
    CudaContext, CudaError, CudaEvent, CudaResult, CudaStream, NcclComm, NcclUniqueId,
};
use maya_trace::{MemcpyKind, SimTime};

use crate::layers::{LayerShape, TransformerEmitter};
use crate::memory::{act_bytes_per_layer, embedding_param_elems, layer_param_elems, logits_bytes};
use crate::parallel::RankTopology;
use crate::schedule::{block_of, build_schedule, owner_of, StepKind};
use crate::workload::TrainingJob;

/// Per-worker runtime handles.
#[derive(Default)]
struct Comms {
    tp: Option<NcclComm>,
    dp: Option<NcclComm>,
    embedding: Option<NcclComm>,
    /// Directed p2p links: `(peer_stage, is_forward_direction) -> comm`.
    /// `rank_in_comm` is 0 for the sender and 1 for the receiver.
    links: HashMap<(u32, bool, bool), NcclComm>,
}

impl Comms {
    /// The link communicator under `(peer_stage, forward, is_send)`; a
    /// link the set-up did not create is an invalid handle.
    fn link(&self, peer_stage: u32, forward: bool, is_send: bool) -> CudaResult<NcclComm> {
        let key = (peer_stage, forward, is_send);
        self.links
            .get(&key)
            .copied()
            .ok_or(CudaError::InvalidResourceHandle)
    }
}

struct Streams {
    compute: CudaStream,
    dp: CudaStream,
    /// Dedicated stream per p2p link and role: `(peer_stage, forward,
    /// is_send) -> stream`. Megatron's batched p2p groups similarly keep
    /// independent links from serializing behind each other; with a
    /// single shared stream, sends to one neighbor could queue behind
    /// unmatched sends to another and stall the pipeline.
    p2p: HashMap<(u32, bool, bool), CudaStream>,
}

impl Streams {
    fn p2p_stream(
        &mut self,
        ctx: &mut CudaContext,
        peer: u32,
        forward: bool,
        is_send: bool,
    ) -> CudaStream {
        *self
            .p2p
            .entry((peer, forward, is_send))
            .or_insert_with(|| ctx.stream_create())
    }
}

struct Events {
    recv_done: CudaEvent,
    compute_done: CudaEvent,
    dp_done: CudaEvent,
}

/// A communicator of a Megatron job, named by what it is for. The one
/// derivation of communicator identity: the worker that joins a
/// communicator and [`megatron_comm_groups`], which lists them without
/// running anybody, both ask [`Role::comm`].
enum Role {
    Tp,
    Dp,
    /// First and last pipeline stage (tied embedding gradients).
    Embedding,
    /// A directed p2p link — sender stage, receiver stage, and whether
    /// it carries activations forward (else gradients back).
    Link(u32, u32, bool),
}

impl Role {
    /// The id and member list of the communicator of this role that
    /// `rank` belongs to. A link's members are its sender, then its
    /// receiver, at `rank`'s tensor- and data-parallel coordinates.
    fn comm(self, topo: &RankTopology, rank: u32) -> (NcclUniqueId, Vec<u32>) {
        let (t, d) = (topo.tp_rank(rank), topo.dp_rank(rank));
        let link = |from, to| vec![topo.global_rank(t, d, from), topo.global_rank(t, d, to)];
        let (tag, members) = match self {
            Role::Tp => (0x74_70, topo.tp_group(rank)),
            Role::Dp => (0x64_70, topo.dp_group(rank)),
            Role::Embedding => (0x65_6D, topo.embedding_group(rank)),
            Role::Link(from, to, true) => (0x0061_6374, link(from, to)),
            Role::Link(from, to, false) => (0x0067_7264, link(from, to)),
        };
        (NcclUniqueId::from_members_tagged(&members, tag), members)
    }
}

/// Bucket size for data-parallel gradient all-reduce (Megatron default
/// is on the order of 100-200 MB).
const DP_BUCKET_BYTES: u64 = 128 * 1024 * 1024;

/// Host time modeling the data loader + Python step loop per microbatch.
const DATALOADER_US: f64 = 120.0;

/// Runs one worker of a Megatron-style job against the virtual device.
pub fn run_megatron_worker(job: &TrainingJob, rank: u32, ctx: &mut CudaContext) -> CudaResult<()> {
    let cfg = job
        .model
        .transformer()
        .copied()
        .expect("megatron engine requires a transformer model (validated upstream)");
    let par = &job.parallel;
    let topo = RankTopology::new(par, job.world);
    let (tpr, dpr, ppr) = (topo.tp_rank(rank), topo.dp_rank(rank), topo.pp_rank(rank));
    let num_mb = par.num_microbatches();
    let micro_bs = job.global_batch / (topo.dp * num_mb);
    let chunks = par.virtual_stages;
    let layers_per_chunk = cfg.layers / (par.pp * chunks);
    let total_blocks = par.pp * chunks;

    // --- Streams & events ---
    let mut streams = Streams {
        compute: CudaStream::DEFAULT,
        dp: ctx.stream_create(),
        p2p: HashMap::new(),
    };
    let events = Events {
        recv_done: ctx.event_create(),
        compute_done: ctx.event_create(),
        dp_done: ctx.event_create(),
    };

    // --- Communicators ---
    let mut comms = Comms::default();
    if par.tp > 1 {
        let (uid, _) = Role::Tp.comm(&topo, rank);
        comms.tp = Some(ctx.nccl_comm_init_rank(uid, par.tp, tpr)?);
    }
    if topo.dp > 1 {
        let (uid, _) = Role::Dp.comm(&topo, rank);
        comms.dp = Some(ctx.nccl_comm_init_rank(uid, topo.dp, dpr)?);
    }
    let owns_first = owner_of(0, par.pp) == ppr;
    let owns_last = owner_of(total_blocks - 1, par.pp) == ppr;
    if par.pp > 1 && (owns_first || owns_last) {
        let (uid, _) = Role::Embedding.comm(&topo, rank);
        let my = if ppr == 0 { 0 } else { 1 };
        comms.embedding = Some(ctx.nccl_comm_init_rank(uid, 2, my)?);
    }
    // p2p links for every boundary this stage's blocks touch.
    if par.pp > 1 {
        for chunk in 0..chunks {
            let block = block_of(ppr, chunk, par.pp);
            if block > 0 {
                let from = owner_of(block - 1, par.pp);
                link(ctx, &topo, rank, &mut comms, from, ppr, true)?; // act in
                link(ctx, &topo, rank, &mut comms, ppr, from, false)?; // grad out
            }
            if block + 1 < total_blocks {
                let to = owner_of(block + 1, par.pp);
                link(ctx, &topo, rank, &mut comms, ppr, to, true)?; // act out
                link(ctx, &topo, rank, &mut comms, to, ppr, false)?; // grad in
            }
        }
    }

    // --- Persistent state ---
    let mut local_params =
        layers_per_chunk as u64 * chunks as u64 * layer_param_elems(&cfg, par.tp);
    if owns_first {
        local_params += embedding_param_elems(&cfg, par.tp);
    }
    if owns_last && par.pp > 1 {
        // Untied copy of the word embeddings for the output head.
        local_params += embedding_param_elems(&cfg, par.tp);
    }
    let zero_stage = if par.distributed_optimizer { 1 } else { 0 };
    let state = crate::memory::state_bytes(local_params, topo.dp, zero_stage);
    let _params_buf = ctx.malloc(state.params.max(512))?;
    let _grads_buf = ctx.malloc(state.grads.max(512))?;
    let _opt_buf = ctx.malloc(state.optimizer.max(512))?;
    ctx.host_work(SimTime::from_ms(2.0)); // framework init

    // --- Emitter ---
    let blas = ctx.cublas_create();
    ctx.cublas_set_stream(blas, streams.compute)?;
    let shape = LayerShape {
        micro_bs: micro_bs as u64,
        seq: cfg.seq_len as u64,
        hidden: cfg.hidden as u64,
        heads: cfg.heads as u64,
        ffn: cfg.ffn as u64,
        vocab: cfg.vocab as u64,
        tp: par.tp as u64,
        sp: par.sequence_parallel,
        causal: cfg.causal,
        gated: cfg.gated_mlp,
        dtype: job.precision,
        compiled: job.compile,
    };
    let emitter = TransformerEmitter {
        shape,
        blas,
        tp_comm: comms.tp,
        compute: streams.compute,
        host_work_per_layer: SimTime::from_us(if job.compile { 6.0 } else { 18.0 }),
    };

    let act_per_layer = act_bytes_per_layer(&cfg, micro_bs, par);
    let full_act_per_layer = act_bytes_per_layer(
        &cfg,
        micro_bs,
        &crate::parallel::ParallelConfig {
            activation_recompute: false,
            ..*par
        },
    );
    let boundary_bytes = {
        let base = shape.act_tensor_bytes();
        if par.sequence_parallel {
            base / par.tp as u64
        } else {
            base
        }
    };

    let steps = build_schedule(par.pp, ppr, num_mb, chunks);
    // Live activation and logit buffers by (microbatch, chunk) and
    // microbatch: a few at a time, so pairs searched newest first.
    let mut act_bufs: Vec<((u32, u32), maya_cuda::DevicePtr)> = Vec::new();
    let mut logit_bufs: Vec<(u32, maya_cuda::DevicePtr)> = Vec::new();

    for _iter in 0..job.iterations.max(1) {
        for step in &steps {
            let block = block_of(ppr, step.chunk, par.pp);
            match step.kind {
                StepKind::Forward => {
                    if block == 0 {
                        // Data loading + token upload + embedding.
                        ctx.host_work(SimTime::from_us(DATALOADER_US));
                        ctx.memcpy_async(
                            shape.tokens() * 8,
                            MemcpyKind::HostToDevice,
                            streams.compute,
                        )?;
                        emitter.embedding_forward(ctx)?;
                    } else {
                        recv_boundary(
                            ctx,
                            &comms,
                            owner_of(block - 1, par.pp),
                            true,
                            boundary_bytes,
                            &mut streams,
                            &events,
                        )?;
                    }
                    let buf = ctx.malloc((act_per_layer * layers_per_chunk as u64).max(512))?;
                    act_bufs.push(((step.mb, step.chunk), buf));
                    for _ in 0..layers_per_chunk {
                        emitter.forward_layer(ctx)?;
                    }
                    if block + 1 < total_blocks {
                        send_boundary(
                            ctx,
                            &comms,
                            owner_of(block + 1, par.pp),
                            true,
                            boundary_bytes,
                            &mut streams,
                            &events,
                        )?;
                    } else {
                        let lb = ctx.malloc(logits_bytes(&cfg, micro_bs, par.tp).max(512))?;
                        logit_bufs.push((step.mb, lb));
                        emitter.head_forward(ctx)?;
                    }
                }
                StepKind::Backward => {
                    if block + 1 < total_blocks {
                        recv_boundary(
                            ctx,
                            &comms,
                            owner_of(block + 1, par.pp),
                            false,
                            boundary_bytes,
                            &mut streams,
                            &events,
                        )?;
                    } else {
                        emitter.head_backward(ctx)?;
                        if let Some(lb) = take_live(&mut logit_bufs, step.mb) {
                            ctx.free(lb)?;
                        }
                    }
                    if par.activation_recompute {
                        // Re-run each layer's forward from its stored
                        // input, then run its backward; one transient
                        // full-activation buffer is live at a time.
                        for _ in 0..layers_per_chunk {
                            let tmp = ctx.malloc(full_act_per_layer.max(512))?;
                            emitter.forward_layer(ctx)?;
                            emitter.backward_layer(ctx)?;
                            ctx.free(tmp)?;
                        }
                    } else {
                        for _ in 0..layers_per_chunk {
                            emitter.backward_layer(ctx)?;
                        }
                    }
                    if block == 0 {
                        emitter.embedding_backward(ctx)?;
                    } else {
                        send_boundary(
                            ctx,
                            &comms,
                            owner_of(block - 1, par.pp),
                            false,
                            boundary_bytes,
                            &mut streams,
                            &events,
                        )?;
                    }
                    if let Some(buf) = take_live(&mut act_bufs, (step.mb, step.chunk)) {
                        ctx.free(buf)?;
                    }
                }
            }
        }

        // --- Gradient reduction ---
        if let Some(dp_comm) = comms.dp {
            ctx.event_record(events.compute_done, streams.compute)?;
            ctx.stream_wait_event(streams.dp, events.compute_done)?;
            let grad_bytes = state.grads.max(512);
            if par.distributed_optimizer {
                ctx.nccl_reduce_scatter(dp_comm, grad_bytes, streams.dp)?;
            } else {
                let mut remaining = grad_bytes;
                while remaining > 0 {
                    let b = remaining.min(DP_BUCKET_BYTES);
                    ctx.nccl_all_reduce(dp_comm, b, streams.dp)?;
                    remaining -= b;
                }
            }
            ctx.event_record(events.dp_done, streams.dp)?;
            ctx.stream_wait_event(streams.compute, events.dp_done)?;
        }
        // Tied-embedding gradient reduction across first/last stages.
        if let Some(emb) = comms.embedding {
            let bytes = (cfg.vocab as u64 / par.tp as u64) * cfg.hidden as u64 * 4;
            ctx.nccl_all_reduce(emb, bytes, streams.compute)?;
        }

        // --- Optimizer ---
        let opt_elems = if par.distributed_optimizer {
            local_params / topo.dp as u64
        } else {
            local_params
        };
        emitter.optimizer_step(ctx, opt_elems.max(1))?;
        if par.distributed_optimizer {
            if let Some(dp_comm) = comms.dp {
                ctx.event_record(events.compute_done, streams.compute)?;
                ctx.stream_wait_event(streams.dp, events.compute_done)?;
                ctx.nccl_all_gather(dp_comm, state.params.max(512), streams.dp)?;
                ctx.event_record(events.dp_done, streams.dp)?;
                ctx.stream_wait_event(streams.compute, events.dp_done)?;
            }
        }

        // loss.item(): synchronous DtoH fetch, blocks the host.
        ctx.memcpy(8, MemcpyKind::DeviceToHost)?;
        ctx.device_synchronize();
    }
    Ok(())
}

/// Removes and returns the buffer live under `key`, if one is.
fn take_live<K: PartialEq>(
    live: &mut Vec<(K, maya_cuda::DevicePtr)>,
    key: K,
) -> Option<maya_cuda::DevicePtr> {
    let at = live.iter().rposition(|(k, _)| *k == key)?;
    Some(live.remove(at).1)
}

/// Ensures the directed p2p link communicator `from` → `to` exists on
/// this rank, which sits on one of the two stages: it sends iff it is
/// on `from`.
fn link(
    ctx: &mut CudaContext,
    topo: &RankTopology,
    rank: u32,
    comms: &mut Comms,
    from: u32,
    to: u32,
    forward: bool,
) -> CudaResult<()> {
    let i_send = topo.pp_rank(rank) == from;
    let key = (if i_send { to } else { from }, forward, i_send);
    if comms.links.contains_key(&key) {
        return Ok(());
    }
    let (uid, _) = Role::Link(from, to, forward).comm(topo, rank);
    let my = if i_send { 0 } else { 1 };
    let comm = ctx.nccl_comm_init_rank(uid, 2, my)?;
    comms.links.insert(key, comm);
    Ok(())
}

/// Receives one boundary tensor: recv on the link's stream, then make
/// the compute stream wait on it.
fn recv_boundary(
    ctx: &mut CudaContext,
    comms: &Comms,
    peer_stage: u32,
    forward: bool,
    bytes: u64,
    streams: &mut Streams,
    events: &Events,
) -> CudaResult<()> {
    let comm = comms.link(peer_stage, forward, false)?;
    let stream = streams.p2p_stream(ctx, peer_stage, forward, false);
    ctx.nccl_recv(comm, 0, bytes, stream)?;
    ctx.event_record(events.recv_done, stream)?;
    ctx.stream_wait_event(streams.compute, events.recv_done)
}

/// Sends one boundary tensor after the compute stream produced it.
fn send_boundary(
    ctx: &mut CudaContext,
    comms: &Comms,
    peer_stage: u32,
    forward: bool,
    bytes: u64,
    streams: &mut Streams,
    events: &Events,
) -> CudaResult<()> {
    let comm = comms.link(peer_stage, forward, true)?;
    let stream = streams.p2p_stream(ctx, peer_stage, forward, true);
    ctx.event_record(events.compute_done, streams.compute)?;
    ctx.stream_wait_event(stream, events.compute_done)?;
    ctx.nccl_send(comm, 1, bytes, stream)
}

/// Builds the complete communicator-group map a Megatron job creates:
/// `comm_id -> members` for every tp/dp/embedding/p2p-link communicator,
/// each derived by the `Role::comm` a `run_megatron_worker` joins it
/// through, asked of one member rank.
///
/// Used by selective launch (§7.4): when only unique ranks are emulated,
/// the collator cannot reconstruct group membership from observation and
/// needs this workload knowledge instead.
pub fn megatron_comm_groups(job: &TrainingJob) -> std::collections::BTreeMap<u64, Vec<u32>> {
    let mut groups = std::collections::BTreeMap::new();
    let par = &job.parallel;
    let topo = RankTopology::new(par, job.world);
    let chunks = par.virtual_stages;
    let total_blocks = par.pp * chunks;
    let mut insert = |role: Role, member: u32| {
        let (uid, members) = role.comm(&topo, member);
        groups.insert(uid.0, members);
    };
    for p in 0..par.pp {
        for d in 0..topo.dp {
            if par.tp > 1 {
                insert(Role::Tp, topo.global_rank(0, d, p));
            }
        }
        for t in 0..par.tp {
            if topo.dp > 1 {
                insert(Role::Dp, topo.global_rank(t, 0, p));
            }
        }
    }
    if par.pp > 1 {
        for t in 0..par.tp {
            for d in 0..topo.dp {
                // Any stage's rank at (t, d) names the same pipeline.
                let rank = topo.global_rank(t, d, 0);
                insert(Role::Embedding, rank);
                for block in 1..total_blocks {
                    let (from, to) = (owner_of(block - 1, par.pp), owner_of(block, par.pp));
                    insert(Role::Link(from, to, true), rank); // activations
                    insert(Role::Link(to, from, false), rank); // gradients
                }
            }
        }
    }
    groups
}

/// Runs a single worker on a fresh context and returns its trace plus
/// the run result (Err for OOM or API misuse).
pub fn trace_one_rank(
    job: &TrainingJob,
    rank: u32,
    gpu: maya_hw::GpuSpec,
) -> (maya_trace::WorkerTrace, CudaResult<()>) {
    let mut ctx = CudaContext::new(rank, gpu);
    let res = job.run_worker(rank, &mut ctx);
    (ctx.into_trace(), res)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A boundary whose link the set-up did not create is refused with
    /// a typed error, on either side, before anything is recorded.
    #[test]
    fn a_missing_pipeline_link_is_an_invalid_handle() {
        let mut ctx = CudaContext::new(0, maya_hw::GpuSpec::h100());
        let mut streams = Streams {
            compute: CudaStream::DEFAULT,
            dp: ctx.stream_create(),
            p2p: HashMap::new(),
        };
        let events = Events {
            recv_done: ctx.event_create(),
            compute_done: ctx.event_create(),
            dp_done: ctx.event_create(),
        };
        let comms = Comms::default();
        for forward in [true, false] {
            assert_eq!(
                recv_boundary(&mut ctx, &comms, 1, forward, 64, &mut streams, &events),
                Err(CudaError::InvalidResourceHandle)
            );
            assert_eq!(
                send_boundary(&mut ctx, &comms, 1, forward, 64, &mut streams, &events),
                Err(CudaError::InvalidResourceHandle)
            );
        }
        assert!(streams.p2p.is_empty());
        assert!(ctx.into_trace().events.is_empty());
    }
}
