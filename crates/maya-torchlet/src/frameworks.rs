//! Data-parallel framework flavors: PyTorch DDP, DeepSpeed ZeRO 1-3 with
//! optional activation offload, and FSDP.
//!
//! These reproduce the Table 4 generality matrix: the same models running
//! under different framework stacks, each with its characteristic device
//! API footprint — DDP's bucketed overlap all-reduce, ZeRO's
//! reduce-scatter/all-gather pairs, FSDP/ZeRO-3's per-layer parameter
//! gathers, and offload's host-device activation traffic.

use maya_cuda::{CudaContext, CudaResult, CudaStream, NcclComm, NcclUniqueId};
use maya_trace::{MemcpyKind, SimTime};

use crate::layers::{LayerShape, TransformerEmitter};
use crate::memory::{
    act_bytes_per_layer, embedding_param_elems, layer_param_elems, logits_bytes, state_bytes,
};
use crate::models::ModelSpec;
use crate::vision::ResNetEmitter;
use crate::workload::TrainingJob;

/// Runs one worker of a pure data-parallel job (DDP / ZeRO / FSDP).
pub fn run_dp_worker(job: &TrainingJob, rank: u32, ctx: &mut CudaContext) -> CudaResult<()> {
    let world = job.world;
    let dp_comm = if world > 1 {
        let members: Vec<u32> = (0..world).collect();
        let uid = NcclUniqueId::from_members_tagged(&members, 0x64_64_70);
        Some(ctx.nccl_comm_init_rank(uid, world, rank)?)
    } else {
        None
    };
    let dp_stream = ctx.stream_create();

    match &job.model {
        ModelSpec::ResNet(cfg) => run_dp_vision(job, *cfg, ctx, dp_comm, dp_stream),
        _ => run_dp_transformer(job, ctx, dp_comm, dp_stream),
    }
}

/// Vision models: DDP or ZeRO over a CNN.
fn run_dp_vision(
    job: &TrainingJob,
    cfg: crate::models::ResNetConfig,
    ctx: &mut CudaContext,
    dp_comm: Option<NcclComm>,
    dp_stream: CudaStream,
) -> CudaResult<()> {
    let num_mb = job.parallel.num_microbatches();
    let micro_bs = (job.global_batch / (job.world * num_mb)).max(1) as u64;
    let emitter = ResNetEmitter::new(ctx, cfg, micro_bs, job.precision, job.compile)?;
    let params = emitter.param_elems();
    let zero = job.zero_stage();
    let state = state_bytes(params, job.world, zero);
    let _p = ctx.malloc(state.params.max(512))?;
    let _g = ctx.malloc(state.grads.max(512))?;
    let _o = ctx.malloc(state.optimizer.max(512))?;

    for _ in 0..job.iterations.max(1) {
        for _ in 0..num_mb {
            let buf = emitter.forward(ctx)?;
            emitter.backward(ctx, buf)?;
        }
        emitter.optimizer_step(ctx, dp_comm, dp_stream)?;
    }
    Ok(())
}

/// Transformers under DDP / ZeRO / FSDP.
fn run_dp_transformer(
    job: &TrainingJob,
    ctx: &mut CudaContext,
    dp_comm: Option<NcclComm>,
    dp_stream: CudaStream,
) -> CudaResult<()> {
    let cfg = *job.model.transformer().expect("transformer flavor");
    let num_mb = job.parallel.num_microbatches();
    let micro_bs = job.global_batch / (job.world * num_mb);
    let zero = job.zero_stage();
    let offload = job.activation_offload();
    let dp = job.world;

    let layer_elems = layer_param_elems(&cfg, 1);
    let total_params = layer_elems * cfg.layers as u64 + embedding_param_elems(&cfg, 1);
    let state = state_bytes(total_params, dp, zero);
    let _p = ctx.malloc(state.params.max(512))?;
    let _g = ctx.malloc(state.grads.max(512))?;
    let _o = ctx.malloc(state.optimizer.max(512))?;
    ctx.host_work(SimTime::from_ms(2.0));

    let blas = ctx.cublas_create();
    let shape = LayerShape {
        micro_bs: micro_bs as u64,
        seq: cfg.seq_len as u64,
        hidden: cfg.hidden as u64,
        heads: cfg.heads as u64,
        ffn: cfg.ffn as u64,
        vocab: cfg.vocab as u64,
        tp: 1,
        sp: false,
        causal: cfg.causal,
        gated: cfg.gated_mlp,
        dtype: job.precision,
        compiled: job.compile,
    };
    let emitter = TransformerEmitter {
        shape,
        blas,
        tp_comm: None,
        compute: CudaStream::DEFAULT,
        host_work_per_layer: SimTime::from_us(if job.compile { 6.0 } else { 18.0 }),
    };
    let evt = ctx.event_create();
    let evt_back = ctx.event_create();
    let act_layer = act_bytes_per_layer(&cfg, micro_bs, &job.parallel);
    let gather_per_layer = zero >= 3;
    let layer_param_bytes = layer_elems * 2;

    for _ in 0..job.iterations.max(1) {
        for mb in 0..num_mb {
            // ---- forward ----
            ctx.host_work(SimTime::from_us(120.0)); // dataloader
            ctx.memcpy_async(
                shape.tokens() * 8,
                MemcpyKind::HostToDevice,
                emitter.compute,
            )?;
            emitter.embedding_forward(ctx)?;
            let mut layer_acts = Vec::new();
            for _ in 0..cfg.layers {
                if gather_per_layer {
                    if let Some(comm) = dp_comm {
                        // FSDP unit gather on the comm stream, awaited by
                        // compute.
                        ctx.nccl_all_gather(comm, layer_param_bytes, dp_stream)?;
                        ctx.event_record(evt, dp_stream)?;
                        ctx.stream_wait_event(emitter.compute, evt)?;
                    }
                }
                let buf = ctx.malloc(act_layer.max(512))?;
                emitter.forward_layer(ctx)?;
                if offload {
                    ctx.memcpy_async(act_layer.max(512), MemcpyKind::DeviceToHost, dp_stream)?;
                    ctx.event_record(evt, dp_stream)?;
                    ctx.stream_wait_event(emitter.compute, evt)?;
                    ctx.free(buf)?;
                    layer_acts.push(None);
                } else {
                    layer_acts.push(Some(buf));
                }
            }
            let logits = ctx.malloc(logits_bytes(&cfg, micro_bs, 1).max(512))?;
            emitter.head_forward(ctx)?;

            // ---- backward ----
            emitter.head_backward(ctx)?;
            ctx.free(logits)?;
            let last_mb = mb + 1 == num_mb;
            for (li, act) in layer_acts.into_iter().enumerate().rev() {
                if gather_per_layer {
                    if let Some(comm) = dp_comm {
                        ctx.nccl_all_gather(comm, layer_param_bytes, dp_stream)?;
                        ctx.event_record(evt, dp_stream)?;
                        ctx.stream_wait_event(emitter.compute, evt)?;
                    }
                }
                match act {
                    Some(buf) => {
                        emitter.backward_layer(ctx)?;
                        ctx.free(buf)?;
                    }
                    None => {
                        // Prefetch the offloaded activations back first.
                        let buf = ctx.malloc(act_layer.max(512))?;
                        ctx.memcpy_async(act_layer.max(512), MemcpyKind::HostToDevice, dp_stream)?;
                        ctx.event_record(evt, dp_stream)?;
                        ctx.stream_wait_event(emitter.compute, evt)?;
                        emitter.backward_layer(ctx)?;
                        ctx.free(buf)?;
                    }
                }
                if let Some(comm) = dp_comm {
                    if zero >= 3 {
                        // FSDP: reduce-scatter this layer's grads as soon
                        // as they exist.
                        ctx.event_record(evt_back, emitter.compute)?;
                        ctx.stream_wait_event(dp_stream, evt_back)?;
                        ctx.nccl_reduce_scatter(comm, layer_elems * 4, dp_stream)?;
                    } else if zero == 0 && last_mb && li % 4 == 0 {
                        // DDP: bucketed overlap all-reduce every few
                        // layers, gradient accumulation uses no_sync().
                        ctx.event_record(evt_back, emitter.compute)?;
                        ctx.stream_wait_event(dp_stream, evt_back)?;
                        ctx.nccl_all_reduce(comm, layer_elems * 4 * 4, dp_stream)?;
                    }
                }
            }
            emitter.embedding_backward(ctx)?;
        }

        // ---- gradient sync tail + optimizer ----
        if let Some(comm) = dp_comm {
            ctx.event_record(evt_back, emitter.compute)?;
            ctx.stream_wait_event(dp_stream, evt_back)?;
            match zero {
                0 => {
                    // DDP tail bucket (embeddings).
                    ctx.nccl_all_reduce(comm, embedding_param_elems(&cfg, 1) * 4, dp_stream)?;
                }
                1 => ctx.nccl_all_reduce(comm, total_params * 4, dp_stream)?,
                2 => ctx.nccl_reduce_scatter(comm, total_params * 4, dp_stream)?,
                _ => {
                    // ZeRO-3/FSDP already reduced per layer; embeddings
                    // remain.
                    ctx.nccl_reduce_scatter(comm, embedding_param_elems(&cfg, 1) * 4, dp_stream)?;
                }
            }
            ctx.event_record(evt, dp_stream)?;
            ctx.stream_wait_event(emitter.compute, evt)?;
        }
        let opt_elems = if zero >= 1 {
            total_params / dp as u64
        } else {
            total_params
        };
        emitter.optimizer_step(ctx, opt_elems.max(1))?;
        if (1..=2).contains(&zero) {
            if let Some(comm) = dp_comm {
                ctx.nccl_all_gather(comm, total_params * 2, dp_stream)?;
                ctx.event_record(evt, dp_stream)?;
                ctx.stream_wait_event(emitter.compute, evt)?;
            }
        }
        ctx.memcpy(8, MemcpyKind::DeviceToHost)?;
        ctx.device_synchronize();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::ParallelConfig;
    use crate::workload::FrameworkFlavor;
    use maya_hw::GpuSpec;

    fn job(flavor: FrameworkFlavor, world: u32) -> TrainingJob {
        TrainingJob {
            model: ModelSpec::gpt3_125m(),
            parallel: ParallelConfig::default(),
            flavor,
            compile: false,
            global_batch: 4 * world,
            world,
            gpus_per_node: 8,
            precision: maya_trace::Dtype::Bf16,
            iterations: 1,
        }
    }

    fn names_for(flavor: FrameworkFlavor) -> Vec<&'static str> {
        let mut ctx = CudaContext::new(0, GpuSpec::h100());
        run_dp_worker(&job(flavor, 4), 0, &mut ctx).unwrap();
        ctx.into_trace()
            .events
            .iter()
            .map(|e| e.op.name())
            .collect()
    }

    #[test]
    fn ddp_uses_bucketed_allreduce_only() {
        let names = names_for(FrameworkFlavor::Ddp);
        assert!(names.contains(&"ncclAllReduce"));
        assert!(!names.contains(&"ncclReduceScatter"));
        assert!(!names.contains(&"ncclAllGather"));
    }

    #[test]
    fn zero2_reduce_scatters_and_gathers() {
        let names = names_for(FrameworkFlavor::DeepSpeedZero {
            stage: 2,
            activation_offload: false,
        });
        assert!(names.contains(&"ncclReduceScatter"));
        assert!(names.contains(&"ncclAllGather"));
    }

    #[test]
    fn fsdp_gathers_params_per_layer() {
        let names = names_for(FrameworkFlavor::Fsdp);
        let gathers = names.iter().filter(|n| *n == &"ncclAllGather").count();
        // One gather per layer forward + one per layer backward.
        assert!(gathers >= 2 * 12, "{gathers}");
    }

    #[test]
    fn offload_emits_host_device_traffic() {
        let names = names_for(FrameworkFlavor::DeepSpeedZero {
            stage: 1,
            activation_offload: true,
        });
        let dtoh = names.iter().filter(|n| *n == &"MemcpyDtoH").count();
        let htod = names.iter().filter(|n| *n == &"MemcpyHtoD").count();
        // One offload store per layer and one prefetch per layer.
        assert!(dtoh >= 12, "DtoH {dtoh}");
        assert!(htod >= 12, "HtoD {htod}");
    }

    #[test]
    fn zero_stages_lower_persistent_memory() {
        let mut peaks = Vec::new();
        for stage in [0u8, 1, 2, 3] {
            let flavor = if stage == 0 {
                FrameworkFlavor::Ddp
            } else {
                FrameworkFlavor::DeepSpeedZero {
                    stage,
                    activation_offload: false,
                }
            };
            let mut ctx = CudaContext::new(0, GpuSpec::h100());
            run_dp_worker(&job(flavor, 8), 0, &mut ctx).unwrap();
            peaks.push(ctx.into_trace().summary.peak_mem_bytes);
        }
        assert!(peaks[0] > peaks[1], "{peaks:?}");
        assert!(peaks[1] > peaks[2], "{peaks:?}");
        assert!(peaks[2] > peaks[3], "{peaks:?}");
    }

    #[test]
    fn vision_ddp_runs() {
        let mut ctx = CudaContext::new(0, GpuSpec::a40());
        let mut j = job(FrameworkFlavor::Ddp, 8);
        j.model = ModelSpec::resnet152();
        j.global_batch = 256;
        run_dp_worker(&j, 0, &mut ctx).unwrap();
        let t = ctx.into_trace();
        assert!(t.summary.num_kernels > 100);
        assert!(t.summary.num_collectives >= 1);
        assert!(!t.summary.oom);
    }
}
