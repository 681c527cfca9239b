//! Shared analytical machinery for the baseline models.

use maya_hw::ClusterSpec;
use maya_torchlet::{FrameworkFlavor, TrainingJob, TransformerConfig};
use maya_trace::SimTime;

/// What a baseline predicts for one configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BaselinePrediction {
    /// Predicted iteration time.
    Time(SimTime),
    /// The model predicts this configuration runs out of memory.
    OutOfMemory,
    /// The system cannot express this configuration (Table 1 gaps).
    Unsupported,
}

impl BaselinePrediction {
    /// The predicted time, if any.
    pub fn time(&self) -> Option<SimTime> {
        match self {
            BaselinePrediction::Time(t) => Some(*t),
            _ => None,
        }
    }
}

/// A runtime-modeling system under comparison.
pub trait BaselineModel: Send + Sync {
    /// System name for plots.
    fn name(&self) -> &'static str;
    /// Predicts the iteration time of a declaratively-described job.
    fn predict(&self, job: &TrainingJob, cluster: &ClusterSpec) -> BaselinePrediction;
}

/// Tunable constants of the shared analytical core.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AnalyticalKnobs {
    /// Assumed fraction of peak math throughput.
    pub(crate) compute_efficiency: f64,
    /// Assumed fraction of peak link bandwidth.
    pub(crate) network_efficiency: f64,
    /// Fraction of data-parallel gradient communication hidden by
    /// overlap (1.0 = fully hidden).
    pub(crate) dp_overlap: f64,
    /// Per-microbatch fixed overhead in microseconds (sync, scheduling).
    pub(crate) per_microbatch_overhead_us: f64,
    /// Whether collective latency terms are modeled at all.
    pub(crate) model_latency: bool,
    /// Multiplier on the memory-capacity estimate (for OOM prediction).
    pub(crate) memory_model_factor: f64,
    /// Whether the logits/loss workspace is accounted in memory.
    pub(crate) count_logits_memory: bool,
}

/// The shared analytical iteration-time model: Megatron-style 3D
/// parallel transformer training described purely by its configuration.
pub(crate) fn analytical_time(
    job: &TrainingJob,
    cfg: &TransformerConfig,
    cluster: &ClusterSpec,
    knobs: &AnalyticalKnobs,
) -> BaselinePrediction {
    let p = &job.parallel;
    let world = job.world as f64;
    let dp = p.dp(job.world).max(1) as f64;
    let tp = p.tp as f64;
    let pp = p.pp as f64;
    let m = p.num_microbatches().max(1) as f64;
    let micro_bs = job.global_batch as f64 / (dp * m);
    if micro_bs < 1.0 {
        return BaselinePrediction::Unsupported;
    }

    // ---- memory model (for OOM prediction) ----
    let layer_elems = maya_torchlet::memory::layer_param_elems(cfg, p.tp) as f64;
    let emb_elems = maya_torchlet::memory::embedding_param_elems(cfg, p.tp) as f64;
    let local_params = layer_elems * cfg.layers as f64 / pp + emb_elems;
    let opt_div = if p.distributed_optimizer { dp } else { 1.0 };
    let state = 2.0 * local_params + 4.0 * local_params + 12.0 * local_params / opt_div;
    let act_layer = maya_torchlet::memory::act_bytes_per_layer(cfg, micro_bs as u32, p) as f64;
    let inflight = m.min(pp);
    let act_total = act_layer
        * (cfg.layers as f64 / (pp * p.virtual_stages as f64))
        * inflight
        * p.virtual_stages as f64;
    let logits = if knobs.count_logits_memory {
        maya_torchlet::memory::logits_bytes(cfg, micro_bs as u32, p.tp) as f64
    } else {
        0.0
    };
    let needed = (state + act_total + logits) * knobs.memory_model_factor;
    if needed > cluster.gpu.mem_bytes() as f64 {
        return BaselinePrediction::OutOfMemory;
    }

    // ---- compute ----
    let flops_spec = cfg.flops_spec(job.global_batch, p.activation_recompute);
    let total_flops = maya_hw::model_flops_per_iteration(&flops_spec);
    let peak = cluster.gpu.peak_flops(job.precision);
    let t_compute = total_flops / (world * peak * knobs.compute_efficiency);

    // ---- tensor-parallel communication ----
    let elem = job.precision.size_bytes() as f64;
    let t_tp = if p.tp > 1 {
        let bytes_per_layer = 4.0 * micro_bs * cfg.seq_len as f64 * cfg.hidden as f64 * elem;
        // 4 activation-sized collectives per layer forward, 4 backward
        // (all-reduce algebra: 2(t-1)/t of the payload on the wire).
        let tp_ranks: Vec<u32> = (0..p.tp).collect();
        let intra = cluster.single_node(&tp_ranks);
        let link = if intra {
            cluster.intra_link
        } else {
            cluster.inter_link
        };
        let wire = 2.0 * (tp - 1.0) / tp * bytes_per_layer
            / (link.bw_gbps * 1e9 * knobs.network_efficiency);
        let lat = if knobs.model_latency {
            (tp - 1.0) * link.latency_us * 1e-6 * 8.0
        } else {
            0.0
        };
        (wire + lat) * cfg.layers as f64 / pp * m * 2.0
    } else {
        0.0
    };

    // ---- pipeline bubble ----
    let chunks = p.virtual_stages.max(1) as f64;
    let bubble = if p.pp > 1 {
        (pp - 1.0) / (m * chunks)
    } else {
        0.0
    };
    // p2p transfer cost per boundary crossing.
    let t_p2p = if p.pp > 1 {
        let boundary = micro_bs * cfg.seq_len as f64 * cfg.hidden as f64 * elem;
        let link = if (job.world / p.pp) >= job.gpus_per_node {
            cluster.inter_link
        } else {
            cluster.intra_link
        };
        2.0 * m * chunks * boundary / (link.bw_gbps * 1e9 * knobs.network_efficiency)
    } else {
        0.0
    };

    // ---- data-parallel gradient communication ----
    let t_dp = if dp > 1.0 {
        let grad_bytes = 4.0 * local_params;
        let dp_ranks: Vec<u32> = (0..p.dp(job.world)).map(|i| i * p.tp).collect();
        let intra = cluster.single_node(&dp_ranks);
        let link = if intra {
            cluster.intra_link
        } else {
            cluster.inter_link
        };
        let wire =
            2.0 * (dp - 1.0) / dp * grad_bytes / (link.bw_gbps * 1e9 * knobs.network_efficiency);
        wire * (1.0 - knobs.dp_overlap)
    } else {
        0.0
    };

    let overheads = m * knobs.per_microbatch_overhead_us * 1e-6;
    let t = (t_compute + t_tp) * (1.0 + bubble) + t_p2p + t_dp + overheads;
    BaselinePrediction::Time(SimTime::from_secs(t))
}

/// True when the job is a Megatron-flavored GPT-family transformer (the
/// only workload Calculon and AMPeD natively model, §7.1).
pub(crate) fn is_megatron_gpt(job: &TrainingJob) -> bool {
    matches!(job.flavor, FrameworkFlavor::Megatron)
        && matches!(job.model, maya_torchlet::ModelSpec::Gpt(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_torchlet::{ModelSpec, ParallelConfig};
    use maya_trace::Dtype;

    fn job() -> TrainingJob {
        TrainingJob {
            model: ModelSpec::gpt3_2_7b(),
            parallel: ParallelConfig {
                tp: 2,
                pp: 2,
                microbatch_multiplier: 2,
                activation_recompute: true,
                ..Default::default()
            },
            flavor: FrameworkFlavor::Megatron,
            compile: false,
            global_batch: 64,
            world: 8,
            gpus_per_node: 8,
            precision: Dtype::Bf16,
            iterations: 1,
        }
    }

    fn knobs() -> AnalyticalKnobs {
        AnalyticalKnobs {
            compute_efficiency: 0.5,
            network_efficiency: 0.8,
            dp_overlap: 0.5,
            per_microbatch_overhead_us: 100.0,
            model_latency: true,
            memory_model_factor: 1.0,
            count_logits_memory: true,
        }
    }

    #[test]
    fn time_scales_inversely_with_efficiency() {
        let cluster = ClusterSpec::h100(1, 8);
        let cfg = *job().model.transformer().unwrap();
        let fast = analytical_time(
            &job(),
            &cfg,
            &cluster,
            &AnalyticalKnobs {
                compute_efficiency: 0.8,
                ..knobs()
            },
        );
        let slow = analytical_time(
            &job(),
            &cfg,
            &cluster,
            &AnalyticalKnobs {
                compute_efficiency: 0.2,
                ..knobs()
            },
        );
        assert!(slow.time().unwrap() > fast.time().unwrap().scale(1.5));
    }

    #[test]
    fn oom_predicted_for_oversized_activations() {
        let cluster = ClusterSpec::h100(1, 8);
        let mut j = job();
        j.global_batch = 4096; // enormous microbatches
        j.parallel = ParallelConfig::default();
        j.world = 8;
        let cfg = *j.model.transformer().unwrap();
        assert_eq!(
            analytical_time(&j, &cfg, &cluster, &knobs()),
            BaselinePrediction::OutOfMemory
        );
    }

    #[test]
    fn bubble_shrinks_with_more_microbatches() {
        let cluster = ClusterSpec::h100(1, 8);
        let cfg = *job().model.transformer().unwrap();
        let few = analytical_time(&job(), &cfg, &cluster, &knobs())
            .time()
            .unwrap();
        let mut j = job();
        j.parallel.microbatch_multiplier = 8;
        let many = analytical_time(&j, &cfg, &cluster, &knobs())
            .time()
            .unwrap();
        assert!(many < few, "few-mb {few} many-mb {many}");
    }
}
