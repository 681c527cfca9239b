//! Training-job description: model + recipe + framework flavor.
//!
//! A [`TrainingJob`] is the Rust analog of the user's unmodified training
//! script plus its launch configuration. `run_worker` executes one rank's
//! script against a virtual device; everything Maya learns about the job
//! comes from the device API calls that run makes.

use maya_cuda::{CudaContext, CudaResult};
use maya_hw::ModelFlopsSpec;
use maya_trace::Dtype;

use crate::models::ModelSpec;
use crate::parallel::{ConfigError, ParallelConfig};

/// Which training framework stack the script uses (Table 4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FrameworkFlavor {
    /// Megatron-LM style 3D parallelism (TP/PP/DP + knobs of Table 5).
    Megatron,
    /// DeepSpeed with ZeRO sharding.
    DeepSpeedZero {
        /// ZeRO stage (1, 2 or 3).
        stage: u8,
        /// Offload activations to host memory.
        activation_offload: bool,
    },
    /// PyTorch FSDP (fully-sharded data parallelism).
    Fsdp,
    /// PyTorch DDP.
    Ddp,
}

impl FrameworkFlavor {
    /// Short name for reports.
    pub fn name(&self) -> String {
        match self {
            FrameworkFlavor::Megatron => "Megatron-LM".into(),
            FrameworkFlavor::DeepSpeedZero {
                stage,
                activation_offload,
            } => {
                if *activation_offload {
                    format!("DeepSpeed ZeRO-{stage}+offload")
                } else {
                    format!("DeepSpeed ZeRO-{stage}")
                }
            }
            FrameworkFlavor::Fsdp => "PyTorch FSDP".into(),
            FrameworkFlavor::Ddp => "PyTorch DDP".into(),
        }
    }
}

/// A complete training-job description.
#[derive(Clone, Copy, Debug)]
pub struct TrainingJob {
    /// Model architecture.
    pub model: ModelSpec,
    /// Parallelization / optimization recipe (Table 5 knobs).
    pub parallel: ParallelConfig,
    /// Framework stack.
    pub flavor: FrameworkFlavor,
    /// torch.compile-style kernel fusion.
    pub compile: bool,
    /// Global batch size (sequences or images per iteration).
    pub global_batch: u32,
    /// Number of workers (GPUs).
    pub world: u32,
    /// GPUs per node (for TP-span validation).
    pub gpus_per_node: u32,
    /// Training precision (bf16 on Ampere/Hopper, fp16 on Volta).
    pub precision: Dtype,
    /// Training iterations to trace (1 is enough: DLT loops repeat).
    pub iterations: u32,
}

impl TrainingJob {
    /// A small smoke-test job: GPT-3 125M, DP-only, one rank.
    pub fn smoke() -> Self {
        TrainingJob {
            model: ModelSpec::gpt3_125m(),
            parallel: ParallelConfig::default(),
            flavor: FrameworkFlavor::Megatron,
            compile: false,
            global_batch: 4,
            world: 1,
            gpus_per_node: 8,
            precision: Dtype::Bf16,
            iterations: 1,
        }
    }

    /// ZeRO stage implied by the flavor (0 for DDP; Megatron maps the
    /// distributed optimizer to stage 1).
    pub fn zero_stage(&self) -> u8 {
        match self.flavor {
            FrameworkFlavor::Megatron => {
                if self.parallel.distributed_optimizer {
                    1
                } else {
                    0
                }
            }
            FrameworkFlavor::DeepSpeedZero { stage, .. } => stage,
            FrameworkFlavor::Fsdp => 3,
            FrameworkFlavor::Ddp => 0,
        }
    }

    /// Whether activations are offloaded to host memory.
    pub fn activation_offload(&self) -> bool {
        matches!(
            self.flavor,
            FrameworkFlavor::DeepSpeedZero {
                activation_offload: true,
                ..
            }
        )
    }

    /// Validates the job against divisibility and topology rules.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let p = &self.parallel;
        let mp = p.tp * p.pp;
        if !matches!(self.flavor, FrameworkFlavor::Megatron) && mp != 1 {
            return Err(ConfigError::WorldNotDivisible {
                world: self.world,
                model_parallel: mp,
            });
        }
        if self.world % mp != 0 || self.world < mp {
            return Err(ConfigError::WorldNotDivisible {
                world: self.world,
                model_parallel: mp,
            });
        }
        if p.tp > self.gpus_per_node {
            return Err(ConfigError::TpSpansNodes {
                tp: p.tp,
                gpus_per_node: self.gpus_per_node,
            });
        }
        if p.sequence_parallel && p.tp == 1 {
            return Err(ConfigError::SeqParallelNeedsTp);
        }
        if p.virtual_stages > 1 && p.pp == 1 {
            return Err(ConfigError::InterleaveNeedsPp);
        }
        let dp = p.dp(self.world);
        let divisor = dp * p.num_microbatches();
        if self.global_batch % divisor != 0 || self.global_batch < divisor {
            return Err(ConfigError::BatchNotDivisible {
                global_batch: self.global_batch,
                divisor,
            });
        }
        if let Some(t) = self.model.transformer() {
            let layer_div = p.pp * p.virtual_stages;
            if t.layers % layer_div != 0 {
                return Err(ConfigError::LayersNotDivisible {
                    layers: t.layers,
                    divisor: layer_div,
                });
            }
            if t.heads % p.tp != 0 {
                return Err(ConfigError::HeadsNotDivisible {
                    heads: t.heads,
                    tp: p.tp,
                });
            }
        } else if mp != 1 {
            return Err(ConfigError::WorldNotDivisible {
                world: self.world,
                model_parallel: mp,
            });
        }
        Ok(())
    }

    /// Runs one rank's "training script" against a virtual device.
    ///
    /// This is the unmodified-user-code surface: all the system learns
    /// about the workload flows through `ctx`'s device API.
    pub fn run_worker(&self, rank: u32, ctx: &mut CudaContext) -> CudaResult<()> {
        match self.flavor {
            FrameworkFlavor::Megatron => crate::engine::run_megatron_worker(self, rank, ctx),
            _ => crate::frameworks::run_dp_worker(self, rank, ctx),
        }
    }

    /// FLOPs-accounting spec (transformers only).
    pub fn flops_spec(&self) -> Option<ModelFlopsSpec> {
        self.model
            .transformer()
            .map(|t| t.flops_spec(self.global_batch, self.parallel.activation_recompute))
    }

    /// Human-readable description.
    pub fn describe(&self) -> String {
        format!(
            "{} | {} | {} | batch {} | {} GPUs",
            self.model.name(),
            self.flavor.name(),
            self.parallel,
            self.global_batch,
            self.world
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(world: u32) -> TrainingJob {
        TrainingJob {
            world,
            global_batch: 64,
            ..TrainingJob::smoke()
        }
    }

    #[test]
    fn smoke_job_valid() {
        assert!(TrainingJob::smoke().validate().is_ok());
    }

    #[test]
    fn world_divisibility_checked() {
        let mut j = base(8);
        j.parallel.tp = 4;
        j.parallel.pp = 4;
        assert!(matches!(
            j.validate(),
            Err(ConfigError::WorldNotDivisible { .. })
        ));
        j.world = 16;
        assert!(j.validate().is_ok());
    }

    #[test]
    fn batch_divisibility_checked() {
        let mut j = base(8);
        j.global_batch = 10;
        j.parallel.tp = 2;
        // dp = 4, microbatches = 1 -> divisor 4; 10 % 4 != 0.
        assert!(matches!(
            j.validate(),
            Err(ConfigError::BatchNotDivisible { .. })
        ));
    }

    #[test]
    fn layers_and_heads_divisibility() {
        let mut j = base(8);
        j.parallel.pp = 8; // 12 layers % 8 != 0
        j.global_batch = 8;
        assert!(matches!(
            j.validate(),
            Err(ConfigError::LayersNotDivisible { .. })
        ));
        let mut j2 = base(8);
        j2.parallel.tp = 8; // 12 heads % 8 != 0
        assert!(matches!(
            j2.validate(),
            Err(ConfigError::HeadsNotDivisible { .. })
        ));
    }

    #[test]
    fn tp_span_and_sp_rules() {
        let mut j = base(16);
        j.gpus_per_node = 4;
        j.parallel.tp = 2;
        j.parallel.sequence_parallel = true;
        assert!(j.validate().is_ok());
        j.parallel.tp = 8;
        assert!(matches!(
            j.validate(),
            Err(ConfigError::TpSpansNodes { .. })
        ));
        let mut j2 = base(8);
        j2.parallel.sequence_parallel = true;
        assert!(matches!(
            j2.validate(),
            Err(ConfigError::SeqParallelNeedsTp)
        ));
        let mut j3 = base(8);
        j3.parallel.virtual_stages = 2;
        assert!(matches!(j3.validate(), Err(ConfigError::InterleaveNeedsPp)));
    }

    #[test]
    fn dp_flavors_reject_model_parallelism() {
        let mut j = base(8);
        j.flavor = FrameworkFlavor::Ddp;
        j.parallel.tp = 2;
        assert!(j.validate().is_err());
    }

    #[test]
    fn zero_stage_mapping() {
        let mut j = base(8);
        assert_eq!(j.zero_stage(), 0);
        j.parallel.distributed_optimizer = true;
        assert_eq!(j.zero_stage(), 1);
        j.flavor = FrameworkFlavor::Fsdp;
        assert_eq!(j.zero_stage(), 3);
        j.flavor = FrameworkFlavor::DeepSpeedZero {
            stage: 2,
            activation_offload: true,
        };
        assert_eq!(j.zero_stage(), 2);
        assert!(j.activation_offload());
    }

    #[test]
    fn micro_batch_size_computation() {
        let mut j = base(8);
        j.parallel.tp = 2;
        j.parallel.pp = 2;
        j.parallel.microbatch_multiplier = 2;
        // dp = 2, microbatches = 4, so micro_bs = 64 / 8 = 8.
        let dp = j.parallel.dp(j.world);
        assert_eq!((dp, j.parallel.num_microbatches()), (2, 4));
        assert_eq!(j.global_batch / (dp * j.parallel.num_microbatches()), 8);
    }

    #[test]
    fn describe_mentions_key_facts() {
        let d = TrainingJob::smoke().describe();
        assert!(d.contains("GPT3"), "{d}");
        assert!(d.contains("Megatron"), "{d}");
    }
}
