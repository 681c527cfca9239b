//! Wire codecs for the workload vocabulary, over the vendored serde's
//! compact token format.
//!
//! These exist so a [`TrainingJob`] can travel over the `maya-wire`
//! framing layer: a remote client describes a job (model, recipe,
//! flavor, batch geometry) and the serving side reconstructs it
//! bit-for-bit. Every codec is a plain tag-plus-fields scheme matching
//! `maya-trace::serdes`: enum variants write a short stable tag token
//! followed by their fields in the order listed. Tags and field order
//! are part of the wire format — changing either breaks protocol
//! compatibility, which the frame-header version accounts for.

use crate::models::{ModelSpec, ResNetConfig, TransformerConfig};
use crate::parallel::ParallelConfig;
use crate::workload::{FrameworkFlavor, TrainingJob};

serde::codec! {
    struct TransformerConfig { layers, hidden, heads, ffn, vocab, seq_len, causal, gated_mlp }

    struct ResNetConfig { blocks, image_size, classes }

    enum ModelSpec: "model spec" {
        "gpt" => Gpt(config),
        "llama" => Llama(config),
        "bert" => Bert(config),
        "vit" => ViT(config),
        "t5" => T5(config),
        "resnet" => ResNet(config),
    }

    struct ParallelConfig {
        tp,
        pp,
        microbatch_multiplier,
        virtual_stages,
        activation_recompute,
        sequence_parallel,
        distributed_optimizer,
    }

    enum FrameworkFlavor: "framework flavor" {
        "megatron" => Megatron,
        "zero" => DeepSpeedZero { stage, activation_offload },
        "fsdp" => Fsdp,
        "ddp" => Ddp,
    }

    struct TrainingJob {
        model,
        parallel,
        flavor,
        compile,
        global_batch,
        world,
        gpus_per_node,
        precision,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_trace::Dtype;
    use serde::{Deserialize, Serialize};

    fn reencodes<T: Serialize + for<'de> Deserialize<'de>>(v: &T) {
        let text = serde::to_string(v);
        let back: T = serde::from_str(&text).expect("decode");
        assert_eq!(serde::to_string(&back), text, "re-encode mismatch");
    }

    #[test]
    fn model_specs_round_trip() {
        for m in [
            ModelSpec::gpt3_125m(),
            ModelSpec::gpt3_145_6b(),
            ModelSpec::llama2_7b(),
            ModelSpec::bert_large(),
            ModelSpec::vit_large(),
            ModelSpec::t5_large(),
            ModelSpec::resnet152(),
        ] {
            let back: ModelSpec = serde::from_str(&serde::to_string(&m)).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn parallel_configs_round_trip() {
        let c = ParallelConfig {
            tp: 4,
            pp: 2,
            microbatch_multiplier: 6,
            virtual_stages: 2,
            activation_recompute: true,
            sequence_parallel: true,
            distributed_optimizer: false,
        };
        let back: ParallelConfig = serde::from_str(&serde::to_string(&c)).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn flavors_round_trip() {
        for f in [
            FrameworkFlavor::Megatron,
            FrameworkFlavor::DeepSpeedZero {
                stage: 3,
                activation_offload: true,
            },
            FrameworkFlavor::Fsdp,
            FrameworkFlavor::Ddp,
        ] {
            let back: FrameworkFlavor = serde::from_str(&serde::to_string(&f)).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn jobs_round_trip() {
        let mut job = TrainingJob::smoke();
        job.precision = Dtype::Fp16;
        job.parallel.tp = 2;
        job.flavor = FrameworkFlavor::DeepSpeedZero {
            stage: 2,
            activation_offload: false,
        };
        let back: TrainingJob = serde::from_str(&serde::to_string(&job)).unwrap();
        // TrainingJob has no PartialEq; compare the canonical encoding.
        assert_eq!(serde::to_string(&back), serde::to_string(&job));
        reencodes(&job);
    }
}
