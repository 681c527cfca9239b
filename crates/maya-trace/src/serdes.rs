//! [`serde`] codecs for the trace vocabulary, over the vendored serde's
//! compact token format.
//!
//! These power the persistence features downstream — most importantly
//! the estimator memo snapshots in `maya-estimator`, which serialize
//! `(KernelKind, SimTime)`-style pairs so a service process can
//! warm-start the next one. The no-op `#[derive(serde::Serialize)]`
//! annotations on the types themselves are registry-serde compatibility
//! markers; the real token-level codecs are declared here (see
//! `vendor/README.md` for why).
//!
//! Every codec is a plain tag-plus-fields scheme: enum variants write a
//! short stable tag token followed by their fields in the order listed.
//! Tags and field order are part of the on-disk format — changing
//! either invalidates existing snapshots, which the snapshot header
//! version accounts for.

use crate::dtype::Dtype;
use crate::kernel::KernelKind;
use crate::ops::{CollectiveKind, MemcpyKind};
use crate::time::SimTime;

serde::codec! {
    struct SimTime { 0 }

    enum Dtype: "dtype" {
        "fp32" => Fp32,
        "fp16" => Fp16,
        "bf16" => Bf16,
        "tf32" => Tf32,
        "int64" => Int64,
        "int32" => Int32,
        "int8" => Int8,
    }

    enum MemcpyKind: "memcpy kind" {
        "MemcpyHtoD" => HostToDevice,
        "MemcpyDtoH" => DeviceToHost,
        "MemcpyDtoD" => DeviceToDevice,
        "MemcpyHtoH" => HostToHost,
    }

    enum CollectiveKind: "collective kind" {
        "all_reduce" => AllReduce,
        "all_gather" => AllGather,
        "reduce_scatter" => ReduceScatter,
        "broadcast" => Broadcast,
        "reduce" => Reduce,
        "send" => Send { peer },
        "recv" => Recv { peer },
        "all_to_all" => AllToAll,
    }

    enum KernelKind: "kernel kind" {
        "gemm" => Gemm { m, n, k, dtype },
        "gemm_sb" => GemmStridedBatched { m, n, k, batch, dtype },
        "lt_matmul" => LtMatmul { m, n, k, dtype },
        "conv_fwd" => ConvForward { n, c, h, w, k, r, stride, dtype },
        "conv_bwd_data" => ConvBackwardData { n, c, h, w, k, r, stride, dtype },
        "conv_bwd_filt" => ConvBackwardFilter { n, c, h, w, k, r, stride, dtype },
        "elementwise" => Elementwise { numel, arity, dtype },
        "vec_elementwise" => VectorizedElementwise { numel, dtype },
        "fused_dropout" => FusedDropout { numel },
        "softmax_fwd" => SoftmaxForward { rows, cols, masked },
        "softmax_bwd" => SoftmaxBackward { rows, cols, masked },
        "ln_fwd" => LayerNormForward { rows, cols },
        "ln_bwd_gamma" => LayerNormBackwardGamma { rows, cols },
        "ln_bwd_input" => LayerNormBackwardInput { rows, cols },
        "emb_fwd" => EmbeddingForward { tokens, hidden },
        "emb_bwd" => EmbeddingBackward { tokens, hidden },
        "ce_fwd" => CrossEntropyForward { tokens, vocab },
        "ce_bwd" => CrossEntropyBackward { tokens, vocab },
        "multi_tensor" => MultiTensorApply { numel, ops_per_elem },
        "reduce" => Reduce { numel, dtype },
        "cat_copy" => CatCopy { numel, aligned },
        "memset" => Memset { bytes },
        "triu_tril" => TriuTril { numel },
        "batchnorm" => BatchNorm { numel, channels, forward },
        "pool" => Pool { numel, window, forward },
        "fused_triton" => FusedTriton { numel, num_instrs, dtype },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    fn round_trip<T>(v: T) -> T
    where
        T: Serialize + for<'de> Deserialize<'de>,
    {
        serde::from_str(&serde::to_string(&v)).expect("round trip")
    }

    #[test]
    fn sim_time_round_trips() {
        for t in [SimTime::ZERO, SimTime::from_ns(1), SimTime::MAX] {
            assert_eq!(round_trip(t), t);
        }
    }

    #[test]
    fn dtype_round_trips() {
        for d in [
            Dtype::Fp32,
            Dtype::Fp16,
            Dtype::Bf16,
            Dtype::Tf32,
            Dtype::Int64,
            Dtype::Int32,
            Dtype::Int8,
        ] {
            assert_eq!(round_trip(d), d);
        }
    }

    #[test]
    fn memcpy_kind_round_trips() {
        for k in [
            MemcpyKind::HostToDevice,
            MemcpyKind::DeviceToHost,
            MemcpyKind::DeviceToDevice,
            MemcpyKind::HostToHost,
        ] {
            assert_eq!(round_trip(k), k);
        }
    }

    #[test]
    fn collective_kind_round_trips() {
        for k in [
            CollectiveKind::AllReduce,
            CollectiveKind::AllGather,
            CollectiveKind::ReduceScatter,
            CollectiveKind::Broadcast,
            CollectiveKind::Reduce,
            CollectiveKind::Send { peer: 3 },
            CollectiveKind::Recv { peer: 7 },
            CollectiveKind::AllToAll,
        ] {
            assert_eq!(round_trip(k), k);
        }
    }

    #[test]
    fn every_kernel_family_round_trips() {
        let d = Dtype::Bf16;
        let kinds = [
            KernelKind::Gemm {
                m: 1024,
                n: 512,
                k: 2048,
                dtype: d,
            },
            KernelKind::GemmStridedBatched {
                m: 64,
                n: 64,
                k: 64,
                batch: 12,
                dtype: d,
            },
            KernelKind::LtMatmul {
                m: 8,
                n: 8,
                k: 8,
                dtype: d,
            },
            KernelKind::ConvForward {
                n: 32,
                c: 64,
                h: 56,
                w: 56,
                k: 128,
                r: 3,
                stride: 2,
                dtype: d,
            },
            KernelKind::ConvBackwardData {
                n: 1,
                c: 3,
                h: 8,
                w: 8,
                k: 4,
                r: 3,
                stride: 1,
                dtype: d,
            },
            KernelKind::ConvBackwardFilter {
                n: 1,
                c: 3,
                h: 8,
                w: 8,
                k: 4,
                r: 3,
                stride: 1,
                dtype: d,
            },
            KernelKind::Elementwise {
                numel: 1 << 20,
                arity: 2,
                dtype: d,
            },
            KernelKind::VectorizedElementwise {
                numel: 77,
                dtype: d,
            },
            KernelKind::FusedDropout { numel: 5 },
            KernelKind::SoftmaxForward {
                rows: 9,
                cols: 4,
                masked: true,
            },
            KernelKind::SoftmaxBackward {
                rows: 9,
                cols: 4,
                masked: false,
            },
            KernelKind::LayerNormForward { rows: 2, cols: 3 },
            KernelKind::LayerNormBackwardGamma { rows: 2, cols: 3 },
            KernelKind::LayerNormBackwardInput { rows: 2, cols: 3 },
            KernelKind::EmbeddingForward {
                tokens: 10,
                hidden: 20,
            },
            KernelKind::EmbeddingBackward {
                tokens: 10,
                hidden: 20,
            },
            KernelKind::CrossEntropyForward {
                tokens: 4,
                vocab: 50000,
            },
            KernelKind::CrossEntropyBackward {
                tokens: 4,
                vocab: 50000,
            },
            KernelKind::MultiTensorApply {
                numel: 100,
                ops_per_elem: 4,
            },
            KernelKind::Reduce {
                numel: 33,
                dtype: d,
            },
            KernelKind::CatCopy {
                numel: 44,
                aligned: true,
            },
            KernelKind::Memset { bytes: 4096 },
            KernelKind::TriuTril { numel: 55 },
            KernelKind::BatchNorm {
                numel: 66,
                channels: 11,
                forward: false,
            },
            KernelKind::Pool {
                numel: 88,
                window: 2,
                forward: true,
            },
            KernelKind::FusedTriton {
                numel: 99,
                num_instrs: 17,
                dtype: d,
            },
        ];
        for k in kinds {
            assert_eq!(round_trip(k), k, "{k:?}");
        }
    }
}
