//! Compute-kernel metadata captured by the emulator.
//!
//! Each variant of [`KernelKind`] corresponds to a family of CUDA kernels
//! observed in real traces; the names returned by [`KernelKind::name`]
//! match the kernel symbol families reported in the paper's Tables 7-9
//! (e.g. `cublasSgemm_v2`, `cuApplyLayerNorm`,
//! `masked_softmax_warp_forward`, `cudnnConvolutionForward`).
//!
//! Variants carry the operand metadata that the runtime predictors need:
//! problem shapes, data types and element counts. Memory-transfer
//! operations (`cudaMemcpyAsync`) are *not* kernels — they are separate
//! [`crate::DeviceOp`] variants, as in the paper ("These cudaMemCpy
//! operations are treated as separate kernels in Maya", §7.2).

use crate::dtype::Dtype;

/// Metadata for a single compute kernel launch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub enum KernelKind {
    /// Dense matrix multiply `C[m,n] += A[m,k] * B[k,n]` (cuBLAS GEMM).
    Gemm {
        /// Rows of the output.
        m: u64,
        /// Columns of the output.
        n: u64,
        /// Inner (reduction) dimension.
        k: u64,
        /// Operand/accumulator dtype.
        dtype: Dtype,
    },
    /// Strided-batched GEMM (attention score/context matmuls).
    GemmStridedBatched {
        /// Rows of each output.
        m: u64,
        /// Columns of each output.
        n: u64,
        /// Inner dimension.
        k: u64,
        /// Number of independent GEMMs in the batch.
        batch: u64,
        /// Operand dtype.
        dtype: Dtype,
    },
    /// cublasLt epilogue-fused matmul (bias/GELU fusion).
    LtMatmul {
        /// Rows of the output.
        m: u64,
        /// Columns of the output.
        n: u64,
        /// Inner dimension.
        k: u64,
        /// Operand dtype.
        dtype: Dtype,
    },
    /// cuDNN convolution forward.
    ConvForward {
        /// Batch size.
        n: u64,
        /// Input channels.
        c: u64,
        /// Input height.
        h: u64,
        /// Input width.
        w: u64,
        /// Output channels.
        k: u64,
        /// Filter height/width (square filters).
        r: u64,
        /// Stride.
        stride: u64,
        /// Operand dtype.
        dtype: Dtype,
    },
    /// cuDNN convolution backward w.r.t. data.
    ConvBackwardData {
        /// Batch size.
        n: u64,
        /// Input channels.
        c: u64,
        /// Input height.
        h: u64,
        /// Input width.
        w: u64,
        /// Output channels.
        k: u64,
        /// Filter size.
        r: u64,
        /// Stride.
        stride: u64,
        /// Operand dtype.
        dtype: Dtype,
    },
    /// cuDNN convolution backward w.r.t. filters.
    ConvBackwardFilter {
        /// Batch size.
        n: u64,
        /// Input channels.
        c: u64,
        /// Input height.
        h: u64,
        /// Input width.
        w: u64,
        /// Output channels.
        k: u64,
        /// Filter size.
        r: u64,
        /// Stride.
        stride: u64,
        /// Operand dtype.
        dtype: Dtype,
    },
    /// Generic pointwise kernel over `numel` elements reading `arity` inputs.
    Elementwise {
        /// Total elements processed.
        numel: u64,
        /// Number of input operands (1 = unary, 2 = binary, ...).
        arity: u8,
        /// Operand dtype.
        dtype: Dtype,
    },
    /// Vectorized pointwise kernel (contiguous fast path).
    VectorizedElementwise {
        /// Total elements processed.
        numel: u64,
        /// Operand dtype.
        dtype: Dtype,
    },
    /// Fused dropout (mask generation + scale).
    FusedDropout {
        /// Total elements processed.
        numel: u64,
    },
    /// (Masked/scaled) softmax forward over `rows` rows of `cols` columns.
    SoftmaxForward {
        /// Number of softmax rows.
        rows: u64,
        /// Row width.
        cols: u64,
        /// Whether an attention mask is applied in the same kernel.
        masked: bool,
    },
    /// Softmax backward.
    SoftmaxBackward {
        /// Number of softmax rows.
        rows: u64,
        /// Row width.
        cols: u64,
        /// Whether an attention mask is applied.
        masked: bool,
    },
    /// LayerNorm forward (`cuApplyLayerNorm`).
    LayerNormForward {
        /// Number of normalized rows.
        rows: u64,
        /// Hidden size.
        cols: u64,
    },
    /// LayerNorm backward, gamma/beta gradient part.
    LayerNormBackwardGamma {
        /// Number of normalized rows.
        rows: u64,
        /// Hidden size.
        cols: u64,
    },
    /// LayerNorm backward, input gradient part (`cuComputeGradInput`).
    LayerNormBackwardInput {
        /// Number of normalized rows.
        rows: u64,
        /// Hidden size.
        cols: u64,
    },
    /// Embedding lookup (`indexSelectLargeIndex`).
    EmbeddingForward {
        /// Number of looked-up tokens.
        tokens: u64,
        /// Embedding width.
        hidden: u64,
    },
    /// Embedding gradient scatter (`compute_grad_weight` + sort pipeline).
    EmbeddingBackward {
        /// Number of scattered tokens.
        tokens: u64,
        /// Embedding width.
        hidden: u64,
    },
    /// Fused cross-entropy forward over the vocabulary projection.
    CrossEntropyForward {
        /// Number of token positions.
        tokens: u64,
        /// Vocabulary size (row width).
        vocab: u64,
    },
    /// Cross-entropy backward.
    CrossEntropyBackward {
        /// Number of token positions.
        tokens: u64,
        /// Vocabulary size.
        vocab: u64,
    },
    /// Optimizer update over flattened parameters (`multi_tensor_apply`).
    MultiTensorApply {
        /// Total parameter elements touched.
        numel: u64,
        /// Number of tensor operands read+written per element (Adam ~ 4).
        ops_per_elem: u8,
    },
    /// Reduction kernel (sum/mean over a tensor).
    Reduce {
        /// Elements reduced.
        numel: u64,
        /// Operand dtype.
        dtype: Dtype,
    },
    /// Concat/copy batch kernel (`CatArrayBatchedCopy`).
    CatCopy {
        /// Elements copied.
        numel: u64,
        /// Whether the 16-byte-aligned contiguous fast path is taken.
        aligned: bool,
    },
    /// Device memset.
    Memset {
        /// Bytes cleared.
        bytes: u64,
    },
    /// Upper/lower-triangular mask materialization (`triu_tril_kernel`).
    TriuTril {
        /// Elements written.
        numel: u64,
    },
    /// BatchNorm forward or backward (vision models).
    BatchNorm {
        /// Total elements (N*C*H*W).
        numel: u64,
        /// Channels.
        channels: u64,
        /// True for forward, false for backward.
        forward: bool,
    },
    /// Max pooling forward or backward.
    Pool {
        /// Total output elements.
        numel: u64,
        /// Pooling window size.
        window: u64,
        /// True for forward, false for backward.
        forward: bool,
    },
    /// Compiler-generated fused kernel (torch.compile / Triton).
    ///
    /// Per the paper's Appendix B, prediction features for these include
    /// the number of primitive instructions in the kernel body, not just
    /// operand shapes.
    FusedTriton {
        /// Elements processed.
        numel: u64,
        /// Primitive Triton-language instruction count in the kernel body.
        num_instrs: u32,
        /// Operand dtype.
        dtype: Dtype,
    },
}

impl KernelKind {
    /// CUDA kernel symbol family this metadata corresponds to.
    ///
    /// Names match the families in the paper's Tables 7-9 so that the
    /// per-kernel MAPE tables can be reproduced verbatim.
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::Gemm { dtype, .. } => {
                if dtype.uses_tensor_cores() {
                    "cublasGemmEx"
                } else {
                    "cublasSgemm_v2"
                }
            }
            KernelKind::GemmStridedBatched { .. } => "cublasSgemmStridedBatched",
            KernelKind::LtMatmul { .. } => "cublasLtMatmul",
            KernelKind::ConvForward { .. } => "cudnnConvolutionForward",
            KernelKind::ConvBackwardData { .. } => "cudnnConvolutionBackwardData",
            KernelKind::ConvBackwardFilter { .. } => "cudnnConvolutionBackwardFilter",
            KernelKind::Elementwise { arity, .. } => {
                if *arity <= 1 {
                    "unrolled_elementwise_kernel"
                } else {
                    "elementwise_kernel"
                }
            }
            KernelKind::VectorizedElementwise { .. } => "vectorized_elementwise_kernel",
            KernelKind::FusedDropout { .. } => "fused_dropout_kernel_vec",
            KernelKind::SoftmaxForward { masked: true, .. } => "masked_softmax_warp_forward",
            KernelKind::SoftmaxForward { masked: false, .. } => "softmax_warp_forward",
            KernelKind::SoftmaxBackward { masked: true, .. } => "masked_softmax_warp_backward",
            KernelKind::SoftmaxBackward { masked: false, .. } => "softmax_warp_backward",
            KernelKind::LayerNormForward { .. } => "cuApplyLayerNorm",
            KernelKind::LayerNormBackwardGamma { .. } => "cuComputeGradGammaBeta",
            KernelKind::LayerNormBackwardInput { .. } => "cuComputeGradInput",
            KernelKind::EmbeddingForward { .. } => "indexSelectLargeIndex",
            KernelKind::EmbeddingBackward { .. } => "compute_grad_weight",
            KernelKind::CrossEntropyForward { .. } => "nll_loss_forward_reduce_cuda_kernel_2d",
            KernelKind::CrossEntropyBackward { .. } => "nll_loss_backward_reduce_cuda_kernel_2d",
            KernelKind::MultiTensorApply { .. } => "multi_tensor_apply_kernel",
            KernelKind::Reduce { .. } => "reduce_kernel",
            KernelKind::CatCopy { aligned: true, .. } => "CatArrayBatchedCopy_aligned16_contig",
            KernelKind::CatCopy { aligned: false, .. } => "CatArrayBatchedCopy",
            KernelKind::Memset { .. } => "Memset",
            KernelKind::TriuTril { .. } => "triu_tril_kernel",
            KernelKind::BatchNorm { .. } => "cudnnBatchNormalizationForwardTraining",
            KernelKind::Pool { .. } => "max_pool_backward_nhwc",
            KernelKind::FusedTriton { .. } => "triton",
        }
    }

    /// Floating-point operations performed by this kernel.
    pub fn flops(&self) -> f64 {
        match *self {
            KernelKind::Gemm { m, n, k, .. } | KernelKind::LtMatmul { m, n, k, .. } => {
                2.0 * m as f64 * n as f64 * k as f64
            }
            KernelKind::GemmStridedBatched { m, n, k, batch, .. } => {
                2.0 * m as f64 * n as f64 * k as f64 * batch as f64
            }
            KernelKind::ConvForward {
                n,
                c,
                h,
                w,
                k,
                r,
                stride,
                ..
            } => {
                let oh = (h / stride.max(1)).max(1) as f64;
                let ow = (w / stride.max(1)).max(1) as f64;
                2.0 * n as f64 * k as f64 * oh * ow * c as f64 * (r * r) as f64
            }
            KernelKind::ConvBackwardData {
                n,
                c,
                h,
                w,
                k,
                r,
                stride,
                ..
            }
            | KernelKind::ConvBackwardFilter {
                n,
                c,
                h,
                w,
                k,
                r,
                stride,
                ..
            } => {
                let oh = (h / stride.max(1)).max(1) as f64;
                let ow = (w / stride.max(1)).max(1) as f64;
                2.0 * n as f64 * k as f64 * oh * ow * c as f64 * (r * r) as f64
            }
            KernelKind::Elementwise { numel, arity, .. } => numel as f64 * arity as f64,
            KernelKind::VectorizedElementwise { numel, .. } => numel as f64,
            KernelKind::FusedDropout { numel } => 2.0 * numel as f64,
            KernelKind::SoftmaxForward { rows, cols, .. } => 5.0 * rows as f64 * cols as f64,
            KernelKind::SoftmaxBackward { rows, cols, .. } => 7.0 * rows as f64 * cols as f64,
            KernelKind::LayerNormForward { rows, cols } => 8.0 * rows as f64 * cols as f64,
            KernelKind::LayerNormBackwardGamma { rows, cols } => 4.0 * rows as f64 * cols as f64,
            KernelKind::LayerNormBackwardInput { rows, cols } => 9.0 * rows as f64 * cols as f64,
            KernelKind::EmbeddingForward { tokens, hidden } => tokens as f64 * hidden as f64,
            KernelKind::EmbeddingBackward { tokens, hidden } => 2.0 * tokens as f64 * hidden as f64,
            KernelKind::CrossEntropyForward { tokens, vocab } => 5.0 * tokens as f64 * vocab as f64,
            KernelKind::CrossEntropyBackward { tokens, vocab } => {
                3.0 * tokens as f64 * vocab as f64
            }
            KernelKind::MultiTensorApply {
                numel,
                ops_per_elem,
            } => numel as f64 * ops_per_elem as f64 * 2.0,
            KernelKind::Reduce { numel, .. } => numel as f64,
            KernelKind::CatCopy { .. } | KernelKind::Memset { .. } => 0.0,
            KernelKind::TriuTril { numel } => numel as f64,
            KernelKind::BatchNorm { numel, .. } => 6.0 * numel as f64,
            KernelKind::Pool { numel, window, .. } => numel as f64 * (window * window) as f64,
            KernelKind::FusedTriton {
                numel, num_instrs, ..
            } => numel as f64 * num_instrs as f64,
        }
    }

    /// Bytes of device memory traffic generated by this kernel (reads+writes).
    pub fn bytes_accessed(&self) -> f64 {
        let e = |d: Dtype| d.size_bytes() as f64;
        match *self {
            KernelKind::Gemm { m, n, k, dtype } | KernelKind::LtMatmul { m, n, k, dtype } => {
                (m * k + k * n + 2 * m * n) as f64 * e(dtype)
            }
            KernelKind::GemmStridedBatched {
                m,
                n,
                k,
                batch,
                dtype,
            } => (m * k + k * n + 2 * m * n) as f64 * batch as f64 * e(dtype),
            KernelKind::ConvForward {
                n,
                c,
                h,
                w,
                k,
                r,
                stride,
                dtype,
            }
            | KernelKind::ConvBackwardData {
                n,
                c,
                h,
                w,
                k,
                r,
                stride,
                dtype,
            }
            | KernelKind::ConvBackwardFilter {
                n,
                c,
                h,
                w,
                k,
                r,
                stride,
                dtype,
            } => {
                let oh = (h / stride.max(1)).max(1);
                let ow = (w / stride.max(1)).max(1);
                let input = n * c * h * w;
                let output = n * k * oh * ow;
                let filt = k * c * r * r;
                (input + output + filt) as f64 * e(dtype)
            }
            KernelKind::Elementwise {
                numel,
                arity,
                dtype,
            } => numel as f64 * (arity as f64 + 1.0) * e(dtype),
            KernelKind::VectorizedElementwise { numel, dtype } => 2.0 * numel as f64 * e(dtype),
            KernelKind::FusedDropout { numel } => 5.0 * numel as f64,
            KernelKind::SoftmaxForward { rows, cols, masked } => {
                let m = if masked { 1.0 } else { 0.0 };
                (2.0 + m) * (rows * cols) as f64 * 2.0
            }
            KernelKind::SoftmaxBackward { rows, cols, .. } => 3.0 * (rows * cols) as f64 * 2.0,
            KernelKind::LayerNormForward { rows, cols } => 2.0 * (rows * cols) as f64 * 2.0,
            KernelKind::LayerNormBackwardGamma { rows, cols } => 2.0 * (rows * cols) as f64 * 2.0,
            KernelKind::LayerNormBackwardInput { rows, cols } => 3.0 * (rows * cols) as f64 * 2.0,
            KernelKind::EmbeddingForward { tokens, hidden } => 2.0 * (tokens * hidden) as f64 * 2.0,
            KernelKind::EmbeddingBackward { tokens, hidden } => {
                3.0 * (tokens * hidden) as f64 * 4.0
            }
            KernelKind::CrossEntropyForward { tokens, vocab }
            | KernelKind::CrossEntropyBackward { tokens, vocab } => {
                2.0 * (tokens * vocab) as f64 * 2.0
            }
            KernelKind::MultiTensorApply {
                numel,
                ops_per_elem,
            } => numel as f64 * ops_per_elem as f64 * 4.0,
            KernelKind::Reduce { numel, dtype } => numel as f64 * e(dtype),
            KernelKind::CatCopy { numel, .. } => 2.0 * numel as f64 * 2.0,
            KernelKind::Memset { bytes } => bytes as f64,
            KernelKind::TriuTril { numel } => numel as f64 * 2.0,
            KernelKind::BatchNorm { numel, .. } => 4.0 * numel as f64 * 2.0,
            KernelKind::Pool { numel, window, .. } => (numel * (window * window + 1)) as f64 * 2.0,
            KernelKind::FusedTriton { numel, dtype, .. } => 3.0 * numel as f64 * e(dtype),
        }
    }

    /// Operand dtype, when the kernel family tracks one.
    pub fn dtype(&self) -> Option<Dtype> {
        match *self {
            KernelKind::Gemm { dtype, .. }
            | KernelKind::GemmStridedBatched { dtype, .. }
            | KernelKind::LtMatmul { dtype, .. }
            | KernelKind::ConvForward { dtype, .. }
            | KernelKind::ConvBackwardData { dtype, .. }
            | KernelKind::ConvBackwardFilter { dtype, .. }
            | KernelKind::Elementwise { dtype, .. }
            | KernelKind::VectorizedElementwise { dtype, .. }
            | KernelKind::Reduce { dtype, .. }
            | KernelKind::FusedTriton { dtype, .. } => Some(dtype),
            _ => None,
        }
    }

    /// Stable small id for the kernel *family* (used for model
    /// features).
    pub fn family_id(&self) -> u8 {
        match self {
            KernelKind::Gemm { .. } => 0,
            KernelKind::GemmStridedBatched { .. } => 1,
            KernelKind::LtMatmul { .. } => 2,
            KernelKind::ConvForward { .. } => 3,
            KernelKind::ConvBackwardData { .. } => 4,
            KernelKind::ConvBackwardFilter { .. } => 5,
            KernelKind::Elementwise { .. } => 6,
            KernelKind::VectorizedElementwise { .. } => 7,
            KernelKind::FusedDropout { .. } => 8,
            KernelKind::SoftmaxForward { .. } => 9,
            KernelKind::SoftmaxBackward { .. } => 10,
            KernelKind::LayerNormForward { .. } => 11,
            KernelKind::LayerNormBackwardGamma { .. } => 12,
            KernelKind::LayerNormBackwardInput { .. } => 13,
            KernelKind::EmbeddingForward { .. } => 14,
            KernelKind::EmbeddingBackward { .. } => 15,
            KernelKind::CrossEntropyForward { .. } => 16,
            KernelKind::CrossEntropyBackward { .. } => 17,
            KernelKind::MultiTensorApply { .. } => 18,
            KernelKind::Reduce { .. } => 19,
            KernelKind::CatCopy { .. } => 20,
            KernelKind::Memset { .. } => 21,
            KernelKind::TriuTril { .. } => 22,
            KernelKind::BatchNorm { .. } => 23,
            KernelKind::Pool { .. } => 24,
            KernelKind::FusedTriton { .. } => 25,
        }
    }

    /// Number of distinct kernel families (for one-hot feature vectors).
    pub const NUM_FAMILIES: usize = 26;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_flops_and_bytes() {
        let k = KernelKind::Gemm {
            m: 128,
            n: 256,
            k: 64,
            dtype: Dtype::Bf16,
        };
        assert_eq!(k.flops(), 2.0 * 128.0 * 256.0 * 64.0);
        assert!(k.bytes_accessed() > 0.0);
        assert_eq!(k.name(), "cublasGemmEx");
        let k32 = KernelKind::Gemm {
            m: 128,
            n: 256,
            k: 64,
            dtype: Dtype::Fp32,
        };
        assert_eq!(k32.name(), "cublasSgemm_v2");
    }

    #[test]
    fn batched_gemm_scales_with_batch() {
        let single = KernelKind::GemmStridedBatched {
            m: 64,
            n: 64,
            k: 64,
            batch: 1,
            dtype: Dtype::Fp16,
        };
        let many = KernelKind::GemmStridedBatched {
            m: 64,
            n: 64,
            k: 64,
            batch: 8,
            dtype: Dtype::Fp16,
        };
        assert_eq!(many.flops(), 8.0 * single.flops());
    }

    #[test]
    fn conv_flops_positive() {
        let k = KernelKind::ConvForward {
            n: 32,
            c: 64,
            h: 56,
            w: 56,
            k: 128,
            r: 3,
            stride: 1,
            dtype: Dtype::Fp32,
        };
        assert!(k.flops() > 1e9);
        assert_eq!(k.name(), "cudnnConvolutionForward");
    }

    #[test]
    fn names_match_paper_tables() {
        assert_eq!(
            KernelKind::SoftmaxForward {
                rows: 1,
                cols: 1,
                masked: true
            }
            .name(),
            "masked_softmax_warp_forward"
        );
        assert_eq!(
            KernelKind::LayerNormForward { rows: 1, cols: 1 }.name(),
            "cuApplyLayerNorm"
        );
        assert_eq!(
            KernelKind::MultiTensorApply {
                numel: 1,
                ops_per_elem: 4
            }
            .name(),
            "multi_tensor_apply_kernel"
        );
        assert_eq!(
            KernelKind::CatCopy {
                numel: 1,
                aligned: true
            }
            .name(),
            "CatArrayBatchedCopy_aligned16_contig"
        );
        assert_eq!(
            KernelKind::FusedTriton {
                numel: 1,
                num_instrs: 4,
                dtype: Dtype::Fp32
            }
            .name(),
            "triton"
        );
    }

    #[test]
    fn family_ids_are_unique_and_bounded() {
        let kinds = sample_kinds();
        let mut ids: Vec<u8> = kinds.iter().map(|k| k.family_id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), kinds.len());
        assert!(ids.iter().all(|&i| (i as usize) < KernelKind::NUM_FAMILIES));
    }

    #[test]
    fn all_kinds_have_nonnegative_costs() {
        for k in sample_kinds() {
            assert!(k.flops() >= 0.0, "{:?}", k);
            assert!(k.bytes_accessed() >= 0.0, "{:?}", k);
            assert!(!k.name().is_empty());
        }
    }

    /// One representative of every kernel family.
    fn sample_kinds() -> Vec<KernelKind> {
        let d = Dtype::Bf16;
        vec![
            KernelKind::Gemm {
                m: 4,
                n: 4,
                k: 4,
                dtype: d,
            },
            KernelKind::GemmStridedBatched {
                m: 4,
                n: 4,
                k: 4,
                batch: 2,
                dtype: d,
            },
            KernelKind::LtMatmul {
                m: 4,
                n: 4,
                k: 4,
                dtype: d,
            },
            KernelKind::ConvForward {
                n: 1,
                c: 3,
                h: 8,
                w: 8,
                k: 4,
                r: 3,
                stride: 1,
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
                numel: 16,
                arity: 2,
                dtype: d,
            },
            KernelKind::VectorizedElementwise {
                numel: 16,
                dtype: d,
            },
            KernelKind::FusedDropout { numel: 16 },
            KernelKind::SoftmaxForward {
                rows: 4,
                cols: 4,
                masked: true,
            },
            KernelKind::SoftmaxBackward {
                rows: 4,
                cols: 4,
                masked: true,
            },
            KernelKind::LayerNormForward { rows: 4, cols: 4 },
            KernelKind::LayerNormBackwardGamma { rows: 4, cols: 4 },
            KernelKind::LayerNormBackwardInput { rows: 4, cols: 4 },
            KernelKind::EmbeddingForward {
                tokens: 4,
                hidden: 4,
            },
            KernelKind::EmbeddingBackward {
                tokens: 4,
                hidden: 4,
            },
            KernelKind::CrossEntropyForward {
                tokens: 4,
                vocab: 16,
            },
            KernelKind::CrossEntropyBackward {
                tokens: 4,
                vocab: 16,
            },
            KernelKind::MultiTensorApply {
                numel: 16,
                ops_per_elem: 4,
            },
            KernelKind::Reduce {
                numel: 16,
                dtype: d,
            },
            KernelKind::CatCopy {
                numel: 16,
                aligned: false,
            },
            KernelKind::Memset { bytes: 64 },
            KernelKind::TriuTril { numel: 16 },
            KernelKind::BatchNorm {
                numel: 16,
                channels: 4,
                forward: true,
            },
            KernelKind::Pool {
                numel: 16,
                window: 2,
                forward: false,
            },
            KernelKind::FusedTriton {
                numel: 16,
                num_instrs: 3,
                dtype: d,
            },
        ]
    }
}
