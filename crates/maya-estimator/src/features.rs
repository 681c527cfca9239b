//! Feature extraction for kernel-runtime regression.
//!
//! Features mirror the paper's Appendix B: operand shapes, dtypes and —
//! for compiler-fused Triton kernels — the primitive instruction count of
//! the kernel body.

use maya_trace::KernelKind;

/// Number of numeric (non-one-hot) features.
pub const NUM_NUMERIC: usize = 14;

/// Total feature-vector length.
pub const NUM_FEATURES: usize = NUM_NUMERIC + KernelKind::NUM_FAMILIES;

fn lg(x: f64) -> f64 {
    x.max(1.0).log2()
}

/// Extracts the fixed-length feature vector for a kernel.
pub fn kernel_features(k: &KernelKind) -> [f64; NUM_FEATURES] {
    let mut f = [0.0; NUM_FEATURES];
    f[0] = lg(k.flops());
    f[1] = lg(k.bytes_accessed());
    f[2] = k.dtype().map(|d| d.id() as f64).unwrap_or(-1.0);
    f[3] = k
        .dtype()
        .map(|d| d.uses_tensor_cores() as u8 as f64)
        .unwrap_or(0.0);
    match *k {
        KernelKind::Gemm { m, n, k: kk, .. } | KernelKind::LtMatmul { m, n, k: kk, .. } => {
            f[4] = lg(m as f64);
            f[5] = lg(n as f64);
            f[6] = lg(kk as f64);
            f[7] = 0.0;
        }
        KernelKind::GemmStridedBatched {
            m, n, k: kk, batch, ..
        } => {
            f[4] = lg(m as f64);
            f[5] = lg(n as f64);
            f[6] = lg(kk as f64);
            f[7] = lg(batch as f64);
        }
        KernelKind::ConvForward {
            n,
            c,
            h,
            k: kk,
            r,
            stride,
            ..
        }
        | KernelKind::ConvBackwardData {
            n,
            c,
            h,
            k: kk,
            r,
            stride,
            ..
        }
        | KernelKind::ConvBackwardFilter {
            n,
            c,
            h,
            k: kk,
            r,
            stride,
            ..
        } => {
            f[4] = lg(n as f64 * h as f64 * h as f64 / (stride * stride).max(1) as f64);
            f[5] = lg(kk as f64);
            f[6] = lg(c as f64 * (r * r) as f64);
            f[7] = r as f64;
        }
        KernelKind::SoftmaxForward { rows, cols, .. }
        | KernelKind::SoftmaxBackward { rows, cols, .. }
        | KernelKind::LayerNormForward { rows, cols }
        | KernelKind::LayerNormBackwardGamma { rows, cols }
        | KernelKind::LayerNormBackwardInput { rows, cols } => {
            f[4] = lg(rows as f64);
            f[5] = lg(cols as f64);
        }
        KernelKind::CrossEntropyForward { tokens, vocab }
        | KernelKind::CrossEntropyBackward { tokens, vocab } => {
            f[4] = lg(tokens as f64);
            f[5] = lg(vocab as f64);
        }
        KernelKind::EmbeddingForward { tokens, hidden }
        | KernelKind::EmbeddingBackward { tokens, hidden } => {
            f[4] = lg(tokens as f64);
            f[5] = lg(hidden as f64);
        }
        _ => {}
    }
    // Generic size + fused-kernel features.
    f[8] = match *k {
        KernelKind::Elementwise { numel, .. }
        | KernelKind::VectorizedElementwise { numel, .. }
        | KernelKind::FusedDropout { numel }
        | KernelKind::Reduce { numel, .. }
        | KernelKind::CatCopy { numel, .. }
        | KernelKind::TriuTril { numel }
        | KernelKind::BatchNorm { numel, .. }
        | KernelKind::Pool { numel, .. }
        | KernelKind::FusedTriton { numel, .. } => lg(numel as f64),
        KernelKind::MultiTensorApply { numel, .. } => lg(numel as f64),
        KernelKind::Memset { bytes } => lg(bytes as f64),
        _ => 0.0,
    };
    f[9] = match *k {
        KernelKind::FusedTriton { num_instrs, .. } => num_instrs as f64,
        KernelKind::Elementwise { arity, .. } => arity as f64,
        KernelKind::MultiTensorApply { ops_per_elem, .. } => ops_per_elem as f64,
        _ => 0.0,
    };
    // Tile/wave-quantization features for GEMM-shaped kernels: edge-tile
    // fill fractions and the CTA count, which drive tensor-core
    // efficiency oscillations that pure log-size features cannot expose.
    if let KernelKind::Gemm { m, n, k: kk, .. }
    | KernelKind::LtMatmul { m, n, k: kk, .. }
    | KernelKind::GemmStridedBatched { m, n, k: kk, .. } = *k
    {
        let batch = match *k {
            KernelKind::GemmStridedBatched { batch, .. } => batch,
            _ => 1,
        };
        let tiles_m = m.div_ceil(128);
        let tiles_n = n.div_ceil(128);
        f[10] = m as f64 / (tiles_m * 128) as f64; // fill_m
        f[11] = n as f64 / (tiles_n * 128) as f64; // fill_n
        f[12] = lg((tiles_m * tiles_n * batch) as f64); // log CTAs
        f[13] = kk as f64 / (kk as f64 + 192.0); // reduction-depth ramp
    }
    f[NUM_NUMERIC + k.family_id() as usize] = 1.0;
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_trace::Dtype;

    #[test]
    fn feature_vector_shape() {
        let k = KernelKind::Gemm {
            m: 128,
            n: 64,
            k: 32,
            dtype: Dtype::Bf16,
        };
        let f = kernel_features(&k);
        assert_eq!(f.len(), NUM_FEATURES);
        assert_eq!(f[4], 7.0); // log2(128)
        assert_eq!(f[5], 6.0);
        assert_eq!(f[6], 5.0);
        assert_eq!(f[NUM_NUMERIC + k.family_id() as usize], 1.0);
        assert_eq!(f.iter().skip(NUM_NUMERIC).sum::<f64>(), 1.0, "one-hot");
    }

    #[test]
    fn fused_kernels_carry_instruction_counts() {
        let k = KernelKind::FusedTriton {
            numel: 1024,
            num_instrs: 17,
            dtype: Dtype::Fp32,
        };
        let f = kernel_features(&k);
        assert_eq!(f[9], 17.0);
        assert_eq!(f[8], 10.0);
    }

    #[test]
    fn distinct_kernels_distinct_features() {
        let a = kernel_features(&KernelKind::Gemm {
            m: 64,
            n: 64,
            k: 64,
            dtype: Dtype::Fp32,
        });
        let b = kernel_features(&KernelKind::Gemm {
            m: 64,
            n: 64,
            k: 128,
            dtype: Dtype::Fp32,
        });
        assert_ne!(a, b);
    }
}
